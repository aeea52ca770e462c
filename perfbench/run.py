#!/usr/bin/env python3
"""Builds xmlrdb in Release from perfbench/ and runs one benchmark workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <query_matrix|load_publish|serve_mixed> \
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-test

The engine is compiled from ../src by perfbench/CMakeLists.txt into
.bench_build/ (the repository's own build files are not used); the first run
builds, later runs only check that the build is current. Build output goes
to standard error. The benchmark binary writes durable stores and traces
under .bench_out/ and prints its result as the last line of standard output;
this script passes that line through and exits with the binary's code.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "xmlrdb_perfbench")
# One run must end within 180 s; the binary itself stops well before this.
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no xmlrdb sources under %s\n" %
                         os.path.join(ROOT, "src"))
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "xmlrdb_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" %
                             " ".join(cmd))
            return False
    return True


def stop(proc):
    """Kills the benchmark's process group and drops its durable stores."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    shutil.rmtree(os.path.join(OUT_DIR, "stores_%d" % proc.pid),
                  ignore_errors=True)


def main():
    if not build():
        return 2
    cmd = [BINARY] + sys.argv[1:] + ["--out-dir", OUT_DIR]
    if "--self-test" in sys.argv[1:]:
        cmd = [BINARY, "--self-test"]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s; stopped\n" %
                         RUN_TIMEOUT_S)
        stop(proc)
        return 1
    except KeyboardInterrupt:
        stop(proc)
        return 130


if __name__ == "__main__":
    sys.exit(main())
