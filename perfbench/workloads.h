// The benchmark's workloads. Each builds its inputs from options.seed, runs
// whole rounds of operations until options.seconds have passed, checks every
// answer against an oracle computed apart from the relational engine, and
// adds to `report` either its end-to-end metrics (setup_s first) or, when
// options.trace is set, its per-layer metrics.

#ifndef XMLRDB_PERFBENCH_WORKLOADS_H_
#define XMLRDB_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace xmlrdb::perfbench {

/// Embedded, one thread: Q1–Q12 × six mappings over one stored auction
/// document, in a seeded order per sweep.
void RunQueryMatrix(const Options& options, Report* report);

/// Embedded, one thread: a corpus of serialized auction documents parsed,
/// stored, published, edited and removed through every mapping on durable
/// databases.
void RunLoadPublish(const Options& options, Report* report);

/// Wire, closed loop: an in-process server in front of a durable two-shard
/// router, mostly single-document reads, some corpus-wide reads, and one
/// operation in ten a store plus remove of a churn document.
void RunServeMixed(const Options& options, Report* report);

}  // namespace xmlrdb::perfbench

#endif  // XMLRDB_PERFBENCH_WORKLOADS_H_
