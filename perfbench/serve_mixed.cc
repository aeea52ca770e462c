// serve_mixed: XPath over the wire against a durable, sharded store while a
// writer churns documents.
//
// An in-process net::Server (protocol v2, metrics registry on, as
// xmlrdb_server runs with its admin plane) fronts a durable two-shard
// ShardRouter over the interval mapping. The shards open with the router's
// default WAL policy, kCommit: every store and remove fsyncs at its commit.
// kClients closed-loop client threads, each on its own connection, run
// whole rounds of 20 operations in a seeded order: single-document
// reads (Q1–Q11 on a seeded static document), corpus-wide reads (docid 0:
// every document, merged in docid order), and writes (store a churn document
// through the router, then remove it).
//
// Checks: every single-document answer equals its DOM oracle in order; every
// corpus-wide answer lists the static documents with exactly their oracle
// answers, in ascending docid order, and any churn document it shows in
// full (stores are atomic).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/metrics.h"
#include "common/resource_tracker.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "net/client.h"
#include "net/server.h"
#include "rdb/env.h"
#include "shard/shard_router.h"
#include "shred/registry.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "workloads.h"

namespace xmlrdb::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kStaticDocs = 16;
constexpr double kStaticScale = 0.05;
constexpr int kChurnVariants = 4;
constexpr double kChurnScale = 0.01;
/// Load threads plus server workers stay within four cores.
constexpr int kClients = 2;
constexpr size_t kServerWorkers = 2;
constexpr size_t kFanoutThreads = 2;
/// One round: 17 single-document reads, 1 corpus-wide read, 2 writes.
constexpr int kDocReads = 17;
constexpr int kCorpusReads = 1;
constexpr int kWrites = 2;
/// Q1–Q11: the string-valued queries (Q12 selects whole subtrees).
constexpr size_t kQueries = 11;
constexpr char kMapping[] = "interval";

enum class Op { kDocRead, kCorpusRead, kWrite };

/// What one client thread measured and found.
struct ClientResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> doc_us, corpus_us, write_us;
  /// Per query: single-document and corpus-wide read latencies.
  std::vector<double> doc_by_query[kQueries], corpus_by_query[kQueries];
  std::vector<double> round_us;  ///< summed operation time of each round
  std::vector<double> queue_us, exec_us, wire_us;  ///< traced doc reads
  int64_t version_bytes_peak = 0;

  void Fail(const std::string& what, bool op_failed) {
    if (op_failed) ++failed;
    errors.push_back(what);
  }
};

/// Churn documents stored so far: docid -> variant. Entries stay after the
/// remove, since docids are never reused.
class ChurnRegistry {
 public:
  void Add(int64_t doc, int variant) {
    std::lock_guard<std::mutex> lock(mu_);
    variant_of_[doc] = variant;
  }
  /// The variant of `doc`, waiting briefly for the writer that stored it to
  /// register it; -1 when it never does.
  int Find(int64_t doc) const {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = variant_of_.find(doc);
        if (it != variant_of_.end()) return it->second;
      }
      if (Clock::now() > give_up) return -1;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

 private:
  mutable std::mutex mu_;
  std::map<int64_t, int> variant_of_;
};

int64_t Registered(const char* name) {
  return MetricsRegistry::Global().Get(name);
}

}  // namespace

void RunServeMixed(const Options& options, Report* report) {
  const std::vector<workload::BenchQuery> queries = workload::AuctionQueries();
  std::vector<xpath::PathExpr> paths;
  for (size_t q = 0; q < kQueries; ++q) {
    auto path = xpath::ParseXPath(queries[q].xpath);
    if (!path.ok()) {
      report->Fail("serve_mixed parse: " + path.status().ToString());
      return;
    }
    paths.push_back(std::move(path).value());
  }
  auto make_docs = [&](int count, double scale, uint64_t salt,
                       std::vector<std::unique_ptr<xml::Document>>* docs,
                       std::vector<std::vector<std::vector<std::string>>>*
                           oracle) -> Status {
    for (int i = 0; i < count; ++i) {
      workload::XMarkConfig cfg;
      cfg.scale = scale;
      cfg.seed = options.seed * 104729 + salt + static_cast<uint64_t>(i);
      docs->push_back(workload::GenerateXMark(cfg));
      oracle->emplace_back();
      for (const xpath::PathExpr& path : paths) {
        ASSIGN_OR_RETURN(std::vector<std::string> want,
                         OracleStrings(path, *docs->back()));
        oracle->back().push_back(std::move(want));
      }
    }
    return Status::OK();
  };
  std::vector<std::unique_ptr<xml::Document>> static_docs, churn_docs;
  std::vector<std::vector<std::vector<std::string>>> static_oracle,
      churn_oracle;
  Status st =
      make_docs(kStaticDocs, kStaticScale, 0, &static_docs, &static_oracle);
  if (st.ok()) {
    st = make_docs(kChurnVariants, kChurnScale, 1000, &churn_docs,
                   &churn_oracle);
  }
  if (!st.ok()) {
    report->Fail("serve_mixed oracle: " + st.ToString());
    return;
  }

  MetricsRegistry::Global().set_enabled(true);
  ThreadPool fanout_pool(kFanoutThreads);
  shard::ShardRouterOptions router_options;
  router_options.shards = 2;
  router_options.pool = &fanout_pool;
  router_options.env = rdb::Env::Default();
  router_options.dir_prefix = FreshStoreDir(options, "serve_mixed");
  router_options.start_version_gc = true;
  auto created = shard::ShardRouter::Create(
      [] { return shred::CreateMapping(kMapping); }, router_options);
  if (!created.ok()) {
    report->Fail("serve_mixed router: " + created.status().ToString());
    MetricsRegistry::Global().set_enabled(false);
    return;
  }
  std::unique_ptr<shard::ShardRouter> router = std::move(created).value();
  std::vector<int64_t> static_ids;
  std::map<int64_t, size_t> static_index;
  for (size_t i = 0; i < static_docs.size(); ++i) {
    auto id = router->Store(*static_docs[i]);
    if (!id.ok()) {
      report->Fail("serve_mixed store: " + id.status().ToString());
      MetricsRegistry::Global().set_enabled(false);
      return;
    }
    static_ids.push_back(id.value());
    static_index[id.value()] = i;
  }

  rdb::Database front_db;
  net::ServerConfig config;
  config.workers = kServerWorkers;
  net::Server server(&front_db, config);
  server.set_xpath_handler(
      [&router](int64_t doc, const std::string& mapping,
                const std::string& xpath) -> Result<std::vector<std::string>> {
        if (mapping != kMapping) {
          return Status::InvalidArgument("unknown mapping '" + mapping + "'");
        }
        ASSIGN_OR_RETURN(xpath::PathExpr path, xpath::ParseXPath(xpath));
        if (doc > 0) return router->EvalPathStrings(path, doc);
        ASSIGN_OR_RETURN(std::vector<shard::DocStrings> per_doc,
                         router->EvalPathStringsAll(path));
        return EncodeCorpus(per_doc);
      });
  st = server.Start();
  if (!st.ok()) {
    report->Fail("serve_mixed server: " + st.ToString());
    MetricsRegistry::Global().set_enabled(false);
    return;
  }

  ChurnRegistry churn;
  std::vector<std::map<int64_t, const std::vector<std::string>*>> corpus_want(
      kQueries);
  for (size_t q = 0; q < kQueries; ++q) {
    for (const auto& [id, i] : static_index) {
      corpus_want[q][id] = &static_oracle[i][q];
    }
  }
  auto check_corpus = [&](size_t q, const std::vector<std::string>& flat) {
    return CheckCorpus(flat, corpus_want[q],
                       [&](int64_t doc) -> const std::vector<std::string>* {
                         const int v = churn.Find(doc);
                         return v < 0 ? nullptr : &churn_oracle[v][q];
                       });
  };

  // One client: connects, then runs whole rounds until `stop` (or, with
  // warm_up, one pass of every query on every static document and one
  // corpus-wide read of each).
  ResourceGauge& version_bytes =
      ResourceTracker::Global().GetGauge("mvcc.version_bytes");
  std::atomic<bool> stop{false};
  auto client_main = [&](int index, bool warm_up, bool traced,
                         ClientResult* out) {
    net::Client client;
    Status cst = client.Connect("127.0.0.1", server.port());
    if (cst.ok()) cst = client.Hello();
    if (!cst.ok()) {
      out->Fail("connect: " + cst.ToString(), true);
      return;
    }
    client.set_tracing(traced);
    // Each returns the operation's latency in microseconds, or -1 when it
    // failed.
    auto doc_read = [&](size_t doc_index, size_t q) -> double {
      ++out->attempted;
      ScopedSpan span("perfbench.net.doc_read", "perfbench");
      const Clock::time_point t0 = Clock::now();
      auto got = client.XPath(static_ids[doc_index], kMapping,
                              queries[q].xpath);
      const double us = MicrosBetween(t0, Clock::now());
      if (!got.ok()) {
        out->Fail("doc read " + queries[q].id + ": " + got.status().ToString(),
                  true);
        return -1;
      }
      std::string diff = CompareStrings(got.value(),
                                        static_oracle[doc_index][q], true);
      if (!diff.empty()) {
        out->Fail("doc read " + queries[q].id + ": " + diff, false);
      }
      out->doc_us.push_back(us);
      out->doc_by_query[q].push_back(us);
      if (traced && client.last_server_timing().valid) {
        const net::ServerTiming& timing = client.last_server_timing();
        out->queue_us.push_back(timing.queue_us);
        out->exec_us.push_back(timing.exec_us);
        out->wire_us.push_back(us - timing.queue_us - timing.exec_us);
      }
      return us;
    };
    auto corpus_read = [&](size_t q) -> double {
      ++out->attempted;
      ScopedSpan span("perfbench.net.corpus_read", "perfbench");
      const Clock::time_point t0 = Clock::now();
      auto got = client.XPath(0, kMapping, queries[q].xpath);
      const double us = MicrosBetween(t0, Clock::now());
      if (!got.ok()) {
        out->Fail("corpus read " + queries[q].id + ": " +
                      got.status().ToString(),
                  true);
        return -1;
      }
      std::string diff = check_corpus(q, got.value());
      if (!diff.empty()) {
        out->Fail("corpus read " + queries[q].id + ": " + diff, false);
      }
      out->corpus_us.push_back(us);
      out->corpus_by_query[q].push_back(us);
      return us;
    };
    auto write = [&](int variant) -> double {
      ++out->attempted;
      ScopedSpan span("perfbench.shard.write", "perfbench");
      const Clock::time_point t0 = Clock::now();
      auto id = router->Store(*churn_docs[variant]);
      if (!id.ok()) {
        out->Fail("churn store: " + id.status().ToString(), true);
        return -1;
      }
      churn.Add(id.value(), variant);
      Status rst = router->Remove(id.value());
      const double us = MicrosBetween(t0, Clock::now());
      if (!rst.ok()) {
        out->Fail("churn remove: " + rst.ToString(), true);
        return -1;
      }
      out->write_us.push_back(us);
      return us;
    };

    if (warm_up) {
      for (size_t d = 0; d < static_ids.size(); ++d) {
        for (size_t q = 0; q < kQueries; ++q) doc_read(d, q);
      }
      for (size_t q = 0; q < kQueries; ++q) corpus_read(q);
      return;
    }
    std::vector<Op> ops;
    ops.insert(ops.end(), kDocReads, Op::kDocRead);
    ops.insert(ops.end(), kCorpusReads, Op::kCorpusRead);
    ops.insert(ops.end(), kWrites, Op::kWrite);
    const uint64_t stream = options.seed * 1000003 + 7919 * index;
    Rng rng(stream);
    for (uint64_t round = 0; round == 0 || !stop.load(); ++round) {
      double sum_us = 0;
      for (size_t i : Shuffled(ops.size(), stream + round)) {
        double us = -1;
        switch (ops[i]) {
          case Op::kDocRead:
            us = doc_read(
                static_cast<size_t>(rng.Uniform(
                    0, static_cast<int64_t>(static_ids.size()) - 1)),
                static_cast<size_t>(rng.Uniform(0, kQueries - 1)));
            break;
          case Op::kCorpusRead:
            us = corpus_read(static_cast<size_t>(rng.Uniform(0, kQueries - 1)));
            break;
          case Op::kWrite:
            us = write(static_cast<int>(rng.Uniform(0, kChurnVariants - 1)));
            break;
        }
        sum_us += std::max(us, 0.0);
        out->version_bytes_peak =
            std::max(out->version_bytes_peak, version_bytes.value());
      }
      out->round_us.push_back(sum_us);
    }
    client.Close();
  };

  // One closed-loop phase of kClients clients; returns its wall time.
  auto run_phase = [&](double seconds, bool traced,
                       std::vector<ClientResult>* results) {
    results->assign(kClients, ClientResult());
    stop.store(false);
    TraceCollector::Global().set_enabled(traced);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back(client_main, i, false, traced, &(*results)[i]);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread& t : clients) t.join();
    TraceCollector::Global().set_enabled(false);
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // Folds the clients' results into one and their counts into the report.
  auto merge = [&](const std::vector<ClientResult>& results) {
    ClientResult all;
    for (const ClientResult& r : results) {
      report->attempted += r.attempted;
      report->failed += r.failed;
      for (const std::string& e : r.errors) report->Fail("serve_mixed " + e);
      auto append = [](const std::vector<double>& from,
                       std::vector<double>* to) {
        to->insert(to->end(), from.begin(), from.end());
      };
      append(r.doc_us, &all.doc_us);
      append(r.corpus_us, &all.corpus_us);
      append(r.write_us, &all.write_us);
      append(r.round_us, &all.round_us);
      append(r.queue_us, &all.queue_us);
      append(r.exec_us, &all.exec_us);
      append(r.wire_us, &all.wire_us);
      for (size_t q = 0; q < kQueries; ++q) {
        append(r.doc_by_query[q], &all.doc_by_query[q]);
        append(r.corpus_by_query[q], &all.corpus_by_query[q]);
      }
      all.version_bytes_peak =
          std::max(all.version_bytes_peak, r.version_bytes_peak);
    }
    return all;
  };

  std::vector<ClientResult> warm_up(1);
  client_main(0, /*warm_up=*/true, /*traced=*/false, &warm_up[0]);
  merge(warm_up);
  if (!options.trace) report->Add("setup_s", SecondsSinceStart(), "s");

  // Untraced phase: the whole run, or the first half of a traced run.
  std::vector<ClientResult> results;
  const double elapsed_s =
      run_phase(options.trace ? options.seconds / 2 : options.seconds, false,
                &results);
  const ClientResult all = merge(results);
  std::fprintf(stderr,
               "serve_mixed: %zu static documents, %zu doc reads, %zu corpus "
               "reads, %zu writes in %.1f s untraced\n",
               static_docs.size(), all.doc_us.size(), all.corpus_us.size(),
               all.write_us.size(), elapsed_s);
  if (!options.trace) {
    // Kinds a very short run never drew are left out rather than read as 0.
    std::vector<double> read_medians;
    for (size_t q = 0; q < kQueries; ++q) {
      for (const std::vector<double>* samples :
           {&all.doc_by_query[q], &all.corpus_by_query[q]}) {
        if (!samples->empty()) read_medians.push_back(Median(*samples));
      }
    }
    report->Add("round_ms", Median(all.round_us) / 1000.0, "ms");
    report->Add("read_us", GeoMean(read_medians), "us");
  }
  report->Figure("xpath_rps",
                 static_cast<double>(all.doc_us.size() + all.corpus_us.size()) /
                     elapsed_s,
                 "req/s");
  report->Figure("doc_xpath_p50_us", Median(all.doc_us), "us");
  report->Figure("doc_xpath_p99_us", Percentile(all.doc_us, 99), "us");
  report->Figure("corpus_xpath_p50_us", Median(all.corpus_us), "us");
  report->Figure("write_p50_us", Median(all.write_us), "us");

  if (options.trace) {
    // Traced phase: server timing from protocol-v2 responses, WAL fsyncs
    // and the MVCC version-bytes peak under the committing writer.
    const int64_t fsyncs_before = Registered("wal.fsyncs");
    run_phase(options.seconds / 2, true, &results);
    const int64_t fsyncs = Registered("wal.fsyncs") - fsyncs_before;
    const ClientResult traced = merge(results);
    report->Add("net.queue_us_p50", Median(traced.queue_us), "us");
    report->Add("net.exec_us_p50", Median(traced.exec_us), "us");
    report->Add("net.wire_us_p50", Median(traced.wire_us), "us");
    report->Add("rdb.wal_fsyncs_per_write",
                traced.write_us.empty()
                    ? 0
                    : static_cast<double>(fsyncs) /
                          static_cast<double>(traced.write_us.size()),
                "count");
    report->Add("rdb.mvcc_version_bytes_peak",
                static_cast<double>(traced.version_bytes_peak), "bytes");

    // Fan-out cost, embedded and single-threaded now the clients are done.
    std::vector<double> fanout_us;
    int64_t statements = 0;
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t q = 0; q < kQueries; ++q) {
        ++report->attempted;
        ScopedSpan span("perfbench.shard.fanout", "perfbench");
        const int64_t before = Registered("sql.statements");
        const Clock::time_point t0 = Clock::now();
        auto got = router->EvalPathStringsAll(paths[q]);
        fanout_us.push_back(MicrosBetween(t0, Clock::now()));
        if (rep == 0) statements += Registered("sql.statements") - before;
        if (!got.ok()) {
          ++report->failed;
          report->Fail("serve_mixed fan-out: " + got.status().ToString());
          continue;
        }
        std::string diff = check_corpus(q, EncodeCorpus(got.value()));
        if (!diff.empty()) report->Fail("serve_mixed fan-out: " + diff);
      }
    }
    report->Add("shard.corpus_stmts_per_query",
                static_cast<double>(statements) / kQueries, "count");
    report->Add("shard.fanout_us", Median(fanout_us), "us");
    int64_t most = 0, least = -1;
    for (const rdb::ShardInfo& info : router->SnapshotShards()) {
      most = std::max(most, info.requests);
      least = least < 0 ? info.requests : std::min(least, info.requests);
    }
    report->Add("shard.request_skew",
                least > 0 ? static_cast<double>(most) /
                                static_cast<double>(least)
                          : 0,
                "ratio");
  }
  server.Stop();
  MetricsRegistry::Global().set_enabled(false);
}

}  // namespace xmlrdb::perfbench
