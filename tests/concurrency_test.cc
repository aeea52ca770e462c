// Concurrency tests for the RW-locked engine: readers see every statement
// as an atomic unit, DDL churn never dangles a table, every parse on the
// prepared path is counted, and parallel bulk shredding matches serial
// storage.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "rdb/database.h"
#include "shred/evaluator.h"
#include "shred/registry.h"
#include "workload/random_tree.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xmlrdb {
namespace {

using rdb::Database;
using rdb::QueryResult;

TEST(ConcurrencyTest, ReadersSeeAtomicInsertDeleteBatches) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INTEGER NOT NULL)").ok());
  constexpr int64_t kBase = 200;
  constexpr int64_t kBatch = 8;
  {
    std::string sql = "INSERT INTO t VALUES (0)";
    for (int64_t i = 1; i < kBase; ++i) sql += ", (" + std::to_string(i) + ")";
    ASSERT_TRUE(db.Execute(sql).ok());
  }
  // One multi-row INSERT statement per round, then one DELETE of the same
  // rows. Statement-scope exclusive locks make each statement atomic, so a
  // concurrent COUNT(*) may only ever see kBase or kBase + kBatch.
  std::string insert_sql = "INSERT INTO t VALUES (1000)";
  for (int64_t i = 1; i < kBatch; ++i) {
    insert_sql += ", (" + std::to_string(1000 + i) + ")";
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      // do-while: a reader the scheduler starts late still reads once.
      do {
        auto res = db.Execute("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(res.ok()) << res.status();
        int64_t n = res.value().rows[0][0].AsInt();
        if (n != kBase && n != kBase + kBatch) bad.fetch_add(1);
        reads.fetch_add(1);
      } while (!stop.load());
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 300; ++round) {
      ASSERT_TRUE(db.Execute(insert_sql).ok());
      ASSERT_TRUE(db.Execute("DELETE FROM t WHERE x >= 1000").ok());
    }
    stop.store(true);
  });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(reads.load(), 0);
  auto final_count = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count.value().rows[0][0].AsInt(), kBase);
}

TEST(ConcurrencyTest, SelectsSurviveCreateDropChurnOnOtherTables) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE stable (x INTEGER NOT NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO stable VALUES (1), (2), (3)").ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto res = db.Execute("SELECT SUM(x) FROM stable");
        ASSERT_TRUE(res.ok()) << res.status();
        EXPECT_EQ(res.value().rows[0][0].AsInt(), 6);
      }
    });
  }
  std::thread ddl([&] {
    for (int i = 0; i < 200; ++i) {
      std::string name = "scratch" + std::to_string(i % 4);
      auto created =
          db.Execute("CREATE TABLE " + name + " (y INTEGER NOT NULL)");
      ASSERT_TRUE(created.ok()) << created.status();
      ASSERT_TRUE(db.Execute("INSERT INTO " + name + " VALUES (7)").ok());
      ASSERT_TRUE(db.Execute("DROP TABLE " + name).ok());
    }
    stop.store(true);
  });
  ddl.join();
  for (auto& t : readers) t.join();
}

TEST(ConcurrencyTest, PreparedExecutionSurvivesConcurrentDdl) {
  // Prepared statements share one plan-cache entry across threads while a
  // DDL thread churns the catalog: every execution must either reuse a
  // still-valid plan or replan, never touch dropped metadata.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE stable (x INTEGER NOT NULL, "
                         "grp INTEGER NOT NULL)")
                  .ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO stable VALUES (" + std::to_string(i) +
                           ", " + std::to_string(i % 4) + ")")
                    .ok());
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // At least 20 rounds per reader, so its later Prepares hit the cache
      // even when the scheduler starts it after the DDL thread finished.
      for (int64_t g = 0; g < 20 || !stop.load(); ++g) {
        auto stmt = db.Prepare("SELECT COUNT(x) FROM stable WHERE grp = ?");
        ASSERT_TRUE(stmt.ok()) << stmt.status();
        auto res = stmt.value().Execute({rdb::Value(g % 4)});
        ASSERT_TRUE(res.ok()) << res.status();
        EXPECT_EQ(res.value().rows[0][0].AsInt(), 16);
      }
    });
  }
  std::thread ddl([&] {
    for (int i = 0; i < 100; ++i) {
      // Churn unrelated tables (bumps the schema version => forces version
      // re-checks) and add an index on the queried table mid-run (switches
      // the cached plan's access path under the readers).
      std::string name = "scratch" + std::to_string(i % 4);
      ASSERT_TRUE(
          db.Execute("CREATE TABLE " + name + " (y INTEGER NOT NULL)").ok());
      ASSERT_TRUE(db.Execute("DROP TABLE " + name).ok());
      if (i == 50) {
        ASSERT_TRUE(
            db.Execute("CREATE INDEX stable_grp ON stable (grp)").ok());
      }
    }
    stop.store(true);
  });
  ddl.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(db.plan_cache().stats().hits, 0);
}

// Every parse on the prepared path is counted: with only prepared
// statements running, each parse is either a plan-cache miss (the first
// Prepare of a text) or a checkout loser's uncached fallback.
TEST(ConcurrencyTest, PreparedParsesAreMissesOrCheckoutFallbacks) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE stable (x INTEGER NOT NULL, "
                         "grp INTEGER NOT NULL)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO stable VALUES (1, 0), (2, 1), (3, 0)")
                  .ok());
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  reg.set_enabled(true);
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&] {
      for (int64_t i = 0; i < 300; ++i) {
        auto stmt = db.Prepare("SELECT SUM(x) FROM stable WHERE grp = ?");
        ASSERT_TRUE(stmt.ok()) << stmt.status();
        auto res = stmt.value().Execute({rdb::Value(i % 2)});
        ASSERT_TRUE(res.ok()) << res.status();
        EXPECT_EQ(res.value().rows[0][0].AsInt(), i % 2 == 0 ? 4 : 2);
      }
    });
  }
  for (auto& t : threads) t.join();
  reg.set_enabled(false);
  EXPECT_GT(reg.Get("plancache.hits"), 0);
  EXPECT_EQ(reg.Get("sql.parsed"),
            reg.Get("plancache.misses") +
                reg.Get("plancache.checkout_fallbacks"));
  reg.Reset();
}

TEST(ConcurrencyTest, ConcurrentXPathQueriesOverOneDatabase) {
  // Shared scratch tables used to make this impossible: two threads running
  // multi-step paths over the same Database clobbered each other's context
  // tables. ScratchName() gives each thread its own.
  auto mapping = shred::CreateMapping("edge");
  ASSERT_TRUE(mapping.ok());
  Database db;
  ASSERT_TRUE(mapping.value()->Initialize(&db).ok());
  workload::RandomTreeConfig cfg;
  cfg.seed = 7;
  auto doc = workload::GenerateRandomTree(cfg);
  auto id = mapping.value()->Store(*doc, &db);
  ASSERT_TRUE(id.ok());

  auto path = xpath::ParseXPath("//t1/t2");
  ASSERT_TRUE(path.ok());
  auto expected = shred::EvalPath(path.value(), mapping.value().get(), &db,
                                  id.value());
  ASSERT_TRUE(expected.ok());

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        auto got = shred::EvalPath(path.value(), mapping.value().get(), &db,
                                   id.value());
        ASSERT_TRUE(got.ok()) << got.status();
        if (got.value() != expected.value()) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, ParallelStoreAllMatchesSerialStore) {
  std::vector<std::unique_ptr<xml::Document>> docs;
  std::vector<const xml::Document*> doc_ptrs;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    workload::RandomTreeConfig cfg;
    cfg.seed = seed;
    docs.push_back(workload::GenerateRandomTree(cfg));
    doc_ptrs.push_back(docs.back().get());
  }
  for (const char* name : {"edge", "interval", "dewey", "blob"}) {
    auto serial_mapping = shred::CreateMapping(name);
    auto parallel_mapping = shred::CreateMapping(name);
    ASSERT_TRUE(serial_mapping.ok() && parallel_mapping.ok());
    EXPECT_TRUE(parallel_mapping.value()->SupportsParallelStore()) << name;

    Database serial_db, parallel_db;
    ASSERT_TRUE(serial_mapping.value()->Initialize(&serial_db).ok());
    ASSERT_TRUE(parallel_mapping.value()->Initialize(&parallel_db).ok());
    std::vector<shred::DocId> serial_ids;
    for (const auto* d : doc_ptrs) {
      auto id = serial_mapping.value()->Store(*d, &serial_db);
      ASSERT_TRUE(id.ok()) << name << ": " << id.status();
      serial_ids.push_back(id.value());
    }
    auto parallel_ids =
        parallel_mapping.value()->StoreAll(doc_ptrs, &parallel_db);
    ASSERT_TRUE(parallel_ids.ok()) << name << ": " << parallel_ids.status();
    ASSERT_EQ(parallel_ids.value().size(), doc_ptrs.size());

    // Same ids assigned, and every reconstructed document identical.
    EXPECT_EQ(parallel_ids.value(), serial_ids) << name;
    for (size_t i = 0; i < doc_ptrs.size(); ++i) {
      auto serial_doc = serial_mapping.value()->Reconstruct(&serial_db,
                                                            serial_ids[i]);
      auto parallel_doc = parallel_mapping.value()->Reconstruct(
          &parallel_db, parallel_ids.value()[i]);
      ASSERT_TRUE(serial_doc.ok() && parallel_doc.ok()) << name;
      EXPECT_EQ(xml::Serialize(*serial_doc.value()),
                xml::Serialize(*parallel_doc.value()))
          << name << " doc " << i;
    }
  }
}

// The atomic-batches scenario again, but with the full observability stack
// on: metrics, tracing, statement logging, and slow-query plan capture all
// record from every reader and writer thread at once. TSan runs this suite;
// the point is that the instrumentation itself is data-race-free.
TEST(ConcurrencyTest, ObservabilityEnabledUnderConcurrentLoad) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  reg.set_enabled(true);
  TraceCollector::Global().Clear();
  TraceCollector::Global().set_enabled(true);

  Database db;
  db.set_slow_query_threshold_us(0);  // capture a plan for every SELECT
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INTEGER NOT NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // do-while: a reader the scheduler starts late still logs SELECTs.
      do {
        auto res = db.Execute("SELECT COUNT(*) FROM t");
        ASSERT_TRUE(res.ok()) << res.status();
        auto metrics = db.Execute("SELECT * FROM xmlrdb_metrics");
        ASSERT_TRUE(metrics.ok()) << metrics.status();
        auto log = db.Execute("SELECT * FROM xmlrdb_statements");
        ASSERT_TRUE(log.ok()) << log.status();
      } while (!stop.load());
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 100; ++round) {
      ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (100)").ok());
      ASSERT_TRUE(db.Execute("DELETE FROM t WHERE x = 100").ok());
    }
    stop.store(true);
  });
  writer.join();
  for (auto& t : readers) t.join();

  TraceCollector::Global().set_enabled(false);
  reg.set_enabled(false);
  EXPECT_GT(reg.Get("sql.statements"), 0);
  EXPECT_GT(TraceCollector::Global().size(), 0u);
  // Every SELECT was slow (threshold 0) and carries its analyzed plan.
  auto entries = db.statement_log().Entries();
  ASSERT_FALSE(entries.empty());
  bool saw_select_plan = false;
  for (const auto& e : entries) {
    if (e.kind == "select" && !e.plan.empty()) saw_select_plan = true;
  }
  EXPECT_TRUE(saw_select_plan);
  std::string json = TraceCollector::Global().RenderChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  TraceCollector::Global().Clear();
  reg.Reset();
}

TEST(ConcurrencyTest, InlineMappingFallsBackToSerialStoreAll) {
  auto mapping = shred::CreateMapping("binary");
  ASSERT_TRUE(mapping.ok());
  EXPECT_FALSE(mapping.value()->SupportsParallelStore());
  Database db;
  ASSERT_TRUE(mapping.value()->Initialize(&db).ok());
  workload::RandomTreeConfig cfg;
  cfg.seed = 3;
  auto doc = workload::GenerateRandomTree(cfg);
  std::vector<const xml::Document*> docs = {doc.get(), doc.get()};
  auto ids = mapping.value()->StoreAll(docs, &db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(ids.value().size(), 2u);
  EXPECT_NE(ids.value()[0], ids.value()[1]);
}

}  // namespace
}  // namespace xmlrdb
