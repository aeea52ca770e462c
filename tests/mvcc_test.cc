// MVCC snapshot-read semantics: readers pinned to a snapshot see the exact
// pre-image while writers update and delete underneath them, garbage
// collection never reclaims versions an open snapshot can still reach,
// index scans under a snapshot emit each visible row exactly once, an index
// created under a pinned snapshot serves that snapshot's pre-images, only
// DROP TABLE under a pin surfaces a TxnError, and multi-statement XPath
// evaluation stays byte-identical to a single-threaded run while concurrent
// stores churn the same mapping's rows and (binary mapping) its tables.

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rdb/database.h"
#include "rdb/mvcc.h"
#include "rdb/wal.h"
#include "shred/evaluator.h"
#include "shred/registry.h"
#include "workload/queries.h"
#include "workload/random_tree.h"
#include "workload/xmark.h"
#include "xml/parser.h"
#include "xpath/xpath_ast.h"

namespace xmlrdb {
namespace {

using rdb::Database;
using rdb::QueryResult;
using rdb::ReadSnapshot;

std::string Select(Database* db, const std::string& sql) {
  auto res = db->Execute(sql);
  EXPECT_TRUE(res.ok()) << sql << ": " << res.status();
  return res.ok() ? res.value().ToString() : std::string();
}

int64_t RowCount(Database* db, const std::string& sql) {
  auto res = db->Execute(sql);
  EXPECT_TRUE(res.ok()) << sql << ": " << res.status();
  return res.ok() ? static_cast<int64_t>(res.value().rows.size()) : -1;
}

TEST(MvccTest, PinnedReaderSeesPreImageWhileWriterUpdatesAndDeletes) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER NOT NULL, "
                         "v VARCHAR)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'orig" + std::to_string(i) + "')")
                    .ok());
  }
  const std::string kQuery = "SELECT id, v FROM t ORDER BY id";
  const std::string before = Select(&db, kQuery);

  ReadSnapshot snap(&db);
  // Overwrite every row, then delete half of them. The pinned snapshot was
  // acquired before either commit, so it must keep serving the pre-image.
  ASSERT_TRUE(db.Execute("UPDATE t SET v = 'changed'").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id >= 25").ok());

  EXPECT_EQ(Select(&db, kQuery), before);  // byte-identical pre-image
  EXPECT_EQ(Select(&db, "SELECT COUNT(*) FROM t"),
            Select(&db, "SELECT COUNT(*) FROM t"));
}

TEST(MvccTest, FreshSnapshotSeesPostImageAfterPinnedOneReleases) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INTEGER NOT NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  {
    ReadSnapshot snap(&db);
    ASSERT_TRUE(db.Execute("UPDATE t SET x = x + 10").ok());
    auto pinned = db.Execute("SELECT SUM(x) FROM t");
    ASSERT_TRUE(pinned.ok());
    EXPECT_EQ(pinned.value().rows[0][0].AsInt(), 6);
  }
  auto fresh = db.Execute("SELECT SUM(x) FROM t");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().rows[0][0].AsInt(), 36);
}

TEST(MvccTest, GcNeverReclaimsVersionsVisibleToOldestSnapshot) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER NOT NULL, "
                         "v VARCHAR)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'old')")
                    .ok());
  }
  const std::string kQuery = "SELECT id, v FROM t ORDER BY id";
  const std::string before = Select(&db, kQuery);
  {
    ReadSnapshot snap(&db);
    ASSERT_TRUE(db.Execute("UPDATE t SET v = 'new'").ok());
    // The old versions are still visible to `snap`, so a GC pass must not
    // unlink them.
    db.CollectVersionGarbage();
    EXPECT_EQ(Select(&db, kQuery), before);
  }
  // Snapshot released: the pre-image versions are now unreachable. One pass
  // unlinks them into limbo and — with no snapshot active — frees them too.
  rdb::TableGcStats stats = db.CollectVersionGarbage();
  EXPECT_GT(stats.versions_freed, 0u);
  const rdb::Table* t = db.FindTable("t");
  ASSERT_NE(t, nullptr);
  // A second pass drains whatever limbo remains; nothing may linger.
  db.CollectVersionGarbage();
  EXPECT_EQ(t->LimboSize(), 0u);
  auto after = db.Execute("SELECT COUNT(*) FROM t WHERE v = 'new'");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().rows[0][0].AsInt(), 20);
}

TEST(MvccTest, DdlUnderPinnedSnapshotFailsOnlyForDropTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INTEGER NOT NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE doomed (y INTEGER NOT NULL)").ok());

  ReadSnapshot snap(&db);
  const std::string before = Select(&db, "SELECT x FROM t");
  // CREATE TABLE and CREATE INDEX commit after the snapshot was acquired;
  // neither changes what the pin can see, so reads keep working.
  ASSERT_TRUE(db.Execute("CREATE TABLE other (y INTEGER NOT NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO other VALUES (5)").ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX t_x ON t (x)").ok());
  EXPECT_EQ(Select(&db, "SELECT x FROM t"), before);
  EXPECT_EQ(RowCount(&db, "SELECT y FROM other"), 0);
  // A dropped table would read as missing (or, re-created, as empty) at the
  // pin: reads fail loudly instead.
  ASSERT_TRUE(db.Execute("DROP TABLE doomed").ok());
  auto res = db.Execute("SELECT x FROM t");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kTxnError) << res.status();
  EXPECT_NE(res.status().message().find("dropped"), std::string::npos)
      << res.status();
}

TEST(MvccTest, IndexCreatedUnderPinServesDeletedAndRekeyedPreImages) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INTEGER NOT NULL, "
                         "tag VARCHAR)").ok());
  constexpr int kRows = 20;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'row" + std::to_string(i) + "')")
                    .ok());
  }
  const std::string kAll = "SELECT k, tag FROM t ORDER BY k";
  const std::string before_all = Select(&db, kAll);
  const std::string before7 = Select(&db, "SELECT k, tag FROM t WHERE k = 7");
  const std::string before9 = Select(&db, "SELECT k, tag FROM t WHERE k = 9");
  {
    ReadSnapshot snap(&db);
    // Row 7 dies and row 9 moves to key 1000 *before* the index exists, so
    // only a back-fill that covers every version gives the pin an entry
    // for either pre-image.
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE k = 7").ok());
    ASSERT_TRUE(db.Execute("UPDATE t SET k = 1000 WHERE k = 9").ok());
    ASSERT_TRUE(db.Execute("CREATE INDEX t_k ON t (k)").ok());
    ASSERT_TRUE(db.Execute("CREATE TABLE other (y INTEGER NOT NULL)").ok());

    auto plan = db.Execute("EXPLAIN SELECT k, tag FROM t WHERE k = 7");
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(plan.value().ToString().find("IndexScan"), std::string::npos)
        << plan.value().ToString();
    EXPECT_EQ(Select(&db, "SELECT k, tag FROM t WHERE k = 7"), before7);
    EXPECT_EQ(Select(&db, "SELECT k, tag FROM t WHERE k = 9"), before9);
    EXPECT_EQ(RowCount(&db, "SELECT k FROM t WHERE k = 1000"), 0);
    EXPECT_EQ(Select(&db, kAll), before_all);
  }
  // A fresh snapshot sees the post-image through the same index.
  EXPECT_EQ(RowCount(&db, "SELECT k FROM t WHERE k = 7"), 0);
  EXPECT_EQ(RowCount(&db, "SELECT k FROM t WHERE k = 9"), 0);
  EXPECT_EQ(RowCount(&db, "SELECT k FROM t WHERE k = 1000"), 1);

  // The pre-image entries outlive the pin only until GC: once no snapshot
  // can reach the dead versions, the index holds one entry per live row.
  const rdb::Table* t = db.FindTable("t");
  ASSERT_NE(t, nullptr);
  const rdb::Index* index = t->FindIndex("t_k");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_entries(), static_cast<size_t>(kRows + 1));
  db.CollectVersionGarbage();
  EXPECT_EQ(t->num_rows(), static_cast<size_t>(kRows - 1));
  EXPECT_EQ(index->num_entries(), t->num_rows());
}

TEST(MvccTest, IndexCreatedUnderPinCoversAnotherTxnsUncommittedDelete) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INTEGER NOT NULL)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")").ok());
  }
  const std::string kFind = "SELECT k FROM t WHERE k = 4";

  std::promise<void> deleted;
  std::promise<void> commit;
  std::thread writer([&] {
    // The delete stays provisional until Commit: a later CREATE INDEX sees
    // a dead head version that every other snapshot still reads as live.
    rdb::WalTransaction txn(&db);
    EXPECT_TRUE(db.Execute("DELETE FROM t WHERE k = 4").ok());
    deleted.set_value();
    commit.get_future().wait();
    EXPECT_TRUE(txn.Commit().ok());
  });
  {
    ReadSnapshot snap(&db);
    deleted.get_future().wait();
    // No ASSERT until the writer is joined: it waits for `commit`.
    EXPECT_TRUE(db.Execute("CREATE INDEX t_k ON t (k)").ok());
    auto plan = db.Execute("EXPLAIN " + kFind);
    EXPECT_TRUE(plan.ok() &&
                plan.value().ToString().find("IndexScan") != std::string::npos)
        << (plan.ok() ? plan.value().ToString() : plan.status().ToString());
    EXPECT_EQ(RowCount(&db, kFind), 1);  // before the commit
    commit.set_value();
    writer.join();
    EXPECT_EQ(RowCount(&db, kFind), 1);  // after it, still at the pin
  }
  EXPECT_EQ(RowCount(&db, kFind), 0);  // a fresh snapshot
}

TEST(MvccTest, IndexScanUnderSnapshotEmitsEachVisibleRowOnce) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INTEGER NOT NULL, "
                         "tag VARCHAR)").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", 'pre')")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("CREATE INDEX t_k ON t (k)").ok());
  // Index range query both before and after the writer moves every key to a
  // different value *inside the same range*. Lazy index maintenance leaves
  // both the old and the new key entries pointing at the row, so a naive
  // scan would emit duplicates; the snapshot scan must emit the pre-image
  // keys exactly once each.
  const std::string kQuery =
      "SELECT k FROM t WHERE k >= 0 AND k <= 100 ORDER BY k";
  auto plan = db.Execute("EXPLAIN " + kQuery);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().ToString().find("IndexScan"), std::string::npos)
      << plan.value().ToString();
  const std::string before = Select(&db, kQuery);

  ReadSnapshot snap(&db);
  ASSERT_TRUE(db.Execute("UPDATE t SET k = k + 40, tag = 'post'").ok());
  EXPECT_EQ(Select(&db, kQuery), before);
  {
    // And a fresh snapshot sees only the new keys, also exactly once.
    auto res = db.Execute(
        "SELECT COUNT(*) FROM t WHERE k >= 0 AND k <= 1000");
    // Still pinned: count reflects the pre-image.
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().rows[0][0].AsInt(), 40);
  }
}

TEST(MvccTest, IndexScanAfterSnapshotSeesOnlyNewKeysOnce) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INTEGER NOT NULL)").ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")").ok());
  }
  ASSERT_TRUE(db.Execute("CREATE INDEX t_k ON t (k)").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET k = k + 30").ok());
  auto res = db.Execute("SELECT k FROM t WHERE k >= 0 AND k <= 1000 ORDER BY k");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.value().rows.size(), 30u);
  for (size_t i = 0; i < res.value().rows.size(); ++i) {
    EXPECT_EQ(res.value().rows[i][0].AsInt(), static_cast<int64_t>(i) + 30);
  }
}

TEST(MvccTest, ConcurrentReadersNeverSeeTornStatesUnderIndexedDml) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (k INTEGER NOT NULL)").ok());
  constexpr int64_t kRows = 64;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")").ok());
  }
  ASSERT_TRUE(db.Execute("CREATE INDEX t_k ON t (k)").ok());
  // Writer shifts the whole key range back and forth by kRows; each UPDATE
  // is one statement, so every snapshot sees all keys low or all keys high.
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto res = db.Execute(
            "SELECT COUNT(*), MIN(k), MAX(k) FROM t "
            "WHERE k >= 0 AND k <= 10000");
        ASSERT_TRUE(res.ok()) << res.status();
        const auto& row = res.value().rows[0];
        int64_t n = row[0].AsInt(), lo = row[1].AsInt(), hi = row[2].AsInt();
        bool low_state = lo == 0 && hi == kRows - 1;
        bool high_state = lo == kRows && hi == 2 * kRows - 1;
        if (n != kRows || (!low_state && !high_state)) bad.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(db.Execute("UPDATE t SET k = k + " +
                           std::to_string(kRows)).ok());
    ASSERT_TRUE(db.Execute("UPDATE t SET k = k - " +
                           std::to_string(kRows)).ok());
    if (round % 25 == 0) db.CollectVersionGarbage();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(MvccTest, BackgroundGcDrainsVersionsWithoutDisturbingReaders) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (x INTEGER NOT NULL)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1), (2), (3), (4)").ok());
  db.StartVersionGc(/*interval_ms=*/1);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto res = db.Execute("SELECT COUNT(*) FROM t");
      ASSERT_TRUE(res.ok()) << res.status();
      ASSERT_EQ(res.value().rows[0][0].AsInt(), 4);
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Execute("UPDATE t SET x = x + 1").ok());
  }
  stop.store(true);
  reader.join();
  db.StopVersionGc();
  db.CollectVersionGarbage();
  db.CollectVersionGarbage();
  const rdb::Table* t = db.FindTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->LimboSize(), 0u);
}

// Multi-statement XPath evaluation under concurrent DML on the *same*
// mapping tables: a writer stores and removes a second document in a loop
// while readers evaluate paths against the first document across every
// generic mapping. Results must be byte-identical to the single-threaded
// baseline on every read (EvalPath pins one snapshot per evaluation).
TEST(MvccTest, EvalPathIsByteIdenticalUnderConcurrentStoreRemove) {
  workload::RandomTreeConfig cfg;
  cfg.seed = 7;
  auto doc = workload::GenerateRandomTree(cfg);
  auto churn_doc = workload::GenerateRandomTree([] {
    workload::RandomTreeConfig c;
    c.seed = 8;
    return c;
  }());
  const std::vector<std::string> kPaths = {
      "/root", "//t1", "/root/*", "//t1/t2", "/root//t3", "//t0/@a0",
  };
  for (const std::string& name : shred::GenericMappingNames()) {
    SCOPED_TRACE(name);
    auto mapping = shred::CreateMapping(name);
    ASSERT_TRUE(mapping.ok()) << mapping.status();
    Database db;
    ASSERT_TRUE(mapping.value()->Initialize(&db).ok());
    auto doc_id = mapping.value()->Store(*doc, &db);
    ASSERT_TRUE(doc_id.ok()) << doc_id.status();

    // Single-threaded baseline per path.
    std::vector<std::vector<std::string>> baseline;
    for (const auto& p : kPaths) {
      auto parsed = xpath::ParseXPath(p);
      ASSERT_TRUE(parsed.ok());
      auto vals = shred::EvalPathStrings(parsed.value(), mapping.value().get(),
                                         &db, doc_id.value());
      ASSERT_TRUE(vals.ok()) << vals.status();
      std::sort(vals.value().begin(), vals.value().end());
      baseline.push_back(std::move(vals.value()));
    }

    std::atomic<bool> stop{false};
    std::atomic<int> bad{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        while (!stop.load()) {
          for (size_t i = 0; i < kPaths.size(); ++i) {
            auto parsed = xpath::ParseXPath(kPaths[i]);
            ASSERT_TRUE(parsed.ok());
            auto vals = shred::EvalPathStrings(
                parsed.value(), mapping.value().get(), &db, doc_id.value());
            ASSERT_TRUE(vals.ok()) << vals.status();
            std::sort(vals.value().begin(), vals.value().end());
            if (vals.value() != baseline[i]) bad.fetch_add(1);
          }
        }
      });
    }
    for (int round = 0; round < 8; ++round) {
      auto id2 = mapping.value()->Store(*churn_doc, &db);
      ASSERT_TRUE(id2.ok()) << id2.status();
      ASSERT_TRUE(mapping.value()->Remove(id2.value(), &db).ok());
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_EQ(bad.load(), 0) << name;
  }
}

// The binary mapping creates one table (plus two indexes) per new label
// inside ordinary stores. Readers pinned to a snapshot must never fail or
// see a different answer because of that DDL.
TEST(MvccTest, BinaryReadersSurviveStoresThatCreateTables) {
  workload::XMarkConfig cfg;
  cfg.scale = 0.05;
  auto doc = workload::GenerateXMark(cfg);
  auto mapping = shred::CreateMapping("binary");
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  Database db;
  ASSERT_TRUE(mapping.value()->Initialize(&db).ok());
  auto doc_id = mapping.value()->Store(*doc, &db);
  ASSERT_TRUE(doc_id.ok()) << doc_id.status();

  std::vector<xpath::PathExpr> paths;
  std::vector<std::vector<std::string>> baseline;
  for (const workload::BenchQuery& q : workload::AuctionQueries()) {
    if (q.id == "Q12") continue;  // Q1-Q11
    auto parsed = xpath::ParseXPath(q.xpath);
    ASSERT_TRUE(parsed.ok()) << q.id << ": " << parsed.status();
    auto vals = shred::EvalPathStrings(parsed.value(), mapping.value().get(),
                                       &db, doc_id.value());
    ASSERT_TRUE(vals.ok()) << q.id << ": " << vals.status();
    paths.push_back(std::move(parsed.value()));
    baseline.push_back(std::move(vals.value()));
  }
  ASSERT_EQ(paths.size(), 11u);

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> failed{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      do {
        for (size_t i = 0; i < paths.size(); ++i) {
          auto vals = shred::EvalPathStrings(paths[i], mapping.value().get(),
                                             &db, doc_id.value());
          reads.fetch_add(1);
          if (!vals.ok()) {
            ADD_FAILURE() << "Q" << i + 1 << ": " << vals.status();
            failed.fetch_add(1);
          } else if (vals.value() != baseline[i]) {
            wrong.fetch_add(1);
          }
        }
      } while (!stop.load());
    });
  }
  while (reads.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 30 && !HasFailure(); ++i) {
    // Fresh element and attribute names: every store creates new tables.
    // (No ASSERT while the readers run: they stop only on `stop`.)
    const std::string n = std::to_string(i);
    auto tiny = xml::Parse("<churn" + n + "><leaf" + n + " at" + n +
                           "=\"v\">text</leaf" + n + "></churn" + n + ">");
    auto id = tiny.ok() ? mapping.value()->Store(*tiny.value(), &db)
                        : Result<shred::DocId>(tiny.status());
    EXPECT_TRUE(id.ok()) << id.status();
    if (id.ok()) EXPECT_TRUE(mapping.value()->Remove(id.value(), &db).ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace xmlrdb
