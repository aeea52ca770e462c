// Prepared statements and the shared plan cache: parameter binding, hit/miss
// accounting, LRU eviction, and DDL invalidation (a cached plan must never
// outlive a schema change that affects it).

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "rdb/database.h"

namespace xmlrdb::rdb {
namespace {

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (id INTEGER NOT NULL, "
                            "grp INTEGER NOT NULL, name VARCHAR)")
                    .ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i % 10) + ", 'n" +
                              std::to_string(i) + "')")
                      .ok());
    }
  }

  Database db_;
};

TEST_F(PlanCacheTest, ParamsBindPerExecution) {
  auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt.value().param_count(), 1u);
  auto r3 = stmt.value().Execute({Value(static_cast<int64_t>(3))});
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_EQ(r3.value().rows.size(), 10u);
  for (const auto& row : r3.value().rows) EXPECT_EQ(row[0].AsInt() % 10, 3);
  auto r7 = stmt.value().Execute({Value(static_cast<int64_t>(7))});
  ASSERT_TRUE(r7.ok());
  EXPECT_EQ(r7.value().rows.size(), 10u);
  for (const auto& row : r7.value().rows) EXPECT_EQ(row[0].AsInt() % 10, 7);
}

TEST_F(PlanCacheTest, ParamCountMismatchIsAnError) {
  auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ? AND id = ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt.value().param_count(), 2u);
  EXPECT_FALSE(stmt.value().Execute({Value(static_cast<int64_t>(1))}).ok());
  EXPECT_FALSE(stmt.value().Execute().ok());
}

TEST_F(PlanCacheTest, RepeatedPrepareHitsTheCache) {
  const auto before = db_.plan_cache().stats();
  for (int i = 0; i < 5; ++i) {
    auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
    ASSERT_TRUE(stmt.ok());
    ASSERT_TRUE(stmt.value().Execute({Value(static_cast<int64_t>(i))}).ok());
  }
  const auto after = db_.plan_cache().stats();
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.hits - before.hits, 4);
}

TEST_F(PlanCacheTest, RepeatedExecutionParsesOnce) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  ScopedMetricsCapture capture;
  auto warm = db_.Prepare("SELECT name FROM t WHERE id = ?");
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value().Execute({Value(static_cast<int64_t>(1))}).ok());
  const int64_t parsed_after_warmup = reg.Get("sql.parsed");
  for (int i = 0; i < 20; ++i) {
    auto stmt = db_.Prepare("SELECT name FROM t WHERE id = ?");
    ASSERT_TRUE(stmt.ok());
    ASSERT_TRUE(stmt.value().Execute({Value(static_cast<int64_t>(i))}).ok());
  }
  EXPECT_EQ(reg.Get("sql.parsed"), parsed_after_warmup);
}

TEST_F(PlanCacheTest, CreateIndexInvalidatesCachedPlan) {
  auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt.value().Execute({Value(static_cast<int64_t>(2))}).ok());
  auto before = stmt.value().ExplainPlan();
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before.value().find("SeqScan"), std::string::npos);
  EXPECT_EQ(before.value().find("IndexScan"), std::string::npos);

  const auto stats_before = db_.plan_cache().stats();
  ASSERT_TRUE(db_.Execute("CREATE INDEX t_grp ON t (grp)").ok());

  // The same prepared handle must notice the DDL and pick up the index.
  auto r = stmt.value().Execute({Value(static_cast<int64_t>(2))});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().rows.size(), 10u);
  auto after = stmt.value().ExplainPlan();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().find("IndexScan"), std::string::npos);
  EXPECT_GE(db_.plan_cache().stats().invalidations,
            stats_before.invalidations + 1);
}

TEST_F(PlanCacheTest, DropAndRecreateWithDifferentSchema) {
  auto stmt = db_.Prepare("SELECT * FROM t WHERE grp = ?");
  ASSERT_TRUE(stmt.ok());
  auto r1 = stmt.value().Execute({Value(static_cast<int64_t>(0))});
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1.value().schema.size(), 3u);

  ASSERT_TRUE(db_.DropTable("t").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (grp INTEGER NOT NULL, "
                          "extra VARCHAR, note VARCHAR, pad INTEGER)")
                  .ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO t VALUES (0, 'e', 'n', 9)").ok());

  // The stale plan must be replaced, not executed against freed metadata.
  auto r2 = stmt.value().Execute({Value(static_cast<int64_t>(0))});
  ASSERT_TRUE(r2.ok()) << r2.status();
  ASSERT_EQ(r2.value().rows.size(), 1u);
  EXPECT_EQ(r2.value().schema.size(), 4u);
  EXPECT_EQ(r2.value().rows[0][3].AsInt(), 9);
}

TEST_F(PlanCacheTest, DropTableMakesPreparedExecutionFailCleanly) {
  auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt.value().Execute({Value(static_cast<int64_t>(1))}).ok());
  ASSERT_TRUE(db_.DropTable("t").ok());
  EXPECT_FALSE(stmt.value().Execute({Value(static_cast<int64_t>(1))}).ok());
}

TEST_F(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  db_.plan_cache().Clear();
  db_.plan_cache().set_capacity(2);
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t WHERE grp = 0").ok());   // A
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t WHERE grp = 1").ok());   // B
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t WHERE grp = 0").ok());   // touch A
  const auto before = db_.plan_cache().stats();
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t WHERE grp = 2").ok());   // evicts B
  EXPECT_EQ(db_.plan_cache().stats().evictions, before.evictions + 1);
  EXPECT_EQ(db_.plan_cache().size(), 2u);
  const auto hits_before = db_.plan_cache().stats().hits;
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t WHERE grp = 0").ok());   // A: hit
  EXPECT_EQ(db_.plan_cache().stats().hits, hits_before + 1);
  const auto misses_before = db_.plan_cache().stats().misses;
  ASSERT_TRUE(db_.Prepare("SELECT id FROM t WHERE grp = 1").ok());   // B: miss
  EXPECT_EQ(db_.plan_cache().stats().misses, misses_before + 1);
}

TEST_F(PlanCacheTest, CapacityZeroDisablesCaching) {
  db_.plan_cache().Clear();
  db_.plan_cache().set_capacity(0);
  for (int i = 0; i < 3; ++i) {
    auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
    ASSERT_TRUE(stmt.ok());
    auto r = stmt.value().Execute({Value(static_cast<int64_t>(4))});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().rows.size(), 10u);
  }
  EXPECT_EQ(db_.plan_cache().size(), 0u);
  EXPECT_EQ(db_.plan_cache().stats().hits, 0);
}

TEST_F(PlanCacheTest, VirtualTableQueriesAreNotPlanCached) {
  // xmlrdb_* virtual tables materialize fresh state per execution; their
  // parse is cached but the plan must be rebuilt every time.
  auto stmt = db_.Prepare("SELECT kind FROM xmlrdb_statements");
  ASSERT_TRUE(stmt.ok());
  auto r1 = stmt.value().Execute();
  ASSERT_TRUE(r1.ok());
  size_t n1 = r1.value().rows.size();
  ASSERT_TRUE(db_.Execute("SELECT COUNT(*) FROM t").ok());
  auto r2 = stmt.value().Execute();
  ASSERT_TRUE(r2.ok());
  // New statements were logged between the two executions.
  EXPECT_GT(r2.value().rows.size(), n1);
}

TEST_F(PlanCacheTest, StatementLogRecordsCacheHit) {
  auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(stmt.value().Execute({Value(static_cast<int64_t>(5))}).ok());
  ASSERT_TRUE(stmt.value().Execute({Value(static_cast<int64_t>(6))}).ok());
  auto log = db_.Execute(
      "SELECT cache_hit FROM xmlrdb_statements WHERE sql LIKE '%grp = ?%'");
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log.value().rows.size(), 2u);
  // First prepared execution plans; the second reuses the cached plan.
  EXPECT_EQ(log.value().rows[0][0].AsInt(), 0);
  EXPECT_EQ(log.value().rows[1][0].AsInt(), 1);
}

TEST_F(PlanCacheTest, PreparedDmlMatchesDirectExecution) {
  auto ins = db_.Prepare("INSERT INTO t VALUES (?, ?, ?)");
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(ins.value()
                  .Execute({Value(static_cast<int64_t>(1000)),
                            Value(static_cast<int64_t>(50)), Value("extra")})
                  .ok());
  auto sel = db_.Execute("SELECT name FROM t WHERE grp = 50");
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel.value().rows.size(), 1u);
  EXPECT_EQ(sel.value().rows[0][0].AsString(), "extra");

  auto upd = db_.Prepare("UPDATE t SET name = ? WHERE id = ?");
  ASSERT_TRUE(upd.ok());
  ASSERT_TRUE(upd.value()
                  .Execute({Value("renamed"), Value(static_cast<int64_t>(1000))})
                  .ok());
  auto check = db_.Execute("SELECT name FROM t WHERE id = 1000");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check.value().rows.size(), 1u);
  EXPECT_EQ(check.value().rows[0][0].AsString(), "renamed");

  auto del = db_.Prepare("DELETE FROM t WHERE id = ?");
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(del.value().Execute({Value(static_cast<int64_t>(1000))}).ok());
  auto gone = db_.Execute("SELECT id FROM t WHERE id = 1000");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone.value().rows.empty());
}

TEST_F(PlanCacheTest, ParameterizedIndexBoundsMatchLiteralResults) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX t_grp ON t (grp)").ok());
  auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(stmt.ok());
  for (int64_t g = 0; g < 10; ++g) {
    auto prepared = stmt.value().Execute({Value(g)});
    ASSERT_TRUE(prepared.ok());
    auto direct =
        db_.Execute("SELECT id FROM t WHERE grp = " + std::to_string(g));
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(prepared.value().rows.size(), direct.value().rows.size());
  }
  auto plan = stmt.value().ExplainPlan();
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("IndexScan"), std::string::npos);

  // A param of the wrong type must widen to a full scan, not silently
  // mis-seek: the residual filter still applies.
  auto typed = stmt.value().Execute({Value("not a number")});
  ASSERT_TRUE(typed.ok()) << typed.status();
  EXPECT_TRUE(typed.value().rows.empty());
}

TEST_F(PlanCacheTest, ReplanUnderStaleSnapshotIsAClearTxnError) {
  auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(stmt.ok());
  ReadSnapshot snap(&db_);
  auto pinned = stmt.value().Execute({Value(static_cast<int64_t>(1))});
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  ASSERT_EQ(pinned.value().rows.size(), 10u);
  // Two rows of the group change and then an index commits, all after the
  // snapshot was pinned. The replan under the pin switches to the new
  // index, whose back-fill covers the pre-images, so the answer stays the
  // pinned one.
  ASSERT_TRUE(db_.Execute("DELETE FROM t WHERE id = 11").ok());
  ASSERT_TRUE(db_.Execute("UPDATE t SET grp = 5 WHERE id = 21").ok());
  ASSERT_TRUE(db_.Execute("CREATE INDEX t_grp ON t (grp)").ok());
  auto replanned = stmt.value().Execute({Value(static_cast<int64_t>(1))});
  ASSERT_TRUE(replanned.ok()) << replanned.status();
  EXPECT_EQ(replanned.value().ToString(), pinned.value().ToString());
  auto plan = stmt.value().ExplainPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan.value().find("IndexScan"), std::string::npos) << plan.value();
  // Only a dropped table makes the pin stale: the statement then fails
  // with a transaction error that names the drop, so the caller knows to
  // re-acquire and retry.
  ASSERT_TRUE(db_.Execute("CREATE TABLE scratch (y INTEGER)").ok());
  ASSERT_TRUE(db_.Execute("DROP TABLE scratch").ok());
  auto res = stmt.value().Execute({Value(static_cast<int64_t>(1))});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kTxnError) << res.status();
  EXPECT_NE(res.status().message().find("dropped"), std::string::npos)
      << res.status();
}

TEST_F(PlanCacheTest, PreparedStatementRecoversAfterSnapshotReacquire) {
  auto stmt = db_.Prepare("SELECT id FROM t WHERE grp = ?");
  ASSERT_TRUE(stmt.ok());
  {
    ReadSnapshot snap(&db_);
    ASSERT_TRUE(stmt.value().Execute({Value(static_cast<int64_t>(2))}).ok());
    // Re-create the queried table under the pin: its new rows are newer
    // than the snapshot, which therefore must not read it.
    ASSERT_TRUE(db_.Execute("DROP TABLE t").ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (id INTEGER NOT NULL, "
                            "grp INTEGER NOT NULL, name VARCHAR)")
                    .ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                              ", " + std::to_string(i % 10) + ", 'm')")
                      .ok());
    }
    ASSERT_TRUE(db_.Execute("CREATE INDEX t_grp2 ON t (grp)").ok());
    auto stale = stmt.value().Execute({Value(static_cast<int64_t>(2))});
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.status().code(), StatusCode::kTxnError) << stale.status();
  }
  // Fresh snapshot: the statement replans against the re-created table and
  // works again (now through the new index).
  auto res = stmt.value().Execute({Value(static_cast<int64_t>(2))});
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().rows.size(), 2u);
  auto plan = stmt.value().ExplainPlan();
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("IndexScan"), std::string::npos);
}

}  // namespace
}  // namespace xmlrdb::rdb
