// Planner tests: plan shapes (pushdown, index selection, join strategy),
// verified via Explain text and operator counts.

#include "rdb/planner.h"

#include <gtest/gtest.h>

#include "rdb/database.h"

namespace xmlrdb::rdb {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE big (id INTEGER, grp INTEGER, val VARCHAR)");
    Exec("CREATE TABLE small (id INTEGER, tag VARCHAR)");
    for (int i = 0; i < 50; ++i) {
      Exec("INSERT INTO big VALUES (" + std::to_string(i) + ", " +
           std::to_string(i % 5) + ", 'v" + std::to_string(i) + "')");
    }
    for (int i = 0; i < 5; ++i) {
      Exec("INSERT INTO small VALUES (" + std::to_string(i) + ", 't" +
           std::to_string(i) + "')");
    }
  }

  void Exec(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  }

  std::string Explain(const std::string& sql) {
    auto plan = db_.PlanSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? plan.value()->Explain() : "";
  }

  int Count(const std::string& sql, const std::string& op) {
    auto plan = db_.PlanSql(sql);
    EXPECT_TRUE(plan.ok()) << plan.status();
    return plan.ok() ? plan.value()->CountOperators(op) : -1;
  }

  Database db_;
};

TEST_F(PlannerTest, PredicatePushdownBelowJoin) {
  std::string text = Explain(
      "SELECT b.val FROM big b, small s WHERE b.grp = s.id AND s.tag = 't1'");
  // The tag filter must sit below the join, directly on small's scan.
  size_t join_pos = text.find("HashJoin");
  size_t filter_pos = text.find("Filter((s.tag = 't1'))");
  ASSERT_NE(join_pos, std::string::npos) << text;
  ASSERT_NE(filter_pos, std::string::npos) << text;
  EXPECT_GT(filter_pos, join_pos);
}

TEST_F(PlannerTest, EquiJoinUsesHashJoin) {
  EXPECT_EQ(Count("SELECT b.id FROM big b, small s WHERE b.grp = s.id",
                  "HashJoin"),
            1);
  EXPECT_EQ(Count("SELECT b.id FROM big b, small s WHERE b.grp = s.id",
                  "NestedLoopJoin"),
            0);
}

TEST_F(PlannerTest, IndexedEquiJoinUsesIndexNestedLoopJoin) {
  const std::string sql =
      "SELECT b.id, s.tag FROM big b, small s "
      "WHERE b.grp = s.id AND s.tag <> 't3' ORDER BY b.id";
  auto hashed = db_.Execute(sql);
  ASSERT_TRUE(hashed.ok()) << hashed.status();
  Exec("CREATE INDEX small_id ON small (id)");
  // small is reachable through its index, so it goes on the inner side even
  // though its estimate is the smaller one.
  EXPECT_EQ(Count(sql, "IndexNestedLoopJoin"), 1);
  EXPECT_EQ(Count(sql, "HashJoin"), 0);
  std::string text = Explain(sql);
  EXPECT_NE(text.find("IndexNestedLoopJoin(small.small_id [s.id = b.grp], "
                      "filter=(s.tag <> 't3'))"),
            std::string::npos)
      << text;
  auto plan = db_.PlanSql(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->CountJoins(), 1);
  EXPECT_EQ(plan.value()->CountTableAccesses(), 2);
  auto indexed = db_.Execute(sql);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(indexed.value().ToString(), hashed.value().ToString());
  EXPECT_EQ(indexed.value().rows.size(), 40u);
}

TEST_F(PlannerTest, NonEquiJoinFallsBackToNestedLoop) {
  std::string sql = "SELECT b.id FROM big b, small s WHERE b.grp < s.id";
  EXPECT_EQ(Count(sql, "NestedLoopJoin"), 1);
  EXPECT_EQ(Count(sql, "HashJoin"), 0);
  // The non-equi predicate lands in a filter above the join.
  EXPECT_EQ(Count(sql, "Filter"), 1);
}

TEST_F(PlannerTest, IndexEqualitySelection) {
  Exec("CREATE INDEX big_grp ON big (grp)");
  EXPECT_EQ(Count("SELECT id FROM big WHERE grp = 3", "IndexScan"), 1);
  EXPECT_EQ(Count("SELECT id FROM big WHERE grp = 3", "SeqScan"), 0);
  // No sargable predicate -> seq scan.
  EXPECT_EQ(Count("SELECT id FROM big WHERE val LIKE 'v%'", "IndexScan"), 0);
}

TEST_F(PlannerTest, IndexPrefixPlusRange) {
  Exec("CREATE INDEX big_grp_id ON big (grp, id)");
  std::string sql = "SELECT val FROM big WHERE grp = 2 AND id > 10 AND id < 40";
  EXPECT_EQ(Count(sql, "IndexScan"), 1);
  auto res = db_.Execute(sql);
  ASSERT_TRUE(res.ok());
  // grp=2: ids 2,7,12,...,47; in (10,40): 12,17,...,37 -> 6 rows
  EXPECT_EQ(res.value().rows.size(), 6u);
}

TEST_F(PlannerTest, IndexScanResultsEqualSeqScanResults) {
  // Differential check before/after index creation.
  const std::string sql =
      "SELECT id FROM big WHERE grp = 4 AND id >= 20 ORDER BY id";
  auto before = db_.Execute(sql);
  ASSERT_TRUE(before.ok());
  Exec("CREATE INDEX big_grp_id2 ON big (grp, id)");
  auto after = db_.Execute(sql);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before.value().rows.size(), after.value().rows.size());
  for (size_t i = 0; i < before.value().rows.size(); ++i) {
    EXPECT_EQ(before.value().rows[i][0].AsInt(),
              after.value().rows[i][0].AsInt());
  }
}

TEST_F(PlannerTest, ThreeWayJoinAllHash) {
  Exec("CREATE TABLE mid (id INTEGER, big_id INTEGER)");
  Exec("INSERT INTO mid VALUES (1, 10), (2, 20)");
  std::string sql =
      "SELECT b.val FROM big b, mid m, small s "
      "WHERE m.big_id = b.id AND m.id = s.id";
  EXPECT_EQ(Count(sql, "HashJoin"), 2);
  auto res = db_.Execute(sql);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().rows.size(), 2u);
}

TEST_F(PlannerTest, CrossJoinWhenNoPredicate) {
  std::string sql = "SELECT b.id FROM big b, small s";
  EXPECT_EQ(Count(sql, "NestedLoopJoin"), 1);
  auto res = db_.Execute(sql);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().rows.size(), 250u);
}

TEST_F(PlannerTest, SmallerSideChosenFirst) {
  // The greedy order starts from the smallest estimated input; with the
  // selective filter on small, small should be the leftmost leaf.
  std::string text = Explain(
      "SELECT b.val FROM big b, small s WHERE b.grp = s.id AND s.tag = 't1'");
  size_t small_pos = text.find("small");
  size_t big_pos = text.find("big");
  ASSERT_NE(small_pos, std::string::npos);
  ASSERT_NE(big_pos, std::string::npos);
  EXPECT_LT(small_pos, big_pos) << text;
}

TEST_F(PlannerTest, DuplicateAliasRejected) {
  auto plan = db_.PlanSql("SELECT x.id FROM big x, small x");
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PlannerTest, SelectStarMixedWithItemsRejected) {
  auto plan = db_.PlanSql("SELECT *, id FROM big");
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
}

TEST_F(PlannerTest, OrPredicateIsNotSplitOrPushedIncorrectly) {
  auto res = db_.Execute(
      "SELECT b.id FROM big b, small s "
      "WHERE b.grp = s.id AND (b.id = 1 OR s.tag = 't2')");
  ASSERT_TRUE(res.ok()) << res.status();
  // grp=s.id join gives 50 rows; filter: id=1 (1 row) or tag='t2' (grp=2: 10
  // rows); id=1 has grp=1 tag t1 -> distinct rows = 11.
  EXPECT_EQ(res.value().rows.size(), 11u);
}

}  // namespace
}  // namespace xmlrdb::rdb
