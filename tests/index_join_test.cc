// Index nested-loop join vs hash join: the same join built both ways over
// the same tables must return the same rows — NULL keys, int/double and
// string/int key pairs, NULL and wrongly typed `?` prefix values, stale
// index entries left under an open snapshot by an UPDATE of the join key
// and by a DELETE, latest-state reads without a read view, and the row and
// batch executors. The planner-level half checks that an indexed equi-join
// plans as IndexNestedLoopJoin and answers like the unindexed hash join.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdb/batch.h"
#include "rdb/database.h"
#include "rdb/mvcc.h"
#include "rdb/plan.h"

namespace xmlrdb::rdb {
namespace {

/// A `?` whose value the test sets directly.
struct Param {
  std::shared_ptr<std::vector<Value>> block =
      std::make_shared<std::vector<Value>>(1);
  ExprPtr Expr() const { return std::make_unique<ParamExpr>(0, block); }
};

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return rows;
}

std::string Dump(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& r : rows) out += RowToString(r) + "\n";
  return out;
}

class IndexJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE o (id INTEGER, k INTEGER, kd DOUBLE, ks VARCHAR)");
    Exec("CREATE TABLE t (docid INTEGER, k INTEGER, v VARCHAR)");
    Exec("CREATE INDEX t_key ON t (docid, k)");
    Exec("INSERT INTO o VALUES (1, 1, 1.0, '1'), (2, 2, 2.5, 'x'), "
         "(3, NULL, NULL, NULL), (4, 3, 3.0, '3'), (5, 9, 9.0, '9'), "
         "(6, 1, 1.0, '1'), (7, NULL, 9200000000000000000.0, NULL)");
    Exec("INSERT INTO t VALUES (1, 1, 'a'), (1, 1, 'b'), (1, 2, 'c'), "
         "(1, NULL, 'n'), (2, 1, 'd'), (NULL, 1, 'e'), (1, 3, 'f'), "
         "(2, 3, 'g'), (1, 9200000000000000000, 'h')");
  }

  void Exec(const std::string& sql) {
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  }

  const Table* T(const std::string& name) { return db_.FindTable(name); }

  /// o JOIN t ON t.k = o.<key> WHERE t.docid = <prefix> [AND filter], as a
  /// hash join over a filtered scan of t.
  PlanPtr HashPlan(const std::string& key, const ExprPtr& prefix,
                   const ExprPtr& filter) {
    ExprPtr pred = Eq(Col("t.docid"), prefix->Clone());
    if (filter != nullptr) pred = And(std::move(pred), filter->Clone());
    auto inner = std::make_unique<FilterNode>(
        std::make_unique<SeqScanNode>(T("t"), "t"), std::move(pred));
    std::vector<ExprPtr> lkeys, rkeys;
    lkeys.push_back(Col("o." + key));
    rkeys.push_back(Col("t.k"));
    return std::make_unique<HashJoinNode>(
        std::make_unique<SeqScanNode>(T("o"), "o"), std::move(inner),
        std::move(lkeys), std::move(rkeys), nullptr);
  }

  /// The same join as an index nested-loop join seeking t_key.
  PlanPtr IndexPlan(const std::string& key, const ExprPtr& prefix,
                    const ExprPtr& filter) {
    std::vector<ExprPtr> pre, okeys;
    pre.push_back(prefix->Clone());
    okeys.push_back(Col("o." + key));
    return std::make_unique<IndexNestedLoopJoinNode>(
        std::make_unique<SeqScanNode>(T("o"), "o"), T("t"),
        T("t")->FindIndex("t_key"), "t", std::move(pre), std::move(okeys),
        std::vector<size_t>{1}, 1,
        filter == nullptr ? nullptr : filter->Clone(),
        Eq(Col("t.docid"), prefix->Clone()));
  }

  static std::vector<Row> Run(PlanPtr plan, ExecMode mode) {
    ScopedExecMode scoped(mode);
    auto rows = ExecutePlan(plan.get());
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? rows.value() : std::vector<Row>{};
  }

  /// Runs both joins under both executors; returns the (sorted) answer.
  std::vector<Row> ExpectSame(const std::string& key, const ExprPtr& prefix,
                              const ExprPtr& filter = nullptr) {
    std::vector<Row> hash_rows = Sorted(Run(HashPlan(key, prefix, filter),
                                            ExecMode::kBatch));
    std::vector<Row> index_row = Run(IndexPlan(key, prefix, filter),
                                     ExecMode::kRow);
    std::vector<Row> index_batch = Run(IndexPlan(key, prefix, filter),
                                       ExecMode::kBatch);
    // Outer order, then index order: both executors emit the same sequence.
    EXPECT_EQ(Dump(index_row), Dump(index_batch)) << "key " << key;
    EXPECT_EQ(Dump(Sorted(index_row)), Dump(hash_rows)) << "key " << key;
    EXPECT_EQ(Dump(Sorted(Run(HashPlan(key, prefix, filter), ExecMode::kRow))),
              Dump(hash_rows));
    return hash_rows;
  }

  Database db_;
};

TEST_F(IndexJoinTest, IntKeysAndNullKeysMatchHashJoin) {
  // o.k: 1, 2, NULL, 3, 9, 1 against docid-1 rows k = 1, 1, 2, NULL, 3. The
  // NULL outer key and the NULL inner key never join.
  auto rows = ExpectSame("k", Lit(int64_t{1}));
  EXPECT_EQ(rows.size(), 6u) << Dump(rows);  // 2 + 1 + 0 + 1 + 0 + 2
}

TEST_F(IndexJoinTest, IntDoubleKeysMatchByValue) {
  // 1.0 and 3.0 join the integer keys, 2.5 and NULL join nothing. 9.2e18
  // compares equal to the integer 9200000000000000000 but hashes apart from
  // it, so the hash join — and therefore the index join — leaves it out.
  auto rows = ExpectSame("kd", Lit(int64_t{1}));
  EXPECT_EQ(rows.size(), 5u) << Dump(rows);
}

TEST_F(IndexJoinTest, StringKeysNeverMatchIntKeys) {
  auto rows = ExpectSame("ks", Lit(int64_t{1}));
  EXPECT_TRUE(rows.empty()) << Dump(rows);
}

TEST_F(IndexJoinTest, InnerFilterAppliesToEveryProbe) {
  auto rows = ExpectSame("k", Lit(int64_t{1}), Bin(BinOp::kNe, Col("t.v"),
                                                   Lit(std::string("b"))));
  EXPECT_EQ(rows.size(), 4u) << Dump(rows);
}

TEST_F(IndexJoinTest, ParameterPrefixOfAnyTypeMatchesHashJoin) {
  Param p;
  const std::vector<std::pair<Value, size_t>> cases = {
      {Value(int64_t{1}), 6},   // usable: seek
      {Value(2.0), 3},          // numeric: seeks docid 2
      {Value::Null(), 0},       // NULL never equals
      {Value("1"), 6},          // parsed by the comparison: falls back
      {Value("one"), 0},        // unparsable string
      {Value(true), 0},         // bool vs int never equal
  };
  for (const auto& [v, expected] : cases) {
    (*p.block)[0] = v;
    auto rows = ExpectSame("k", p.Expr());
    EXPECT_EQ(rows.size(), expected) << "prefix " << v.ToString() << "\n"
                                     << Dump(rows);
  }
}

TEST_F(IndexJoinTest, StaleEntriesUnderOpenSnapshotAreSkipped) {
  const ExprPtr prefix = Lit(int64_t{1});
  const std::vector<Row> before = ExpectSame("k", prefix);
  ReadSnapshot snap(&db_);
  // Move a join key and a prefix key (lazy maintenance adds a second entry
  // for each row) and delete a row (its entry stays for older snapshots).
  Exec("UPDATE t SET k = 3 WHERE v = 'a'");
  Exec("UPDATE t SET docid = 2 WHERE v = 'b'");
  Exec("DELETE FROM t WHERE v = 'c'");
  {
    MvccReadView view;
    view.snapshot = snap.lsn();
    ScopedReadView scoped(view);
    EXPECT_EQ(Dump(ExpectSame("k", prefix)), Dump(before));
  }
  MvccReadView fresh;
  fresh.snapshot = MvccEngine::Global().visible_lsn();
  ScopedReadView scoped(fresh);
  auto after = ExpectSame("k", prefix);
  // 'a' now joins o.k = 3 (and no longer o.k = 1 through its old entry),
  // 'b' left docid 1 and 'c' is gone: only a and f, for o.k = 3.
  EXPECT_EQ(after.size(), 2u) << Dump(after);
}

TEST_F(IndexJoinTest, LatestStateReadsMatchHashJoin) {
  // No read view installed: direct executor use reads the latest state.
  Exec("UPDATE t SET k = 2 WHERE v = 'b'");
  Exec("DELETE FROM t WHERE v = 'f'");
  ASSERT_EQ(CurrentReadView(), nullptr);
  auto rows = ExpectSame("k", Lit(int64_t{1}));
  EXPECT_EQ(rows.size(), 4u) << Dump(rows);  // a, a (o.k = 1); b, c (o.k = 2)
}

/// Runs `sql` and returns its rows sorted.
std::vector<Row> Query(Database* db, const std::string& sql) {
  auto r = db->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  return r.ok() ? Sorted(r.value().rows) : std::vector<Row>{};
}

TEST(IndexJoinPlanTest, PlannedIndexJoinMatchesHashJoin) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE ctx (id INTEGER)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE n (docid INTEGER, src INTEGER, "
                         "name VARCHAR)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO ctx VALUES (1), (2), (NULL), (4)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO n VALUES (1, 1, 'x'), (1, 1, 'y'), "
                         "(1, 2, 'x'), (2, 1, 'x'), (1, NULL, 'x'), "
                         "(1, 4, 'z')")
                  .ok());
  const std::string sql =
      "SELECT c.id, e.name FROM ctx c JOIN n e ON e.src = c.id "
      "WHERE e.docid = 1 AND e.name <> 'z'";
  auto hashed = db.Execute("EXPLAIN " + sql);
  ASSERT_TRUE(hashed.ok());
  EXPECT_NE(hashed.value().plan_text.find("HashJoin"), std::string::npos);
  const std::vector<Row> expected = Query(&db, sql);
  EXPECT_EQ(expected.size(), 3u) << Dump(expected);
  ASSERT_TRUE(db.Execute("CREATE INDEX n_src ON n (docid, src)").ok());
  auto indexed = db.Execute("EXPLAIN " + sql);
  ASSERT_TRUE(indexed.ok());
  EXPECT_NE(indexed.value().plan_text.find(
                "IndexNestedLoopJoin(n.n_src [e.docid = 1, e.src = c.id]"),
            std::string::npos)
      << indexed.value().plan_text;
  EXPECT_EQ(Dump(Query(&db, sql)), Dump(expected));
  ASSERT_TRUE(db.Execute("UPDATE n SET src = 2 WHERE name = 'y'").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM n WHERE src = 2 AND name = 'x'").ok());
  EXPECT_EQ(Query(&db, sql).size(), 2u) << Dump(Query(&db, sql));
}

TEST(IndexJoinPlanTest, ExplainAnalyzeShowsProbesAndRows) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE ctx (id INTEGER)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE n (docid INTEGER, src INTEGER)").ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX n_src ON n (docid, src)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO ctx VALUES (1), (2), (3)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO n VALUES (1, 1), (1, 1), (1, 3), (2, 1)").ok());
  auto r = db.Execute(
      "EXPLAIN ANALYZE SELECT c.id FROM ctx c JOIN n e ON e.src = c.id "
      "WHERE e.docid = 1");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r.value().plan_text.find("rows=3 batches=1 calls=0 probes=3 "
                                     "scanned=3"),
            std::string::npos)
      << r.value().plan_text;
}

}  // namespace
}  // namespace xmlrdb::rdb
