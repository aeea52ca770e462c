// Tests for single-statement SQL translation (TranslatePathToSql): the
// generated SQL, run through the engine, must return exactly the node ids the
// step-wise evaluator returns.

#include <algorithm>

#include <gtest/gtest.h>

#include "shred/edge_mapping.h"
#include "shred/evaluator.h"
#include "shred/interval_mapping.h"
#include "shred/registry.h"
#include "workload/xmark.h"
#include "xpath/xpath_ast.h"

namespace xmlrdb {
namespace {

using shred::DocId;
using shred::Mapping;

class TranslateTest : public ::testing::Test {
 protected:
  void StoreInto(Mapping* m) {
    workload::XMarkConfig cfg;
    cfg.scale = 0.05;
    auto doc = workload::GenerateXMark(cfg);
    ASSERT_TRUE(m->Initialize(&db_).ok());
    auto stored = m->Store(*doc, &db_);
    ASSERT_TRUE(stored.ok()) << stored.status();
    id_ = stored.value();
  }

  /// Sorted ids from the step-wise evaluator.
  std::vector<int64_t> Stepwise(Mapping* m, const std::string& xpath) {
    auto p = xpath::ParseXPath(xpath);
    EXPECT_TRUE(p.ok());
    auto nodes = shred::EvalPath(p.value(), m, &db_, id_);
    EXPECT_TRUE(nodes.ok()) << nodes.status();
    std::vector<int64_t> out;
    for (const auto& v : nodes.value()) out.push_back(v.AsInt());
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Sorted ids from executing the translated SQL.
  std::vector<int64_t> ViaSql(Mapping* m, const std::string& xpath) {
    auto p = xpath::ParseXPath(xpath);
    EXPECT_TRUE(p.ok());
    auto sql = m->TranslatePathToSql(id_, p.value());
    EXPECT_TRUE(sql.ok()) << sql.status();
    if (!sql.ok()) return {};
    auto res = db_.Execute(sql.value());
    EXPECT_TRUE(res.ok()) << sql.value() << "\n" << res.status();
    std::vector<int64_t> out;
    if (res.ok()) {
      for (const auto& row : res.value().rows) out.push_back(row[0].AsInt());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  rdb::Database db_;
  DocId id_ = 0;
};

TEST_F(TranslateTest, EdgeChildPaths) {
  shred::EdgeMapping m;
  StoreInto(&m);
  for (const std::string& xpath : std::vector<std::string>{
           "/site/people/person/name",
           "/site/regions/africa/item",
           "/site/open_auctions/open_auction/bidder/increase",
           "/site/people/person/@id",
           "/site/regions/*/item",
       }) {
    EXPECT_EQ(Stepwise(&m, xpath), ViaSql(&m, xpath)) << xpath;
  }
}

TEST_F(TranslateTest, EdgeRejectsDescendantAndPredicates) {
  shred::EdgeMapping m;
  StoreInto(&m);
  auto p1 = xpath::ParseXPath("//item");
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(m.TranslatePathToSql(id_, p1.value()).status().code(),
            StatusCode::kUnsupported);
  auto p2 = xpath::ParseXPath("/site/people/person[@id = 'person0']");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(m.TranslatePathToSql(id_, p2.value()).status().code(),
            StatusCode::kUnsupported);
}

TEST_F(TranslateTest, BinaryChildPaths) {
  auto m = shred::CreateMapping("binary");
  ASSERT_TRUE(m.ok());
  StoreInto(m.value().get());
  for (const std::string& xpath : std::vector<std::string>{
           "/site/people/person/name",
           "/site/regions/africa/item",
           "/site/people/person/@id",
       }) {
    EXPECT_EQ(Stepwise(m.value().get(), xpath), ViaSql(m.value().get(), xpath))
        << xpath;
  }
  // Wildcards require a union over partitions: unsupported as one statement.
  auto p = xpath::ParseXPath("/site/regions/*/item");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(m.value()->TranslatePathToSql(id_, p.value()).status().code(),
            StatusCode::kUnsupported);
}

TEST_F(TranslateTest, IntervalHandlesDescendantInOneStatement) {
  shred::IntervalMapping m;
  StoreInto(&m);
  for (const std::string& xpath : std::vector<std::string>{
           "/site/people/person/name",
           "//item",
           "/site/regions//item",
           "//person/@id",
           "//open_auction/bidder",
       }) {
    EXPECT_EQ(Stepwise(&m, xpath), ViaSql(&m, xpath)) << xpath;
  }
}

TEST_F(TranslateTest, JoinCountsMatchMappingStory) {
  // T6's claim in miniature: for /site/people/person/name the edge mapping
  // needs one edge-table alias per step; interval likewise self-joins; the
  // plan operator counts expose this.
  shred::EdgeMapping edge;
  StoreInto(&edge);
  auto p = xpath::ParseXPath("/site/people/person/name");
  ASSERT_TRUE(p.ok());
  auto sql = edge.TranslatePathToSql(id_, p.value());
  ASSERT_TRUE(sql.ok());
  auto plan = db_.PlanSql(sql.value());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value()->CountJoins(), 3)  // 4 steps -> 3 joins
      << plan.value()->Explain();
}

}  // namespace
}  // namespace xmlrdb
