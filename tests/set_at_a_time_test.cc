// Set-at-a-time read primitives: a StringValues or Step call issues the same
// number of SQL statements for one input node as for every person of an
// XMark document, inline reconstruction of a whole document stays within a
// fixed statement budget, and every answer equals the DOM's, node by node
// and in order.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "shred/evaluator.h"
#include "shred/inline_mapping.h"
#include "shred/registry.h"
#include "workload/queries.h"
#include "workload/xmark.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/dom_eval.h"

namespace xmlrdb {
namespace {

using shred::NodeSet;
using shred::StepResult;
using xpath::Axis;

std::unique_ptr<shred::Mapping> MakeMapping(const std::string& name,
                                            const std::string& dtd,
                                            const std::string& root) {
  if (name == "inline") {
    auto parsed = xml::ParseDtd(dtd);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    auto m = shred::InlineMapping::Create(*parsed.value(), root);
    EXPECT_TRUE(m.ok()) << m.status();
    return std::move(m).value();
  }
  auto m = shred::CreateMapping(name);
  EXPECT_TRUE(m.ok()) << m.status();
  return std::move(m).value();
}

/// SQL statements `fn` issues.
int64_t Statements(const std::function<void()>& fn) {
  ScopedMetricsCapture capture;
  fn();
  MetricsSnapshot delta = capture.Delta();
  auto it = delta.find("sql.statements");
  return it == delta.end() ? 0 : it->second;
}

/// One document stored under one mapping.
struct Stored {
  std::unique_ptr<shred::Mapping> mapping;
  rdb::Database db;
  shred::DocId doc = 0;
};

std::unique_ptr<Stored> Store(const std::string& mapping,
                              const std::string& dtd, const std::string& root,
                              const xml::Document& dom) {
  auto s = std::make_unique<Stored>();
  s->mapping = MakeMapping(mapping, dtd, root);
  EXPECT_TRUE(s->mapping->Initialize(&s->db).ok());
  auto id = s->mapping->Store(dom, &s->db);
  EXPECT_TRUE(id.ok()) << id.status();
  s->doc = id.ok() ? id.value() : 0;
  return s;
}

NodeSet Eval(Stored* s, const std::string& xpath) {
  auto path = xpath::ParseXPath(xpath);
  EXPECT_TRUE(path.ok()) << path.status();
  auto nodes = shred::EvalPath(path.value(), s->mapping.get(), &s->db, s->doc);
  EXPECT_TRUE(nodes.ok()) << nodes.status();
  return nodes.ok() ? nodes.value() : NodeSet{};
}

std::vector<const xml::Node*> EvalDom(const xml::Document& dom,
                                      const std::string& xpath) {
  auto path = xpath::ParseXPath(xpath);
  EXPECT_TRUE(path.ok()) << path.status();
  auto nodes = xpath::EvalOnDom(path.value(), *dom.doc_node());
  EXPECT_TRUE(nodes.ok()) << nodes.status();
  return nodes.ok() ? nodes.value() : std::vector<const xml::Node*>{};
}

std::vector<std::string> Strings(Stored* s, const NodeSet& nodes) {
  auto values = s->mapping->StringValues(&s->db, s->doc, nodes);
  EXPECT_TRUE(values.ok()) << values.status();
  return values.ok() ? values.value() : std::vector<std::string>{};
}

/// (context index, string value) per step result, in result order.
using Pairs = std::vector<std::pair<size_t, std::string>>;

class SetAtATimeTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    workload::XMarkConfig cfg;
    cfg.scale = 0.5;
    cfg.seed = 7;
    dom_ = workload::GenerateXMark(cfg).release();
    stores_ = new std::map<std::string, std::unique_ptr<Stored>>();
  }
  static void TearDownTestSuite() {
    delete stores_;
    delete dom_;
  }

  void SetUp() override {
    auto& slot = (*stores_)[GetParam()];
    if (slot == nullptr) {
      slot = Store(GetParam(), workload::XMarkDtd(), "site", *dom_);
    }
    s_ = slot.get();
    persons_ = Eval(s_, "/site/people/person");
    dom_persons_ = EvalDom(*dom_, "/site/people/person");
    ASSERT_EQ(persons_.size(), dom_persons_.size());
    ASSERT_GT(persons_.size(), 100u);
    // The one-node input: the person whose subtree is deepest and, among
    // those, largest, so it reaches every level and child table that the
    // whole set reaches.
    auto shape = [](const xml::Node* n) {
      std::function<std::pair<int, int>(const xml::Node*)> walk =
          [&](const xml::Node* x) {
            std::pair<int, int> out{0, 1};
            for (const auto& c : x->children()) {
              if (!c->IsElement()) continue;
              auto [depth, size] = walk(c.get());
              out.first = std::max(out.first, depth + 1);
              out.second += size;
            }
            return out;
          };
      return walk(n);
    };
    for (size_t i = 1; i < dom_persons_.size(); ++i) {
      if (shape(dom_persons_[i]) > shape(dom_persons_[richest_])) richest_ = i;
    }
  }

  std::vector<StepResult> Step(const NodeSet& ctx, Axis axis) {
    auto out = s_->mapping->Step(&s_->db, s_->doc, ctx, axis, "*");
    EXPECT_TRUE(out.ok()) << out.status();
    return out.ok() ? out.value() : std::vector<StepResult>{};
  }

  /// The step's results over all persons as (person index, string value).
  Pairs StepPairs(Axis axis) {
    std::map<std::string, size_t> index;
    for (size_t i = 0; i < persons_.size(); ++i) {
      index[persons_[i].ToString()] = i;
    }
    std::vector<StepResult> results = Step(persons_, axis);
    NodeSet nodes;
    for (const StepResult& r : results) nodes.push_back(r.node);
    std::vector<std::string> values = Strings(s_, nodes);
    Pairs out;
    for (size_t i = 0; i < results.size() && i < values.size(); ++i) {
      out.emplace_back(index.at(results[i].context.ToString()), values[i]);
    }
    return out;
  }

  /// The same from the DOM; `children` lists a node's results in order.
  Pairs DomPairs(
      const std::function<std::vector<const xml::Node*>(const xml::Node*)>&
          children) {
    Pairs out;
    for (size_t i = 0; i < dom_persons_.size(); ++i) {
      for (const xml::Node* n : children(dom_persons_[i])) {
        out.emplace_back(i, n->StringValue());
      }
    }
    return out;
  }

  /// Statements for the richest person alone, and for every person.
  std::pair<int64_t, int64_t> OneVersusAll(
      const std::function<void(const NodeSet&)>& call) {
    NodeSet one{persons_[richest_]};
    return {Statements([&] { call(one); }),
            Statements([&] { call(persons_); })};
  }

  static xml::Document* dom_;
  static std::map<std::string, std::unique_ptr<Stored>>* stores_;
  Stored* s_ = nullptr;
  NodeSet persons_;
  std::vector<const xml::Node*> dom_persons_;
  size_t richest_ = 0;
};

xml::Document* SetAtATimeTest::dom_ = nullptr;
std::map<std::string, std::unique_ptr<Stored>>* SetAtATimeTest::stores_ =
    nullptr;

std::vector<const xml::Node*> ElementChildren(const xml::Node* n) {
  std::vector<const xml::Node*> out;
  for (const auto& c : n->children()) {
    if (c->IsElement()) out.push_back(c.get());
  }
  return out;
}

/// Element descendants in document order, or level by level (the inline
/// mapping's descendant order within one context).
std::vector<const xml::Node*> Descendants(const xml::Node* n,
                                          bool level_order) {
  std::vector<const xml::Node*> out;
  if (level_order) {
    std::vector<const xml::Node*> level = ElementChildren(n);
    while (!level.empty()) {
      std::vector<const xml::Node*> below;
      for (const xml::Node* x : level) {
        out.push_back(x);
        for (const xml::Node* c : ElementChildren(x)) below.push_back(c);
      }
      level = std::move(below);
    }
    return out;
  }
  for (const xml::Node* c : ElementChildren(n)) {
    out.push_back(c);
    for (const xml::Node* d : Descendants(c, false)) out.push_back(d);
  }
  return out;
}

TEST_P(SetAtATimeTest, StringValuesStatementsDoNotGrowWithInput) {
  auto [one, all] = OneVersusAll([&](const NodeSet& n) { Strings(s_, n); });
  EXPECT_EQ(one, all);
  std::vector<std::string> want;
  for (const xml::Node* p : dom_persons_) want.push_back(p->StringValue());
  EXPECT_EQ(Strings(s_, persons_), want);
}

TEST_P(SetAtATimeTest, ChildStepStatementsDoNotGrowWithInput) {
  auto [one, all] =
      OneVersusAll([&](const NodeSet& n) { Step(n, Axis::kChild); });
  EXPECT_EQ(one, all);
  EXPECT_EQ(StepPairs(Axis::kChild), DomPairs(ElementChildren));
}

TEST_P(SetAtATimeTest, AttributeStepStatementsDoNotGrowWithInput) {
  auto [one, all] =
      OneVersusAll([&](const NodeSet& n) { Step(n, Axis::kAttribute); });
  EXPECT_EQ(one, all);
  Pairs want = DomPairs([](const xml::Node* n) {
    std::vector<const xml::Node*> out;
    for (const auto& a : n->attributes()) out.push_back(a.get());
    return out;
  });
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(StepPairs(Axis::kAttribute), want);
}

TEST_P(SetAtATimeTest, DescendantStepStatementsDoNotGrowWithInput) {
  auto [one, all] =
      OneVersusAll([&](const NodeSet& n) { Step(n, Axis::kDescendant); });
  EXPECT_EQ(one, all);
  const bool level_order = GetParam() == "inline";
  EXPECT_EQ(StepPairs(Axis::kDescendant),
            DomPairs([&](const xml::Node* n) {
              return Descendants(n, level_order);
            }));
}

// Q1–Q12 in order, not as multisets: inline's in-context order included.
TEST_P(SetAtATimeTest, AuctionQueriesMatchTheDomInOrder) {
  for (const auto& q : workload::AuctionQueries()) {
    std::vector<std::string> want;
    for (const xml::Node* n : EvalDom(*dom_, q.xpath)) {
      want.push_back(n->StringValue());
    }
    EXPECT_EQ(Strings(s_, Eval(s_, q.xpath)), want) << q.id << " " << q.xpath;
  }
}

INSTANTIATE_TEST_SUITE_P(Mappings, SetAtATimeTest,
                         ::testing::Values("inline", "interval"));

TEST(SetAtATimeInline, ReconstructIssuesABoundedNumberOfStatements) {
  workload::XMarkConfig cfg;
  cfg.scale = 0.5;
  cfg.seed = 7;
  auto dom = workload::GenerateXMark(cfg);
  auto s = Store("inline", workload::XMarkDtd(), "site", *dom);
  std::unique_ptr<xml::Document> rebuilt;
  int64_t statements = Statements([&] {
    auto r = s->mapping->Reconstruct(&s->db, s->doc);
    ASSERT_TRUE(r.ok()) << r.status();
    rebuilt = std::move(r).value();
  });
  EXPECT_LE(statements, 64);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_EQ(xml::Canonicalize(*rebuilt), xml::Canonicalize(*dom));
}

// Mixed content and attribute inputs in one StringValues call. The inline
// mapping stores an element's text before its element children, so the
// document puts the text first.
class SetAtATimeMixedTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SetAtATimeMixedTest, MixedContentAndAttributesMatchTheDom) {
  const char* dtd = R"(
<!ELEMENT doc (para*)>
<!ELEMENT para (#PCDATA | b)*>
<!ELEMENT b (#PCDATA)>
<!ATTLIST para id CDATA #REQUIRED>
)";
  auto dom = xml::Parse(
      "<doc><para id=\"p1\">lead text <b>one</b><b>two</b></para>"
      "<para id=\"p2\">plain</para></doc>");
  ASSERT_TRUE(dom.ok()) << dom.status();
  auto s = Store(GetParam(), dtd, "doc", *dom.value());
  NodeSet paras = Eval(s.get(), "/doc/para");
  NodeSet ids = Eval(s.get(), "/doc/para/@id");
  NodeSet bs = Eval(s.get(), "/doc/para/b");
  NodeSet root = Eval(s.get(), "/doc");
  ASSERT_EQ(paras.size(), 2u);
  ASSERT_EQ(ids.size(), 2u);
  ASSERT_EQ(bs.size(), 2u);
  ASSERT_EQ(root.size(), 1u);
  auto dparas = EvalDom(*dom.value(), "/doc/para");
  auto dids = EvalDom(*dom.value(), "/doc/para/@id");
  auto dbs = EvalDom(*dom.value(), "/doc/para/b");
  auto droot = EvalDom(*dom.value(), "/doc");

  NodeSet input{paras[0], ids[1], root[0], bs[1], ids[0], paras[1], paras[0]};
  std::vector<const xml::Node*> want_nodes{dparas[0], dids[1], droot[0], dbs[1],
                                           dids[0],   dparas[1], dparas[0]};
  std::vector<std::string> want;
  for (const xml::Node* n : want_nodes) want.push_back(n->StringValue());
  EXPECT_EQ(want[0], "lead text onetwo");
  EXPECT_EQ(Strings(s.get(), input), want);
}

INSTANTIATE_TEST_SUITE_P(Mappings, SetAtATimeMixedTest,
                         ::testing::Values("inline", "interval"));

}  // namespace
}  // namespace xmlrdb
