// Tests for the DTD-driven inline mapping: schema planning, round-trip,
// oracle-differential queries, updates, and the no-join SQL translation.

#include <algorithm>

#include <gtest/gtest.h>

#include "shred/evaluator.h"
#include "shred/inline_mapping.h"
#include "workload/biblio.h"
#include "workload/xmark.h"
#include "xml/dtd.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/dom_eval.h"

namespace xmlrdb {
namespace {

using shred::InlineMapping;

std::unique_ptr<xml::Dtd> MustParseDtd(const std::string& text) {
  auto dtd = xml::ParseDtd(text);
  EXPECT_TRUE(dtd.ok()) << dtd.status();
  return std::move(dtd).value();
}

std::unique_ptr<InlineMapping> MustCreate(const std::string& dtd_text,
                                          const std::string& root,
                                          bool no_inline = false) {
  auto dtd = MustParseDtd(dtd_text);
  auto m = InlineMapping::Create(*dtd, root, no_inline);
  EXPECT_TRUE(m.ok()) << m.status();
  return std::move(m).value();
}

TEST(InlineSchemaPlan, BiblioTables) {
  auto m = MustCreate(workload::BiblioDtd(), "bib");
  std::vector<std::string> tables = m->TableElementNames();
  std::sort(tables.begin(), tables.end());
  // bib (root), book/article (set-valued under bib), author (set-valued
  // under article + shared with book). title is shared (book & article) so
  // it is a table too. firstname/lastname/publisher/journal inline.
  EXPECT_NE(std::find(tables.begin(), tables.end(), "bib"), tables.end());
  EXPECT_NE(std::find(tables.begin(), tables.end(), "book"), tables.end());
  EXPECT_NE(std::find(tables.begin(), tables.end(), "article"), tables.end());
  EXPECT_NE(std::find(tables.begin(), tables.end(), "author"), tables.end());
  EXPECT_EQ(std::find(tables.begin(), tables.end(), "firstname"), tables.end());
  EXPECT_EQ(std::find(tables.begin(), tables.end(), "lastname"), tables.end());
  EXPECT_EQ(std::find(tables.begin(), tables.end(), "publisher"), tables.end());
}

TEST(InlineSchemaPlan, RecursiveDtdGetsTables) {
  const char* dtd = R"(
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
)";
  auto m = MustCreate(dtd, "part");
  std::vector<std::string> tables = m->TableElementNames();
  EXPECT_NE(std::find(tables.begin(), tables.end(), "part"), tables.end());
}

TEST(InlineSchemaPlan, MissingRootRejected) {
  auto dtd = MustParseDtd("<!ELEMENT a (#PCDATA)>");
  auto m = InlineMapping::Create(*dtd, "nonexistent");
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

void ExpectInlineRoundtrip(const std::string& dtd_text, const std::string& root,
                           const xml::Document& doc, bool no_inline = false) {
  auto m = MustCreate(dtd_text, root, no_inline);
  rdb::Database db;
  ASSERT_TRUE(m->Initialize(&db).ok());
  auto stored = m->Store(doc, &db);
  ASSERT_TRUE(stored.ok()) << stored.status();
  auto rebuilt = m->Reconstruct(&db, stored.value());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(xml::Canonicalize(doc), xml::Canonicalize(*rebuilt.value()));
}

TEST(InlineRoundtrip, Biblio) {
  workload::BiblioConfig cfg;
  cfg.books = 25;
  cfg.articles = 30;
  auto doc = workload::GenerateBiblio(cfg);
  ExpectInlineRoundtrip(workload::BiblioDtd(), "bib", *doc);
}

TEST(InlineRoundtrip, BiblioNoInliningAblation) {
  workload::BiblioConfig cfg;
  cfg.books = 10;
  cfg.articles = 10;
  auto doc = workload::GenerateBiblio(cfg);
  ExpectInlineRoundtrip(workload::BiblioDtd(), "bib", *doc, /*no_inline=*/true);
}

TEST(InlineRoundtrip, Auction) {
  workload::XMarkConfig cfg;
  cfg.scale = 0.05;
  auto doc = workload::GenerateXMark(cfg);
  ExpectInlineRoundtrip(workload::XMarkDtd(), "site", *doc);
}

// Inline node ids embed decimal row ids ("inl_person|1003|name"); node sets
// must order them numerically, or sibling order breaks once ids reach four
// digits — which XMark 0.5 does.
TEST(InlineDocumentOrder, FourDigitRowIdsKeepDomOrder) {
  workload::XMarkConfig cfg;
  cfg.scale = 0.5;
  cfg.seed = 7;
  auto doc = workload::GenerateXMark(cfg);
  auto m = MustCreate(workload::XMarkDtd(), "site");
  rdb::Database db;
  ASSERT_TRUE(m->Initialize(&db).ok());
  auto stored = m->Store(*doc, &db);
  ASSERT_TRUE(stored.ok()) << stored.status();
  auto path = xpath::ParseXPath("/site/people/person/name");
  ASSERT_TRUE(path.ok());
  auto nodes = xpath::EvalOnDom(path.value(), *doc->doc_node());
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  std::vector<std::string> expected;
  for (const xml::Node* n : nodes.value()) expected.push_back(n->StringValue());
  auto got = shred::EvalPathStrings(path.value(), m.get(), &db, stored.value());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_GT(expected.size(), 100u);
  EXPECT_EQ(got.value(), expected);
}

TEST(InlineRoundtrip, RecursiveDocument) {
  const char* dtd = R"(
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
<!ATTLIST part id CDATA #REQUIRED>
)";
  auto doc = xml::Parse(
      "<part id=\"1\"><name>engine</name>"
      "<part id=\"2\"><name>piston</name></part>"
      "<part id=\"3\"><name>valve</name>"
      "<part id=\"4\"><name>spring</name></part></part></part>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ExpectInlineRoundtrip(dtd, "part", *doc.value());
}

TEST(InlineStore, NonConformingDocumentRejected) {
  auto m = MustCreate(workload::BiblioDtd(), "bib");
  rdb::Database db;
  ASSERT_TRUE(m->Initialize(&db).ok());
  auto doc = xml::Parse("<bib><movie><title>x</title></movie></bib>");
  ASSERT_TRUE(doc.ok());
  auto stored = m->Store(*doc.value(), &db);
  EXPECT_FALSE(stored.ok());
  EXPECT_EQ(stored.status().code(), StatusCode::kConstraintError);
}

TEST(InlineStore, WrongRootRejected) {
  auto m = MustCreate(workload::BiblioDtd(), "bib");
  rdb::Database db;
  ASSERT_TRUE(m->Initialize(&db).ok());
  auto doc = xml::Parse("<library/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(m->Store(*doc.value(), &db).status().code(),
            StatusCode::kConstraintError);
}

class InlineQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::BiblioConfig cfg;
    cfg.books = 30;
    cfg.articles = 30;
    doc_ = workload::GenerateBiblio(cfg);
    mapping_ = MustCreate(workload::BiblioDtd(), "bib");
    ASSERT_TRUE(mapping_->Initialize(&db_).ok());
    auto stored = mapping_->Store(*doc_, &db_);
    ASSERT_TRUE(stored.ok()) << stored.status();
    doc_id_ = stored.value();
  }

  std::vector<std::string> Oracle(const std::string& xpath) {
    auto path = xpath::ParseXPath(xpath);
    EXPECT_TRUE(path.ok()) << path.status();
    auto nodes = xpath::EvalOnDom(path.value(), *doc_->doc_node());
    EXPECT_TRUE(nodes.ok()) << nodes.status();
    std::vector<std::string> out;
    for (const xml::Node* n : nodes.value()) out.push_back(n->StringValue());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<std::string> Got(const std::string& xpath) {
    auto path = xpath::ParseXPath(xpath);
    EXPECT_TRUE(path.ok()) << path.status();
    auto values =
        shred::EvalPathStrings(path.value(), mapping_.get(), &db_, doc_id_);
    EXPECT_TRUE(values.ok()) << values.status();
    std::vector<std::string> out =
        values.ok() ? values.value() : std::vector<std::string>{};
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<InlineMapping> mapping_;
  rdb::Database db_;
  shred::DocId doc_id_ = 0;
};

TEST_F(InlineQueryTest, MatchesOracle) {
  for (const std::string& xpath : std::vector<std::string>{
           "/bib/book/title",
           "/bib/article/author/lastname",
           "//author[firstname]/lastname",
           "//title",
           "/bib/book/@year",
           "/bib/*/title",
           "/bib/book[2]/title",
           "//author/@age",
           "//book[@price > 100]/title",
           "/bib/article[author/lastname]/journal",
       }) {
    EXPECT_EQ(Oracle(xpath), Got(xpath)) << "path=" << xpath;
  }
}

TEST_F(InlineQueryTest, InsertAndDeleteSubtree) {
  // Append a new book and verify it becomes visible.
  auto new_book = xml::ParseFragment(
      "<book year=\"2003\"><title>Brand New</title>"
      "<author><firstname>Ann</firstname><lastname>Author</lastname></author>"
      "</book>");
  ASSERT_TRUE(new_book.ok()) << new_book.status();
  auto root = mapping_->RootElement(&db_, doc_id_);
  ASSERT_TRUE(root.ok());
  size_t before = Got("/bib/book/title").size();
  ASSERT_TRUE(
      mapping_->InsertSubtree(&db_, doc_id_, root.value(), *new_book.value())
          .ok());
  auto titles = Got("/bib/book/title");
  EXPECT_EQ(titles.size(), before + 1);
  EXPECT_TRUE(std::binary_search(titles.begin(), titles.end(),
                                 std::string("Brand New")));

  // Delete one book subtree.
  auto path = xpath::ParseXPath("/bib/book[title = 'Brand New']");
  ASSERT_TRUE(path.ok());
  auto nodes = shred::EvalPath(path.value(), mapping_.get(), &db_, doc_id_);
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  ASSERT_EQ(nodes.value().size(), 1u);
  ASSERT_TRUE(mapping_->DeleteSubtree(&db_, doc_id_, nodes.value()[0]).ok());
  EXPECT_EQ(Got("/bib/book/title").size(), before);
}

TEST_F(InlineQueryTest, TranslateNeedsNoJoinForInlinedLeaf) {
  auto path = xpath::ParseXPath("/bib/article/journal");
  ASSERT_TRUE(path.ok());
  auto sql = mapping_->TranslatePathToSql(doc_id_, path.value());
  ASSERT_TRUE(sql.ok()) << sql.status();
  // journal is inlined into inl_article: exactly two tables referenced
  // (bib root + article), journal adds none.
  auto plan = db_.PlanSql(sql.value());
  ASSERT_TRUE(plan.ok()) << plan.status() << "\nSQL: " << sql.value();
  auto rows = rdb::ExecutePlan(plan.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), Oracle("/bib/article/journal").size());
  EXPECT_EQ(plan.value()->CountTableAccesses(), 2) << plan.value()->Explain();
}

TEST(InlineAblation, NoInliningNeedsMoreJoins) {
  auto with = MustCreate(workload::BiblioDtd(), "bib", false);
  auto without = MustCreate(workload::BiblioDtd(), "bib", true);
  // Pure element-per-table must create strictly more tables.
  EXPECT_GT(without->TableElementNames().size(),
            with->TableElementNames().size());
}

}  // namespace
}  // namespace xmlrdb
