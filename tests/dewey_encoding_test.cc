// White-box tests for the Dewey key encoding and its ordering properties.

#include <gtest/gtest.h>

#include <iterator>

#include "shred/dewey_mapping.h"
#include "shred/evaluator.h"
#include "xml/parser.h"
#include "xpath/xpath_ast.h"

namespace xmlrdb::shred {
namespace {

TEST(DeweyEncodingTest, ComponentIsFixedWidth) {
  EXPECT_EQ(DeweyComponent(1), "000001");
  EXPECT_EQ(DeweyComponent(42), "000042");
  EXPECT_EQ(DeweyComponent(999999), "999999");
}

TEST(DeweyEncodingTest, ComponentOrderSurvivesWidthBoundary) {
  // The classic 6-digit pad breaks at 1000000: "1000000" < "999999" as
  // strings. The escape prefix keeps string order = numeric order.
  const int64_t ordinals[] = {1,          42,         999998,    999999,
                              1000000,    1000001,    9999999,   10000000,
                              123456789,  9999999999, 10000000000};
  for (size_t i = 0; i + 1 < std::size(ordinals); ++i) {
    EXPECT_LT(DeweyComponent(ordinals[i]), DeweyComponent(ordinals[i + 1]))
        << ordinals[i] << " vs " << ordinals[i + 1];
  }
}

TEST(DeweyEncodingTest, ComponentRoundTripsThroughDecoder) {
  for (int64_t n : {int64_t{1}, int64_t{999999}, int64_t{1000000},
                    int64_t{1000001}, int64_t{123456789}, int64_t{9999999999}}) {
    auto ordinal = DeweyComponentOrdinal(DeweyComponent(n));
    ASSERT_TRUE(ordinal.ok()) << n;
    EXPECT_EQ(ordinal.value(), n) << n;
  }
}

TEST(DeweyEncodingTest, DecoderRejectsCorruptComponents) {
  // Regression: the decoder used to run these through strtoll with no
  // errno/end-pointer checking, so garbage decoded to 0 (and overflow
  // clamped to INT64_MAX) instead of failing.
  const char* corrupt[] = {
      "",          // empty
      "abcdef",    // non-digits at full width
      "00001x",    // trailing garbage inside the fixed width
      "12345",     // wrong width (not a component the encoder emits)
      "1234567",   // wrong width, too long without escape
      "-00001",    // sign byte is not a digit position
      ":",         // escape marker alone
      ":3",        // escape marker without digits
      ":9123",     // escape width byte disagrees with digit count
      ":099999999999999999999999999",  // overflow (used to clamp)
      "      ",    // whitespace is not a digit
  };
  for (const char* c : corrupt) {
    auto ordinal = DeweyComponentOrdinal(c);
    EXPECT_FALSE(ordinal.ok()) << "'" << c << "' decoded to "
                               << (ordinal.ok() ? ordinal.value() : 0);
  }
}

TEST(DeweyEncodingTest, InsertSubtreeFailsOnCorruptStoredLabel) {
  DeweyMapping m;
  rdb::Database db;
  ASSERT_TRUE(m.Initialize(&db).ok());
  auto doc = xml::Parse("<a><b/></a>");
  ASSERT_TRUE(doc.ok());
  auto id = m.Store(*doc.value(), &db);
  ASSERT_TRUE(id.ok());
  // Corrupt the stored child label so the MAX(dewey) slot probe reads
  // garbage text where a component should be.
  auto upd = db.Execute(
      "UPDATE dw_nodes SET dewey = '000001.00bad!' WHERE name = 'b'");
  ASSERT_TRUE(upd.ok()) << upd.status();
  auto frag = xml::ParseFragment("<d/>");
  ASSERT_TRUE(frag.ok());
  auto status =
      m.InsertSubtree(&db, id.value(), rdb::Value("000001"), *frag.value());
  // Pre-fix this succeeded and landed the new node at slot 1 — on top of
  // the existing (corrupt-labelled) child.
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("corrupt dewey component"),
            std::string::npos)
      << status.ToString();
}

// Steps take a context's level from its label instead of a lookup, so the
// label's component count must equal the stored level column.
TEST(DeweyEncodingTest, LevelIsTheComponentCount) {
  EXPECT_EQ(DeweyLevel(DeweyComponent(1)), 1);
  EXPECT_EQ(DeweyLevel(DeweyChild(DeweyChild("000001", 3), 1000000)), 3);
  DeweyMapping m;
  rdb::Database db;
  ASSERT_TRUE(m.Initialize(&db).ok());
  auto doc = xml::Parse(
      "<a x=\"1\">t<b y=\"2\"><c>u</c><c/></b>v<b><c><d>w</d></c></b></a>");
  ASSERT_TRUE(doc.ok());
  auto id = m.Store(*doc.value(), &db);
  ASSERT_TRUE(id.ok());
  auto frag = xml::ParseFragment("<e><f>z</f></e>");
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE(m.InsertSubtree(&db, id.value(), rdb::Value("000001.000003"),
                              *frag.value())
                  .ok());
  auto r = db.Execute("SELECT dewey, level FROM dw_nodes");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r.value().rows.size(), 10u);
  for (const rdb::Row& row : r.value().rows) {
    EXPECT_EQ(DeweyLevel(row[0].AsString()), row[1].AsInt())
        << row[0].AsString();
  }
}

TEST(DeweyEncodingTest, WideComponentsKeepSubtreeRangeTight) {
  // Components never contain '.' or '/' and every character sorts above
  // '/', so the [d + ".", d + "/") subtree range still works.
  std::string wide = DeweyComponent(1000000);
  EXPECT_EQ(wide.find('.'), std::string::npos);
  EXPECT_EQ(wide.find('/'), std::string::npos);
  for (char c : wide) EXPECT_GT(c, '/');
  std::string d = DeweyChild("000001", 2);
  std::string wide_child = DeweyChild(d, 1000000);
  EXPECT_GT(wide_child, d + ".");
  EXPECT_LT(wide_child, d + "/");
}

TEST(DeweyEncodingTest, InsertSubtreeDecodesWideSiblingSlots) {
  DeweyMapping m;
  rdb::Database db;
  ASSERT_TRUE(m.Initialize(&db).ok());
  auto doc = xml::Parse("<a><b/></a>");
  ASSERT_TRUE(doc.ok());
  auto id = m.Store(*doc.value(), &db);
  ASSERT_TRUE(id.ok());
  // Simulate an element whose last child slot already crossed the boundary.
  auto t = db.FindTable("dw_nodes");
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->Insert({rdb::Value(id.value()),
                         rdb::Value(DeweyChild("000001", 1000000)),
                         rdb::Value(int64_t{2}), rdb::Value("elem"),
                         rdb::Value("wide"), rdb::Value::Null()})
                  .ok());
  auto frag = xml::ParseFragment("<d/>");
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE(
      m.InsertSubtree(&db, id.value(), rdb::Value("000001"), *frag.value())
          .ok());
  // The new node must take slot 1000001, not a re-used small slot.
  auto r = db.Execute(
      "SELECT dewey FROM dw_nodes WHERE name = 'd'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_EQ(r.value().rows[0][0].AsString(),
            DeweyChild("000001", 1000001));
}

TEST(DeweyEncodingTest, ChildAppendsComponent) {
  EXPECT_EQ(DeweyChild("", 1), "000001");
  EXPECT_EQ(DeweyChild("000001", 3), "000001.000003");
  EXPECT_EQ(DeweyChild("000001.000003", 12), "000001.000003.000012");
}

TEST(DeweyEncodingTest, StringOrderIsDocumentOrder) {
  // Sibling order.
  EXPECT_LT(DeweyChild("000001", 2), DeweyChild("000001", 10));
  // Parent before child.
  EXPECT_LT(std::string("000001"), DeweyChild("000001", 1));
  // Child of earlier sibling before later sibling.
  EXPECT_LT(DeweyChild(DeweyChild("000001", 1), 5), DeweyChild("000001", 2));
}

TEST(DeweyEncodingTest, SubtreeRangeIsTight) {
  // The subtree of d is exactly [d, d + "/") — "/" = '.'+1 in ASCII.
  std::string d = DeweyChild("000001", 2);
  std::string descendant = DeweyChild(DeweyChild(d, 1), 1);
  std::string next_sibling = DeweyChild("000001", 3);
  EXPECT_GE(descendant, d);
  EXPECT_LT(descendant, d + "/");
  EXPECT_GE(next_sibling, d + "/");
}

TEST(DeweyEncodingTest, StoredKeysFollowStructure) {
  DeweyMapping m;
  rdb::Database db;
  ASSERT_TRUE(m.Initialize(&db).ok());
  auto doc = xml::Parse("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  auto id = m.Store(*doc.value(), &db);
  ASSERT_TRUE(id.ok());
  auto r = db.Execute("SELECT dewey, name FROM dw_nodes ORDER BY dewey");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 4u);
  EXPECT_EQ(r.value().rows[0][0].AsString(), "000001");           // a
  EXPECT_EQ(r.value().rows[1][0].AsString(), "000001.000001");    // b
  EXPECT_EQ(r.value().rows[2][0].AsString(), "000001.000002");    // c
  EXPECT_EQ(r.value().rows[3][0].AsString(), "000001.000002.000001");  // d
}

TEST(DeweyEncodingTest, InsertDoesNotTouchExistingRows) {
  DeweyMapping m;
  rdb::Database db;
  ASSERT_TRUE(m.Initialize(&db).ok());
  auto doc = xml::Parse("<a><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  auto id = m.Store(*doc.value(), &db);
  ASSERT_TRUE(id.ok());
  auto before = db.Execute("SELECT dewey FROM dw_nodes ORDER BY dewey");
  ASSERT_TRUE(before.ok());

  auto frag = xml::ParseFragment("<d/>");
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE(m.InsertSubtree(&db, id.value(), rdb::Value("000001"),
                              *frag.value())
                  .ok());
  // All pre-existing keys unchanged — the headline contrast with interval.
  auto after = db.Execute("SELECT dewey FROM dw_nodes ORDER BY dewey");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.value().rows.size(), before.value().rows.size() + 1);
  for (size_t i = 0; i < before.value().rows.size(); ++i) {
    EXPECT_EQ(before.value().rows[i][0].AsString(),
              after.value().rows[i][0].AsString());
  }
  // The new node took the next sibling slot.
  EXPECT_EQ(after.value().rows.back()[0].AsString(), "000001.000003");
}

TEST(DeweyEncodingTest, InsertAfterDeleteReusesNoSlot) {
  DeweyMapping m;
  rdb::Database db;
  ASSERT_TRUE(m.Initialize(&db).ok());
  auto doc = xml::Parse("<a><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  auto id = m.Store(*doc.value(), &db);
  ASSERT_TRUE(id.ok());
  // Delete c (slot 2); the next insert must take slot 3 anyway? No — MAX of
  // remaining children is slot 1, so slot 2 is reused, which is safe because
  // the old slot 2 subtree is fully gone.
  ASSERT_TRUE(m.DeleteSubtree(&db, id.value(), rdb::Value("000001.000002")).ok());
  auto frag = xml::ParseFragment("<d/>");
  ASSERT_TRUE(m.InsertSubtree(&db, id.value(), rdb::Value("000001"),
                              *frag.value())
                  .ok());
  auto r = db.Execute("SELECT dewey, name FROM dw_nodes ORDER BY dewey");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 3u);
  EXPECT_EQ(r.value().rows[2][1].AsString(), "d");
}

}  // namespace
}  // namespace xmlrdb::shred
