// B+-tree unit and property tests, including differential testing against
// std::set over random operation sequences.

#include "rdb/btree.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace xmlrdb::rdb {
namespace {

Row K(int64_t a) { return {Value(a)}; }
Row K2(int64_t a, int64_t b) { return {Value(a), Value(b)}; }

TEST(BTreeTest, InsertAndContains) {
  BTree t(8);
  EXPECT_TRUE(t.Insert(K(5)));
  EXPECT_TRUE(t.Insert(K(1)));
  EXPECT_TRUE(t.Insert(K(9)));
  EXPECT_FALSE(t.Insert(K(5)));  // duplicate
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.Contains(K(5)));
  EXPECT_FALSE(t.Contains(K(6)));
}

TEST(BTreeTest, EraseRemovesOnlyExactKey) {
  BTree t(8);
  t.Insert(K(1));
  t.Insert(K(2));
  EXPECT_FALSE(t.Erase(K(3)));
  EXPECT_TRUE(t.Erase(K(2)));
  EXPECT_FALSE(t.Erase(K(2)));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Contains(K(1)));
}

TEST(BTreeTest, SplitsKeepOrder) {
  BTree t(4);  // tiny fanout forces many splits
  for (int64_t i = 100; i >= 1; --i) EXPECT_TRUE(t.Insert(K(i)));
  EXPECT_EQ(t.size(), 100u);
  EXPECT_GT(t.height(), 1u);
  EXPECT_TRUE(t.CheckInvariants().ok());
  int64_t expect = 1;
  for (auto it = t.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key()[0].AsInt(), expect++);
  }
  EXPECT_EQ(expect, 101);
}

TEST(BTreeTest, SeekAtLeastExactAndBetween) {
  BTree t(4);
  for (int64_t i = 0; i < 100; i += 10) t.Insert(K(i));
  auto it = t.SeekAtLeast(K(30));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 30);
  it = t.SeekAtLeast(K(31));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 40);
  it = t.SeekAtLeast(K(30), /*inclusive=*/false);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 40);
  it = t.SeekAtLeast(K(1000));
  EXPECT_FALSE(it.Valid());
  it = t.SeekAtLeast(K(-5));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 0);
}

TEST(BTreeTest, PrefixSeekOverCompositeKeys) {
  BTree t(4);
  for (int64_t a = 0; a < 10; ++a) {
    for (int64_t b = 0; b < 5; ++b) t.Insert(K2(a, b));
  }
  // Seek to prefix (7): should land on (7,0).
  auto it = t.SeekAtLeast(K(7));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 7);
  EXPECT_EQ(it.key()[1].AsInt(), 0);
  // Iterate the whole (7,*) group.
  int count = 0;
  while (it.Valid() && PrefixCompareRows(it.key(), K(7)) == 0) {
    ++count;
    it.Next();
  }
  EXPECT_EQ(count, 5);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 8);
}

TEST(BTreeTest, StringKeys) {
  BTree t(4);
  for (const char* s : {"pear", "apple", "fig", "kiwi", "banana"}) {
    t.Insert({Value(s)});
  }
  auto it = t.Begin();
  std::vector<std::string> got;
  for (; it.Valid(); it.Next()) got.push_back(it.key()[0].AsString());
  EXPECT_EQ(got, (std::vector<std::string>{"apple", "banana", "fig", "kiwi",
                                           "pear"}));
}

TEST(BTreeTest, EmptyTree) {
  BTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Begin().Valid());
  EXPECT_FALSE(t.SeekAtLeast(K(0)).Valid());
  EXPECT_FALSE(t.Contains(K(0)));
  EXPECT_FALSE(t.Erase(K(0)));
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BTreeTest, EraseThenIterateSkipsEmptyLeaves) {
  BTree t(4);
  for (int64_t i = 0; i < 50; ++i) t.Insert(K(i));
  // Erase a whole leaf's worth in the middle.
  for (int64_t i = 10; i < 20; ++i) EXPECT_TRUE(t.Erase(K(i)));
  EXPECT_TRUE(t.CheckInvariants().ok());
  auto it = t.SeekAtLeast(K(9));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 9);
  it.Next();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInt(), 20);
}

class BTreeFanoutTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeFanoutTest, DifferentialAgainstStdSet) {
  BTree t(GetParam());
  std::set<int64_t> oracle;
  Rng rng(GetParam() * 7919 + 1);
  for (int op = 0; op < 5000; ++op) {
    int64_t key = rng.Uniform(0, 400);
    double dice = rng.NextDouble();
    if (dice < 0.6) {
      EXPECT_EQ(t.Insert(K(key)), oracle.insert(key).second);
    } else if (dice < 0.9) {
      EXPECT_EQ(t.Erase(K(key)), oracle.erase(key) > 0);
    } else {
      EXPECT_EQ(t.Contains(K(key)), oracle.count(key) > 0);
    }
  }
  EXPECT_EQ(t.size(), oracle.size());
  ASSERT_TRUE(t.CheckInvariants().ok());
  // Full scan equals oracle order.
  auto it = t.Begin();
  for (int64_t v : oracle) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key()[0].AsInt(), v);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
  // Random range scans equal oracle ranges.
  for (int trial = 0; trial < 50; ++trial) {
    int64_t lo = rng.Uniform(0, 400);
    auto tit = t.SeekAtLeast(K(lo));
    auto oit = oracle.lower_bound(lo);
    for (int k = 0; k < 10 && oit != oracle.end(); ++k, ++oit, tit.Next()) {
      ASSERT_TRUE(tit.Valid());
      EXPECT_EQ(tit.key()[0].AsInt(), *oit);
    }
  }
}

// Composite (a, b) keys whose a-groups each span several leaves, with gaps
// between groups: every one-column prefix seek, inclusive and exclusive,
// must land where std::set says, also once lazy deletion has emptied whole
// leaves.
TEST_P(BTreeFanoutTest, CompositePrefixSeekAgainstStdSet) {
  const int64_t fanout = static_cast<int64_t>(GetParam());
  BTree t(GetParam());
  std::set<std::pair<int64_t, int64_t>> oracle;
  for (int64_t a = 0; a < 200; a += 10) {
    for (int64_t b = 0; b < 3 * fanout; ++b) {
      ASSERT_TRUE(t.Insert(K2(a, b)));
      oracle.insert({a, b});
    }
  }
  ASSERT_GT(t.height(), 1u);

  // The first key at or after `bound` (a one- or two-column prefix): the
  // oracle's answer, then the tree's, compared over the rest of the keys.
  auto check = [&](const Row& bound, bool inclusive) {
    auto first = std::find_if(oracle.begin(), oracle.end(), [&](const auto& k) {
      int c = PrefixCompareRows(K2(k.first, k.second), bound);
      return c > 0 || (inclusive && c == 0);
    });
    auto it = t.SeekAtLeast(bound, inclusive);
    for (auto o = first; o != oracle.end(); ++o, it.Next()) {
      ASSERT_TRUE(it.Valid())
          << RowToString(bound) << " inclusive=" << inclusive;
      ASSERT_EQ(it.key()[0].AsInt(), o->first) << RowToString(bound);
      ASSERT_EQ(it.key()[1].AsInt(), o->second) << RowToString(bound);
    }
    EXPECT_FALSE(it.Valid()) << RowToString(bound);
  };
  auto check_all = [&]() {
    // Below the minimum, on and between every group, above the maximum.
    for (int64_t a = -15; a <= 215; a += 5) {
      check(K(a), true);
      check(K(a), false);
    }
    for (int64_t a : {50, 100, 190}) {
      for (int64_t b : {int64_t{-1}, int64_t{0}, fanout, 3 * fanout}) {
        check(K2(a, b), true);
        check(K2(a, b), false);
      }
    }
  };
  check_all();

  // Lazy deletion: whole leaves go empty in the middle of a group (50), a
  // whole group goes (100), and so do the first and last groups.
  auto erase = [&](int64_t a, int64_t from, int64_t to) {
    for (int64_t b = from; b < to; ++b) {
      ASSERT_TRUE(t.Erase(K2(a, b)));
      oracle.erase({a, b});
    }
  };
  erase(50, 0, 2 * fanout);
  erase(100, 0, 3 * fanout);
  erase(0, 0, 3 * fanout);
  erase(190, 0, 3 * fanout);
  ASSERT_TRUE(t.CheckInvariants().ok());
  check_all();
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeFanoutTest,
                         ::testing::Values(4, 8, 32, 128));

}  // namespace
}  // namespace xmlrdb::rdb
