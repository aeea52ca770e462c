// In-memory B+-tree over composite-Value keys.
//
// The tree stores *unique* Rows ordered by CompareRows. The index layer
// (table.h) achieves duplicate key support by appending the row id as the
// last key component. Leaves are chained for range scans; bounds use prefix
// comparison so a scan over the first k key components is a single range.
//
// Deletion removes the entry from its leaf without rebalancing ("lazy
// deletion"); pages only merge on rebuild. This matches how several real
// engines defer structure maintenance and keeps scans correct at all times.

#ifndef XMLRDB_RDB_BTREE_H_
#define XMLRDB_RDB_BTREE_H_

#include <memory>
#include <vector>

#include "rdb/value.h"

namespace xmlrdb::rdb {

/// Compares only the first `prefix.size()` components of `key` against
/// `prefix` (key must have at least that many components).
int PrefixCompareRows(const Row& key, const Row& prefix);

class BTree {
 public:
  /// `max_keys` is the fanout knob (entries per node before split).
  explicit BTree(size_t max_keys = 64);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts a key. Returns false (and leaves the tree unchanged) if an
  /// equal key is already present.
  bool Insert(Row key);

  /// Removes an exactly-equal key. Returns false if absent.
  bool Erase(const Row& key);

  /// True if an exactly-equal key is present.
  bool Contains(const Row& key) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Height of the tree (1 = a single leaf).
  size_t height() const { return height_; }

  /// Forward iterator over keys in order, starting at the first key whose
  /// `prefix`-length prefix is >= / > the given bound.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    const Row& key() const;
    void Next();

   private:
    friend class BTree;
    const void* leaf_ = nullptr;  // LeafNode*
    size_t pos_ = 0;
  };

  /// Iterator at the smallest key.
  Iterator Begin() const;

  /// Iterator at the first key whose prefix compares >= `bound`
  /// (or > if `inclusive` is false).
  Iterator SeekAtLeast(const Row& bound, bool inclusive = true) const;

  /// Verifies ordering + structural invariants; used by property tests.
  Status CheckInvariants() const;

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;

  LeafNode* FindLeaf(const Row& key) const;
  /// Index of the child of `in` whose key range holds `key` (binary search).
  static size_t ChildFor(const InternalNode& in, const Row& key);

  Node* root_;
  size_t max_keys_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace xmlrdb::rdb

#endif  // XMLRDB_RDB_BTREE_H_
