#include "rdb/btree.h"

#include <algorithm>
#include <cassert>

namespace xmlrdb::rdb {

int PrefixCompareRows(const Row& key, const Row& prefix) {
  size_t n = std::min(key.size(), prefix.size());
  for (size_t i = 0; i < n; ++i) {
    int c = key[i].Compare(prefix[i]);
    if (c != 0) return c;
  }
  // Prefix exhausted: equal as far as the prefix goes.
  return 0;
}

struct BTree::Node {
  bool is_leaf;
  explicit Node(bool leaf) : is_leaf(leaf) {}
  virtual ~Node() = default;
};

struct BTree::LeafNode : Node {
  LeafNode() : Node(true) {}
  std::vector<Row> keys;
  LeafNode* next = nullptr;
};

struct BTree::InternalNode : Node {
  InternalNode() : Node(false) {}
  // children.size() == separators.size() + 1.
  // separators[i] is the smallest key in the subtree children[i+1].
  std::vector<Row> separators;
  std::vector<Node*> children;
};

BTree::BTree(size_t max_keys) : root_(new LeafNode()), max_keys_(max_keys) {
  assert(max_keys_ >= 4);
}

BTree::~BTree() {
  // Iterative post-order destruction to avoid deep recursion on skewed trees.
  std::vector<Node*> stack{root_};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (!n->is_leaf) {
      auto* in = static_cast<InternalNode*>(n);
      for (Node* c : in->children) stack.push_back(c);
    }
    delete n;
  }
}

size_t BTree::ChildFor(const InternalNode& in, const Row& key) {
  // The child after the last separator <= key (separators[i] is the smallest
  // key of children[i + 1]).
  auto sep = std::partition_point(
      in.separators.begin(), in.separators.end(),
      [&](const Row& s) { return CompareRows(s, key) <= 0; });
  return static_cast<size_t>(sep - in.separators.begin());
}

BTree::LeafNode* BTree::FindLeaf(const Row& key) const {
  Node* n = root_;
  while (!n->is_leaf) {
    auto* in = static_cast<InternalNode*>(n);
    n = in->children[ChildFor(*in, key)];
  }
  return static_cast<LeafNode*>(n);
}

bool BTree::Insert(Row key) {
  // Descend, remembering the path for splits.
  std::vector<InternalNode*> path;
  std::vector<size_t> path_idx;
  Node* n = root_;
  while (!n->is_leaf) {
    auto* in = static_cast<InternalNode*>(n);
    size_t i = ChildFor(*in, key);
    path.push_back(in);
    path_idx.push_back(i);
    n = in->children[i];
  }
  auto* leaf = static_cast<LeafNode*>(n);
  auto it = std::lower_bound(
      leaf->keys.begin(), leaf->keys.end(), key,
      [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  if (it != leaf->keys.end() && CompareRows(*it, key) == 0) return false;
  leaf->keys.insert(it, std::move(key));
  ++size_;

  if (leaf->keys.size() <= max_keys_) return true;

  // Split the leaf.
  auto* right = new LeafNode();
  size_t mid = leaf->keys.size() / 2;
  right->keys.assign(std::make_move_iterator(leaf->keys.begin() + mid),
                     std::make_move_iterator(leaf->keys.end()));
  leaf->keys.resize(mid);
  right->next = leaf->next;
  leaf->next = right;
  Row up_key = right->keys.front();
  Node* new_child = right;

  // Propagate splits upward.
  while (!path.empty()) {
    InternalNode* parent = path.back();
    size_t idx = path_idx.back();
    path.pop_back();
    path_idx.pop_back();
    parent->separators.insert(parent->separators.begin() + idx, up_key);
    parent->children.insert(parent->children.begin() + idx + 1, new_child);
    if (parent->separators.size() <= max_keys_) return true;
    // Split internal node.
    auto* rnode = new InternalNode();
    size_t m = parent->separators.size() / 2;
    up_key = parent->separators[m];
    rnode->separators.assign(
        std::make_move_iterator(parent->separators.begin() + m + 1),
        std::make_move_iterator(parent->separators.end()));
    rnode->children.assign(parent->children.begin() + m + 1,
                           parent->children.end());
    parent->separators.resize(m);
    parent->children.resize(m + 1);
    new_child = rnode;
    // continue loop: insert (up_key, rnode) into grandparent
    if (path.empty()) {
      // parent was root
      auto* new_root = new InternalNode();
      new_root->separators.push_back(up_key);
      new_root->children.push_back(parent);
      new_root->children.push_back(rnode);
      root_ = new_root;
      ++height_;
      return true;
    }
  }
  // Leaf was the root.
  auto* new_root = new InternalNode();
  new_root->separators.push_back(up_key);
  new_root->children.push_back(leaf);
  new_root->children.push_back(new_child);
  root_ = new_root;
  ++height_;
  return true;
}

bool BTree::Erase(const Row& key) {
  LeafNode* leaf = FindLeaf(key);
  auto it = std::lower_bound(
      leaf->keys.begin(), leaf->keys.end(), key,
      [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  if (it == leaf->keys.end() || CompareRows(*it, key) != 0) return false;
  leaf->keys.erase(it);
  --size_;
  return true;
}

bool BTree::Contains(const Row& key) const {
  const LeafNode* leaf = FindLeaf(key);
  auto it = std::lower_bound(
      leaf->keys.begin(), leaf->keys.end(), key,
      [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return it != leaf->keys.end() && CompareRows(*it, key) == 0;
}

const Row& BTree::Iterator::key() const {
  const auto* leaf = static_cast<const BTree::LeafNode*>(leaf_);
  return leaf->keys[pos_];
}

void BTree::Iterator::Next() {
  const auto* leaf = static_cast<const BTree::LeafNode*>(leaf_);
  ++pos_;
  while (leaf != nullptr && pos_ >= leaf->keys.size()) {
    leaf = leaf->next;
    pos_ = 0;
  }
  leaf_ = leaf;
}

BTree::Iterator BTree::Begin() const {
  Node* n = root_;
  while (!n->is_leaf) n = static_cast<InternalNode*>(n)->children.front();
  auto* leaf = static_cast<LeafNode*>(n);
  Iterator it;
  it.leaf_ = leaf;
  it.pos_ = 0;
  // Skip empty leaves (possible after lazy deletes).
  while (leaf != nullptr && leaf->keys.empty()) {
    leaf = leaf->next;
    it.leaf_ = leaf;
  }
  if (leaf == nullptr) it.leaf_ = nullptr;
  return it;
}

BTree::Iterator BTree::SeekAtLeast(const Row& bound, bool inclusive) const {
  // A key is "below" the bound while its prefix compares < bound (<= when
  // exclusive). Keys are sorted, so that predicate is true on a prefix of
  // every node: binary-search for its end, in the separators on the way down
  // and in the leaf at the bottom. Every key left of a separator that is
  // below the bound is below it too, so the first qualifying key lies in the
  // child the search picks or in a later leaf.
  auto below = [&](const Row& key) {
    int c = PrefixCompareRows(key, bound);
    return c < 0 || (!inclusive && c == 0);
  };
  Node* n = root_;
  while (!n->is_leaf) {
    auto* in = static_cast<InternalNode*>(n);
    auto sep = std::partition_point(in->separators.begin(),
                                    in->separators.end(), below);
    n = in->children[static_cast<size_t>(sep - in->separators.begin())];
  }
  auto* leaf = static_cast<LeafNode*>(n);
  Iterator it;
  it.leaf_ = leaf;
  it.pos_ = static_cast<size_t>(
      std::partition_point(leaf->keys.begin(), leaf->keys.end(), below) -
      leaf->keys.begin());
  // Walk on along the leaf chain: the landing leaf may hold no qualifying
  // key, and later leaves may have been emptied by lazy deletion.
  while (it.Valid()) {
    const auto* l = static_cast<const LeafNode*>(it.leaf_);
    if (it.pos_ >= l->keys.size()) {
      it.leaf_ = l->next;
      it.pos_ = 0;
      continue;
    }
    if (!below(l->keys[it.pos_])) break;
    ++it.pos_;
  }
  return it;
}

Status BTree::CheckInvariants() const {
  // All keys strictly increasing along the leaf chain, and count matches.
  Iterator it = Begin();
  size_t count = 0;
  const Row* prev = nullptr;
  while (it.Valid()) {
    if (prev != nullptr && CompareRows(*prev, it.key()) >= 0) {
      return Status::Internal("B+-tree keys out of order");
    }
    prev = &it.key();
    ++count;
    it.Next();
  }
  if (count != size_) {
    return Status::Internal("B+-tree size mismatch: counted " +
                            std::to_string(count) + ", recorded " +
                            std::to_string(size_));
  }
  return Status::OK();
}

}  // namespace xmlrdb::rdb
