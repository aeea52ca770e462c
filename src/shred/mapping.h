// Mapping: the core abstraction of xmlrdb.
//
// A Mapping defines how XML trees are shredded into relational tables and how
// the XPath evaluator's primitive operations (root lookup, axis steps, string
// values) translate into SQL against those tables. Six implementations ship
// with the library:
//
//   EdgeMapping      one universal edge table          (Florescu & Kossmann 99)
//   BinaryMapping    edge table partitioned by label   (Florescu & Kossmann 99)
//   IntervalMapping  pre/size/level tree encoding      (Grust 02)
//   DeweyMapping     Dewey order identifiers           (Tatarinov et al. 02)
//   InlineMapping    DTD-driven inlining               (Shanmugasundaram 99)
//   BlobMapping      document text baseline ("smart file system")
//
// Node identifiers are mapping-specific rdb::Values (integers or strings);
// within one document they are unique across node kinds, and for mappings
// that preserve global document order their natural ordering IS document
// order (edge/binary/interval/blob: integer pre-order; dewey: lexicographic).

#ifndef XMLRDB_SHRED_MAPPING_H_
#define XMLRDB_SHRED_MAPPING_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rdb/database.h"
#include "xml/node.h"
#include "xpath/xpath_ast.h"

namespace xmlrdb {
class ThreadPool;
}  // namespace xmlrdb

namespace xmlrdb::shred {

using DocId = int64_t;

/// A stored node: document plus mapping-specific node id.
struct NodeRef {
  DocId doc = 0;
  rdb::Value id;
};

using NodeSet = std::vector<rdb::Value>;

/// One (context, result) pair of an axis step. Results are grouped by
/// context in input order; within one context they follow document order
/// (or the mapping's best approximation of it — see InlineMapping notes).
struct StepResult {
  rdb::Value context;
  rdb::Value node;
};

class Mapping {
 public:
  virtual ~Mapping() = default;

  /// Short identifier: "edge", "binary", "interval", "dewey", "inline", "blob".
  virtual std::string name() const = 0;

  /// Creates this mapping's tables and indexes in `db` (idempotent-unsafe:
  /// call once per database).
  virtual Status Initialize(rdb::Database* db) = 0;

  /// Shreds `doc` into the tables under a fresh document id. Non-virtual
  /// wrapper: records a "shred.<name>" trace span and the
  /// "mapping.<name>.store_us" latency histogram around StoreImpl.
  Result<DocId> Store(const xml::Document& doc, rdb::Database* db);

  /// Bulk load: stores every document and returns their ids in input order.
  /// Mappings that support it (see SupportsParallelStore) pre-assign a
  /// contiguous id block and shred independent documents across `pool`
  /// workers — the expensive tree walk runs in parallel, while the table's
  /// own lock serialises the final inserts. Null pool = ThreadPool::Shared().
  /// Other mappings fall back to calling Store serially.
  Result<std::vector<DocId>> StoreAll(
      const std::vector<const xml::Document*>& docs, rdb::Database* db,
      ThreadPool* pool = nullptr);

  /// True when StoreWithId may shred different documents concurrently
  /// (fixed table set, no per-store DDL).
  virtual bool SupportsParallelStore() const { return false; }

  /// First unused document id. Implemented by every shipped mapping (the
  /// shard router pre-assigns ids); the base default is kUnsupported.
  virtual Result<DocId> NextDocId(rdb::Database* db) const;

  /// Shreds `doc` under a caller-assigned id. Implemented by every shipped
  /// mapping; only SupportsParallelStore() mappings may be called
  /// concurrently.
  virtual Status StoreWithId(const xml::Document& doc, DocId docid,
                             rdb::Database* db);

  /// Like Store, but under a caller-assigned document id (the shard router
  /// assigns ids globally, then places the document on its owning shard).
  /// Non-virtual wrapper: same WAL transaction + span/timer as Store.
  Status StoreAt(const xml::Document& doc, DocId docid, rdb::Database* db);

  /// The ids of every document stored in `db`, ascending. A durable shard
  /// rebuilds its slice of the router's ownership table from this after
  /// recovery.
  virtual Result<std::vector<DocId>> ListDocIds(rdb::Database* db) const;

  /// Removes every row belonging to `doc`. Non-virtual wrapper: groups the
  /// row deletes into one WAL transaction on a durable database, so a crash
  /// mid-remove recovers to the document fully present, never half-removed.
  Status Remove(DocId doc, rdb::Database* db);

  /// The stored root element of `doc`.
  virtual Result<rdb::Value> RootElement(rdb::Database* db, DocId doc) const = 0;

  /// All elements of `doc` whose name matches `name_test` ("*" = all), in
  /// document order. This is the entry point for '//x' at the path head.
  virtual Result<NodeSet> AllElements(rdb::Database* db, DocId doc,
                                      const std::string& name_test) const = 0;

  /// Axis step from every node of `context` (element ids). See StepResult
  /// for ordering guarantees.
  virtual Result<std::vector<StepResult>> Step(
      rdb::Database* db, DocId doc, const NodeSet& context, xpath::Axis axis,
      const std::string& name_test) const = 0;

  /// Strict weak order on node ids, used to sort and dedup node sets. The
  /// default (Value::Compare) is document order for the order-preserving
  /// mappings.
  virtual bool NodeIdLess(const rdb::Value& a, const rdb::Value& b) const {
    return a.Compare(b) < 0;
  }

  /// XPath string-value: attribute value, or concatenated descendant text
  /// for elements. One output per input, in order.
  virtual Result<std::vector<std::string>> StringValues(
      rdb::Database* db, DocId doc, const NodeSet& nodes) const = 0;

  /// Rebuilds the subtree rooted at `node` as an XML tree.
  virtual Result<std::unique_ptr<xml::Node>> ReconstructSubtree(
      rdb::Database* db, DocId doc, const rdb::Value& node) const = 0;

  /// Rebuilds the entire document. Records a "reconstruct.<name>" trace
  /// span and the "mapping.<name>.reconstruct_us" latency histogram.
  Result<std::unique_ptr<xml::Document>> Reconstruct(rdb::Database* db,
                                                     DocId doc) const;

  /// Appends `subtree` (an element) as the last child of `parent`.
  /// Non-virtual wrapper: one WAL transaction (see Remove).
  Status InsertSubtree(rdb::Database* db, DocId doc, const rdb::Value& parent,
                       const xml::Node& subtree);

  /// Deletes the subtree rooted at `node` (must not be the root element).
  /// Non-virtual wrapper: one WAL transaction (see Remove).
  Status DeleteSubtree(rdb::Database* db, DocId doc, const rdb::Value& node);

  /// Translates a whole path into a single SQL SELECT returning node ids,
  /// where the mapping's table design permits it (used by the plan-shape
  /// experiment and the quickstart demo). Default: kUnsupported.
  virtual Result<std::string> TranslatePathToSql(DocId doc,
                                                 const xpath::PathExpr& path) const;

  /// Approximate storage footprint of this mapping's tables in `db`.
  virtual Result<size_t> FootprintBytes(const rdb::Database& db) const;

 protected:
  /// Mapping-specific shredding; called by Store() under its span/timer and
  /// WAL transaction.
  virtual Result<DocId> StoreImpl(const xml::Document& doc,
                                  rdb::Database* db) = 0;

  /// Mapping-specific bodies of Remove / InsertSubtree / DeleteSubtree;
  /// called by the public wrappers inside a WAL transaction.
  virtual Status RemoveImpl(DocId doc, rdb::Database* db) = 0;
  virtual Status InsertSubtreeImpl(rdb::Database* db, DocId doc,
                                   const rdb::Value& parent,
                                   const xml::Node& subtree) = 0;
  virtual Status DeleteSubtreeImpl(rdb::Database* db, DocId doc,
                                   const rdb::Value& node) = 0;

  /// Names of the tables this mapping owns (for FootprintBytes / tooling).
  virtual std::vector<std::string> TableNames(const rdb::Database& db) const = 0;
};

}  // namespace xmlrdb::shred

#endif  // XMLRDB_SHRED_MAPPING_H_
