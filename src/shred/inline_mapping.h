// Inline mapping (Shanmugasundaram et al., VLDB 1999): DTD-driven shredding.
//
// After DTD simplification (xml/dtd_simplify.h), an element type gets its own
// table iff it is the document root, recursive, shared (reachable from two or
// more parent types), or set-valued (some parent may contain it many times).
// Every other element type is *inlined* into its nearest table ancestor as a
// group of columns, eliminating joins for single-occurrence children:
//
//   inl_<X>(docid, id, pid, ppath, seq, ord, tx?, at_<a>..., c_<path>_ex,
//           c_<path>_id, c_<path>_seq, c_<path>_tx?, c_<path>_at_<a>..., ...)
//
//   id     global per-document pre-order node id of the row's element
//   pid    row id of the nearest table-element ancestor instance (NULL: root)
//   ppath  inline path of the actual parent element inside that row
//   seq    position among ALL siblings of the actual parent (document order)
//   ord    position among same-name siblings (positional predicates)
//   c_<path>_* columns materialise one optional/single inlined descendant
//
// Node ids are strings "<table>|<row id>|<inline path>" (elements) and
// "<table>|<row id>|<inline path>|@<name>" (attributes).
//
// Navigation is set-at-a-time. Step, StringValues, ReconstructSubtree and
// InsertSubtree all run one routine, ExpandLevel, which expands a whole list
// of elements by one tree level: it groups them by host table, loads their
// row ids into a per-thread context table, fetches the host rows in one join
// (projecting only the text, attribute and child-presence columns asked for)
// and each candidate child table in one join on pid, then matches
// (pid, ppath) in memory. The descendant axis, string values and
// reconstruction repeat it level by level, so the statement count follows
// the depth of the subtrees and the number of tables, not the number of
// nodes. Children come in seq order, so results keep sibling order; the
// descendant axis lists each context's descendants level by level.
//
// Documented limitations (inherent to schema-driven shredding, and matching
// the original paper's data-centric target):
//  * documents must conform to the (simplified) DTD;
//  * mixed content is stored as one concatenated text per element and is
//    reconstructed with the text before the element children;
//  * global document order across different table elements is approximate —
//    sibling order is exact (seq), cross-subtree order is not.

#ifndef XMLRDB_SHRED_INLINE_MAPPING_H_
#define XMLRDB_SHRED_INLINE_MAPPING_H_

#include <map>
#include <set>

#include "shred/mapping.h"
#include "xml/dtd_simplify.h"

namespace xmlrdb::shred {

class InlineMapping : public Mapping {
 public:
  /// Builds the relational schema plan from a simplified DTD.
  /// `force_no_inlining` is the A2 ablation: every element type gets its own
  /// table (pure element-per-table mapping).
  static Result<std::unique_ptr<InlineMapping>> Create(
      const xml::Dtd& dtd, const std::string& root_name,
      bool force_no_inlining = false);

  std::string name() const override { return "inline"; }

  Status Initialize(rdb::Database* db) override;
  Result<DocId> StoreImpl(const xml::Document& doc, rdb::Database* db) override;
  // Caller-assigned ids for the shard router (stores stay serialized).
  Result<DocId> NextDocId(rdb::Database* db) const override;
  Status StoreWithId(const xml::Document& doc, DocId docid,
                     rdb::Database* db) override;
  Result<std::vector<DocId>> ListDocIds(rdb::Database* db) const override;
  Status RemoveImpl(DocId doc, rdb::Database* db) override;

  Result<rdb::Value> RootElement(rdb::Database* db, DocId doc) const override;
  Result<NodeSet> AllElements(rdb::Database* db, DocId doc,
                              const std::string& name_test) const override;
  Result<std::vector<StepResult>> Step(rdb::Database* db, DocId doc,
                                       const NodeSet& context, xpath::Axis axis,
                                       const std::string& name_test) const override;
  /// Orders ids by (table, numeric row id, inline path): document order
  /// within one table, whatever the number of digits in the row ids.
  bool NodeIdLess(const rdb::Value& a, const rdb::Value& b) const override;
  Result<std::vector<std::string>> StringValues(
      rdb::Database* db, DocId doc, const NodeSet& nodes) const override;

  Result<std::unique_ptr<xml::Node>> ReconstructSubtree(
      rdb::Database* db, DocId doc, const rdb::Value& node) const override;

  Status InsertSubtreeImpl(rdb::Database* db, DocId doc, const rdb::Value& parent,
                       const xml::Node& subtree) override;
  Status DeleteSubtreeImpl(rdb::Database* db, DocId doc,
                       const rdb::Value& node) override;

  /// Child-only predicate-free paths: consecutive inlined steps need NO join
  /// at all — the headline claim of DTD inlining (experiment T6/A2).
  Result<std::string> TranslatePathToSql(DocId doc,
                                         const xpath::PathExpr& path) const override;

  /// Element types that received their own table (exposed for tests).
  std::vector<std::string> TableElementNames() const;

 protected:
  std::vector<std::string> TableNames(const rdb::Database& db) const override;

 private:
  InlineMapping() = default;

  /// Where one element type's instances live.
  struct Storage {
    bool is_table = false;
    std::string table;  ///< hosting table (own table if is_table)
    std::string path;   ///< inline path inside the host row ("" if is_table)
  };

  struct ParsedRef {
    std::string table;
    int64_t row_id = 0;
    std::string path;
    std::string attr;  ///< non-empty for attribute nodes
  };

  Result<ParsedRef> ParseRef(const rdb::Value& id) const;
  static rdb::Value MakeRef(const std::string& table, int64_t row_id,
                            const std::string& path);

  /// What the element at one (host table, inline path) position reads from
  /// its host row, and where its children live.
  struct Slot {
    std::string type;      ///< element type
    std::string text_col;  ///< "" = no text column
    std::vector<std::pair<std::string, std::string>> attrs;  ///< (name, column)
    struct Inlined {
      std::string path, ex_col, seq_col;
      const Slot* slot = nullptr;  ///< the child's own slot
    };
    struct Tabled {
      std::string table;
      const Slot* slot = nullptr;
    };
    std::vector<Inlined> inlined;  ///< children stored in the host row
    std::vector<Tabled> tabled;    ///< children with a table of their own
  };

  /// The slot of the element a parsed ref names.
  Result<const Slot*> SlotAt(const ParsedRef& ref) const;

  /// Column name fragments.
  static std::string ColPrefix(const std::string& path);  // "" or "c_<path>_"

  struct RowBuffer;
  Status StoreElement(const xml::Node& el, DocId doc, int64_t* counter,
                      RowBuffer* host_row, const std::string& path, int64_t pid,
                      const std::string& ppath, int64_t seq, int64_t ord,
                      rdb::Database* db);

  /// What ExpandLevel reads for one node.
  enum Need : unsigned { kText = 1, kAttrs = 2, kChildren = 4 };

  /// One element of a level-wise expansion; children inherit `need`.
  struct ExpNode {
    ParsedRef ref;
    const Slot* slot = nullptr;
    unsigned need = 0;
    int64_t seq = 0;
    std::string text;                                        ///< kText
    /// kAttrs: (name, value) of the attributes present.
    std::vector<std::pair<std::string, std::string>> attrs;
    std::vector<size_t> children;  ///< kChildren: arena indices, seq order
  };

  /// Reads what every `frontier` node of `arena` needs and appends its
  /// children named `name_test` ("*" = all) to `arena` in seq order. Returns
  /// the appended nodes (the next level), grouped by parent in frontier
  /// order.
  Result<std::vector<size_t>> ExpandLevel(
      rdb::Database* db, DocId doc, std::vector<ExpNode>* arena,
      const std::vector<size_t>& frontier, const std::string& name_test) const;
  /// ExpandLevel from `frontier` down to the leaves.
  Status ExpandAll(rdb::Database* db, DocId doc, std::vector<ExpNode>* arena,
                   std::vector<size_t> frontier) const;
  /// Appends a root node for an element ref to `arena`.
  Status AddRoot(const ParsedRef& ref, unsigned need,
                 std::vector<ExpNode>* arena) const;

  Status DeleteRowTree(rdb::Database* db, DocId doc, const std::string& table,
                       int64_t row_id) const;

  xml::SimplifiedDtd sdtd_;
  std::string root_name_;
  /// element type -> storage location
  std::map<std::string, Storage> storage_;
  /// table name -> element type it hosts
  std::map<std::string, std::string> table_element_;
  /// (table, path) -> slot (path "" = the table element itself)
  std::map<std::pair<std::string, std::string>, Slot> slots_;
  /// element type -> CREATE TABLE column list (only table elements)
  std::map<std::string, std::vector<rdb::Column>> table_columns_;
};

}  // namespace xmlrdb::shred

#endif  // XMLRDB_SHRED_INLINE_MAPPING_H_
