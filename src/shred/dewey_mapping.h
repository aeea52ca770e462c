// Dewey-order mapping (Tatarinov et al., SIGMOD 2002).
//
//   dw_nodes(docid, dewey, level, kind, name, value)
//
// Every node's id is its Dewey path: the root element is "000001"; its k-th
// child slot is "<parent>.<k>" with each component zero-padded to 6 digits,
// so plain string order IS document order and the subtree of d is exactly
// the key range [d, d + "/") ('/' is the successor of '.' in ASCII).
// Attributes occupy the leading sibling slots of their element.
//
// The structural trade against the interval mapping: axis steps are string
// range scans (slightly wider keys), but appending a subtree touches only
// the new rows — no renumbering of following nodes or ancestors.

#ifndef XMLRDB_SHRED_DEWEY_MAPPING_H_
#define XMLRDB_SHRED_DEWEY_MAPPING_H_

#include "shred/mapping.h"

namespace xmlrdb::shred {

/// Encodes one Dewey component (1-based) as an order-preserving string.
/// Ordinals up to 999999 keep the classic 6-digit zero-pad; larger ordinals
/// are prefixed with ':' (which sorts after any digit) plus the digit-count
/// excess, so string order stays numeric order across the width boundary.
/// Naive zero-padding breaks there: "1000000" < "999999" as strings.
std::string DeweyComponent(int64_t ordinal);

/// Decodes a component produced by DeweyComponent. Rejects anything that
/// encoding cannot produce — empty strings, non-digit bytes, overflow, an
/// escape marker whose width byte disagrees with the digit count — instead
/// of silently decoding garbage to 0 or a clamped value. Dewey labels come
/// back out of tables that untrusted input paths (network DML, recovery)
/// can reach, so corrupt labels must surface as errors, not as inserts
/// landed at a wrong or duplicate slot.
Result<int64_t> DeweyComponentOrdinal(const std::string& component);

/// Appends a component: "000001" + 3 -> "000001.000003".
std::string DeweyChild(const std::string& parent, int64_t ordinal);

/// Tree level of a label, the root being 1: one per component. It equals
/// the stored `level` column, so a step needs no statement to look it up.
int64_t DeweyLevel(const std::string& dewey);

class DeweyMapping : public Mapping {
 public:
  std::string name() const override { return "dewey"; }

  Status Initialize(rdb::Database* db) override;
  Result<DocId> StoreImpl(const xml::Document& doc, rdb::Database* db) override;
  bool SupportsParallelStore() const override { return true; }
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
  Result<std::vector<std::string>> StringValues(
      rdb::Database* db, DocId doc, const NodeSet& nodes) const override;

  Result<std::unique_ptr<xml::Node>> ReconstructSubtree(
      rdb::Database* db, DocId doc, const rdb::Value& node) const override;

  Status InsertSubtreeImpl(rdb::Database* db, DocId doc, const rdb::Value& parent,
                       const xml::Node& subtree) override;
  Status DeleteSubtreeImpl(rdb::Database* db, DocId doc,
                       const rdb::Value& node) override;

 protected:
  std::vector<std::string> TableNames(const rdb::Database& db) const override {
    (void)db;
    return {"dw_nodes"};
  }
};

}  // namespace xmlrdb::shred

#endif  // XMLRDB_SHRED_DEWEY_MAPPING_H_
