#include "shred/interval_mapping.h"

#include <algorithm>
#include <unordered_map>

#include "shred/shred_util.h"

namespace xmlrdb::shred {

using rdb::DataType;
using rdb::QueryResult;
using rdb::Value;

namespace {
std::string Ctx() { return ScratchName("_iv_ctx"); }
std::string Frontier() { return ScratchName("_iv_frontier"); }

std::string D(DocId doc) { return std::to_string(doc); }
Value DV(DocId doc) { return Value(static_cast<int64_t>(doc)); }
Value NV(int64_t v) { return Value(v); }
}  // namespace

Status IntervalMapping::Initialize(rdb::Database* db) {
  RETURN_IF_ERROR(db->Execute("CREATE TABLE iv_nodes ("
                              "docid INTEGER NOT NULL, "
                              "pre INTEGER NOT NULL, "
                              "size INTEGER NOT NULL, "
                              "level INTEGER NOT NULL, "
                              "kind VARCHAR NOT NULL, "
                              "name VARCHAR, "
                              "value VARCHAR)")
                      .status());
  RETURN_IF_ERROR(
      db->Execute("CREATE INDEX iv_pre ON iv_nodes (docid, pre)").status());
  if (with_name_index_) {
    RETURN_IF_ERROR(
        db->Execute("CREATE INDEX iv_name ON iv_nodes (docid, name, pre)")
            .status());
  }
  return Status::OK();
}

namespace {

/// Pre-order walk assigning (pre, size, level); returns subtree node count.
int64_t ShredInterval(const xml::Node& n, DocId doc, int64_t level,
                      int64_t* counter, std::vector<rdb::Row>* rows) {
  int64_t my_pre = (*counter)++;
  size_t my_row = rows->size();
  rows->push_back({Value(doc), Value(my_pre), Value(static_cast<int64_t>(0)),
                   Value(level), Value("elem"), Value(n.name()), Value::Null()});
  int64_t descendants = 0;
  for (const auto& a : n.attributes()) {
    int64_t pre = (*counter)++;
    rows->push_back({Value(doc), Value(pre), Value(static_cast<int64_t>(0)),
                     Value(level + 1), Value("attr"), Value(a->name()),
                     Value(a->value())});
    ++descendants;
  }
  for (const auto& c : n.children()) {
    switch (c->kind()) {
      case xml::NodeKind::kElement:
        descendants += ShredInterval(*c, doc, level + 1, counter, rows);
        break;
      case xml::NodeKind::kText: {
        int64_t pre = (*counter)++;
        rows->push_back({Value(doc), Value(pre), Value(static_cast<int64_t>(0)),
                         Value(level + 1), Value("text"), Value::Null(),
                         Value(c->value())});
        ++descendants;
        break;
      }
      default:
        break;
    }
  }
  (*rows)[my_row][2] = Value(descendants);
  return descendants + 1;
}

}  // namespace

Result<DocId> IntervalMapping::NextDocId(rdb::Database* db) const {
  return NextIdFromMax(db, "iv_nodes", "docid");
}

Result<std::vector<DocId>> IntervalMapping::ListDocIds(
    rdb::Database* db) const {
  return DistinctDocIds(db, "iv_nodes");
}

Status IntervalMapping::StoreWithId(const xml::Document& doc, DocId docid,
                                    rdb::Database* db) {
  const xml::Node* root = doc.root();
  if (root == nullptr) return Status::InvalidArgument("document has no root");
  std::vector<rdb::Row> rows;
  int64_t counter = 1;
  ShredInterval(*root, docid, 1, &counter, &rows);
  rdb::Table* t = db->FindTable("iv_nodes");
  if (t == nullptr) return Status::Internal("iv_nodes table missing");
  return t->InsertMany(std::move(rows));
}

Result<DocId> IntervalMapping::StoreImpl(const xml::Document& doc,
                                     rdb::Database* db) {
  ASSIGN_OR_RETURN(DocId docid, NextDocId(db));
  RETURN_IF_ERROR(StoreWithId(doc, docid, db));
  return docid;
}

Status IntervalMapping::RemoveImpl(DocId doc, rdb::Database* db) {
  return ExecPrepared(db, "DELETE FROM iv_nodes WHERE docid = ?", {DV(doc)})
      .status();
}

Result<Value> IntervalMapping::RootElement(rdb::Database* db, DocId doc) const {
  ASSIGN_OR_RETURN(
      QueryResult r,
      ExecPrepared(db, "SELECT pre FROM iv_nodes WHERE docid = ? AND pre = 1",
                   {DV(doc)}));
  if (r.rows.empty()) return Status::NotFound("document " + D(doc));
  return r.rows[0][0];
}

Result<NodeSet> IntervalMapping::AllElements(rdb::Database* db, DocId doc,
                                             const std::string& name_test) const {
  QueryResult r;
  if (name_test != "*") {
    ASSIGN_OR_RETURN(r,
                     ExecPrepared(db,
                                  "SELECT pre FROM iv_nodes WHERE docid = ? "
                                  "AND kind = 'elem' AND name = ? ORDER BY pre",
                                  {DV(doc), Value(name_test)}));
  } else {
    ASSIGN_OR_RETURN(r, ExecPrepared(db,
                                     "SELECT pre FROM iv_nodes WHERE docid = ? "
                                     "AND kind = 'elem' ORDER BY pre",
                                     {DV(doc)}));
  }
  NodeSet out;
  out.reserve(r.rows.size());
  for (auto& row : r.rows) out.push_back(row[0]);
  return out;
}

Result<std::vector<IntervalMapping::NodeInfo>> IntervalMapping::FetchInfo(
    rdb::Database* db, DocId doc, const NodeSet& nodes) const {
  // One statement: the join probes iv_pre once per context node.
  RETURN_IF_ERROR(LoadContextTable(db, Ctx(), DataType::kInt, nodes));
  ASSIGN_OR_RETURN(QueryResult r,
                   ExecPrepared(db,
                                "SELECT c.id, n.size, n.level FROM " + Ctx() +
                                    " c JOIN iv_nodes n ON n.pre = c.id "
                                    "WHERE n.docid = ?",
                                {DV(doc)}));
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> by_pre;
  for (auto& row : r.rows) {
    by_pre[row[0].AsInt()] = {row[1].AsInt(), row[2].AsInt()};
  }
  std::vector<NodeInfo> out;
  out.reserve(nodes.size());
  for (const Value& v : nodes) {
    auto it = by_pre.find(v.AsInt());
    if (it == by_pre.end()) {
      return Status::NotFound("interval node pre=" + v.ToString());
    }
    out.push_back({v.AsInt(), it->second.first, it->second.second});
  }
  return out;
}

Result<std::vector<StepResult>> IntervalMapping::Step(
    rdb::Database* db, DocId doc, const NodeSet& context, xpath::Axis axis,
    const std::string& name_test) const {
  std::vector<StepResult> out;
  if (context.empty()) return out;
  ASSIGN_OR_RETURN(std::vector<NodeInfo> info, FetchInfo(db, doc, context));

  // Large context sets use a structural ("staircase") join: one ordered scan
  // of the candidate rows merged against the sorted context ranges with an
  // active-ancestor stack — O(candidates + contexts) instead of one SQL
  // statement per context.
  constexpr size_t kMergeThreshold = 4;
  if (context.size() > kMergeThreshold) {
    std::vector<Value> params{DV(doc),
                              Value(axis == xpath::Axis::kAttribute ? "attr"
                                                                    : "elem")};
    std::string sql =
        "SELECT pre, level FROM iv_nodes WHERE docid = ? AND kind = ?";
    if (name_test != "*") {
      sql += " AND name = ?";
      params.push_back(Value(name_test));
    }
    sql += " ORDER BY pre";
    ASSIGN_OR_RETURN(QueryResult r, ExecPrepared(db, sql, std::move(params)));
    // Contexts arrive sorted by pre (document order) and their ranges are
    // nested or disjoint.
    bool nested = false;
    for (size_t i = 0; i + 1 < info.size(); ++i) {
      if (info[i + 1].pre <= info[i].pre + info[i].size) {
        nested = true;
        break;
      }
    }
    std::vector<std::pair<size_t, StepResult>> hits;  // (ctx idx, result)
    if (!nested) {
      // Disjoint sibling ranges: two-pointer merge.
      size_t ci = 0;
      for (auto& row : r.rows) {
        int64_t pre = row[0].AsInt();
        int64_t level = row[1].AsInt();
        while (ci < info.size() && info[ci].pre + info[ci].size < pre) ++ci;
        if (ci >= info.size()) break;
        const NodeInfo& ni = info[ci];
        if (pre <= ni.pre || pre > ni.pre + ni.size) continue;
        if (axis != xpath::Axis::kDescendant && level != ni.level + 1) continue;
        hits.emplace_back(ci, StepResult{context[ci], Value(pre)});
      }
    } else {
      // Nested contexts: active-ancestor stack; a node may belong to several
      // open contexts (every enclosing one, for the descendant axis).
      std::vector<size_t> stack;
      size_t next_ctx = 0;
      for (auto& row : r.rows) {
        int64_t pre = row[0].AsInt();
        int64_t level = row[1].AsInt();
        while (next_ctx < info.size() && info[next_ctx].pre < pre) {
          stack.push_back(next_ctx++);
        }
        while (!stack.empty() &&
               info[stack.back()].pre + info[stack.back()].size < pre) {
          stack.pop_back();
        }
        for (size_t sc : stack) {
          const NodeInfo& ni = info[sc];
          if (pre <= ni.pre || pre > ni.pre + ni.size) continue;
          if (axis != xpath::Axis::kDescendant && level != ni.level + 1) {
            continue;
          }
          hits.emplace_back(sc, StepResult{context[sc], Value(pre)});
        }
      }
    }
    std::stable_sort(hits.begin(), hits.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    out.reserve(hits.size());
    for (auto& [ci, sr] : hits) out.push_back(std::move(sr));
    return out;
  }

  for (size_t i = 0; i < context.size(); ++i) {
    const NodeInfo& ni = info[i];
    if (ni.size == 0) continue;  // leaf: empty subtree range
    std::vector<Value> params{DV(doc), NV(ni.pre), NV(ni.pre + ni.size)};
    std::string sql =
        "SELECT pre FROM iv_nodes WHERE docid = ? AND pre > ? AND pre <= ?";
    switch (axis) {
      case xpath::Axis::kChild:
        sql += " AND level = ? AND kind = 'elem'";
        params.push_back(NV(ni.level + 1));
        break;
      case xpath::Axis::kAttribute:
        sql += " AND level = ? AND kind = 'attr'";
        params.push_back(NV(ni.level + 1));
        break;
      case xpath::Axis::kDescendant:
        sql += " AND kind = 'elem'";
        break;
    }
    if (name_test != "*") {
      sql += " AND name = ?";
      params.push_back(Value(name_test));
    }
    sql += " ORDER BY pre";
    ASSIGN_OR_RETURN(QueryResult r, ExecPrepared(db, sql, std::move(params)));
    for (auto& row : r.rows) out.push_back({context[i], row[0]});
  }
  return out;
}

Result<std::vector<std::string>> IntervalMapping::StringValues(
    rdb::Database* db, DocId doc, const NodeSet& nodes) const {
  std::vector<std::string> out(nodes.size());
  if (nodes.empty()) return out;
  // 1. Every node's own row in one join: attributes and text nodes carry
  // their value directly, elements their subtree size.
  RETURN_IF_ERROR(LoadContextTable(db, Ctx(), DataType::kInt, nodes));
  ASSIGN_OR_RETURN(QueryResult self,
                   ExecPrepared(db,
                                "SELECT c.id, n.size, n.kind, n.value FROM " +
                                    Ctx() +
                                    " c JOIN iv_nodes n ON n.pre = c.id "
                                    "WHERE n.docid = ?",
                                {DV(doc)}));
  std::unordered_map<int64_t, const rdb::Row*> own;
  for (const rdb::Row& row : self.rows) own[row[0].AsInt()] = &row;

  // 2. An element's text is the text rows of its subtree, the pre range
  // (pre, pre + size]. Enumerate every range as (origin, pre) pairs and
  // join them against iv_pre in one statement: the join seeks exactly the
  // rows the range scans would read.
  std::vector<std::pair<Value, Value>> ranges;
  std::unordered_map<int64_t, std::string> text;  // element pre -> its text
  for (const Value& v : nodes) {
    auto it = own.find(v.AsInt());
    if (it == own.end()) {
      return Status::NotFound("interval node pre=" + v.ToString());
    }
    const rdb::Row& row = *it->second;
    if (row[2].AsString() != "elem" || !text.emplace(v.AsInt(), "").second) {
      continue;
    }
    for (int64_t k = 1; k <= row[1].AsInt(); ++k) {
      ranges.emplace_back(v, NV(v.AsInt() + k));
    }
  }
  if (!ranges.empty()) {
    RETURN_IF_ERROR(LoadFrontierTable(db, Frontier(), DataType::kInt, ranges));
    ASSIGN_OR_RETURN(QueryResult r,
                     ExecPrepared(db,
                                  "SELECT f.origin, n.pre, n.value FROM " +
                                      Frontier() +
                                      " f JOIN iv_nodes n ON n.pre = f.id "
                                      "WHERE n.docid = ? AND n.kind = 'text'",
                                  {DV(doc)}));
    std::sort(r.rows.begin(), r.rows.end(),
              [](const rdb::Row& a, const rdb::Row& b) {
                return a[0].AsInt() != b[0].AsInt()
                           ? a[0].AsInt() < b[0].AsInt()
                           : a[1].AsInt() < b[1].AsInt();
              });
    for (const rdb::Row& row : r.rows) {
      if (!row[2].is_null()) text[row[0].AsInt()] += row[2].AsString();
    }
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const rdb::Row& row = *own.at(nodes[i].AsInt());
    if (row[2].AsString() == "elem") {
      out[i] = text.at(nodes[i].AsInt());
    } else if (!row[3].is_null()) {
      out[i] = row[3].AsString();
    }
  }
  return out;
}

Result<std::unique_ptr<xml::Node>> IntervalMapping::ReconstructSubtree(
    rdb::Database* db, DocId doc, const rdb::Value& node) const {
  ASSIGN_OR_RETURN(QueryResult self,
                   ExecPrepared(db,
                                "SELECT size, level, kind, name, value "
                                "FROM iv_nodes WHERE docid = ? AND pre = ?",
                                {DV(doc), node}));
  if (self.rows.empty()) return Status::NotFound("node " + node.ToString());
  int64_t size = self.rows[0][0].AsInt();
  int64_t root_level = self.rows[0][1].AsInt();
  const std::string kind = self.rows[0][2].AsString();
  if (kind == "text") {
    return std::make_unique<xml::Node>(xml::NodeKind::kText, "",
                                       self.rows[0][4].AsString());
  }
  if (kind == "attr") {
    return std::make_unique<xml::Node>(xml::NodeKind::kAttribute,
                                       self.rows[0][3].AsString(),
                                       self.rows[0][4].AsString());
  }
  auto root = std::make_unique<xml::Node>(xml::NodeKind::kElement,
                                          self.rows[0][3].AsString());
  if (size == 0) return root;
  int64_t pre = node.AsInt();
  ASSIGN_OR_RETURN(QueryResult r,
                   ExecPrepared(db,
                                "SELECT level, kind, name, value FROM iv_nodes "
                                "WHERE docid = ? AND pre > ? AND pre <= ? "
                                "ORDER BY pre",
                                {DV(doc), NV(pre), NV(pre + size)}));
  // Rebuild from the pre-ordered row stream using a level stack.
  std::vector<xml::Node*> stack{root.get()};
  std::vector<int64_t> levels{root_level};
  for (auto& row : r.rows) {
    int64_t level = row[0].AsInt();
    while (levels.back() >= level) {
      stack.pop_back();
      levels.pop_back();
    }
    xml::Node* parent = stack.back();
    const std::string& k = row[1].AsString();
    if (k == "elem") {
      xml::Node* el = parent->AddElement(row[2].AsString());
      stack.push_back(el);
      levels.push_back(level);
    } else if (k == "attr") {
      parent->SetAttr(row[2].AsString(), row[3].AsString());
    } else {
      parent->AddText(row[3].is_null() ? "" : row[3].AsString());
    }
  }
  return root;
}

Status IntervalMapping::InsertSubtreeImpl(rdb::Database* db, DocId doc,
                                      const rdb::Value& parent,
                                      const xml::Node& subtree) {
  if (!subtree.IsElement()) {
    return Status::InvalidArgument("subtree root must be an element");
  }
  ASSIGN_OR_RETURN(std::vector<NodeInfo> info, FetchInfo(db, doc, {parent}));
  const NodeInfo& p = info[0];
  // Shred the subtree with pre numbers starting right after the parent's
  // current subtree end.
  std::vector<rdb::Row> rows;
  int64_t counter = p.pre + p.size + 1;
  int64_t k = ShredInterval(subtree, doc, p.level + 1, &counter, &rows);
  // 1. Shift everything after the parent's subtree.
  RETURN_IF_ERROR(ExecPrepared(db,
                               "UPDATE iv_nodes SET pre = pre + ? WHERE "
                               "docid = ? AND pre > ?",
                               {NV(k), DV(doc), NV(p.pre + p.size)})
                      .status());
  // 2. Grow the parent and every ancestor.
  RETURN_IF_ERROR(ExecPrepared(db,
                               "UPDATE iv_nodes SET size = size + ? WHERE "
                               "docid = ? AND pre <= ? AND pre + size >= ?",
                               {NV(k), DV(doc), NV(p.pre), NV(p.pre)})
                      .status());
  // 3. Insert the new rows.
  rdb::Table* t = db->FindTable("iv_nodes");
  return t->InsertMany(std::move(rows));
}

Status IntervalMapping::DeleteSubtreeImpl(rdb::Database* db, DocId doc,
                                      const rdb::Value& node) {
  ASSIGN_OR_RETURN(std::vector<NodeInfo> info, FetchInfo(db, doc, {node}));
  const NodeInfo& n = info[0];
  int64_t k = n.size + 1;
  RETURN_IF_ERROR(ExecPrepared(db,
                               "DELETE FROM iv_nodes WHERE docid = ? AND "
                               "pre >= ? AND pre <= ?",
                               {DV(doc), NV(n.pre), NV(n.pre + n.size)})
                      .status());
  // Shrink ancestors (the deleted node's own row is gone already).
  RETURN_IF_ERROR(ExecPrepared(db,
                               "UPDATE iv_nodes SET size = size - ? WHERE "
                               "docid = ? AND pre < ? AND pre + size >= ?",
                               {NV(k), DV(doc), NV(n.pre), NV(n.pre)})
                      .status());
  // Renumber everything after the deleted range.
  return ExecPrepared(db,
                      "UPDATE iv_nodes SET pre = pre - ? WHERE docid = ? AND "
                      "pre > ?",
                      {NV(k), DV(doc), NV(n.pre + n.size)})
      .status();
}

Result<std::string> IntervalMapping::TranslatePathToSql(
    DocId doc, const xpath::PathExpr& path) const {
  if (!path.PredicateFree()) {
    return Status::Unsupported("interval mapping: SQL translation of predicates");
  }
  std::string from, where, select;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const auto& step = path.steps[i];
    std::string a = "n" + std::to_string(i);
    if (i > 0) from += ", ";
    from += "iv_nodes " + a;
    if (!where.empty()) where += " AND ";
    where += a + ".docid = " + D(doc);
    where += " AND " + a + ".kind = '" +
             (step.axis == xpath::Axis::kAttribute ? "attr" : "elem") + "'";
    if (!step.IsWildcard()) {
      where += " AND " + a + ".name = " + SqlLiteral(Value(step.name));
    }
    if (i == 0) {
      if (step.axis == xpath::Axis::kChild) {
        where += " AND " + a + ".level = 1";
      }
    } else {
      std::string prev = "n" + std::to_string(i - 1);
      where += " AND " + a + ".pre > " + prev + ".pre AND " + a + ".pre <= " +
               prev + ".pre + " + prev + ".size";
      if (step.axis != xpath::Axis::kDescendant) {
        where += " AND " + a + ".level = " + prev + ".level + 1";
      }
    }
    select = "SELECT " + a + ".pre FROM ";
  }
  return select + from + " WHERE " + where + " ORDER BY n" +
         std::to_string(path.steps.size() - 1) + ".pre";
}

}  // namespace xmlrdb::shred
