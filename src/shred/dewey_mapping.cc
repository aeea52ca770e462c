#include "shred/dewey_mapping.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <unordered_map>

#include "common/str_util.h"
#include "shred/shred_util.h"

namespace xmlrdb::shred {

using rdb::DataType;
using rdb::QueryResult;
using rdb::Value;

namespace {
std::string Ctx() { return ScratchName("_dw_ctx"); }

std::string D(DocId doc) { return std::to_string(doc); }
Value DV(DocId doc) { return Value(static_cast<int64_t>(doc)); }
}  // namespace

std::string DeweyComponent(int64_t ordinal) {
  if (ordinal <= 999999) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%06lld", static_cast<long long>(ordinal));
    return buf;
  }
  // Order-preserving escape for wide ordinals: ':' sorts after every digit,
  // and the digit-count excess makes longer numbers sort after shorter ones;
  // equal-width numbers then compare lexicographically = numerically.
  std::string digits = std::to_string(ordinal);
  std::string out = ":";
  out += static_cast<char>('0' + (digits.size() - 7));
  out += digits;
  return out;
}

Result<int64_t> DeweyComponentOrdinal(const std::string& component) {
  std::string_view digits = component;
  if (!component.empty() && component[0] == ':') {
    // Escaped wide ordinal ":<excess><digits>"; the excess byte encodes
    // digits.size() - 7 (see DeweyComponent).
    if (component.size() < 3) {
      return Status::ParseError("corrupt dewey component '" + component +
                                "': truncated escape");
    }
    digits.remove_prefix(2);
    int excess = component[1] - '0';
    if (excess < 0 || digits.size() != static_cast<size_t>(excess) + 7) {
      return Status::ParseError("corrupt dewey component '" + component +
                                "': escape width disagrees with digits");
    }
  } else if (component.size() != 6) {
    return Status::ParseError("corrupt dewey component '" + component +
                              "': expected 6 digits");
  }
  // ParseInt64 rejects empty input, non-digit bytes, and overflow — the
  // failure modes the old unchecked strtoll call decoded to 0 or a
  // clamped INT64_MAX.
  auto ordinal = ParseInt64(digits);
  if (!ordinal.ok()) {
    return Status::ParseError("corrupt dewey component '" + component +
                              "': " + ordinal.status().message());
  }
  if (ordinal.value() < 1) {
    return Status::ParseError("corrupt dewey component '" + component +
                              "': ordinals are 1-based");
  }
  return ordinal.value();
}

int64_t DeweyLevel(const std::string& dewey) {
  return 1 + std::count(dewey.begin(), dewey.end(), '.');
}

std::string DeweyChild(const std::string& parent, int64_t ordinal) {
  if (parent.empty()) return DeweyComponent(ordinal);
  return parent + "." + DeweyComponent(ordinal);
}

Status DeweyMapping::Initialize(rdb::Database* db) {
  RETURN_IF_ERROR(db->Execute("CREATE TABLE dw_nodes ("
                              "docid INTEGER NOT NULL, "
                              "dewey VARCHAR NOT NULL, "
                              "level INTEGER NOT NULL, "
                              "kind VARCHAR NOT NULL, "
                              "name VARCHAR, "
                              "value VARCHAR)")
                      .status());
  RETURN_IF_ERROR(
      db->Execute("CREATE INDEX dw_key ON dw_nodes (docid, dewey)").status());
  RETURN_IF_ERROR(
      db->Execute("CREATE INDEX dw_name ON dw_nodes (docid, name, dewey)")
          .status());
  return Status::OK();
}

namespace {

void ShredDewey(const xml::Node& n, DocId doc, const std::string& my_dewey,
                int64_t level, std::vector<rdb::Row>* rows) {
  rows->push_back({Value(doc), Value(my_dewey), Value(level), Value("elem"),
                   Value(n.name()), Value::Null()});
  int64_t slot = 1;
  for (const auto& a : n.attributes()) {
    rows->push_back({Value(doc), Value(DeweyChild(my_dewey, slot++)),
                     Value(level + 1), Value("attr"), Value(a->name()),
                     Value(a->value())});
  }
  for (const auto& c : n.children()) {
    switch (c->kind()) {
      case xml::NodeKind::kElement:
        ShredDewey(*c, doc, DeweyChild(my_dewey, slot++), level + 1, rows);
        break;
      case xml::NodeKind::kText:
        rows->push_back({Value(doc), Value(DeweyChild(my_dewey, slot++)),
                         Value(level + 1), Value("text"), Value::Null(),
                         Value(c->value())});
        break;
      default:
        break;
    }
  }
}

}  // namespace

Result<DocId> DeweyMapping::NextDocId(rdb::Database* db) const {
  return NextIdFromMax(db, "dw_nodes", "docid");
}

Result<std::vector<DocId>> DeweyMapping::ListDocIds(rdb::Database* db) const {
  return DistinctDocIds(db, "dw_nodes");
}

Status DeweyMapping::StoreWithId(const xml::Document& doc, DocId docid,
                                 rdb::Database* db) {
  const xml::Node* root = doc.root();
  if (root == nullptr) return Status::InvalidArgument("document has no root");
  std::vector<rdb::Row> rows;
  ShredDewey(*root, docid, DeweyComponent(1), 1, &rows);
  rdb::Table* t = db->FindTable("dw_nodes");
  if (t == nullptr) return Status::Internal("dw_nodes table missing");
  return t->InsertMany(std::move(rows));
}

Result<DocId> DeweyMapping::StoreImpl(const xml::Document& doc, rdb::Database* db) {
  ASSIGN_OR_RETURN(DocId docid, NextDocId(db));
  RETURN_IF_ERROR(StoreWithId(doc, docid, db));
  return docid;
}

Status DeweyMapping::RemoveImpl(DocId doc, rdb::Database* db) {
  return ExecPrepared(db, "DELETE FROM dw_nodes WHERE docid = ?", {DV(doc)})
      .status();
}

Result<Value> DeweyMapping::RootElement(rdb::Database* db, DocId doc) const {
  ASSIGN_OR_RETURN(
      QueryResult r,
      ExecPrepared(db,
                   "SELECT dewey FROM dw_nodes WHERE docid = ? AND dewey = ?",
                   {DV(doc), Value(DeweyComponent(1))}));
  if (r.rows.empty()) return Status::NotFound("document " + D(doc));
  return r.rows[0][0];
}

Result<NodeSet> DeweyMapping::AllElements(rdb::Database* db, DocId doc,
                                          const std::string& name_test) const {
  std::string sql = "SELECT dewey FROM dw_nodes WHERE docid = ? "
                    "AND kind = 'elem'";
  std::vector<Value> params{DV(doc)};
  if (name_test != "*") {
    sql += " AND name = ?";
    params.emplace_back(name_test);
  }
  sql += " ORDER BY dewey";
  ASSIGN_OR_RETURN(QueryResult r, ExecPrepared(db, sql, std::move(params)));
  NodeSet out;
  out.reserve(r.rows.size());
  for (auto& row : r.rows) out.push_back(row[0]);
  return out;
}

Result<std::vector<StepResult>> DeweyMapping::Step(
    rdb::Database* db, DocId doc, const NodeSet& context, xpath::Axis axis,
    const std::string& name_test) const {
  std::vector<StepResult> out;
  if (context.empty()) return out;

  // Large context sets: one ordered scan of candidate rows merged against
  // the sorted context key ranges (the string-keyed analogue of the interval
  // mapping's structural join). Context ranges [d+".", d+"/") are nested or
  // disjoint.
  constexpr size_t kMergeThreshold = 4;
  if (context.size() > kMergeThreshold) {
    std::string sql =
        "SELECT dewey, level FROM dw_nodes WHERE docid = ? AND kind = ?";
    std::vector<Value> params{
        DV(doc), Value(axis == xpath::Axis::kAttribute ? "attr" : "elem")};
    if (name_test != "*") {
      sql += " AND name = ?";
      params.emplace_back(name_test);
    }
    sql += " ORDER BY dewey";
    ASSIGN_OR_RETURN(QueryResult r, ExecPrepared(db, sql, std::move(params)));

    struct CtxInfo {
      std::string lower;  // d + "."
      std::string upper;  // d + "/"
      int64_t level;
    };
    std::vector<CtxInfo> info;
    info.reserve(context.size());
    bool nested = false;
    for (size_t i = 0; i < context.size(); ++i) {
      const std::string& d = context[i].AsString();
      info.push_back({d + ".", d + "/", DeweyLevel(d)});
      if (i > 0 && info[i].lower < info[i - 1].upper) nested = true;
    }
    std::vector<std::pair<size_t, StepResult>> hits;
    if (!nested) {
      size_t ci = 0;
      for (auto& row : r.rows) {
        const std::string& d = row[0].AsString();
        int64_t level = row[1].AsInt();
        while (ci < info.size() && info[ci].upper <= d) ++ci;
        if (ci >= info.size()) break;
        if (d <= info[ci].lower) continue;  // before this context's subtree
        if (axis != xpath::Axis::kDescendant && level != info[ci].level + 1) {
          continue;
        }
        hits.emplace_back(ci, StepResult{context[ci], row[0]});
      }
    } else {
      std::vector<size_t> stack;
      size_t next_ctx = 0;
      for (auto& row : r.rows) {
        const std::string& d = row[0].AsString();
        int64_t level = row[1].AsInt();
        while (next_ctx < info.size() && info[next_ctx].lower < d) {
          stack.push_back(next_ctx++);
        }
        while (!stack.empty() && info[stack.back()].upper <= d) stack.pop_back();
        for (size_t sc : stack) {
          if (d <= info[sc].lower || d >= info[sc].upper) continue;
          if (axis != xpath::Axis::kDescendant && level != info[sc].level + 1) {
            continue;
          }
          hits.emplace_back(sc, StepResult{context[sc], row[0]});
        }
      }
    }
    std::stable_sort(hits.begin(), hits.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    out.reserve(hits.size());
    for (auto& [ci, sr] : hits) out.push_back(std::move(sr));
    return out;
  }

  for (const Value& ctx : context) {
    const std::string& d = ctx.AsString();
    std::string sql = "SELECT dewey FROM dw_nodes WHERE docid = ? "
                      "AND dewey > ? AND dewey < ?";
    std::vector<Value> params{DV(doc), Value(d + "."), Value(d + "/")};
    switch (axis) {
      case xpath::Axis::kChild:
        sql += " AND level = ? AND kind = 'elem'";
        params.emplace_back(DeweyLevel(d) + 1);
        break;
      case xpath::Axis::kAttribute:
        sql += " AND level = ? AND kind = 'attr'";
        params.emplace_back(DeweyLevel(d) + 1);
        break;
      case xpath::Axis::kDescendant:
        sql += " AND kind = 'elem'";
        break;
    }
    if (name_test != "*") {
      sql += " AND name = ?";
      params.emplace_back(name_test);
    }
    sql += " ORDER BY dewey";
    ASSIGN_OR_RETURN(QueryResult r, ExecPrepared(db, sql, std::move(params)));
    for (auto& row : r.rows) out.push_back({ctx, row[0]});
  }
  return out;
}

Result<std::vector<std::string>> DeweyMapping::StringValues(
    rdb::Database* db, DocId doc, const NodeSet& nodes) const {
  std::vector<std::string> out(nodes.size());
  if (nodes.empty()) return out;
  // Every node's own row in one join: attributes and text nodes carry their
  // value directly.
  RETURN_IF_ERROR(LoadContextTable(db, Ctx(), DataType::kString, nodes));
  ASSIGN_OR_RETURN(QueryResult self,
                   ExecPrepared(db,
                                "SELECT c.id, n.kind, n.value FROM " + Ctx() +
                                    " c JOIN dw_nodes n ON n.dewey = c.id "
                                    "WHERE n.docid = ?",
                                {DV(doc)}));
  std::unordered_map<std::string, const rdb::Row*> own;
  for (const rdb::Row& row : self.rows) own[row[0].AsString()] = &row;
  // Elements read the text rows of their key range [d + ".", d + "/"), one
  // range statement per distinct element.
  std::unordered_map<std::string, std::string> element_text;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::string& d = nodes[i].AsString();
    auto it = own.find(d);
    if (it == own.end()) continue;
    const rdb::Row& row = *it->second;
    if (row[1].AsString() != "elem") {
      out[i] = row[2].is_null() ? "" : row[2].AsString();
      continue;
    }
    auto [text, fresh] = element_text.emplace(d, "");
    if (fresh) {
      ASSIGN_OR_RETURN(
          QueryResult r,
          ExecPrepared(db,
                       "SELECT value FROM dw_nodes WHERE docid = ? "
                       "AND dewey > ? AND dewey < ? AND kind = 'text' "
                       "ORDER BY dewey",
                       {DV(doc), Value(d + "."), Value(d + "/")}));
      for (auto& tr : r.rows) {
        if (!tr[0].is_null()) text->second += tr[0].AsString();
      }
    }
    out[i] = text->second;
  }
  return out;
}

Result<std::unique_ptr<xml::Node>> DeweyMapping::ReconstructSubtree(
    rdb::Database* db, DocId doc, const rdb::Value& node) const {
  ASSIGN_OR_RETURN(QueryResult self,
                   ExecPrepared(db,
                                "SELECT level, kind, name, value FROM dw_nodes "
                                "WHERE docid = ? AND dewey = ?",
                                {DV(doc), node}));
  if (self.rows.empty()) return Status::NotFound("node " + node.ToString());
  int64_t root_level = self.rows[0][0].AsInt();
  const std::string kind = self.rows[0][1].AsString();
  if (kind == "text") {
    return std::make_unique<xml::Node>(xml::NodeKind::kText, "",
                                       self.rows[0][3].AsString());
  }
  if (kind == "attr") {
    return std::make_unique<xml::Node>(xml::NodeKind::kAttribute,
                                       self.rows[0][2].AsString(),
                                       self.rows[0][3].AsString());
  }
  auto root = std::make_unique<xml::Node>(xml::NodeKind::kElement,
                                          self.rows[0][2].AsString());
  const std::string& d = node.AsString();
  ASSIGN_OR_RETURN(QueryResult r,
                   ExecPrepared(db,
                                "SELECT level, kind, name, value FROM dw_nodes "
                                "WHERE docid = ? AND dewey > ? AND dewey < ? "
                                "ORDER BY dewey",
                                {DV(doc), Value(d + "."), Value(d + "/")}));
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

Status DeweyMapping::InsertSubtreeImpl(rdb::Database* db, DocId doc,
                                   const rdb::Value& parent,
                                   const xml::Node& subtree) {
  if (!subtree.IsElement()) {
    return Status::InvalidArgument("subtree root must be an element");
  }
  const std::string& d = parent.AsString();
  ASSIGN_OR_RETURN(
      QueryResult pr,
      ExecPrepared(db,
                   "SELECT level FROM dw_nodes WHERE docid = ? AND dewey = ?",
                   {DV(doc), parent}));
  if (pr.rows.empty()) return Status::NotFound("node " + parent.ToString());
  int64_t level = pr.rows[0][0].AsInt();
  // Last used child slot: MAX over direct children.
  ASSIGN_OR_RETURN(
      QueryResult mc,
      ExecPrepared(db,
                   "SELECT MAX(dewey) FROM dw_nodes WHERE docid = ? "
                   "AND dewey > ? AND dewey < ? AND level = ?",
                   {DV(doc), Value(d + "."), Value(d + "/"),
                    Value(level + 1)}));
  int64_t next_slot = 1;
  if (!mc.rows.empty() && !mc.rows[0][0].is_null()) {
    const std::string& max_dewey = mc.rows[0][0].AsString();
    std::string comp = max_dewey.substr(max_dewey.rfind('.') + 1);
    // A corrupt stored label must fail the insert, not silently land the
    // subtree at slot 1 (= strtoll's 0 + 1) on top of an existing child.
    auto ordinal = DeweyComponentOrdinal(comp);
    if (!ordinal.ok()) {
      return ordinal.status().WithContext("dewey label '" + max_dewey + "'");
    }
    next_slot = ordinal.value() + 1;
  }
  std::vector<rdb::Row> rows;
  ShredDewey(subtree, doc, DeweyChild(d, next_slot), level + 1, &rows);
  rdb::Table* t = db->FindTable("dw_nodes");
  return t->InsertMany(std::move(rows));
}

Status DeweyMapping::DeleteSubtreeImpl(rdb::Database* db, DocId doc,
                                   const rdb::Value& node) {
  const std::string& d = node.AsString();
  return ExecPrepared(db,
                      "DELETE FROM dw_nodes WHERE docid = ? "
                      "AND dewey >= ? AND dewey < ?",
                      {DV(doc), node, Value(d + "/")})
      .status();
}

}  // namespace xmlrdb::shred
