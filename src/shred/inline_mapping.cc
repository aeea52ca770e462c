#include "shred/inline_mapping.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "common/str_util.h"
#include "shred/shred_util.h"

namespace xmlrdb::shred {

using rdb::Column;
using rdb::DataType;
using rdb::QueryResult;
using rdb::Value;
using xml::Multiplicity;
using xml::SimplifiedElement;

namespace {
std::string D(DocId doc) { return std::to_string(doc); }
Value DV(DocId doc) { return Value(static_cast<int64_t>(doc)); }
}  // namespace

// ---------------------------------------------------------------------------
// Schema planning
// ---------------------------------------------------------------------------

std::string InlineMapping::ColPrefix(const std::string& path) {
  return path.empty() ? "" : "c_" + path + "_";
}

Result<std::unique_ptr<InlineMapping>> InlineMapping::Create(
    const xml::Dtd& dtd, const std::string& root_name, bool force_no_inlining) {
  auto m = std::unique_ptr<InlineMapping>(new InlineMapping());
  ASSIGN_OR_RETURN(m->sdtd_, xml::SimplifyDtd(dtd));
  m->root_name_ = root_name;
  if (m->sdtd_.elements.count(root_name) == 0) {
    return Status::InvalidArgument("root element '" + root_name +
                                   "' not declared in the DTD");
  }

  // 1. Decide which element types get their own table.
  std::set<std::string> tables;
  tables.insert(root_name);
  for (const std::string& r : m->sdtd_.recursive) tables.insert(r);
  for (const auto& [name, deg] : m->sdtd_.in_degree) {
    if (deg >= 2) tables.insert(name);
  }
  for (const auto& [pname, se] : m->sdtd_.elements) {
    (void)pname;
    for (const auto& c : se.children) {
      if (c.mult == Multiplicity::kStar) tables.insert(c.name);
    }
  }
  if (force_no_inlining) {
    for (const auto& [name, se] : m->sdtd_.elements) {
      (void)se;
      tables.insert(name);
    }
  }

  // 2. Build each table's column plan by walking the inline closure.
  std::set<std::string> used_table_names{"inl_docs"};
  for (const std::string& x : tables) {
    std::string base = "inl_" + SanitizeName(x);
    std::string tname = base;
    int suffix = 2;
    while (used_table_names.count(tname) > 0) {
      tname = base + "_" + std::to_string(suffix++);
    }
    used_table_names.insert(tname);

    std::vector<Column> cols{
        {"docid", DataType::kInt, false, ""},
        {"id", DataType::kInt, false, ""},
        {"pid", DataType::kInt, true, ""},
        {"ppath", DataType::kString, true, ""},
        {"seq", DataType::kInt, false, ""},
        {"ord", DataType::kInt, false, ""},
    };
    std::set<std::string> used_cols;
    for (const auto& c : cols) used_cols.insert(c.name);
    auto add_col = [&](std::string name, DataType type) {
      while (used_cols.count(name) > 0) name += "_x";
      used_cols.insert(name);
      cols.push_back({name, type, true, ""});
      return name;
    };

    m->storage_[x] = {true, tname, ""};
    m->table_element_[tname] = x;

    // Recursive closure over inlined descendants.
    struct Planner {
      InlineMapping* m;
      const std::set<std::string>* tables;
      const std::string* tname;
      std::function<std::string(std::string, DataType)> add_col;

      Status Plan(const std::string& type, const std::string& path) {
        auto it = m->sdtd_.elements.find(type);
        if (it == m->sdtd_.elements.end()) {
          return Status::InvalidArgument("element '" + type +
                                         "' referenced but not declared");
        }
        const SimplifiedElement& se = it->second;
        std::string prefix = ColPrefix(path);
        if (se.has_text || se.any) {
          add_col(prefix.empty() ? "tx" : prefix + "tx", DataType::kString);
        }
        for (const auto& attr : se.attributes) {
          add_col((prefix.empty() ? "at_" : prefix + "at_") +
                      SanitizeName(attr.name),
                  DataType::kString);
        }
        for (const auto& child : se.children) {
          if (tables->count(child.name) > 0) continue;  // own table
          std::string cpath = path.empty()
                                  ? SanitizeName(child.name)
                                  : path + "_" + SanitizeName(child.name);
          add_col("c_" + cpath + "_ex", DataType::kBool);
          add_col("c_" + cpath + "_id", DataType::kInt);
          add_col("c_" + cpath + "_seq", DataType::kInt);
          m->storage_[child.name] = {false, *tname, cpath};
          RETURN_IF_ERROR(Plan(child.name, cpath));
        }
        return Status::OK();
      }
    };
    Planner planner{m.get(), &tables, &tname, add_col};
    RETURN_IF_ERROR(planner.Plan(x, ""));
    m->table_columns_[x] = std::move(cols);
  }

  // 3. One slot per element position: the host-row columns it reads and the
  // tables its table children live in. A column the plan renamed to avoid a
  // clash is left out, so it reads as NULL.
  for (const auto& [type, st] : m->storage_) {
    const std::vector<Column>& cols =
        m->table_columns_.at(m->table_element_.at(st.table));
    auto has_col = [&](const std::string& name) {
      return std::any_of(cols.begin(), cols.end(),
                         [&](const Column& c) { return c.name == name; });
    };
    const SimplifiedElement& se = m->sdtd_.elements.at(type);
    const std::string prefix = ColPrefix(st.path);
    Slot slot;
    slot.type = type;
    if (has_col(prefix + "tx")) slot.text_col = prefix + "tx";
    for (const auto& attr : se.attributes) {
      std::string col = prefix + "at_" + SanitizeName(attr.name);
      if (has_col(col)) slot.attrs.emplace_back(attr.name, std::move(col));
    }
    for (const auto& child : se.children) {
      const Storage& cst = m->storage_.at(child.name);
      if (cst.is_table) {
        slot.tabled.push_back({cst.table});
      } else {
        slot.inlined.push_back(
            {cst.path, "c_" + cst.path + "_ex", "c_" + cst.path + "_seq"});
      }
    }
    m->slots_[{st.table, st.path}] = std::move(slot);
  }
  for (auto& [key, slot] : m->slots_) {
    for (auto& in : slot.inlined) in.slot = &m->slots_.at({key.first, in.path});
    for (auto& tab : slot.tabled) tab.slot = &m->slots_.at({tab.table, ""});
  }
  return m;
}

Status InlineMapping::Initialize(rdb::Database* db) {
  RETURN_IF_ERROR(db->Execute("CREATE TABLE inl_docs (docid INTEGER NOT NULL, "
                              "max_id INTEGER NOT NULL, "
                              "root_id INTEGER NOT NULL)")
                      .status());
  for (const auto& [elem, cols] : table_columns_) {
    const std::string& tname = storage_.at(elem).table;
    ASSIGN_OR_RETURN(rdb::Table * t,
                     db->CreateTable(tname, rdb::Schema(cols)));
    RETURN_IF_ERROR(t->CreateIndex(tname + "_id", {"docid", "id"}));
    RETURN_IF_ERROR(t->CreateIndex(tname + "_pid", {"docid", "pid"}));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Node references
// ---------------------------------------------------------------------------

rdb::Value InlineMapping::MakeRef(const std::string& table, int64_t row_id,
                                  const std::string& path) {
  return Value(table + "|" + std::to_string(row_id) + "|" + path);
}

Result<InlineMapping::ParsedRef> InlineMapping::ParseRef(
    const rdb::Value& id) const {
  if (id.type() != DataType::kString) {
    return Status::InvalidArgument("inline node ids are strings");
  }
  std::vector<std::string> parts = Split(id.AsString(), '|');
  if (parts.size() != 3 && parts.size() != 4) {
    return Status::InvalidArgument("malformed inline node id '" +
                                   id.AsString() + "'");
  }
  ParsedRef ref;
  ref.table = parts[0];
  ASSIGN_OR_RETURN(ref.row_id, ParseInt64(parts[1]));
  ref.path = parts[2];
  if (parts.size() == 4) {
    if (parts[3].empty() || parts[3][0] != '@') {
      return Status::InvalidArgument("malformed attribute ref");
    }
    ref.attr = parts[3].substr(1);
  }
  return ref;
}

bool InlineMapping::NodeIdLess(const rdb::Value& a, const rdb::Value& b) const {
  // "<table>|<row id>|<rest>": split without allocating; anything else
  // falls back to plain value order.
  struct Key {
    std::string_view table, rest;
    int64_t row_id = 0;
  };
  auto split = [](const rdb::Value& v, Key* k) {
    if (v.type() != DataType::kString) return false;
    std::string_view s = v.AsString();
    size_t p1 = s.find('|');
    size_t p2 = p1 == std::string_view::npos ? p1 : s.find('|', p1 + 1);
    if (p2 == std::string_view::npos) return false;
    auto [end, ec] = std::from_chars(s.data() + p1 + 1, s.data() + p2, k->row_id);
    if (ec != std::errc() || end != s.data() + p2) return false;
    k->table = s.substr(0, p1);
    k->rest = s.substr(p2 + 1);
    return true;
  };
  Key ka, kb;
  if (!split(a, &ka) || !split(b, &kb)) return a.Compare(b) < 0;
  if (ka.table != kb.table) return ka.table < kb.table;
  if (ka.row_id != kb.row_id) return ka.row_id < kb.row_id;
  return ka.rest < kb.rest;
}

Result<const InlineMapping::Slot*> InlineMapping::SlotAt(
    const ParsedRef& ref) const {
  auto it = slots_.find({ref.table, ref.path});
  if (it == slots_.end()) {
    return Status::NotFound("no element at " + ref.table + "|" + ref.path);
  }
  return &it->second;
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

struct InlineMapping::RowBuffer {
  std::string table;
  std::map<std::string, Value> values;
};

Status InlineMapping::StoreElement(const xml::Node& el, DocId doc,
                                   int64_t* counter, RowBuffer* host_row,
                                   const std::string& path, int64_t pid,
                                   const std::string& ppath, int64_t seq,
                                   int64_t ord, rdb::Database* db) {
  auto sit = storage_.find(el.name());
  if (sit == storage_.end()) {
    return Status::ConstraintError("element '" + el.name() +
                                   "' not declared in the DTD");
  }
  const Storage& st = sit->second;
  const SimplifiedElement& se = sdtd_.elements.at(el.name());

  RowBuffer own_row;
  RowBuffer* row = host_row;
  std::string my_path = path;
  int64_t my_id = (*counter)++;
  int64_t my_row_id = 0;

  if (st.is_table) {
    own_row.table = st.table;
    own_row.values["docid"] = Value(doc);
    own_row.values["id"] = Value(my_id);
    own_row.values["pid"] = pid == 0 ? Value::Null() : Value(pid);
    own_row.values["ppath"] = Value(ppath);
    own_row.values["seq"] = Value(seq);
    own_row.values["ord"] = Value(ord);
    row = &own_row;
    my_path = "";
    my_row_id = my_id;
  } else {
    if (row == nullptr) {
      return Status::Internal("inlined element without a host row");
    }
    std::string prefix = ColPrefix(st.path);
    if (row->values.count(prefix + "ex") > 0) {
      return Status::ConstraintError(
          "element '" + el.name() +
          "' occurs more than once but the DTD allows at most one");
    }
    row->values[prefix + "ex"] = Value(true);
    row->values[prefix + "id"] = Value(my_id);
    row->values[prefix + "seq"] = Value(seq);
    my_path = st.path;
    my_row_id = row->values.at("id").AsInt();
  }

  // Attributes.
  std::string prefix = ColPrefix(my_path);
  std::set<std::string> declared_attrs;
  for (const auto& ad : se.attributes) declared_attrs.insert(ad.name);
  for (const auto& a : el.attributes()) {
    if (declared_attrs.count(a->name()) == 0) {
      return Status::ConstraintError("attribute '" + a->name() +
                                     "' of element '" + el.name() +
                                     "' not declared in the DTD");
    }
    row->values[(prefix.empty() ? "at_" : prefix + "at_") +
                SanitizeName(a->name())] = Value(a->value());
  }

  // Content.
  std::string text;
  int64_t child_seq = 0;
  std::map<std::string, int64_t> ords;
  std::set<std::string> allowed;
  for (const auto& c : se.children) allowed.insert(c.name);
  for (const auto& c : el.children()) {
    switch (c->kind()) {
      case xml::NodeKind::kText:
        if (!se.has_text && !se.any) {
          if (IsAllWhitespace(c->value())) break;
          return Status::ConstraintError("unexpected text content in '" +
                                         el.name() + "'");
        }
        text += c->value();
        break;
      case xml::NodeKind::kElement: {
        if (allowed.count(c->name()) == 0) {
          return Status::ConstraintError("child '" + c->name() +
                                         "' not allowed in '" + el.name() +
                                         "' by the DTD");
        }
        ++child_seq;
        int64_t o = ++ords[c->name()];
        RETURN_IF_ERROR(StoreElement(*c, doc, counter, row, my_path, my_row_id,
                                     my_path, child_seq, o, db));
        break;
      }
      default:
        break;
    }
  }
  if (!text.empty()) {
    row->values[prefix.empty() ? "tx" : prefix + "tx"] = Value(std::move(text));
  }

  if (st.is_table) {
    // Materialise the row in declared column order.
    const std::vector<Column>& cols = table_columns_.at(el.name());
    rdb::Row out;
    out.reserve(cols.size());
    for (const Column& c : cols) {
      auto it = own_row.values.find(c.name);
      out.push_back(it == own_row.values.end() ? Value::Null() : it->second);
    }
    rdb::Table* t = db->FindTable(st.table);
    if (t == nullptr) return Status::Internal("missing table " + st.table);
    ASSIGN_OR_RETURN([[maybe_unused]] rdb::RowId rid, t->Insert(std::move(out)));
  }
  return Status::OK();
}

Result<DocId> InlineMapping::NextDocId(rdb::Database* db) const {
  return NextIdFromMax(db, "inl_docs", "docid");
}

Result<std::vector<DocId>> InlineMapping::ListDocIds(rdb::Database* db) const {
  return DistinctDocIds(db, "inl_docs");
}

Status InlineMapping::StoreWithId(const xml::Document& doc, DocId docid,
                                  rdb::Database* db) {
  const xml::Node* root = doc.root();
  if (root == nullptr) return Status::InvalidArgument("document has no root");
  if (root->name() != root_name_) {
    return Status::ConstraintError("root element '" + root->name() +
                                   "' does not match DTD root '" + root_name_ +
                                   "'");
  }
  int64_t counter = 1;
  RETURN_IF_ERROR(StoreElement(*root, docid, &counter, nullptr, "", 0, "", 1, 1,
                               db));
  return ExecPrepared(db, "INSERT INTO inl_docs VALUES (?, ?, 1)",
                      {Value(docid), Value(counter - 1)})
      .status();
}

Result<DocId> InlineMapping::StoreImpl(const xml::Document& doc,
                                       rdb::Database* db) {
  ASSIGN_OR_RETURN(DocId docid, NextDocId(db));
  RETURN_IF_ERROR(StoreWithId(doc, docid, db));
  return docid;
}

Status InlineMapping::RemoveImpl(DocId doc, rdb::Database* db) {
  for (const auto& [elem, cols] : table_columns_) {
    (void)cols;
    RETURN_IF_ERROR(ExecPrepared(db,
                                 "DELETE FROM " + storage_.at(elem).table +
                                     " WHERE docid = ?",
                                 {DV(doc)})
                        .status());
  }
  return ExecPrepared(db, "DELETE FROM inl_docs WHERE docid = ?", {DV(doc)})
      .status();
}

// ---------------------------------------------------------------------------
// Query primitives
// ---------------------------------------------------------------------------

Result<Value> InlineMapping::RootElement(rdb::Database* db, DocId doc) const {
  const Storage& st = storage_.at(root_name_);
  ASSIGN_OR_RETURN(
      QueryResult r,
      ExecPrepared(db,
                   "SELECT id FROM " + st.table +
                       " WHERE docid = ? AND pid IS NULL",
                   {DV(doc)}));
  if (r.rows.empty()) return Status::NotFound("document " + D(doc));
  return MakeRef(st.table, r.rows[0][0].AsInt(), "");
}

Result<NodeSet> InlineMapping::AllElements(rdb::Database* db, DocId doc,
                                           const std::string& name_test) const {
  NodeSet out;
  for (const auto& [type, st] : storage_) {
    if (name_test != "*" && type != name_test) continue;
    if (st.is_table) {
      ASSIGN_OR_RETURN(
          QueryResult r,
          ExecPrepared(db,
                       "SELECT id FROM " + st.table +
                           " WHERE docid = ? ORDER BY id",
                       {DV(doc)}));
      for (auto& row : r.rows) {
        out.push_back(MakeRef(st.table, row[0].AsInt(), ""));
      }
    } else {
      std::string ex = "c_" + st.path + "_ex";
      ASSIGN_OR_RETURN(
          QueryResult r,
          ExecPrepared(db,
                       "SELECT id FROM " + st.table + " WHERE docid = ? AND " +
                           ex + " = TRUE ORDER BY id",
                       {DV(doc)}));
      for (auto& row : r.rows) {
        out.push_back(MakeRef(st.table, row[0].AsInt(), st.path));
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Set-at-a-time navigation
// ---------------------------------------------------------------------------

Status InlineMapping::AddRoot(const ParsedRef& ref, unsigned need,
                              std::vector<ExpNode>* arena) const {
  ExpNode node;
  ASSIGN_OR_RETURN(node.slot, SlotAt(ref));
  node.ref = ref;
  node.ref.attr.clear();
  node.need = need;
  arena->push_back(std::move(node));
  return Status::OK();
}

Result<std::vector<size_t>> InlineMapping::ExpandLevel(
    rdb::Database* db, DocId doc, std::vector<ExpNode>* arena,
    const std::vector<size_t>& frontier, const std::string& name_test) const {
  auto wanted = [&](const std::string& type) {
    return name_test == "*" || type == name_test;
  };
  struct Hit {
    int64_t seq;
    const Slot* slot;
    ParsedRef ref;
  };
  // Children found for frontier[k], in any order until sorted below.
  std::vector<std::vector<Hit>> hits(frontier.size());
  std::map<std::string, std::vector<size_t>> by_table;  // -> frontier positions
  for (size_t k = 0; k < frontier.size(); ++k) {
    by_table[(*arena)[frontier[k]].ref.table].push_back(k);
  }
  const std::string ctx = ScratchName("_inl_ctx");

  for (const auto& [table, group] : by_table) {
    std::map<std::string, size_t> cols;  // -> result column
    std::map<std::string, const Slot*> child_tables;
    std::vector<int64_t> row_ids;
    for (size_t k : group) {
      const ExpNode& n = (*arena)[frontier[k]];
      row_ids.push_back(n.ref.row_id);
      if ((n.need & kText) != 0 && !n.slot->text_col.empty()) {
        cols.emplace(n.slot->text_col, 0);
      }
      if ((n.need & kAttrs) != 0) {
        for (const auto& [name, col] : n.slot->attrs) cols.emplace(col, 0);
      }
      if ((n.need & kChildren) != 0) {
        for (const auto& in : n.slot->inlined) {
          if (!wanted(in.slot->type)) continue;
          cols.emplace(in.ex_col, 0);
          cols.emplace(in.seq_col, 0);
        }
        for (const auto& tab : n.slot->tabled) {
          if (wanted(tab.slot->type)) {
            child_tables.emplace(tab.table, tab.slot);
          }
        }
      }
    }
    if (cols.empty() && child_tables.empty()) continue;
    std::sort(row_ids.begin(), row_ids.end());
    row_ids.erase(std::unique(row_ids.begin(), row_ids.end()), row_ids.end());
    NodeSet ids(row_ids.begin(), row_ids.end());
    RETURN_IF_ERROR(LoadContextTable(db, ctx, DataType::kInt, ids));

    if (!cols.empty()) {
      // The host rows, one join for the whole group.
      std::string sql = "SELECT t.id";
      size_t next_col = 1;
      for (auto& [c, index] : cols) {
        sql += ", t." + c;
        index = next_col++;
      }
      sql += " FROM " + ctx + " c JOIN " + table +
             " t ON t.id = c.id WHERE t.docid = ?";
      ASSIGN_OR_RETURN(QueryResult r, ExecPrepared(db, sql, {DV(doc)}));
      std::unordered_map<int64_t, const rdb::Row*> rows;
      for (const rdb::Row& row : r.rows) rows[row[0].AsInt()] = &row;
      auto col = [&](const rdb::Row& row,
                     const std::string& name) -> const Value& {
        return row[cols.at(name)];
      };
      for (size_t k : group) {
        ExpNode& n = (*arena)[frontier[k]];
        auto it = rows.find(n.ref.row_id);
        if (it == rows.end()) {
          return Status::NotFound("inline row " + table + "|" +
                                  std::to_string(n.ref.row_id));
        }
        const rdb::Row& row = *it->second;
        if ((n.need & kText) != 0 && !n.slot->text_col.empty()) {
          const Value& tx = col(row, n.slot->text_col);
          if (!tx.is_null()) n.text = tx.AsString();
        }
        if ((n.need & kAttrs) != 0) {
          for (const auto& [name, c] : n.slot->attrs) {
            const Value& av = col(row, c);
            if (!av.is_null()) n.attrs.emplace_back(name, av.AsString());
          }
        }
        if ((n.need & kChildren) != 0) {
          for (const auto& in : n.slot->inlined) {
            if (!wanted(in.slot->type)) continue;
            const Value& ex = col(row, in.ex_col);
            if (ex.is_null() || !ex.AsBool()) continue;
            const Value& seq = col(row, in.seq_col);
            hits[k].push_back({seq.is_null() ? 0 : seq.AsInt(), in.slot,
                               ParsedRef{table, n.ref.row_id, in.path, ""}});
          }
        }
      }
    }

    if (child_tables.empty()) continue;
    // Child rows point at their parent by (pid = host row id, ppath = inline
    // path of the parent inside that row).
    std::map<std::pair<int64_t, std::string_view>, std::vector<size_t>> parents;
    for (size_t k : group) {
      const ExpNode& n = (*arena)[frontier[k]];
      if ((n.need & kChildren) != 0) {
        parents[{n.ref.row_id, n.ref.path}].push_back(k);
      }
    }
    for (const auto& [child_table, child_slot] : child_tables) {
      ASSIGN_OR_RETURN(
          QueryResult r,
          ExecPrepared(db,
                       "SELECT t.pid, t.ppath, t.id, t.seq FROM " + ctx +
                           " c JOIN " + child_table +
                           " t ON t.pid = c.id WHERE t.docid = ?",
                       {DV(doc)}));
      for (const rdb::Row& row : r.rows) {
        std::string_view ppath =
            row[1].is_null() ? std::string_view() : row[1].AsString();
        auto it = parents.find({row[0].AsInt(), ppath});
        if (it == parents.end()) continue;
        for (size_t k : it->second) {
          hits[k].push_back({row[3].AsInt(), child_slot,
                             ParsedRef{child_table, row[2].AsInt(), "", ""}});
        }
      }
    }
  }

  std::vector<size_t> next;
  for (size_t k = 0; k < frontier.size(); ++k) {
    std::sort(hits[k].begin(), hits[k].end(),
              [](const Hit& a, const Hit& b) { return a.seq < b.seq; });
    const unsigned need = (*arena)[frontier[k]].need;
    for (Hit& h : hits[k]) {
      ExpNode child;
      child.slot = h.slot;
      child.ref = std::move(h.ref);
      child.need = need;
      child.seq = h.seq;
      (*arena)[frontier[k]].children.push_back(arena->size());
      next.push_back(arena->size());
      arena->push_back(std::move(child));
    }
  }
  return next;
}

Status InlineMapping::ExpandAll(rdb::Database* db, DocId doc,
                                std::vector<ExpNode>* arena,
                                std::vector<size_t> frontier) const {
  while (!frontier.empty()) {
    ASSIGN_OR_RETURN(frontier, ExpandLevel(db, doc, arena, frontier, "*"));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Query primitives over the expansion
// ---------------------------------------------------------------------------

Result<std::vector<StepResult>> InlineMapping::Step(
    rdb::Database* db, DocId doc, const NodeSet& context, xpath::Axis axis,
    const std::string& name_test) const {
  const unsigned need = axis == xpath::Axis::kAttribute ? kAttrs : kChildren;
  std::vector<ExpNode> arena;
  std::vector<size_t> roots;   // arena index per expanded context
  std::vector<size_t> origin;  // context index per root
  for (size_t i = 0; i < context.size(); ++i) {
    ASSIGN_OR_RETURN(ParsedRef ref, ParseRef(context[i]));
    if (!ref.attr.empty()) continue;  // attributes have no children
    roots.push_back(arena.size());
    origin.push_back(i);
    RETURN_IF_ERROR(AddRoot(ref, need, &arena));
  }
  if (axis == xpath::Axis::kDescendant) {
    RETURN_IF_ERROR(ExpandAll(db, doc, &arena, roots));
  } else {
    // Only the children the name test keeps: no other child table is read.
    RETURN_IF_ERROR(ExpandLevel(db, doc, &arena, roots, name_test).status());
  }

  auto matches = [&](const std::string& name) {
    return name_test == "*" || name == name_test;
  };
  std::vector<StepResult> out;
  for (size_t r = 0; r < roots.size(); ++r) {
    const Value& ctx = context[origin[r]];
    const ExpNode& root = arena[roots[r]];
    if (axis == xpath::Axis::kAttribute) {
      for (const auto& [name, value] : root.attrs) {
        if (!matches(name)) continue;
        out.push_back({ctx, Value(root.ref.table + "|" +
                                  std::to_string(root.ref.row_id) + "|" +
                                  root.ref.path + "|@" + name)});
      }
      continue;
    }
    // Children, or (descendant axis) every level below the context in turn.
    std::vector<size_t> level = root.children;
    while (!level.empty()) {
      std::vector<size_t> below;
      for (size_t i : level) {
        const ExpNode& n = arena[i];
        if (matches(n.slot->type)) {
          out.push_back({ctx, MakeRef(n.ref.table, n.ref.row_id, n.ref.path)});
        }
        if (axis == xpath::Axis::kDescendant) {
          below.insert(below.end(), n.children.begin(), n.children.end());
        }
      }
      level = std::move(below);
    }
  }
  return out;
}

Result<std::vector<std::string>> InlineMapping::StringValues(
    rdb::Database* db, DocId doc, const NodeSet& nodes) const {
  // Attributes read their column; elements read their subtree's text.
  std::vector<ExpNode> arena;
  std::vector<std::string> attr_names;
  for (const Value& v : nodes) {
    ASSIGN_OR_RETURN(ParsedRef ref, ParseRef(v));
    attr_names.push_back(ref.attr);
    RETURN_IF_ERROR(
        AddRoot(ref, ref.attr.empty() ? kText | kChildren : kAttrs, &arena));
  }
  std::vector<size_t> roots(arena.size());
  for (size_t i = 0; i < roots.size(); ++i) roots[i] = i;
  RETURN_IF_ERROR(ExpandAll(db, doc, &arena, std::move(roots)));

  // Own text, then each child's string value in seq order.
  std::function<void(size_t, std::string*)> collect = [&](size_t i,
                                                          std::string* acc) {
    acc->append(arena[i].text);
    for (size_t c : arena[i].children) collect(c, acc);
  };
  std::vector<std::string> out(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (attr_names[i].empty()) {
      collect(i, &out[i]);
      continue;
    }
    for (const auto& [name, value] : arena[i].attrs) {
      if (name == attr_names[i]) out[i] = value;
    }
  }
  return out;
}

Result<std::unique_ptr<xml::Node>> InlineMapping::ReconstructSubtree(
    rdb::Database* db, DocId doc, const rdb::Value& node) const {
  ASSIGN_OR_RETURN(ParsedRef ref, ParseRef(node));
  if (!ref.attr.empty()) {
    ASSIGN_OR_RETURN(std::vector<std::string> vals,
                     StringValues(db, doc, {node}));
    return std::make_unique<xml::Node>(xml::NodeKind::kAttribute, ref.attr,
                                       vals[0]);
  }
  std::vector<ExpNode> arena;
  RETURN_IF_ERROR(AddRoot(ref, kText | kAttrs | kChildren, &arena));
  RETURN_IF_ERROR(ExpandAll(db, doc, &arena, {0}));

  // Attributes, then the (mixed-content) text, then the element children.
  std::function<void(size_t, xml::Node*)> build = [&](size_t i,
                                                      xml::Node* out) {
    const ExpNode& n = arena[i];
    for (const auto& [name, value] : n.attrs) out->SetAttr(name, value);
    if (!n.text.empty()) out->AddText(n.text);
    for (size_t c : n.children) build(c, out->AddElement(arena[c].slot->type));
  };
  auto out = std::make_unique<xml::Node>(xml::NodeKind::kElement,
                                         arena[0].slot->type);
  build(0, out.get());
  return out;
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

Status InlineMapping::DeleteRowTree(rdb::Database* db, DocId doc,
                                    const std::string& table,
                                    int64_t row_id) const {
  // Child table rows anywhere under this row.
  for (const auto& [elem, cols] : table_columns_) {
    (void)cols;
    const std::string& ctable = storage_.at(elem).table;
    ASSIGN_OR_RETURN(
        QueryResult r,
        ExecPrepared(db,
                     "SELECT id FROM " + ctable +
                         " WHERE docid = ? AND pid = ?",
                     {DV(doc), Value(row_id)}));
    for (auto& rr : r.rows) {
      RETURN_IF_ERROR(DeleteRowTree(db, doc, ctable, rr[0].AsInt()));
    }
  }
  return ExecPrepared(db,
                      "DELETE FROM " + table + " WHERE docid = ? AND id = ?",
                      {DV(doc), Value(row_id)})
      .status();
}

Status InlineMapping::DeleteSubtreeImpl(rdb::Database* db, DocId doc,
                                    const rdb::Value& node) {
  ASSIGN_OR_RETURN(ParsedRef ref, ParseRef(node));
  if (!ref.attr.empty()) {
    return Status::InvalidArgument("cannot delete an attribute as a subtree");
  }
  ASSIGN_OR_RETURN(const Slot* slot, SlotAt(ref));
  if (ref.path.empty()) {
    if (slot->type == root_name_) {
      return Status::InvalidArgument("cannot delete the root element");
    }
    return DeleteRowTree(db, doc, ref.table, ref.row_id);
  }
  // Inlined element: NULL its column group (and deeper prefixes), delete any
  // table rows hanging below it.
  // Table rows below: ppath equals ref.path or extends it.
  for (const auto& [elem, cols] : table_columns_) {
    (void)cols;
    const std::string& ctable = storage_.at(elem).table;
    ASSIGN_OR_RETURN(
        QueryResult r,
        ExecPrepared(db,
                     "SELECT id, ppath FROM " + ctable +
                         " WHERE docid = ? AND pid = ?",
                     {DV(doc), Value(ref.row_id)}));
    for (auto& rr : r.rows) {
      const std::string& ppath = rr[1].is_null() ? "" : rr[1].AsString();
      if (ppath == ref.path || StartsWith(ppath, ref.path + "_")) {
        RETURN_IF_ERROR(DeleteRowTree(db, doc, ctable, rr[0].AsInt()));
      }
    }
  }
  // NULL out the column group.
  std::string host_elem = table_element_.at(ref.table);
  std::string sets;
  for (const Column& c : table_columns_.at(host_elem)) {
    if (StartsWith(c.name, "c_" + ref.path + "_")) {
      if (!sets.empty()) sets += ", ";
      sets += c.name + " = NULL";
    }
  }
  if (sets.empty()) return Status::Internal("no columns for inlined element");
  return ExecPrepared(db,
                      "UPDATE " + ref.table + " SET " + sets +
                          " WHERE docid = ? AND id = ?",
                      {DV(doc), Value(ref.row_id)})
      .status();
}

Status InlineMapping::InsertSubtreeImpl(rdb::Database* db, DocId doc,
                                    const rdb::Value& parent,
                                    const xml::Node& subtree) {
  if (!subtree.IsElement()) {
    return Status::InvalidArgument("subtree root must be an element");
  }
  ASSIGN_OR_RETURN(ParsedRef ref, ParseRef(parent));
  if (!ref.attr.empty()) {
    return Status::InvalidArgument("cannot insert under an attribute");
  }
  ASSIGN_OR_RETURN(const Slot* pslot, SlotAt(ref));
  const std::string& ptype = pslot->type;
  const SimplifiedElement& pse = sdtd_.elements.at(ptype);
  bool allowed = false;
  for (const auto& c : pse.children) allowed = allowed || c.name == subtree.name();
  if (!allowed) {
    return Status::ConstraintError("child '" + subtree.name() +
                                   "' not allowed in '" + ptype + "'");
  }
  const Storage& cst = storage_.at(subtree.name());
  if (!cst.is_table) {
    return Status::Unsupported(
        "inserting a single-occurrence inlined child is not supported; "
        "only set-valued (table) children can be appended");
  }
  ASSIGN_OR_RETURN(QueryResult maxq,
                   ExecPrepared(db,
                                "SELECT max_id FROM inl_docs WHERE docid = ?",
                                {DV(doc)}));
  if (maxq.rows.empty()) return Status::NotFound("document " + D(doc));
  int64_t counter = maxq.rows[0][0].AsInt() + 1;
  // seq/ord: append after the existing children.
  std::vector<ExpNode> arena;
  RETURN_IF_ERROR(AddRoot(ref, kChildren, &arena));
  ASSIGN_OR_RETURN(std::vector<size_t> children,
                   ExpandLevel(db, doc, &arena, {0}, "*"));
  int64_t seq = children.empty() ? 1 : arena[children.back()].seq + 1;
  int64_t ord = 1;
  for (size_t c : children) {
    if (arena[c].slot->type == subtree.name()) ++ord;
  }
  RETURN_IF_ERROR(StoreElement(subtree, doc, &counter, nullptr, "", ref.row_id,
                               ref.path, seq, ord, db));
  return ExecPrepared(db, "UPDATE inl_docs SET max_id = ? WHERE docid = ?",
                      {Value(counter - 1), DV(doc)})
      .status();
}

// ---------------------------------------------------------------------------
// SQL translation & misc
// ---------------------------------------------------------------------------

Result<std::string> InlineMapping::TranslatePathToSql(
    DocId doc, const xpath::PathExpr& path) const {
  if (path.HasDescendant() || !path.PredicateFree()) {
    return Status::Unsupported("inline mapping: only child-axis, "
                               "predicate-free paths translate to one SQL");
  }
  std::string from, where;
  int joins = 0;
  std::string cur_alias;
  std::string cur_path;
  std::string cur_type;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const auto& step = path.steps[i];
    if (step.IsWildcard()) {
      return Status::Unsupported("inline mapping: wildcard steps");
    }
    if (step.axis == xpath::Axis::kAttribute) {
      if (cur_alias.empty()) {
        return Status::InvalidArgument("attribute step at path head");
      }
      std::string col = (ColPrefix(cur_path).empty()
                             ? "at_"
                             : ColPrefix(cur_path) + "at_") +
                        SanitizeName(step.name);
      return "SELECT " + cur_alias + "." + col + " FROM " + from + " WHERE " +
             where + " AND " + cur_alias + "." + col + " IS NOT NULL";
    }
    if (i == 0) {
      if (step.name != root_name_) {
        return Status::NotFound("path head '" + step.name +
                                "' is not the DTD root");
      }
      cur_type = root_name_;
      cur_path = "";
      cur_alias = "r0";
      from = storage_.at(root_name_).table + " " + cur_alias;
      where = cur_alias + ".docid = " + D(doc) + " AND " + cur_alias +
              ".pid IS NULL";
      continue;
    }
    auto sit = storage_.find(step.name);
    if (sit == storage_.end()) {
      return Status::NotFound("element '" + step.name + "' not in the DTD");
    }
    const Storage& st = sit->second;
    if (st.is_table) {
      ++joins;
      std::string a = "r" + std::to_string(joins);
      from += ", " + st.table + " " + a;
      where += " AND " + a + ".docid = " + D(doc) + " AND " + a + ".pid = " +
               cur_alias + ".id AND " + a + ".ppath = " +
               SqlLiteral(Value(cur_path));
      cur_alias = a;
      cur_path = "";
      cur_type = step.name;
    } else {
      // Same table, no join: just require presence.
      if (st.table != storage_.at(cur_type).table && !cur_path.empty()) {
        // Shouldn't happen: inlined child lives in the ancestor's table.
      }
      where += " AND " + cur_alias + ".c_" + st.path + "_ex = TRUE";
      cur_path = st.path;
      cur_type = step.name;
    }
  }
  std::string id_col =
      cur_path.empty() ? "id" : "c_" + cur_path + "_id";
  return "SELECT " + cur_alias + "." + id_col + " FROM " + from + " WHERE " +
         where;
}

std::vector<std::string> InlineMapping::TableElementNames() const {
  std::vector<std::string> out;
  for (const auto& [elem, cols] : table_columns_) {
    (void)cols;
    out.push_back(elem);
  }
  return out;
}

std::vector<std::string> InlineMapping::TableNames(const rdb::Database& db) const {
  (void)db;
  std::vector<std::string> out{"inl_docs"};
  for (const auto& [tname, elem] : table_element_) {
    (void)elem;
    out.push_back(tname);
  }
  return out;
}

}  // namespace xmlrdb::shred
