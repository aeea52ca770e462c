#include "rdb/planner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

namespace xmlrdb::rdb {

namespace {

/// Splits "alias.col" into its parts; unqualified names resolve against the
/// FROM list (unique match required).
struct NameResolver {
  // alias -> table
  std::vector<std::pair<std::string, const Table*>> tables;

  Result<std::string> AliasOf(const std::string& column_name) const {
    size_t dot = column_name.find('.');
    if (dot != std::string::npos) {
      std::string alias = column_name.substr(0, dot);
      for (const auto& [a, t] : tables) {
        if (a == alias) return alias;
      }
      return Status::NotFound("unknown table alias '" + alias + "'");
    }
    std::string found;
    for (const auto& [a, t] : tables) {
      if (t->schema().TryIndexOf(column_name).has_value()) {
        if (!found.empty()) {
          return Status::InvalidArgument("ambiguous column '" + column_name + "'");
        }
        found = a;
      }
    }
    if (found.empty()) {
      return Status::NotFound("column '" + column_name + "' not found");
    }
    return found;
  }

  const Table* TableOf(const std::string& alias) const {
    for (const auto& [a, t] : tables) {
      if (a == alias) return t;
    }
    return nullptr;
  }
};

/// Which aliases a conjunct references.
Result<std::set<std::string>> AliasesOf(const Expr& e, const NameResolver& nr) {
  std::vector<std::string> cols;
  e.CollectColumns(&cols);
  std::set<std::string> out;
  for (const auto& c : cols) {
    ASSIGN_OR_RETURN(std::string a, nr.AliasOf(c));
    out.insert(a);
  }
  return out;
}

struct JoinPred {
  std::string left_alias, right_alias;
  std::string left_col, right_col;  // fully qualified
  ExprPtr original;                 // kept in case we need it as a filter
};

/// Pattern-matches `alias.col = other.col`.
bool MatchEquiJoin(const Expr& e, const NameResolver& nr, JoinPred* out) {
  if (e.kind() != Expr::Kind::kBinary) return false;
  const auto& bin = static_cast<const BinaryExpr&>(e);
  if (bin.op() != BinOp::kEq) return false;
  if (bin.left()->kind() != Expr::Kind::kColumn ||
      bin.right()->kind() != Expr::Kind::kColumn) {
    return false;
  }
  const auto& l = static_cast<const ColumnExpr&>(*bin.left());
  const auto& r = static_cast<const ColumnExpr&>(*bin.right());
  auto la = nr.AliasOf(l.name());
  auto ra = nr.AliasOf(r.name());
  if (!la.ok() || !ra.ok() || la.value() == ra.value()) return false;
  out->left_alias = la.value();
  out->right_alias = ra.value();
  out->left_col = l.name();
  out->right_col = r.name();
  return true;
}

/// Pattern-matches `alias.col OP literal` or `alias.col OP ?` (either operand
/// order). For a literal the value is known at plan time; for a parameter only
/// the expression is kept and the scan resolves it at Open().
struct ColOpLit {
  std::string column;  // qualified as written
  size_t col_index;    // in the table schema
  BinOp op;            // normalised so the column is on the left
  Value literal;       // valid only when !is_param
  ExprPtr value;       // clone of the value operand (literal or param)
  bool is_param = false;
};

BinOp FlipOp(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

bool MatchColOpLit(const Expr& e, const Table& table, ColOpLit* out) {
  if (e.kind() != Expr::Kind::kBinary) return false;
  const auto& bin = static_cast<const BinaryExpr&>(e);
  switch (bin.op()) {
    case BinOp::kEq: case BinOp::kLt: case BinOp::kLe:
    case BinOp::kGt: case BinOp::kGe:
      break;
    default:
      return false;
  }
  auto is_value = [](Expr::Kind k) {
    return k == Expr::Kind::kLiteral || k == Expr::Kind::kParam;
  };
  const Expr* col = bin.left();
  const Expr* val = bin.right();
  BinOp op = bin.op();
  if (is_value(col->kind()) && val->kind() == Expr::Kind::kColumn) {
    std::swap(col, val);
    op = FlipOp(op);
  }
  if (col->kind() != Expr::Kind::kColumn || !is_value(val->kind())) {
    return false;
  }
  const auto& c = static_cast<const ColumnExpr&>(*col);
  // Strip the alias qualifier for schema lookup.
  std::string bare = c.name();
  size_t dot = bare.find('.');
  if (dot != std::string::npos) bare = bare.substr(dot + 1);
  auto idx = table.schema().TryIndexOf(bare);
  if (!idx.has_value()) return false;
  DataType ct = table.schema().column(*idx).type;
  if (val->kind() == Expr::Kind::kLiteral) {
    const Value& v = static_cast<const LiteralExpr&>(*val).value();
    // Only index on type-compatible literals (string col vs string lit etc.);
    // mismatched types fall back to filtering.
    bool compatible =
        v.type() == ct ||
        (ct == DataType::kDouble && v.type() == DataType::kInt) ||
        (ct == DataType::kInt && v.type() == DataType::kDouble &&
         op == BinOp::kEq);
    if (!compatible) return false;
    out->literal = v;
  } else {
    // Parameter value is unknown until execution: the scan checks type
    // compatibility at Open() and widens the bound if it cannot compare.
    out->is_param = true;
  }
  out->column = c.name();
  out->col_index = *idx;
  out->op = op;
  out->value = val->Clone();
  return true;
}

/// Builds the access path for one table: picks an index whose key prefix is
/// covered by equality conjuncts (optionally + one range column), otherwise a
/// sequential scan — parallel when the options allow it and the table is big
/// enough, with the leftover conjuncts pushed into the scan workers.
/// Consumed conjunct indexes are recorded in `used`.
PlanPtr BuildScan(const Table* table, const std::string& alias,
                  std::vector<ExprPtr>* conjuncts,
                  const PlannerOptions& options) {
  // Gather sargable predicates.
  std::vector<std::pair<size_t, ColOpLit>> sargs;  // (conjunct idx, match)
  for (size_t i = 0; i < conjuncts->size(); ++i) {
    ColOpLit m;
    if ((*conjuncts)[i] != nullptr && MatchColOpLit(*(*conjuncts)[i], *table, &m)) {
      sargs.emplace_back(i, std::move(m));
    }
  }
  const Index* best_index = nullptr;
  size_t best_score = 0;
  std::vector<size_t> best_used;
  Row best_lower, best_upper;
  std::vector<ExprPtr> best_lower_exprs, best_upper_exprs;
  bool best_lower_inc = true, best_upper_inc = true;
  bool best_has_param = false;

  // Latched copy: planning runs without table locks under MVCC, so a
  // concurrent CREATE INDEX must not invalidate this iteration.
  for (const Index* index : table->IndexList()) {
    Row lower, upper;
    std::vector<ExprPtr> lower_exprs, upper_exprs;
    bool lower_inc = true, upper_inc = true;
    bool has_param = false;
    std::vector<size_t> used;
    size_t matched = 0;
    bool open = true;  // still matching equality prefix
    for (size_t kc : index->key_columns()) {
      if (!open) break;
      // Find an equality sarg on this column.
      bool eq_found = false;
      for (const auto& [ci, m] : sargs) {
        if (m.col_index == kc && m.op == BinOp::kEq) {
          lower.push_back(m.literal);
          upper.push_back(m.literal);
          lower_exprs.push_back(m.value->Clone());
          upper_exprs.push_back(m.value->Clone());
          has_param = has_param || m.is_param;
          used.push_back(ci);
          ++matched;
          eq_found = true;
          break;
        }
      }
      if (eq_found) continue;
      // Otherwise try range sargs on this column, then stop extending.
      bool have_lower = false, have_upper = false;
      Value lo, hi;
      ExprPtr lo_expr, hi_expr;
      bool lo_inc = true, hi_inc = true;
      for (const auto& [ci, m] : sargs) {
        if (m.col_index != kc) continue;
        if ((m.op == BinOp::kGt || m.op == BinOp::kGe) && !have_lower) {
          lo = m.literal;
          lo_expr = m.value->Clone();
          lo_inc = m.op == BinOp::kGe;
          has_param = has_param || m.is_param;
          have_lower = true;
          used.push_back(ci);
        } else if ((m.op == BinOp::kLt || m.op == BinOp::kLe) && !have_upper) {
          hi = m.literal;
          hi_expr = m.value->Clone();
          hi_inc = m.op == BinOp::kLe;
          has_param = has_param || m.is_param;
          have_upper = true;
          used.push_back(ci);
        }
      }
      if (have_lower) {
        lower.push_back(lo);
        lower_exprs.push_back(std::move(lo_expr));
        lower_inc = lo_inc;
        ++matched;
      }
      if (have_upper) {
        upper.push_back(hi);
        upper_exprs.push_back(std::move(hi_expr));
        upper_inc = hi_inc;
        ++matched;
      }
      open = false;
    }
    if (matched > best_score) {
      best_score = matched;
      best_index = index;
      best_used = used;
      best_lower = lower;
      best_upper = upper;
      best_lower_exprs = std::move(lower_exprs);
      best_upper_exprs = std::move(upper_exprs);
      best_lower_inc = lower_inc;
      best_upper_inc = upper_inc;
      best_has_param = has_param;
    }
  }

  PlanPtr scan;
  if (best_index != nullptr && best_has_param) {
    // Parameterized bounds: the scan evaluates them at Open() and may widen
    // the range if a bound value turns out type-incompatible with the key
    // column. To stay correct under widening, every used conjunct is KEPT as
    // a residual filter instead of being consumed.
    scan = std::make_unique<IndexScanNode>(
        table, best_index, alias, std::move(best_lower_exprs), best_lower_inc,
        std::move(best_upper_exprs), best_upper_inc);
  } else if (best_index != nullptr) {
    scan = std::make_unique<IndexScanNode>(table, best_index, alias, best_lower,
                                           best_lower_inc, best_upper,
                                           best_upper_inc);
    // Consume the used conjuncts.
    std::sort(best_used.begin(), best_used.end(), std::greater<>());
    for (size_t ci : best_used) {
      (*conjuncts)[ci] = nullptr;
    }
  }
  // Remaining conjuncts become a filter above the scan (or inside it, for a
  // parallel scan).
  std::vector<ExprPtr> remaining;
  for (auto& c : *conjuncts) {
    if (c != nullptr) remaining.push_back(std::move(c));
  }
  conjuncts->clear();
  ExprPtr filter = AndAll(std::move(remaining));
  if (scan == nullptr && options.max_parallelism > 1 &&
      table->num_slots() >= options.parallel_scan_min_rows) {
    // Morsel-parallel scan with the filter pushed into the workers.
    return std::make_unique<ParallelSeqScanNode>(
        table, alias, std::move(filter), options.max_parallelism, options.pool);
  }
  if (scan == nullptr) scan = std::make_unique<SeqScanNode>(table, alias);
  if (filter != nullptr) {
    scan = std::make_unique<FilterNode>(std::move(scan), std::move(filter));
  }
  return scan;
}

/// Index nested-loop access path for joining a table as the inner side: an
/// index whose key starts with columns bound by equality conjuncts on that
/// table (literals or `?`), followed by one or more join columns.
struct IndexJoinPath {
  const Index* index = nullptr;
  std::vector<size_t> prefix_conjuncts;  ///< per leading key column
  std::vector<size_t> seek_cols;         ///< join key columns that follow
};

/// Schema index of a (possibly alias-qualified) column of `table`.
std::optional<size_t> ColumnIndex(const Table& table, const std::string& name) {
  size_t dot = name.find('.');
  return table.schema().TryIndexOf(dot == std::string::npos
                                       ? name
                                       : name.substr(dot + 1));
}

/// The index of `table` covering the longest (equality prefix, join columns)
/// key prefix, given its single-table conjuncts and the columns it can be
/// equi-joined on. Depends only on the schema and the statement's shape, so
/// a cached plan stays right whatever the data.
std::optional<IndexJoinPath> FindIndexJoinPath(
    const Table& table, const std::vector<ExprPtr>& filters,
    const std::set<size_t>& join_cols) {
  std::map<size_t, size_t> eq;  // key column -> first equality conjunct
  for (size_t i = 0; i < filters.size(); ++i) {
    ColOpLit m;
    if (MatchColOpLit(*filters[i], table, &m) && m.op == BinOp::kEq) {
      eq.emplace(m.col_index, i);
    }
  }
  std::optional<IndexJoinPath> best;
  for (const Index* index : table.IndexList()) {
    IndexJoinPath path;
    path.index = index;
    const auto& keys = index->key_columns();
    size_t k = 0;
    for (; k < keys.size() && eq.count(keys[k]) > 0; ++k) {
      path.prefix_conjuncts.push_back(eq[keys[k]]);
    }
    for (; k < keys.size() && join_cols.count(keys[k]) > 0; ++k) {
      path.seek_cols.push_back(keys[k]);
    }
    if (path.seek_cols.empty()) continue;
    if (!best.has_value() ||
        k > best->prefix_conjuncts.size() + best->seek_cols.size()) {
      best = std::move(path);
    }
  }
  return best;
}

/// Extracts AggCallExprs, replacing each with a column reference to the
/// aggregate's output column. Returns the rewritten expression.
ExprPtr ExtractAggs(ExprPtr e, std::vector<AggSpec>* specs,
                    std::map<std::string, std::string>* names) {
  if (e == nullptr) return nullptr;
  switch (e->kind()) {
    case Expr::Kind::kAgg: {
      auto* agg = static_cast<AggCallExpr*>(e.get());
      std::string sig = agg->ToString();
      auto it = names->find(sig);
      if (it != names->end()) return Col(it->second);
      std::string out_name = "_agg" + std::to_string(specs->size());
      AggSpec spec;
      if (agg->func_name() == "COUNT" && agg->arg() == nullptr) {
        spec.func = AggFunc::kCountStar;
      } else if (agg->func_name() == "COUNT") {
        spec.func = AggFunc::kCount;
      } else if (agg->func_name() == "SUM") {
        spec.func = AggFunc::kSum;
      } else if (agg->func_name() == "AVG") {
        spec.func = AggFunc::kAvg;
      } else if (agg->func_name() == "MIN") {
        spec.func = AggFunc::kMin;
      } else {
        spec.func = AggFunc::kMax;
      }
      spec.arg = agg->TakeArg();
      spec.output_name = out_name;
      specs->push_back(std::move(spec));
      (*names)[sig] = out_name;
      return Col(out_name);
    }
    case Expr::Kind::kBinary: {
      auto* bin = static_cast<BinaryExpr*>(e.get());
      bin->SetLeft(ExtractAggs(bin->TakeLeft(), specs, names));
      bin->SetRight(ExtractAggs(bin->TakeRight(), specs, names));
      return e;
    }
    case Expr::Kind::kNot: {
      auto* n = static_cast<NotExpr*>(e.get());
      n->SetChild(ExtractAggs(n->TakeChild(), specs, names));
      return e;
    }
    case Expr::Kind::kIsNull: {
      auto* n = static_cast<IsNullExpr*>(e.get());
      n->SetChild(ExtractAggs(n->TakeChild(), specs, names));
      return e;
    }
    case Expr::Kind::kLike: {
      auto* n = static_cast<LikeExpr*>(e.get());
      n->SetChild(ExtractAggs(n->TakeChild(), specs, names));
      return e;
    }
    case Expr::Kind::kInList: {
      auto* n = static_cast<InListExpr*>(e.get());
      n->SetChild(ExtractAggs(n->TakeChild(), specs, names));
      return e;
    }
    default:
      return e;
  }
}

bool ContainsAgg(const Expr& e) {
  switch (e.kind()) {
    case Expr::Kind::kAgg:
      return true;
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      return ContainsAgg(*bin.left()) || ContainsAgg(*bin.right());
    }
    case Expr::Kind::kNot:
      return ContainsAgg(*static_cast<const NotExpr&>(e).child());
    case Expr::Kind::kIsNull:
      return ContainsAgg(*static_cast<const IsNullExpr&>(e).child());
    case Expr::Kind::kLike:
      return ContainsAgg(*static_cast<const LikeExpr&>(e).child());
    case Expr::Kind::kInList:
      return ContainsAgg(*static_cast<const InListExpr&>(e).child());
    default:
      return false;
  }
}

}  // namespace

Result<PlanPtr> Planner::PlanSelect(const SelectStmt& stmt) const {
  if (stmt.from.empty()) {
    return Status::Unsupported("SELECT without FROM");
  }
  NameResolver nr;
  for (const auto& ref : stmt.from) {
    const Table* t = resolver_(ref.table);
    if (t == nullptr) return Status::NotFound("table '" + ref.table + "'");
    for (const auto& [a, _] : nr.tables) {
      if (a == ref.effective_alias()) {
        return Status::InvalidArgument("duplicate alias '" + a + "'");
      }
    }
    nr.tables.emplace_back(ref.effective_alias(), t);
  }

  // --- classify WHERE conjuncts ---
  std::vector<ExprPtr> conjuncts;
  if (stmt.where != nullptr) SplitConjuncts(stmt.where->Clone(), &conjuncts);

  std::map<std::string, std::vector<ExprPtr>> table_filters;
  std::vector<JoinPred> join_preds;
  std::vector<ExprPtr> residual;

  for (auto& c : conjuncts) {
    JoinPred jp;
    if (MatchEquiJoin(*c, nr, &jp)) {
      jp.original = std::move(c);
      join_preds.push_back(std::move(jp));
      continue;
    }
    ASSIGN_OR_RETURN(std::set<std::string> aliases, AliasesOf(*c, nr));
    if (aliases.size() <= 1) {
      std::string a = aliases.empty() ? nr.tables[0].first : *aliases.begin();
      table_filters[a].push_back(std::move(c));
    } else {
      residual.push_back(std::move(c));
    }
  }

  // --- join ordering (greedy) ---
  // Tables an index nested-loop join can reach go last, so they end up on
  // the inner side; within each group, smallest estimate first.
  std::map<std::string, double> estimates;
  std::map<std::string, bool> index_reachable;
  for (const auto& [alias, table] : nr.tables) {
    const auto& filters = table_filters[alias];
    double est = static_cast<double>(table->num_rows());
    for (const auto& f : filters) {
      (void)f;
      est /= 10.0;  // heuristic selectivity per pushed-down predicate
    }
    estimates[alias] = std::max(est, 1.0);
    std::set<size_t> join_cols;
    for (const JoinPred& jp : join_preds) {
      const std::string* col = jp.left_alias == alias    ? &jp.left_col
                               : jp.right_alias == alias ? &jp.right_col
                                                         : nullptr;
      if (col == nullptr) continue;
      if (auto c = ColumnIndex(*table, *col)) join_cols.insert(*c);
    }
    index_reachable[alias] =
        FindIndexJoinPath(*table, filters, join_cols).has_value();
  }
  std::vector<std::string> remaining;
  for (const auto& [alias, _] : nr.tables) remaining.push_back(alias);
  std::sort(remaining.begin(), remaining.end(),
            [&](const std::string& a, const std::string& b) {
              if (index_reachable[a] != index_reachable[b]) {
                return !index_reachable[a];
              }
              return estimates[a] < estimates[b];
            });

  std::set<std::string> joined;
  PlanPtr plan = BuildScan(nr.TableOf(remaining.front()), remaining.front(),
                           &table_filters[remaining.front()], options_);
  joined.insert(remaining.front());
  remaining.erase(remaining.begin());
  std::vector<bool> pred_used(join_preds.size(), false);

  while (!remaining.empty()) {
    // Prefer an alias connected to the joined set by an equi-join predicate.
    ptrdiff_t pick = -1;
    for (size_t i = 0; i < remaining.size(); ++i) {
      for (size_t p = 0; p < join_preds.size(); ++p) {
        if (pred_used[p]) continue;
        const JoinPred& jp = join_preds[p];
        bool connects =
            (joined.count(jp.left_alias) > 0 && jp.right_alias == remaining[i]) ||
            (joined.count(jp.right_alias) > 0 && jp.left_alias == remaining[i]);
        if (connects) {
          pick = static_cast<ptrdiff_t>(i);
          break;
        }
      }
      if (pick >= 0) break;
    }
    bool connected = pick >= 0;
    if (pick < 0) pick = 0;
    std::string alias = remaining[static_cast<size_t>(pick)];
    remaining.erase(remaining.begin() + pick);
    const Table* table = nr.TableOf(alias);
    std::vector<ExprPtr>& filters = table_filters[alias];

    if (connected) {
      // Gather all join predicates between the joined set and `alias`, as
      // (joined-side column, alias-side column) pairs.
      std::vector<std::pair<std::string, std::string>> keys;
      for (size_t p = 0; p < join_preds.size(); ++p) {
        if (pred_used[p]) continue;
        JoinPred& jp = join_preds[p];
        if (joined.count(jp.left_alias) > 0 && jp.right_alias == alias) {
          keys.emplace_back(jp.left_col, jp.right_col);
          pred_used[p] = true;
        } else if (joined.count(jp.right_alias) > 0 && jp.left_alias == alias) {
          keys.emplace_back(jp.right_col, jp.left_col);
          pred_used[p] = true;
        }
      }
      std::vector<size_t> inner_cols;
      for (const auto& key : keys) {
        if (auto c = ColumnIndex(*table, key.second)) inner_cols.push_back(*c);
      }
      std::optional<IndexJoinPath> path;
      if (inner_cols.size() == keys.size()) {
        path = FindIndexJoinPath(
            *table, filters,
            std::set<size_t>(inner_cols.begin(), inner_cols.end()));
      }
      if (path.has_value()) {
        // Seek keys first, in index-key order; the other pairs are verified.
        std::vector<size_t> order;
        for (size_t col : path->seek_cols) {
          order.push_back(static_cast<size_t>(
              std::find(inner_cols.begin(), inner_cols.end(), col) -
              inner_cols.begin()));
        }
        for (size_t i = 0; i < keys.size(); ++i) {
          if (std::find(order.begin(), order.end(), i) == order.end()) {
            order.push_back(i);
          }
        }
        std::vector<ExprPtr> outer_keys;
        std::vector<size_t> ordered_cols;
        for (size_t i : order) {
          outer_keys.push_back(Col(keys[i].first));
          ordered_cols.push_back(inner_cols[i]);
        }
        // The prefix conjuncts leave the inner filter; they are re-checked
        // only when a prefix value turns out unusable at run time.
        std::vector<ExprPtr> prefix, checks, rest;
        for (size_t ci : path->prefix_conjuncts) {
          ColOpLit m;
          MatchColOpLit(*filters[ci], *table, &m);
          prefix.push_back(std::move(m.value));
          checks.push_back(std::move(filters[ci]));
        }
        for (auto& f : filters) {
          if (f != nullptr) rest.push_back(std::move(f));
        }
        filters.clear();
        plan = std::make_unique<IndexNestedLoopJoinNode>(
            std::move(plan), table, path->index, alias, std::move(prefix),
            std::move(outer_keys), std::move(ordered_cols),
            path->seek_cols.size(), AndAll(std::move(rest)),
            AndAll(std::move(checks)));
      } else {
        std::vector<ExprPtr> lkeys, rkeys;
        for (const auto& key : keys) {
          lkeys.push_back(Col(key.first));
          rkeys.push_back(Col(key.second));
        }
        plan = std::make_unique<HashJoinNode>(
            std::move(plan), BuildScan(table, alias, &filters, options_),
            std::move(lkeys), std::move(rkeys), nullptr);
      }
    } else {
      plan = std::make_unique<NestedLoopJoinNode>(
          std::move(plan), BuildScan(table, alias, &filters, options_), nullptr);
    }
    joined.insert(alias);
  }

  // Join predicates between already-joined aliases that were not used as
  // hash keys become filters.
  for (size_t p = 0; p < join_preds.size(); ++p) {
    if (!pred_used[p]) residual.push_back(std::move(join_preds[p].original));
  }
  ExprPtr residual_filter = AndAll(std::move(residual));
  if (residual_filter != nullptr) {
    plan = std::make_unique<FilterNode>(std::move(plan),
                                        std::move(residual_filter));
  }

  // --- aggregation ---
  bool has_agg = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (item.expr != nullptr && ContainsAgg(*item.expr)) has_agg = true;
    if (item.expr != nullptr && item.expr->kind() == Expr::Kind::kAgg) {
      has_agg = true;
    }
  }
  if (stmt.having != nullptr) has_agg = true;

  std::vector<ExprPtr> out_exprs;
  std::vector<std::string> out_names;
  bool select_star = false;
  for (const auto& item : stmt.items) {
    if (item.star) {
      select_star = true;
      continue;
    }
    out_exprs.push_back(item.expr->Clone());
    out_names.push_back(item.alias);
  }
  if (select_star && !out_exprs.empty()) {
    return Status::Unsupported("SELECT * mixed with other select items");
  }

  if (has_agg) {
    if (select_star) return Status::Unsupported("SELECT * with aggregation");
    std::vector<AggSpec> specs;
    std::map<std::string, std::string> agg_names;
    for (auto& e : out_exprs) {
      e = ExtractAggs(std::move(e), &specs, &agg_names);
    }
    ExprPtr having =
        stmt.having != nullptr
            ? ExtractAggs(stmt.having->Clone(), &specs, &agg_names)
            : nullptr;
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (const auto& g : stmt.group_by) {
      group_exprs.push_back(g->Clone());
      group_names.emplace_back();
    }
    plan = std::make_unique<AggregateNode>(std::move(plan),
                                           std::move(group_exprs),
                                           std::move(group_names),
                                           std::move(specs));
    if (having != nullptr) {
      plan = std::make_unique<FilterNode>(std::move(plan), std::move(having));
    }
    // ORDER BY for aggregate queries may reference output aliases; rewrite
    // aggregate calls inside order keys too.
    std::vector<SortKey> sort_keys;
    for (const auto& o : stmt.order_by) {
      SortKey k;
      std::map<std::string, std::string> tmp = agg_names;
      std::vector<AggSpec> extra;  // new aggs in ORDER BY are unsupported
      k.expr = ExtractAggs(o.expr->Clone(), &extra, &tmp);
      if (!extra.empty()) {
        return Status::Unsupported(
            "ORDER BY aggregate not present in select list");
      }
      k.ascending = o.ascending;
      sort_keys.push_back(std::move(k));
    }
    plan = std::make_unique<ProjectNode>(std::move(plan), std::move(out_exprs),
                                         std::move(out_names));
    if (!sort_keys.empty()) {
      plan = std::make_unique<SortNode>(std::move(plan), std::move(sort_keys));
    }
  } else {
    // Sort before projection: ORDER BY may reference non-projected columns.
    if (!stmt.order_by.empty()) {
      std::vector<SortKey> sort_keys;
      for (const auto& o : stmt.order_by) {
        sort_keys.push_back(SortKey{o.expr->Clone(), o.ascending});
      }
      plan = std::make_unique<SortNode>(std::move(plan), std::move(sort_keys));
    }
    if (!select_star) {
      plan = std::make_unique<ProjectNode>(std::move(plan), std::move(out_exprs),
                                           std::move(out_names));
    }
  }

  if (stmt.distinct) {
    plan = std::make_unique<DistinctNode>(std::move(plan));
  }
  if (stmt.limit >= 0 || stmt.offset > 0) {
    plan = std::make_unique<LimitNode>(std::move(plan), stmt.limit, stmt.offset);
  }
  return plan;
}

}  // namespace xmlrdb::rdb
