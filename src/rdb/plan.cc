#include "rdb/plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace xmlrdb::rdb {

namespace {

/// Best-effort static type of an expression over `schema`.
DataType InferType(const Expr& e, const Schema& schema) {
  switch (e.kind()) {
    case Expr::Kind::kColumn: {
      const auto& col = static_cast<const ColumnExpr&>(e);
      auto idx = schema.TryIndexOf(col.name());
      return idx.has_value() ? schema.column(*idx).type : DataType::kString;
    }
    case Expr::Kind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value().type();
    case Expr::Kind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      switch (bin.op()) {
        case BinOp::kAnd: case BinOp::kOr:
        case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
        case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
          return DataType::kBool;
        default: {
          DataType l = InferType(*bin.left(), schema);
          DataType r = InferType(*bin.right(), schema);
          if (l == DataType::kString || r == DataType::kString) {
            return DataType::kString;
          }
          if (l == DataType::kDouble || r == DataType::kDouble) {
            return DataType::kDouble;
          }
          return DataType::kInt;
        }
      }
    }
    case Expr::Kind::kNot:
    case Expr::Kind::kIsNull:
    case Expr::Kind::kLike:
    case Expr::Kind::kInList:
      return DataType::kBool;
    case Expr::Kind::kAgg:
      return DataType::kDouble;  // resolved by AggregateNode before execution
    case Expr::Kind::kParam:
      return DataType::kString;  // runtime-typed; unknown until bound
  }
  return DataType::kString;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ExplainRec(const PlanNode& n, int depth, bool analyze, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(n.Describe());
  if (analyze) {
    const OperatorStats& s = n.stats();
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  (actual rows=%lld batches=%lld calls=%lld",
                  static_cast<long long>(s.rows),
                  static_cast<long long>(s.batches),
                  static_cast<long long>(s.next_calls));
    out->append(buf);
    out->append(n.AnalyzeDetail());
    if (n.analyze_enabled()) {
      std::snprintf(buf, sizeof(buf), " time=%.3fms",
                    static_cast<double>(s.open_ns + s.next_ns) / 1e6);
      out->append(buf);
    }
    out->append(")");
  }
  out->append("\n");
  for (const PlanNode* c : n.Children()) ExplainRec(*c, depth + 1, analyze, out);
}

}  // namespace

Status PlanNode::Open() {
  ++stats_.open_calls;
  if (!analyze_) return OpenImpl();
  int64_t t0 = NowNs();
  Status st = OpenImpl();
  stats_.open_ns += NowNs() - t0;
  return st;
}

Result<bool> PlanNode::Next(Row* out) {
  ++stats_.next_calls;
  if (!analyze_) {
    Result<bool> r = NextImpl(out);
    if (r.ok() && r.value()) ++stats_.rows;
    return r;
  }
  int64_t t0 = NowNs();
  Result<bool> r = NextImpl(out);
  stats_.next_ns += NowNs() - t0;
  if (r.ok() && r.value()) ++stats_.rows;
  return r;
}

Result<bool> PlanNode::NextBatch(Batch* out) {
  if (!analyze_) {
    Result<bool> r = NextBatchImpl(out);
    if (r.ok() && r.value()) {
      ++stats_.batches;
      stats_.rows += static_cast<int64_t>(out->ActiveCount());
    }
    return r;
  }
  int64_t t0 = NowNs();
  Result<bool> r = NextBatchImpl(out);
  stats_.next_ns += NowNs() - t0;
  if (r.ok() && r.value()) {
    ++stats_.batches;
    stats_.rows += static_cast<int64_t>(out->ActiveCount());
  }
  return r;
}

Result<bool> PlanNode::NextBatchImpl(Batch* out) {
  // Row-compat shim: pull through the operator's own row path. NextImpl is
  // called directly (not Next) so produced rows are counted once, by the
  // NextBatch wrapper; next_calls still tracks the pulls.
  out->Reset(output_schema().size());
  const size_t target = static_cast<size_t>(DefaultBatchSize());
  Row row;
  while (out->num_rows() < target) {
    ++stats_.next_calls;
    ASSIGN_OR_RETURN(bool more, NextImpl(&row));
    if (!more) break;
    out->AppendRowMove(std::move(row));
  }
  return out->num_rows() > 0;
}

void PlanNode::Close() { CloseImpl(); }

void PlanNode::EnableAnalyze() {
  analyze_ = true;
  // Children() exposes the subtree read-only for EXPLAIN; instrumentation is
  // the one writer that needs to reach through it.
  for (const PlanNode* c : Children()) {
    const_cast<PlanNode*>(c)->EnableAnalyze();
  }
}

void PlanNode::ResetStats() {
  stats_ = OperatorStats{};
  for (const PlanNode* c : Children()) {
    const_cast<PlanNode*>(c)->ResetStats();
  }
}

std::string PlanNode::OperatorName() const {
  std::string d = Describe();
  return d.substr(0, d.find('('));
}

std::string PlanNode::Explain() const {
  std::string out;
  ExplainRec(*this, 0, /*analyze=*/false, &out);
  return out;
}

std::string PlanNode::ExplainAnalyze() const {
  std::string out;
  ExplainRec(*this, 0, /*analyze=*/true, &out);
  return out;
}

int PlanNode::CountOperators(const std::string& prefix) const {
  int n = Describe().rfind(prefix, 0) == 0 ? 1 : 0;
  for (const PlanNode* c : Children()) n += c->CountOperators(prefix);
  return n;
}

int PlanNode::CountJoins() const {
  return CountOperators("HashJoin") + CountOperators("NestedLoopJoin") +
         CountOperators("IndexNestedLoopJoin");
}

int PlanNode::CountTableAccesses() const {
  return CountOperators("SeqScan") + CountOperators("ParallelSeqScan") +
         CountOperators("IndexScan") + CountOperators("IndexNestedLoopJoin");
}

Result<std::vector<Row>> ExecutePlan(PlanNode* plan) {
  RETURN_IF_ERROR(plan->Open());
  std::vector<Row> out;
  if (DefaultExecMode() == ExecMode::kBatch) {
    Batch batch;
    while (true) {
      auto more = plan->NextBatch(&batch);
      if (!more.ok()) {
        plan->Close();
        return more.status();
      }
      if (!more.value()) break;
      batch.AppendTo(&out);
    }
  } else {
    Row row;
    while (true) {
      auto more = plan->Next(&row);
      if (!more.ok()) {
        plan->Close();
        return more.status();
      }
      if (!more.value()) break;
      out.push_back(row);
    }
  }
  plan->Close();
  return out;
}

void FlushPlanMetrics(const PlanNode& plan) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (!reg.enabled()) return;
  std::string op = plan.OperatorName();
  const OperatorStats& s = plan.stats();
  reg.Add("op." + op + ".rows", s.rows);
  reg.Add("op." + op + ".next_calls", s.next_calls);
  if (s.batches > 0) {
    reg.Add("op." + op + ".batches", s.batches);
    reg.Add("exec.batches", s.batches);
  }
  if (plan.analyze_enabled()) {
    reg.Add("op." + op + ".time_ns", s.open_ns + s.next_ns);
    reg.RecordLatency("op." + op + ".time_us", (s.open_ns + s.next_ns) / 1000);
  }
  if (s.rows_scanned > 0) reg.Add("exec.rows_scanned", s.rows_scanned);
  if (s.index_probes > 0) reg.Add("exec.index_probes", s.index_probes);
  for (const PlanNode* c : plan.Children()) FlushPlanMetrics(*c);
}

// ---- SeqScan ----

SeqScanNode::SeqScanNode(const Table* table, std::string alias)
    : table_(table), alias_(std::move(alias)) {
  schema_ = table_->schema().WithQualifier(
      alias_.empty() ? table_->name() : alias_);
}

Status SeqScanNode::OpenImpl() {
  MetricsRegistry::Global().Add("table." + table_->name() + ".scans", 1);
  next_ = 0;
  view_ = EffectiveReadView();
  return Status::OK();
}

Result<bool> SeqScanNode::NextImpl(Row* out) {
  while (next_ < table_->num_slots()) {
    RowId rid = next_++;
    if (const Row* r = table_->VisibleRow(rid, view_)) {
      ++mutable_stats().rows_scanned;
      *out = *r;
      return true;
    }
  }
  return false;
}

Result<bool> SeqScanNode::NextBatchImpl(Batch* out) {
  const size_t ncols = schema_.size();
  out->Reset(ncols);
  const size_t target = static_cast<size_t>(DefaultBatchSize());
  const size_t slots = table_->num_slots();
  size_t produced = 0;
  while (next_ < slots && produced < target) {
    RowId rid = next_++;
    const Row* r = table_->VisibleRow(rid, view_);
    if (r == nullptr) continue;
    for (size_t c = 0; c < ncols; ++c) out->column(c).push_back((*r)[c]);
    ++produced;
  }
  mutable_stats().rows_scanned += static_cast<int64_t>(produced);
  out->SetNumRows(produced);
  return produced > 0;
}

std::string SeqScanNode::Describe() const {
  return "SeqScan(" + table_->name() +
         (alias_.empty() || alias_ == table_->name() ? "" : " AS " + alias_) + ")";
}

// ---- ParallelSeqScan ----

ParallelSeqScanNode::ParallelSeqScanNode(const Table* table, std::string alias,
                                         ExprPtr predicate, int max_workers,
                                         ThreadPool* pool)
    : table_(table), alias_(std::move(alias)), predicate_(std::move(predicate)),
      max_workers_(max_workers), pool_(pool) {
  schema_ = table_->schema().WithQualifier(
      alias_.empty() ? table_->name() : alias_);
}

Status ParallelSeqScanNode::OpenImpl() {
  MetricsRegistry::Global().Add("table." + table_->name() + ".scans", 1);
  rows_.clear();
  pos_ = 0;
  // Pool workers carry no thread-local read view, so capture the statement's
  // view here and read through the copy inside the morsel lambda.
  view_ = EffectiveReadView();
  size_t slots = table_->num_slots();
  if (slots == 0) return Status::OK();
  // More morsels than workers so an unlucky partition (all tombstones vs all
  // predicate matches) cannot serialize the scan behind one thread.
  size_t num_morsels =
      std::min(slots, static_cast<size_t>(std::max(max_workers_, 1)) * 4);
  size_t per = (slots + num_morsels - 1) / num_morsels;
  std::vector<std::vector<Row>> buffers(num_morsels);
  std::vector<int64_t> visible(num_morsels, 0);
  std::vector<Status> statuses(num_morsels, Status::OK());
  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::Shared();
  pool.ParallelFor(num_morsels, [&](size_t m) {
    // Nests under the statement span via the pool's context propagation.
    ScopedSpan morsel_span("scan.morsel", "exec");
    size_t begin = m * per;
    size_t end = std::min(slots, begin + per);
    ExprPtr pred;
    if (predicate_ != nullptr) {
      pred = predicate_->Clone();
      Status st = pred->Bind(schema_);
      if (!st.ok()) {
        statuses[m] = st;
        return;
      }
    }
    std::vector<Row>& out = buffers[m];
    for (RowId rid = begin; rid < end; ++rid) {
      const Row* vr = table_->VisibleRow(rid, view_);
      if (vr == nullptr) continue;
      ++visible[m];
      const Row& r = *vr;
      if (pred != nullptr) {
        Result<bool> pass = pred->EvalBool(r);
        if (!pass.ok()) {
          statuses[m] = pass.status();
          return;
        }
        if (!pass.value()) continue;
      }
      out.push_back(r);
    }
  });
  for (const Status& st : statuses) RETURN_IF_ERROR(st);
  for (int64_t v : visible) mutable_stats().rows_scanned += v;
  size_t total = 0;
  for (const auto& b : buffers) total += b.size();
  rows_.reserve(total);
  for (auto& b : buffers) {
    for (auto& r : b) rows_.push_back(std::move(r));
  }
  return Status::OK();
}

Result<bool> ParallelSeqScanNode::NextImpl(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  return true;
}

Result<bool> ParallelSeqScanNode::NextBatchImpl(Batch* out) {
  const size_t ncols = schema_.size();
  out->Reset(ncols);
  const size_t target = static_cast<size_t>(DefaultBatchSize());
  size_t produced = 0;
  while (pos_ < rows_.size() && produced < target) {
    Row& r = rows_[pos_++];
    for (size_t c = 0; c < ncols; ++c) {
      out->column(c).push_back(std::move(r[c]));
    }
    ++produced;
  }
  out->SetNumRows(produced);
  return produced > 0;
}

void ParallelSeqScanNode::CloseImpl() {
  rows_.clear();
  pos_ = 0;
}

std::string ParallelSeqScanNode::AnalyzeDetail() const {
  return " scanned=" + std::to_string(stats().rows_scanned);
}

std::string ParallelSeqScanNode::Describe() const {
  std::string out = "ParallelSeqScan(" + table_->name();
  if (!alias_.empty() && alias_ != table_->name()) out += " AS " + alias_;
  out += ", workers=" + std::to_string(max_workers_);
  if (predicate_ != nullptr) out += ", filter=" + predicate_->ToString();
  return out + ")";
}

// ---- IndexScan ----

IndexScanNode::IndexScanNode(const Table* table, const Index* index,
                             std::string alias, Row lower, bool lower_inclusive,
                             Row upper, bool upper_inclusive)
    : table_(table), index_(index), alias_(std::move(alias)),
      lower_(std::move(lower)), upper_(std::move(upper)),
      lower_inclusive_(lower_inclusive), upper_inclusive_(upper_inclusive) {
  schema_ = table_->schema().WithQualifier(
      alias_.empty() ? table_->name() : alias_);
}

IndexScanNode::IndexScanNode(const Table* table, const Index* index,
                             std::string alias, std::vector<ExprPtr> lower,
                             bool lower_inclusive, std::vector<ExprPtr> upper,
                             bool upper_inclusive)
    : table_(table), index_(index), alias_(std::move(alias)),
      lower_exprs_(std::move(lower)), upper_exprs_(std::move(upper)),
      lower_inclusive_(lower_inclusive), upper_inclusive_(upper_inclusive) {
  schema_ = table_->schema().WithQualifier(
      alias_.empty() ? table_->name() : alias_);
}

namespace {

/// True when `v` can serve as an index bound for a key column of type `ct`:
/// same type, or numeric-vs-numeric (Value::Compare orders those by value).
/// Anything else (NULL, string-vs-int, ...) would compare by type id, which
/// does not match predicate semantics — the caller truncates the bound.
bool UsableBound(const Value& v, DataType ct) {
  if (v.is_null()) return false;
  auto numeric = [](DataType t) {
    return t == DataType::kInt || t == DataType::kDouble;
  };
  if (numeric(ct) && numeric(v.type())) return true;
  return v.type() == ct;
}

/// Resolves an index entry (key columns + rid) to the row version visible to
/// `view`, or nullptr when the entry is invisible to this read. The visible
/// version's key columns must equal the entry key — that rejects entries
/// from other versions of the row and dedups rows reachable through both an
/// old and a new key (each row is emitted only for its visible key). Under a
/// read-latest view (direct executor use, private tables) this is exactly the
/// "entry is current" rule of Index::LookupRange plus Table::IsLive.
const Row* VisibleEntryRow(const Table& table, const Index& index,
                           const MvccReadView& view, const Row& entry) {
  const RowId rid = static_cast<RowId>(entry.back().AsInt());
  const Row* r = table.VisibleRow(rid, view);
  if (r == nullptr) return nullptr;
  const auto& keys = index.key_columns();
  for (size_t i = 0; i < keys.size(); ++i) {
    if ((*r)[keys[i]].Compare(entry[i]) != 0) return nullptr;
  }
  return r;
}

}  // namespace

Status IndexScanNode::OpenImpl() {
  MetricsRegistry::Global().Add("table." + table_->name() + ".scans", 1);
  if (!lower_exprs_.empty() || !upper_exprs_.empty()) {
    // Parameterized bounds: resolve per execution, truncating the prefix at
    // the first value the key column cannot be range-compared against.
    static const Row kEmpty;
    lower_.clear();
    upper_.clear();
    const auto& keys = index_->key_columns();
    for (size_t i = 0; i < lower_exprs_.size() && i < keys.size(); ++i) {
      ASSIGN_OR_RETURN(Value v, lower_exprs_[i]->Eval(kEmpty));
      if (!UsableBound(v, table_->schema().column(keys[i]).type)) break;
      lower_.push_back(std::move(v));
    }
    for (size_t i = 0; i < upper_exprs_.size() && i < keys.size(); ++i) {
      ASSIGN_OR_RETURN(Value v, upper_exprs_[i]->Eval(kEmpty));
      if (!UsableBound(v, table_->schema().column(keys[i]).type)) break;
      upper_.push_back(std::move(v));
    }
  }
  view_ = EffectiveReadView();
  snapshot_scan_ = !view_.read_latest && table_->mvcc_enabled();
  if (snapshot_scan_) {
    // Raw entries, re-verified per row in Next: indexes are maintained
    // lazily under MVCC, so an entry may point at a row whose visible
    // version no longer (or does not yet) carry the entry's key.
    entries_ = table_->IndexEntriesInRange(index_, lower_, lower_inclusive_,
                                           upper_, upper_inclusive_);
  } else {
    rids_ =
        index_->LookupRange(lower_, lower_inclusive_, upper_, upper_inclusive_);
  }
  pos_ = 0;
  return Status::OK();
}


Result<bool> IndexScanNode::NextImpl(Row* out) {
  if (snapshot_scan_) {
    while (pos_ < entries_.size()) {
      const Row* r = VisibleEntryRow(*table_, *index_, view_, entries_[pos_++]);
      if (r != nullptr) {
        ++mutable_stats().rows_scanned;
        *out = *r;
        return true;
      }
    }
    return false;
  }
  while (pos_ < rids_.size()) {
    RowId rid = rids_[pos_++];
    if (table_->IsLive(rid)) {
      ++mutable_stats().rows_scanned;
      *out = table_->row(rid);
      return true;
    }
  }
  return false;
}

Result<bool> IndexScanNode::NextBatchImpl(Batch* out) {
  const size_t ncols = schema_.size();
  out->Reset(ncols);
  const size_t target = static_cast<size_t>(DefaultBatchSize());
  size_t produced = 0;
  if (snapshot_scan_) {
    while (pos_ < entries_.size() && produced < target) {
      const Row* r = VisibleEntryRow(*table_, *index_, view_, entries_[pos_++]);
      if (r == nullptr) continue;
      for (size_t c = 0; c < ncols; ++c) out->column(c).push_back((*r)[c]);
      ++produced;
    }
    mutable_stats().rows_scanned += static_cast<int64_t>(produced);
    out->SetNumRows(produced);
    return produced > 0;
  }
  while (pos_ < rids_.size() && produced < target) {
    RowId rid = rids_[pos_++];
    if (!table_->IsLive(rid)) continue;
    const Row& r = table_->row(rid);
    for (size_t c = 0; c < ncols; ++c) out->column(c).push_back(r[c]);
    ++produced;
  }
  mutable_stats().rows_scanned += static_cast<int64_t>(produced);
  out->SetNumRows(produced);
  return produced > 0;
}

void IndexScanNode::CloseImpl() {
  rids_.clear();
  entries_.clear();
}

std::string IndexScanNode::Describe() const {
  std::string out = "IndexScan(" + table_->name() + "." + index_->name();
  auto exprs_to_string = [](const std::vector<ExprPtr>& exprs) {
    std::string s = "[";
    for (size_t i = 0; i < exprs.size(); ++i) {
      if (i > 0) s += ", ";
      s += exprs[i]->ToString();
    }
    return s + "]";
  };
  if (!lower_exprs_.empty() || !upper_exprs_.empty()) {
    if (!lower_exprs_.empty()) {
      out += lower_inclusive_ ? " >= " : " > ";
      out += exprs_to_string(lower_exprs_);
    }
    if (!upper_exprs_.empty()) {
      out += upper_inclusive_ ? " <= " : " < ";
      out += exprs_to_string(upper_exprs_);
    }
    return out + ")";
  }
  if (!lower_.empty()) {
    out += lower_inclusive_ ? " >= " : " > ";
    out += RowToString(lower_);
  }
  if (!upper_.empty()) {
    out += upper_inclusive_ ? " <= " : " < ";
    out += RowToString(upper_);
  }
  return out + ")";
}

// ---- Filter ----

FilterNode::FilterNode(PlanPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterNode::OpenImpl() {
  RETURN_IF_ERROR(predicate_->Bind(child_->output_schema()));
  return child_->Open();
}

Result<bool> FilterNode::NextImpl(Row* out) {
  while (true) {
    ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    ASSIGN_OR_RETURN(bool pass, predicate_->EvalBool(*out));
    if (pass) return true;
  }
}

Result<bool> FilterNode::NextBatchImpl(Batch* out) {
  while (true) {
    ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    std::vector<uint32_t> sel;
    RETURN_IF_ERROR(predicate_->FilterBatch(*out, out->ActiveRids(), &sel));
    if (sel.empty()) continue;  // fully filtered; pull the next batch
    out->SetSelection(std::move(sel));
    return true;
  }
}

std::string FilterNode::Describe() const {
  return "Filter(" + predicate_->ToString() + ")";
}

// ---- Project ----

ProjectNode::ProjectNode(PlanPtr child, std::vector<ExprPtr> exprs,
                         std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  const Schema& in = child_->output_schema();
  for (size_t i = 0; i < exprs_.size(); ++i) {
    Column c;
    c.name = i < names.size() && !names[i].empty() ? names[i]
                                                   : exprs_[i]->ToString();
    // Plain column projections keep their qualifier (split back into the
    // schema's qualifier/name fields) so "alias.col" still binds downstream.
    if (exprs_[i]->kind() == Expr::Kind::kColumn &&
        (i >= names.size() || names[i].empty())) {
      const auto& col = static_cast<const ColumnExpr&>(*exprs_[i]);
      size_t dot = col.name().find('.');
      if (dot != std::string::npos) {
        c.qualifier = col.name().substr(0, dot);
        c.name = col.name().substr(dot + 1);
      } else {
        c.name = col.name();
      }
    }
    c.type = InferType(*exprs_[i], in);
    schema_.AddColumn(std::move(c));
  }
}

Status ProjectNode::OpenImpl() {
  for (auto& e : exprs_) RETURN_IF_ERROR(e->Bind(child_->output_schema()));
  return child_->Open();
}

Result<bool> ProjectNode::NextImpl(Row* out) {
  Row in;
  ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (auto& e : exprs_) {
    ASSIGN_OR_RETURN(Value v, e->Eval(in));
    out->push_back(std::move(v));
  }
  return true;
}

Result<bool> ProjectNode::NextBatchImpl(Batch* out) {
  ASSIGN_OR_RETURN(bool more, child_->NextBatch(&input_));
  if (!more) return false;
  const std::vector<uint32_t>& rids = input_.ActiveRids();
  out->Reset(exprs_.size());
  for (size_t c = 0; c < exprs_.size(); ++c) {
    RETURN_IF_ERROR(exprs_[c]->EvalBatch(input_, rids, &out->column(c)));
  }
  out->SetNumRows(rids.size());
  return true;
}

std::string ProjectNode::Describe() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  return out + ")";
}

// ---- NestedLoopJoin ----

NestedLoopJoinNode::NestedLoopJoinNode(PlanPtr left, PlanPtr right,
                                       ExprPtr predicate)
    : left_(std::move(left)), right_(std::move(right)),
      predicate_(std::move(predicate)) {
  schema_ = Schema::Concat(left_->output_schema(), right_->output_schema());
}

Status NestedLoopJoinNode::OpenImpl() {
  if (predicate_ != nullptr) RETURN_IF_ERROR(predicate_->Bind(schema_));
  RETURN_IF_ERROR(left_->Open());
  RETURN_IF_ERROR(right_->Open());
  right_rows_.clear();
  Row r;
  while (true) {
    ASSIGN_OR_RETURN(bool more, right_->Next(&r));
    if (!more) break;
    right_rows_.push_back(r);
  }
  right_->Close();
  left_valid_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinNode::NextImpl(Row* out) {
  while (true) {
    if (!left_valid_) {
      ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_));
      if (!more) return false;
      left_valid_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      const Row& r = right_rows_[right_pos_++];
      out->clear();
      out->reserve(left_row_.size() + r.size());
      out->insert(out->end(), left_row_.begin(), left_row_.end());
      out->insert(out->end(), r.begin(), r.end());
      if (predicate_ == nullptr) return true;
      ASSIGN_OR_RETURN(bool pass, predicate_->EvalBool(*out));
      if (pass) return true;
    }
    left_valid_ = false;
  }
}

void NestedLoopJoinNode::CloseImpl() {
  left_->Close();
  right_rows_.clear();
}

std::string NestedLoopJoinNode::Describe() const {
  return "NestedLoopJoin(" +
         (predicate_ ? predicate_->ToString() : std::string("true")) + ")";
}

// ---- HashJoin ----

HashJoinNode::HashJoinNode(PlanPtr left, PlanPtr right,
                           std::vector<ExprPtr> left_keys,
                           std::vector<ExprPtr> right_keys, ExprPtr residual)
    : left_(std::move(left)), right_(std::move(right)),
      left_keys_(std::move(left_keys)), right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(left_->output_schema(), right_->output_schema());
}

Status HashJoinNode::OpenImpl() {
  for (auto& k : left_keys_) RETURN_IF_ERROR(k->Bind(left_->output_schema()));
  for (auto& k : right_keys_) RETURN_IF_ERROR(k->Bind(right_->output_schema()));
  if (residual_ != nullptr) RETURN_IF_ERROR(residual_->Bind(schema_));
  RETURN_IF_ERROR(right_->Open());
  build_.clear();
  // SQL equality never matches NULL, so NULL-keyed rows can never join:
  // keep them out of the build table entirely.
  if (DefaultExecMode() == ExecMode::kBatch) {
    Batch b;
    std::vector<std::vector<Value>> keycols(right_keys_.size());
    while (true) {
      ASSIGN_OR_RETURN(bool more, right_->NextBatch(&b));
      if (!more) break;
      const std::vector<uint32_t>& rids = b.ActiveRids();
      for (size_t k = 0; k < right_keys_.size(); ++k) {
        RETURN_IF_ERROR(right_keys_[k]->EvalBatch(b, rids, &keycols[k]));
      }
      for (size_t i = 0; i < rids.size(); ++i) {
        Row key;
        key.reserve(right_keys_.size());
        bool has_null = false;
        for (size_t k = 0; k < right_keys_.size(); ++k) {
          has_null = has_null || keycols[k][i].is_null();
          key.push_back(std::move(keycols[k][i]));
        }
        if (has_null) continue;
        size_t h = HashRow(key);
        build_.emplace(h, BuildEntry{std::move(key), b.MaterializeRow(rids[i])});
      }
    }
  } else {
    Row r;
    while (true) {
      ASSIGN_OR_RETURN(bool more, right_->Next(&r));
      if (!more) break;
      Row key;
      key.reserve(right_keys_.size());
      bool has_null = false;
      for (auto& k : right_keys_) {
        ASSIGN_OR_RETURN(Value v, k->Eval(r));
        has_null = has_null || v.is_null();
        key.push_back(std::move(v));
      }
      if (has_null) continue;
      size_t h = HashRow(key);
      build_.emplace(h, BuildEntry{std::move(key), r});
    }
  }
  right_->Close();
  RETURN_IF_ERROR(left_->Open());
  matches_.clear();
  match_pos_ = 0;
  return Status::OK();
}

Result<bool> HashJoinNode::NextImpl(Row* out) {
  while (true) {
    while (match_pos_ < matches_.size()) {
      const Row& r = *matches_[match_pos_++];
      out->clear();
      out->reserve(probe_row_.size() + r.size());
      out->insert(out->end(), probe_row_.begin(), probe_row_.end());
      out->insert(out->end(), r.begin(), r.end());
      if (residual_ == nullptr) return true;
      ASSIGN_OR_RETURN(bool pass, residual_->EvalBool(*out));
      if (pass) return true;
    }
    ASSIGN_OR_RETURN(bool more, left_->Next(&probe_row_));
    if (!more) return false;
    Row key;
    key.reserve(left_keys_.size());
    bool has_null = false;
    for (auto& k : left_keys_) {
      ASSIGN_OR_RETURN(Value v, k->Eval(probe_row_));
      has_null = has_null || v.is_null();
      key.push_back(std::move(v));
    }
    matches_.clear();
    match_pos_ = 0;
    if (has_null) continue;  // NULL keys never join
    auto [lo, hi] = build_.equal_range(HashRow(key));
    for (auto it = lo; it != hi; ++it) {
      // Verify actual key equality (hash collisions). Build keys are
      // NULL-free, so CompareRows == 0 means true SQL equality.
      if (CompareRows(it->second.key, key) == 0) {
        matches_.push_back(&it->second.row);
      }
    }
  }
}

Result<bool> HashJoinNode::NextBatchImpl(Batch* out) {
  const size_t lcols = left_->output_schema().size();
  while (true) {
    ASSIGN_OR_RETURN(bool more, left_->NextBatch(&probe_batch_));
    if (!more) return false;
    const std::vector<uint32_t>& rids = probe_batch_.ActiveRids();
    // Batched hash-key computation over the whole probe input, then a tight
    // per-row probe loop emitting concatenated rows column-wise.
    std::vector<std::vector<Value>> keycols(left_keys_.size());
    for (size_t k = 0; k < left_keys_.size(); ++k) {
      RETURN_IF_ERROR(left_keys_[k]->EvalBatch(probe_batch_, rids, &keycols[k]));
    }
    out->Reset(schema_.size());
    size_t produced = 0;
    Row key;
    for (size_t i = 0; i < rids.size(); ++i) {
      key.clear();
      bool has_null = false;
      for (size_t k = 0; k < left_keys_.size(); ++k) {
        has_null = has_null || keycols[k][i].is_null();
        key.push_back(std::move(keycols[k][i]));
      }
      if (has_null) continue;  // NULL keys never join
      auto [lo, hi] = build_.equal_range(HashRow(key));
      for (auto it = lo; it != hi; ++it) {
        if (CompareRows(it->second.key, key) != 0) continue;
        for (size_t c = 0; c < lcols; ++c) {
          out->column(c).push_back(probe_batch_.At(c, rids[i]));
        }
        const Row& r = it->second.row;
        for (size_t c = 0; c < r.size(); ++c) {
          out->column(lcols + c).push_back(r[c]);
        }
        ++produced;
      }
    }
    out->SetNumRows(produced);
    if (produced == 0) continue;
    if (residual_ != nullptr) {
      std::vector<uint32_t> sel;
      RETURN_IF_ERROR(residual_->FilterBatch(*out, out->ActiveRids(), &sel));
      if (sel.empty()) continue;
      out->SetSelection(std::move(sel));
    }
    return true;
  }
}

void HashJoinNode::CloseImpl() {
  left_->Close();
  build_.clear();
  matches_.clear();
}

std::string HashJoinNode::Describe() const {
  std::string out = "HashJoin(";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
  }
  if (residual_ != nullptr) out += " AND " + residual_->ToString();
  return out + ")";
}

// ---- IndexNestedLoopJoin ----

IndexNestedLoopJoinNode::IndexNestedLoopJoinNode(
    PlanPtr outer, const Table* table, const Index* index, std::string alias,
    std::vector<ExprPtr> prefix, std::vector<ExprPtr> outer_keys,
    std::vector<size_t> inner_cols, size_t seek_keys, ExprPtr inner_filter,
    ExprPtr prefix_checks)
    : outer_(std::move(outer)), table_(table), index_(index),
      alias_(std::move(alias)), prefix_(std::move(prefix)),
      outer_keys_(std::move(outer_keys)), inner_cols_(std::move(inner_cols)),
      seek_keys_(seek_keys), inner_filter_(std::move(inner_filter)),
      prefix_checks_(std::move(prefix_checks)) {
  inner_schema_ = table_->schema().WithQualifier(
      alias_.empty() ? table_->name() : alias_);
  schema_ = Schema::Concat(outer_->output_schema(), inner_schema_);
}

Status IndexNestedLoopJoinNode::OpenImpl() {
  for (auto& k : outer_keys_) RETURN_IF_ERROR(k->Bind(outer_->output_schema()));
  if (inner_filter_ != nullptr) RETURN_IF_ERROR(inner_filter_->Bind(inner_schema_));
  if (prefix_checks_ != nullptr) {
    RETURN_IF_ERROR(prefix_checks_->Bind(inner_schema_));
  }
  MetricsRegistry::Global().Add("table." + table_->name() + ".scans", 1);
  view_ = EffectiveReadView();
  // Prefix values are resolved per execution (`?` parameters). The seek
  // needs every one of them usable; otherwise fall back to matching against
  // the inner rows of the usable part of the prefix.
  static const Row kEmpty;
  const auto& keys = index_->key_columns();
  seek_.clear();
  fallback_ = false;
  for (size_t i = 0; i < prefix_.size(); ++i) {
    ASSIGN_OR_RETURN(Value v, prefix_[i]->Eval(kEmpty));
    if (!UsableBound(v, table_->schema().column(keys[i]).type)) {
      fallback_ = true;
      break;
    }
    seek_.push_back(std::move(v));
  }
  prefix_len_ = seek_.size();
  fallback_rows_.clear();
  if (fallback_) {
    std::vector<const Row*> rows;
    table_->ForEachIndexEntry(index_, seek_, [&](const Row& entry) {
      if (const Row* r = VisibleEntryRow(*table_, *index_, view_, entry)) {
        rows.push_back(r);
      }
    });
    mutable_stats().rows_scanned += static_cast<int64_t>(rows.size());
    for (const Row* r : rows) {
      if (prefix_checks_ != nullptr) {
        ASSIGN_OR_RETURN(bool pass, prefix_checks_->EvalBool(*r));
        if (!pass) continue;
      }
      if (inner_filter_ != nullptr) {
        ASSIGN_OR_RETURN(bool pass, inner_filter_->EvalBool(*r));
        if (!pass) continue;
      }
      fallback_rows_.push_back(r);
    }
  }
  matches_.clear();
  match_pos_ = 0;
  return outer_->Open();
}

bool IndexNestedLoopJoinNode::KeysMatch(const Row& inner, const Row& key) const {
  // HashJoinNode's equality: equal under Compare (never for a NULL, as `key`
  // holds none) and equal hashes — which differ only for int/double pairs
  // outside the exactly hashed range.
  for (size_t i = 0; i < key.size(); ++i) {
    const Value& v = inner[inner_cols_[i]];
    if (v.Compare(key[i]) != 0) return false;
    if (v.type() != key[i].type() && v.Hash() != key[i].Hash()) return false;
  }
  return true;
}

Status IndexNestedLoopJoinNode::Probe(const Row& key) {
  matches_.clear();
  match_pos_ = 0;
  if (fallback_) {
    for (const Row* r : fallback_rows_) {
      if (KeysMatch(*r, key)) matches_.push_back(r);
    }
    return Status::OK();
  }
  seek_.resize(prefix_len_);
  seek_.insert(seek_.end(), key.begin(), key.begin() + seek_keys_);
  candidates_.clear();
  table_->ForEachIndexEntry(index_, seek_, [&](const Row& entry) {
    if (const Row* r = VisibleEntryRow(*table_, *index_, view_, entry)) {
      candidates_.push_back(r);
    }
  });
  OperatorStats& st = mutable_stats();
  ++st.index_probes;
  st.rows_scanned += static_cast<int64_t>(candidates_.size());
  for (const Row* r : candidates_) {
    if (!KeysMatch(*r, key)) continue;
    if (inner_filter_ != nullptr) {
      ASSIGN_OR_RETURN(bool pass, inner_filter_->EvalBool(*r));
      if (!pass) continue;
    }
    matches_.push_back(r);
  }
  return Status::OK();
}

Result<bool> IndexNestedLoopJoinNode::NextImpl(Row* out) {
  while (true) {
    if (match_pos_ < matches_.size()) {
      const Row& r = *matches_[match_pos_++];
      out->clear();
      out->reserve(outer_row_.size() + r.size());
      out->insert(out->end(), outer_row_.begin(), outer_row_.end());
      out->insert(out->end(), r.begin(), r.end());
      return true;
    }
    ASSIGN_OR_RETURN(bool more, outer_->Next(&outer_row_));
    if (!more) return false;
    Row key;
    key.reserve(outer_keys_.size());
    bool has_null = false;
    for (auto& k : outer_keys_) {
      ASSIGN_OR_RETURN(Value v, k->Eval(outer_row_));
      has_null = has_null || v.is_null();
      key.push_back(std::move(v));
    }
    matches_.clear();
    match_pos_ = 0;
    if (has_null) continue;  // NULL keys never join
    RETURN_IF_ERROR(Probe(key));
  }
}

Result<bool> IndexNestedLoopJoinNode::NextBatchImpl(Batch* out) {
  const size_t ocols = outer_->output_schema().size();
  while (true) {
    ASSIGN_OR_RETURN(bool more, outer_->NextBatch(&outer_batch_));
    if (!more) return false;
    const std::vector<uint32_t>& rids = outer_batch_.ActiveRids();
    std::vector<std::vector<Value>> keycols(outer_keys_.size());
    for (size_t k = 0; k < outer_keys_.size(); ++k) {
      RETURN_IF_ERROR(outer_keys_[k]->EvalBatch(outer_batch_, rids, &keycols[k]));
    }
    out->Reset(schema_.size());
    size_t produced = 0;
    Row key;
    for (size_t i = 0; i < rids.size(); ++i) {
      key.clear();
      bool has_null = false;
      for (size_t k = 0; k < outer_keys_.size(); ++k) {
        has_null = has_null || keycols[k][i].is_null();
        key.push_back(std::move(keycols[k][i]));
      }
      if (has_null) continue;  // NULL keys never join
      RETURN_IF_ERROR(Probe(key));
      for (const Row* r : matches_) {
        for (size_t c = 0; c < ocols; ++c) {
          out->column(c).push_back(outer_batch_.At(c, rids[i]));
        }
        for (size_t c = 0; c < r->size(); ++c) {
          out->column(ocols + c).push_back((*r)[c]);
        }
        ++produced;
      }
    }
    matches_.clear();
    out->SetNumRows(produced);
    if (produced > 0) return true;
  }
}

void IndexNestedLoopJoinNode::CloseImpl() {
  outer_->Close();
  fallback_rows_.clear();
  candidates_.clear();
  matches_.clear();
}

std::string IndexNestedLoopJoinNode::Describe() const {
  const std::string q = alias_.empty() ? table_->name() : alias_;
  auto eq = [&](size_t col, const ExprPtr& value) {
    return q + "." + table_->schema().column(col).name + " = " +
           value->ToString();
  };
  std::string out =
      "IndexNestedLoopJoin(" + table_->name() + "." + index_->name() + " [";
  for (size_t i = 0; i < prefix_.size(); ++i) {
    out += eq(index_->key_columns()[i], prefix_[i]) + ", ";
  }
  for (size_t i = 0; i < seek_keys_; ++i) {
    out += eq(inner_cols_[i], outer_keys_[i]) + (i + 1 < seek_keys_ ? ", " : "]");
  }
  for (size_t i = seek_keys_; i < outer_keys_.size(); ++i) {
    out += " AND " + eq(inner_cols_[i], outer_keys_[i]);
  }
  if (inner_filter_ != nullptr) out += ", filter=" + inner_filter_->ToString();
  return out + ")";
}

std::string IndexNestedLoopJoinNode::AnalyzeDetail() const {
  return " probes=" + std::to_string(stats().index_probes) +
         " scanned=" + std::to_string(stats().rows_scanned);
}

// ---- Sort ----

SortNode::SortNode(PlanPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

Status SortNode::OpenImpl() {
  for (auto& k : keys_) RETURN_IF_ERROR(k.expr->Bind(child_->output_schema()));
  RETURN_IF_ERROR(child_->Open());
  rows_.clear();
  if (DefaultExecMode() == ExecMode::kBatch) {
    Batch b;
    while (true) {
      ASSIGN_OR_RETURN(bool more, child_->NextBatch(&b));
      if (!more) break;
      b.AppendTo(&rows_);
    }
  } else {
    Row r;
    while (true) {
      ASSIGN_OR_RETURN(bool more, child_->Next(&r));
      if (!more) break;
      rows_.push_back(r);
    }
  }
  child_->Close();
  // Precompute sort keys per row to avoid re-evaluating in the comparator
  // (and to keep the comparator exception/Status free).
  std::vector<std::pair<Row, size_t>> keyed;
  keyed.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    Row key;
    key.reserve(keys_.size());
    for (auto& k : keys_) {
      ASSIGN_OR_RETURN(Value v, k.expr->Eval(rows_[i]));
      key.push_back(std::move(v));
    }
    keyed.emplace_back(std::move(key), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [this](const auto& a, const auto& b) {
                     for (size_t i = 0; i < keys_.size(); ++i) {
                       int c = a.first[i].Compare(b.first[i]);
                       if (c != 0) return keys_[i].ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (const auto& [key, idx] : keyed) sorted.push_back(std::move(rows_[idx]));
  rows_ = std::move(sorted);
  pos_ = 0;
  return Status::OK();
}

Result<bool> SortNode::NextImpl(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

void SortNode::CloseImpl() { rows_.clear(); }

std::string SortNode::Describe() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    out += keys_[i].ascending ? " ASC" : " DESC";
  }
  return out + ")";
}

// ---- Aggregate ----

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kCountStar: return "COUNT(*)";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "?";
}

AggregateNode::AggregateNode(PlanPtr child, std::vector<ExprPtr> group_by,
                             std::vector<std::string> group_names,
                             std::vector<AggSpec> aggs)
    : child_(std::move(child)), group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  const Schema& in = child_->output_schema();
  for (size_t i = 0; i < group_by_.size(); ++i) {
    Column c;
    c.name = i < group_names.size() && !group_names[i].empty()
                 ? group_names[i]
                 : group_by_[i]->ToString();
    c.type = InferType(*group_by_[i], in);
    schema_.AddColumn(std::move(c));
  }
  for (const auto& a : aggs_) {
    Column c;
    c.name = !a.output_name.empty()
                 ? a.output_name
                 : std::string(AggFuncName(a.func)) +
                       (a.arg ? "(" + a.arg->ToString() + ")" : "");
    switch (a.func) {
      case AggFunc::kCount:
      case AggFunc::kCountStar:
        c.type = DataType::kInt;
        break;
      case AggFunc::kAvg:
        c.type = DataType::kDouble;
        break;
      default:
        c.type = a.arg ? InferType(*a.arg, in) : DataType::kDouble;
    }
    schema_.AddColumn(std::move(c));
  }
}

namespace {
struct AggState {
  Row group;
  std::vector<int64_t> counts;
  // SUM/AVG accumulate exactly in int64 while every input is an int64 and
  // the running sum fits; `all_int` flips false (demoting isums into sums)
  // on the first non-integer input or on int64 overflow.
  std::vector<int64_t> isums;
  std::vector<double> sums;
  std::vector<Value> mins;
  std::vector<Value> maxs;
  std::vector<bool> all_int;

  explicit AggState(size_t n) {
    counts.assign(n, 0);
    isums.assign(n, 0);
    sums.assign(n, 0.0);
    mins.assign(n, Value::Null());
    maxs.assign(n, Value::Null());
    all_int.assign(n, true);
  }
};
}  // namespace

Status AggregateNode::OpenImpl() {
  for (auto& g : group_by_) RETURN_IF_ERROR(g->Bind(child_->output_schema()));
  for (auto& a : aggs_) {
    if (a.arg) RETURN_IF_ERROR(a.arg->Bind(child_->output_schema()));
  }
  RETURN_IF_ERROR(child_->Open());

  std::unordered_map<size_t, std::vector<AggState>> groups;
  bool any_input = false;

  auto find_state = [&](Row gkey) -> AggState* {
    size_t h = HashRow(gkey);
    for (auto& cand : groups[h]) {
      if (CompareRows(cand.group, gkey) == 0) return &cand;
    }
    AggState fresh(aggs_.size());
    fresh.group = std::move(gkey);
    groups[h].push_back(std::move(fresh));
    return &groups[h].back();
  };

  // Folds one input row into `state`; args[i] is aggs_[i]'s evaluated
  // argument (ignored for COUNT(*), consumed by move).
  auto accumulate = [&](AggState* state, std::vector<Value>& args) -> Status {
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggSpec& a = aggs_[i];
      if (a.func == AggFunc::kCountStar) {
        state->counts[i] += 1;
        continue;
      }
      Value& v = args[i];
      if (v.is_null()) continue;
      state->counts[i] += 1;
      switch (a.func) {
        case AggFunc::kSum:
        case AggFunc::kAvg: {
          int64_t next_isum = 0;
          if (state->all_int[i] && v.type() == DataType::kInt &&
              !__builtin_add_overflow(state->isums[i], v.AsInt(), &next_isum)) {
            state->isums[i] = next_isum;
            break;
          }
          if (state->all_int[i]) {
            // Demote the exact integer sum accumulated so far.
            state->all_int[i] = false;
            state->sums[i] = static_cast<double>(state->isums[i]);
          }
          ASSIGN_OR_RETURN(Value num, v.CastTo(DataType::kDouble));
          state->sums[i] += num.AsDouble();
          break;
        }
        case AggFunc::kMin:
          if (state->mins[i].is_null() || v.Compare(state->mins[i]) < 0) {
            state->mins[i] = std::move(v);
          }
          break;
        case AggFunc::kMax:
          if (state->maxs[i].is_null() || v.Compare(state->maxs[i]) > 0) {
            state->maxs[i] = std::move(v);
          }
          break;
        default:
          break;
      }
    }
    return Status::OK();
  };

  if (DefaultExecMode() == ExecMode::kBatch) {
    Batch b;
    std::vector<std::vector<Value>> gcols(group_by_.size());
    std::vector<std::vector<Value>> acols(aggs_.size());
    std::vector<Value> args(aggs_.size());
    while (true) {
      ASSIGN_OR_RETURN(bool more, child_->NextBatch(&b));
      if (!more) break;
      any_input = true;
      const std::vector<uint32_t>& rids = b.ActiveRids();
      for (size_t g = 0; g < group_by_.size(); ++g) {
        RETURN_IF_ERROR(group_by_[g]->EvalBatch(b, rids, &gcols[g]));
      }
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (aggs_[i].arg != nullptr) {
          RETURN_IF_ERROR(aggs_[i].arg->EvalBatch(b, rids, &acols[i]));
        }
      }
      for (size_t row = 0; row < rids.size(); ++row) {
        Row gkey;
        gkey.reserve(group_by_.size());
        for (size_t g = 0; g < group_by_.size(); ++g) {
          gkey.push_back(std::move(gcols[g][row]));
        }
        for (size_t i = 0; i < aggs_.size(); ++i) {
          args[i] = aggs_[i].arg != nullptr ? std::move(acols[i][row])
                                            : Value::Null();
        }
        RETURN_IF_ERROR(accumulate(find_state(std::move(gkey)), args));
      }
    }
  } else {
    Row r;
    std::vector<Value> args(aggs_.size());
    while (true) {
      ASSIGN_OR_RETURN(bool more, child_->Next(&r));
      if (!more) break;
      any_input = true;
      Row gkey;
      gkey.reserve(group_by_.size());
      for (auto& g : group_by_) {
        ASSIGN_OR_RETURN(Value v, g->Eval(r));
        gkey.push_back(std::move(v));
      }
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (aggs_[i].arg != nullptr) {
          ASSIGN_OR_RETURN(args[i], aggs_[i].arg->Eval(r));
        } else {
          args[i] = Value::Null();
        }
      }
      RETURN_IF_ERROR(accumulate(find_state(std::move(gkey)), args));
    }
  }
  child_->Close();

  // Emit groups; to keep deterministic output, order by group key.
  results_.clear();
  std::vector<const AggState*> states;
  for (auto& [h, bucket] : groups) {
    for (auto& s : bucket) states.push_back(&s);
  }
  std::sort(states.begin(), states.end(), [](const AggState* a, const AggState* b) {
    return CompareRows(a->group, b->group) < 0;
  });
  auto emit = [&](const AggState& s) {
    Row out = s.group;
    for (size_t i = 0; i < aggs_.size(); ++i) {
      switch (aggs_[i].func) {
        case AggFunc::kCount:
        case AggFunc::kCountStar:
          out.push_back(Value(s.counts[i]));
          break;
        case AggFunc::kSum:
          if (s.counts[i] == 0) out.push_back(Value::Null());
          else if (s.all_int[i]) out.push_back(Value(s.isums[i]));
          else out.push_back(Value(s.sums[i]));
          break;
        case AggFunc::kAvg:
          if (s.counts[i] == 0) {
            out.push_back(Value::Null());
          } else {
            double total = s.all_int[i] ? static_cast<double>(s.isums[i])
                                        : s.sums[i];
            out.push_back(Value(total / static_cast<double>(s.counts[i])));
          }
          break;
        case AggFunc::kMin:
          out.push_back(s.mins[i]);
          break;
        case AggFunc::kMax:
          out.push_back(s.maxs[i]);
          break;
      }
    }
    results_.push_back(std::move(out));
  };
  for (const AggState* s : states) emit(*s);
  // Global aggregate over empty input still yields one row.
  if (group_by_.empty() && !any_input) {
    emit(AggState(aggs_.size()));
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> AggregateNode::NextImpl(Row* out) {
  if (pos_ >= results_.size()) return false;
  *out = results_[pos_++];
  return true;
}

void AggregateNode::CloseImpl() { results_.clear(); }

std::string AggregateNode::Describe() const {
  std::string out = "Aggregate(";
  for (size_t i = 0; i < group_by_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_by_[i]->ToString();
  }
  if (!group_by_.empty() && !aggs_.empty()) out += "; ";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggFuncName(aggs_[i].func);
    if (aggs_[i].arg) out += "(" + aggs_[i].arg->ToString() + ")";
  }
  return out + ")";
}

// ---- Distinct ----

DistinctNode::DistinctNode(PlanPtr child) : child_(std::move(child)) {}

Status DistinctNode::OpenImpl() {
  seen_rows_.clear();
  return child_->Open();
}

Result<bool> DistinctNode::NextImpl(Row* out) {
  while (true) {
    ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    size_t h = HashRow(*out);
    auto [lo, hi] = seen_rows_.equal_range(h);
    bool dup = false;
    for (auto it = lo; it != hi; ++it) {
      if (CompareRows(it->second, *out) == 0) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      seen_rows_.emplace(h, *out);
      return true;
    }
  }
}

Result<bool> DistinctNode::NextBatchImpl(Batch* out) {
  while (true) {
    ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    std::vector<uint32_t> sel;
    for (uint32_t rid : out->ActiveRids()) {
      Row row = out->MaterializeRow(rid);
      size_t h = HashRow(row);
      auto [lo, hi] = seen_rows_.equal_range(h);
      bool dup = false;
      for (auto it = lo; it != hi; ++it) {
        if (CompareRows(it->second, row) == 0) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        seen_rows_.emplace(h, std::move(row));
        sel.push_back(rid);
      }
    }
    if (sel.empty()) continue;  // all duplicates; pull the next batch
    out->SetSelection(std::move(sel));
    return true;
  }
}

void DistinctNode::CloseImpl() {
  child_->Close();
  seen_rows_.clear();
}

// ---- Limit ----

LimitNode::LimitNode(PlanPtr child, int64_t limit, int64_t offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {}

Status LimitNode::OpenImpl() {
  emitted_ = 0;
  skipped_ = 0;
  return child_->Open();
}

Result<bool> LimitNode::NextImpl(Row* out) {
  while (skipped_ < offset_) {
    ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    ++skipped_;
  }
  if (limit_ >= 0 && emitted_ >= limit_) return false;
  ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  ++emitted_;
  return true;
}

Result<bool> LimitNode::NextBatchImpl(Batch* out) {
  while (true) {
    if (limit_ >= 0 && emitted_ >= limit_) return false;
    ASSIGN_OR_RETURN(bool more, child_->NextBatch(out));
    if (!more) return false;
    const std::vector<uint32_t>& rids = out->ActiveRids();
    size_t begin = 0;
    if (skipped_ < offset_) {
      begin = std::min(rids.size(), static_cast<size_t>(offset_ - skipped_));
      skipped_ += static_cast<int64_t>(begin);
    }
    size_t avail = rids.size() - begin;
    if (avail == 0) continue;  // batch consumed entirely by OFFSET
    size_t take = avail;
    if (limit_ >= 0) {
      take = std::min(avail, static_cast<size_t>(limit_ - emitted_));
    }
    emitted_ += static_cast<int64_t>(take);
    if (begin == 0 && take == rids.size()) return true;  // whole batch passes
    std::vector<uint32_t> sel(rids.begin() + static_cast<ptrdiff_t>(begin),
                              rids.begin() + static_cast<ptrdiff_t>(begin + take));
    out->SetSelection(std::move(sel));
    return true;
  }
}

std::string LimitNode::Describe() const {
  std::string out = "Limit(" + std::to_string(limit_);
  if (offset_ > 0) out += " OFFSET " + std::to_string(offset_);
  return out + ")";
}

// ---- Values ----

ValuesNode::ValuesNode(Schema schema, std::vector<Row> rows)
    : schema_(std::move(schema)), rows_(std::move(rows)) {}

Status ValuesNode::OpenImpl() {
  pos_ = 0;
  return Status::OK();
}

Result<bool> ValuesNode::NextImpl(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

Result<bool> ValuesNode::NextBatchImpl(Batch* out) {
  out->Reset(schema_.size());
  const size_t target = static_cast<size_t>(DefaultBatchSize());
  while (pos_ < rows_.size() && out->num_rows() < target) {
    out->AppendRow(rows_[pos_++]);
  }
  return out->num_rows() > 0;
}

std::string ValuesNode::Describe() const {
  return "Values(" + std::to_string(rows_.size()) + " rows)";
}

}  // namespace xmlrdb::rdb
