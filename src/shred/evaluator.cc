#include "shred/evaluator.h"

#include <algorithm>
#include <map>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "xpath/dom_eval.h"

namespace xmlrdb::shred {

namespace {

using rdb::Value;
using xpath::Axis;
using xpath::Predicate;

/// Mapping::Step wrapped in a per-axis trace span and latency histogram
/// ("xpath.step.<axis>.latency_us").
Result<std::vector<StepResult>> TimedStep(Mapping* mapping, rdb::Database* db,
                                          DocId doc, const NodeSet& context,
                                          Axis axis,
                                          const std::string& name_test) {
  const char* axis_name = xpath::AxisName(axis);
  ScopedSpan span(std::string("xpath.step.") + axis_name, "xpath");
  MetricsRegistry& reg = MetricsRegistry::Global();
  if (!reg.enabled()) {
    return mapping->Step(db, doc, context, axis, name_test);
  }
  Stopwatch timer;
  auto out = mapping->Step(db, doc, context, axis, name_test);
  reg.RecordLatency(std::string("xpath.step.") + axis_name + ".latency_us",
                    static_cast<int64_t>(timer.ElapsedMicros()));
  return out;
}

/// Sorts and deduplicates a node set by the mapping's id order (document
/// order for the order-preserving mappings).
void Normalize(const Mapping& mapping, NodeSet* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [&](const Value& a, const Value& b) {
              return mapping.NodeIdLess(a, b);
            });
  nodes->erase(std::unique(nodes->begin(), nodes->end(),
                           [](const Value& a, const Value& b) {
                             return a.Compare(b) == 0;
                           }),
               nodes->end());
}

/// Evaluates a predicate relative path from every candidate, returning for
/// each candidate index the string values the path reaches.
Result<std::vector<std::vector<std::string>>> EvalRelPath(
    const xpath::RelPath& rel, const NodeSet& candidates, Mapping* mapping,
    rdb::Database* db, DocId doc) {
  // frontier: (candidate index, node)
  std::vector<std::pair<size_t, Value>> frontier;
  frontier.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    frontier.emplace_back(i, candidates[i]);
  }
  for (const auto& rs : rel.steps) {
    if (frontier.empty()) break;
    // Unique context nodes for the batched step call.
    NodeSet ctx;
    ctx.reserve(frontier.size());
    for (const auto& [idx, node] : frontier) ctx.push_back(node);
    Normalize(*mapping, &ctx);
    ASSIGN_OR_RETURN(std::vector<StepResult> step,
                     TimedStep(mapping, db, doc, ctx,
                               rs.attribute ? Axis::kAttribute : Axis::kChild,
                               rs.name));
    // node -> produced children
    std::map<std::string, std::vector<Value>> by_ctx;
    for (const auto& sr : step) by_ctx[sr.context.ToString()].push_back(sr.node);
    std::vector<std::pair<size_t, Value>> next;
    for (const auto& [idx, node] : frontier) {
      auto it = by_ctx.find(node.ToString());
      if (it == by_ctx.end()) continue;
      for (const Value& child : it->second) next.emplace_back(idx, child);
    }
    frontier = std::move(next);
  }
  std::vector<std::vector<std::string>> out(candidates.size());
  if (frontier.empty()) return out;
  NodeSet finals;
  finals.reserve(frontier.size());
  for (const auto& [idx, node] : frontier) finals.push_back(node);
  ASSIGN_OR_RETURN(std::vector<std::string> values,
                   mapping->StringValues(db, doc, finals));
  for (size_t i = 0; i < frontier.size(); ++i) {
    out[frontier[i].first].push_back(values[i]);
  }
  return out;
}

/// Applies a step's predicates to one context group, appending survivors.
Status FilterGroup(const std::vector<Predicate>& preds,
                   const std::vector<Value>& group, Mapping* mapping,
                   rdb::Database* db, DocId doc, NodeSet* out) {
  std::vector<bool> keep(group.size(), true);
  for (const auto& pred : preds) {
    switch (pred.kind) {
      case Predicate::Kind::kPosition:
        for (size_t i = 0; i < group.size(); ++i) {
          if (static_cast<int64_t>(i + 1) != pred.position) keep[i] = false;
        }
        break;
      case Predicate::Kind::kLast:
        for (size_t i = 0; i + 1 < group.size(); ++i) keep[i] = false;
        break;
      case Predicate::Kind::kExists:
      case Predicate::Kind::kValueCmp: {
        // Evaluate only for still-alive candidates.
        NodeSet alive;
        std::vector<size_t> alive_idx;
        for (size_t i = 0; i < group.size(); ++i) {
          if (keep[i]) {
            alive.push_back(group[i]);
            alive_idx.push_back(i);
          }
        }
        if (alive.empty()) break;
        ASSIGN_OR_RETURN(std::vector<std::vector<std::string>> values,
                         EvalRelPath(pred.rel, alive, mapping, db, doc));
        for (size_t a = 0; a < alive.size(); ++a) {
          bool ok;
          if (pred.kind == Predicate::Kind::kExists) {
            ok = !values[a].empty();
          } else {
            ok = std::any_of(values[a].begin(), values[a].end(),
                             [&](const std::string& v) {
                               return xpath::CompareNodeValue(v, pred.op,
                                                              pred.literal);
                             });
          }
          if (!ok) keep[alive_idx[a]] = false;
        }
        break;
      }
    }
  }
  for (size_t i = 0; i < group.size(); ++i) {
    if (keep[i]) out->push_back(group[i]);
  }
  return Status::OK();
}

}  // namespace

namespace {

/// Condenses a metrics delta into per-query stats. Statement counts come
/// from "sql.statements"; tables touched counts distinct "table.<t>.scans"
/// counters that moved; rows scanned from "exec.rows_scanned".
EvalStats StatsFromDelta(const MetricsSnapshot& delta) {
  EvalStats out;
  for (const auto& [name, value] : delta) {
    if (name == "sql.statements") {
      out.sql_statements = value;
    } else if (name == "exec.rows_scanned") {
      out.rows_scanned = value;
    } else if (name.rfind("table.", 0) == 0 &&
               name.size() > 6 + 6 &&
               name.compare(name.size() - 6, 6, ".scans") == 0) {
      ++out.tables_touched;
    }
  }
  return out;
}

Result<NodeSet> EvalPathImpl(const xpath::PathExpr& path, Mapping* mapping,
                             rdb::Database* db, DocId doc) {
  NodeSet current;
  bool first = true;
  for (const auto& step : path.steps) {
    // Per-context candidate groups for this step.
    std::vector<std::vector<Value>> groups;
    if (first) {
      first = false;
      ScopedSpan head_span(
          std::string("xpath.step.") + xpath::AxisName(step.axis), "xpath");
      switch (step.axis) {
        case Axis::kChild: {
          // The document node has exactly one element child: the root.
          ASSIGN_OR_RETURN(Value root, mapping->RootElement(db, doc));
          ASSIGN_OR_RETURN(NodeSet named,
                           mapping->AllElements(db, doc, step.name));
          std::vector<Value> group;
          for (const Value& v : named) {
            if (v.Compare(root) == 0) group.push_back(v);
          }
          groups.push_back(std::move(group));
          break;
        }
        case Axis::kDescendant: {
          ASSIGN_OR_RETURN(NodeSet all, mapping->AllElements(db, doc, step.name));
          groups.push_back(std::move(all));
          break;
        }
        case Axis::kAttribute:
          // The document node has no attributes: /@x selects nothing.
          groups.emplace_back();
          break;
      }
    } else {
      ASSIGN_OR_RETURN(std::vector<StepResult> results,
                       TimedStep(mapping, db, doc, current, step.axis,
                                 step.name));
      // Split into per-context groups (results arrive grouped).
      std::vector<Value> group;
      const Value* cur_ctx = nullptr;
      for (const auto& sr : results) {
        if (cur_ctx == nullptr || sr.context.Compare(*cur_ctx) != 0) {
          if (!group.empty()) groups.push_back(std::move(group));
          group.clear();
          cur_ctx = &sr.context;
        }
        group.push_back(sr.node);
      }
      if (!group.empty()) groups.push_back(std::move(group));
    }

    NodeSet next;
    for (const auto& g : groups) {
      if (step.predicates.empty()) {
        next.insert(next.end(), g.begin(), g.end());
      } else {
        RETURN_IF_ERROR(
            FilterGroup(step.predicates, g, mapping, db, doc, &next));
      }
    }
    Normalize(*mapping, &next);
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

}  // namespace

Result<NodeSet> EvalPath(const xpath::PathExpr& path, Mapping* mapping,
                         rdb::Database* db, DocId doc, EvalStats* stats) {
  ScopedSpan span("xpath.query", "xpath");
  MetricsRegistry& reg = MetricsRegistry::Global();
  Stopwatch timer;
  Result<NodeSet> result = [&]() -> Result<NodeSet> {
    // One pinned snapshot covers every SQL statement of the evaluation, so
    // the whole multi-statement path sees a single consistent database state
    // even while writers commit rows, tables or indexes concurrently.
    rdb::ReadSnapshot snapshot(db);
    if (stats == nullptr) return EvalPathImpl(path, mapping, db, doc);
    ScopedMetricsCapture capture;
    auto r = EvalPathImpl(path, mapping, db, doc);
    *stats = StatsFromDelta(capture.Delta());
    return r;
  }();
  if (reg.enabled()) {
    reg.RecordLatency("mapping." + mapping->name() + ".query_us",
                      static_cast<int64_t>(timer.ElapsedMicros()));
  }
  return result;
}

Result<std::vector<std::string>> EvalPathStrings(const xpath::PathExpr& path,
                                                 Mapping* mapping,
                                                 rdb::Database* db, DocId doc) {
  ASSIGN_OR_RETURN(NodeSet nodes, EvalPath(path, mapping, db, doc));
  return mapping->StringValues(db, doc, nodes);
}

}  // namespace xmlrdb::shred
