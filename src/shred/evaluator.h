// Generic XPath evaluation over any Mapping.
//
// Each location step becomes one (or, for closure-based mappings, a few)
// SQL statements via the mapping's Step primitive; predicates are evaluated
// set-at-a-time with batched relative-path expansion and string-value
// fetches. Semantics match xpath::EvalOnDom exactly (it is the test oracle).

#ifndef XMLRDB_SHRED_EVALUATOR_H_
#define XMLRDB_SHRED_EVALUATOR_H_

#include "shred/mapping.h"
#include "xpath/xpath_ast.h"

namespace xmlrdb::shred {

/// Relational work done on behalf of one XPath query, derived from the
/// global MetricsRegistry counters the SQL layer maintains.
struct EvalStats {
  int64_t sql_statements = 0;  ///< SQL statements issued
  int64_t tables_touched = 0;  ///< distinct tables scanned
  int64_t rows_scanned = 0;    ///< base-table rows read (scans, index joins)
};

/// Evaluates `path` against the stored document, returning matching node ids
/// in the mapping's document order. If `stats` is non-null, the global
/// metrics registry is enabled for the duration of the call and `stats` is
/// filled with the relational work the query performed.
Result<NodeSet> EvalPath(const xpath::PathExpr& path, Mapping* mapping,
                         rdb::Database* db, DocId doc,
                         EvalStats* stats = nullptr);

/// Convenience: evaluate and return the string-values of all result nodes.
Result<std::vector<std::string>> EvalPathStrings(const xpath::PathExpr& path,
                                                 Mapping* mapping,
                                                 rdb::Database* db, DocId doc);

}  // namespace xmlrdb::shred

#endif  // XMLRDB_SHRED_EVALUATOR_H_
