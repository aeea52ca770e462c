// Output checks of the benchmark, made apart from the relational engine:
// every answer is compared with what xpath::EvalOnDom computes on the
// generator's in-memory DOM, or with the benchmark's own edited DOM.

#ifndef XMLRDB_PERFBENCH_CHECKS_H_
#define XMLRDB_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "shard/shard_router.h"
#include "xml/node.h"
#include "xpath/xpath_ast.h"

namespace xmlrdb::perfbench {

/// Empty when `got` equals `want` (as sequences when `ordered`, else as
/// multisets); otherwise a short description of the first difference.
std::string CompareStrings(const std::vector<std::string>& got,
                           const std::vector<std::string>& want, bool ordered);

/// The oracle answer of a string-valued query: the string-values of the
/// nodes EvalOnDom selects, in document order.
Result<std::vector<std::string>> OracleStrings(const xpath::PathExpr& path,
                                               const xml::Document& doc);

/// The oracle answer of a subtree-selecting query: the canonical form of
/// every selected subtree, in document order.
Result<std::vector<std::string>> OracleSubtrees(const xpath::PathExpr& path,
                                                const xml::Document& doc);

/// Wire form of a corpus-wide answer: for each document in the order given,
/// one header "\x1e<docid> <count>" followed by its `count` values. The
/// header byte cannot occur in XML character data.
std::vector<std::string> EncodeCorpus(
    const std::vector<shard::DocStrings>& per_doc);

/// Checks a corpus-wide answer in wire form: well-formed headers, docids in
/// strictly ascending order, every static document present with exactly its
/// oracle answer, and every other document a churn document whose answer
/// equals `churn_oracle(docid)` (null = not a known churn document).
std::string CheckCorpus(
    const std::vector<std::string>& flat,
    const std::map<int64_t, const std::vector<std::string>*>& static_oracle,
    const std::function<const std::vector<std::string>*(int64_t)>&
        churn_oracle);

/// Shows that each check rejects a perturbed answer (one string dropped,
/// two strings swapped under an order-checked comparison, one churn
/// document truncated) and accepts the unperturbed one. Returns an empty
/// string on success, else what went wrong.
std::string SelfTest();

}  // namespace xmlrdb::perfbench

#endif  // XMLRDB_PERFBENCH_CHECKS_H_
