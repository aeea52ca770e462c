#include "checks.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "workload/queries.h"
#include "workload/xmark.h"
#include "xml/serializer.h"
#include "xpath/dom_eval.h"

namespace xmlrdb::perfbench {

namespace {

constexpr char kDocHeader = '\x1e';

std::string Show(const std::string& s) {
  return s.size() <= 40 ? "'" + s + "'" : "'" + s.substr(0, 37) + "...'";
}

}  // namespace

std::string CompareStrings(const std::vector<std::string>& got,
                           const std::vector<std::string>& want,
                           bool ordered) {
  if (!ordered) {
    std::vector<std::string> g = got;
    std::vector<std::string> w = want;
    std::sort(g.begin(), g.end());
    std::sort(w.begin(), w.end());
    if (g == w) return "";
    return "multiset differs (" + std::to_string(got.size()) + " vs " +
           std::to_string(want.size()) + " strings)";
  }
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " strings, want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return "string " + std::to_string(i) + " is " + Show(got[i]) +
             ", want " + Show(want[i]);
    }
  }
  return "";
}

Result<std::vector<std::string>> OracleStrings(const xpath::PathExpr& path,
                                               const xml::Document& doc) {
  ASSIGN_OR_RETURN(std::vector<const xml::Node*> nodes,
                   xpath::EvalOnDom(path, *doc.doc_node()));
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const xml::Node* n : nodes) out.push_back(n->StringValue());
  return out;
}

Result<std::vector<std::string>> OracleSubtrees(const xpath::PathExpr& path,
                                                const xml::Document& doc) {
  ASSIGN_OR_RETURN(std::vector<const xml::Node*> nodes,
                   xpath::EvalOnDom(path, *doc.doc_node()));
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const xml::Node* n : nodes) out.push_back(xml::Canonicalize(*n));
  return out;
}

std::vector<std::string> EncodeCorpus(
    const std::vector<shard::DocStrings>& per_doc) {
  std::vector<std::string> flat;
  for (const shard::DocStrings& d : per_doc) {
    flat.push_back(std::string(1, kDocHeader) + std::to_string(d.doc) + " " +
                   std::to_string(d.values.size()));
    flat.insert(flat.end(), d.values.begin(), d.values.end());
  }
  return flat;
}

std::string CheckCorpus(
    const std::vector<std::string>& flat,
    const std::map<int64_t, const std::vector<std::string>*>& static_oracle,
    const std::function<const std::vector<std::string>*(int64_t)>&
        churn_oracle) {
  size_t pos = 0;
  int64_t last_doc = 0;
  size_t statics_seen = 0;
  while (pos < flat.size()) {
    const std::string& header = flat[pos];
    if (header.empty() || header[0] != kDocHeader) {
      return "value outside any document at position " + std::to_string(pos);
    }
    char* end = nullptr;
    const int64_t doc = std::strtoll(header.c_str() + 1, &end, 10);
    const long long count = std::strtoll(end, nullptr, 10);
    if (count < 0 || pos + 1 + static_cast<size_t>(count) > flat.size()) {
      return "document " + std::to_string(doc) + " claims " +
             std::to_string(count) + " values past the end of the answer";
    }
    if (doc <= last_doc) {
      return "docid " + std::to_string(doc) + " after " +
             std::to_string(last_doc) + ": not in ascending docid order";
    }
    last_doc = doc;
    std::vector<std::string> values(flat.begin() + pos + 1,
                                    flat.begin() + pos + 1 + count);
    pos += 1 + static_cast<size_t>(count);
    const std::vector<std::string>* want = nullptr;
    auto it = static_oracle.find(doc);
    if (it != static_oracle.end()) {
      want = it->second;
      ++statics_seen;
    } else {
      want = churn_oracle(doc);
      if (want == nullptr) {
        return "document " + std::to_string(doc) + " is neither static nor "
               "a stored churn document";
      }
    }
    std::string diff = CompareStrings(values, *want, /*ordered=*/true);
    if (!diff.empty()) return "document " + std::to_string(doc) + ": " + diff;
  }
  if (statics_seen != static_oracle.size()) {
    return std::to_string(static_oracle.size() - statics_seen) +
           " static documents missing from the answer";
  }
  return "";
}

std::string SelfTest() {
  // A real oracle answer with at least three distinct strings.
  workload::XMarkConfig cfg;
  cfg.scale = 0.02;
  cfg.seed = 11;
  auto doc = workload::GenerateXMark(cfg);
  auto path = xpath::ParseXPath(workload::AuctionQueries()[0].xpath);
  if (!path.ok()) return "parse: " + path.status().ToString();
  auto want = OracleStrings(path.value(), *doc);
  if (!want.ok()) return "oracle: " + want.status().ToString();
  const std::vector<std::string>& w = want.value();
  if (w.size() < 3 || w[0] == w[1]) return "oracle answer too small";

  if (!CompareStrings(w, w, true).empty() ||
      !CompareStrings(w, w, false).empty()) {
    return "an unperturbed answer was rejected";
  }
  std::vector<std::string> dropped = w;
  dropped.erase(dropped.begin() + 1);
  if (CompareStrings(dropped, w, true).empty() ||
      CompareStrings(dropped, w, false).empty()) {
    return "an answer with one string dropped was accepted";
  }
  std::vector<std::string> swapped = w;
  std::swap(swapped[0], swapped[1]);
  if (CompareStrings(swapped, w, true).empty()) {
    return "an answer with two strings swapped passed the ordered check";
  }

  // Corpus answers: static documents 1 and 2, churn document 7.
  const std::vector<std::string> churn = {"p", "q", "r"};
  std::map<int64_t, const std::vector<std::string>*> statics = {{1, &w},
                                                                {2, &w}};
  auto churn_of = [&](int64_t id) -> const std::vector<std::string>* {
    return id == 7 ? &churn : nullptr;
  };
  auto corpus = [&](const std::vector<std::string>& churn_values,
                    bool reversed) {
    std::vector<shard::DocStrings> docs = {{1, w}, {2, w}, {7, churn_values}};
    if (reversed) std::swap(docs[0], docs[1]);
    return EncodeCorpus(docs);
  };
  if (!CheckCorpus(corpus(churn, false), statics, churn_of).empty()) {
    return "an unperturbed corpus answer was rejected";
  }
  std::vector<std::string> truncated = churn;
  truncated.pop_back();
  if (CheckCorpus(corpus(truncated, false), statics, churn_of).empty()) {
    return "a corpus answer with a truncated churn document was accepted";
  }
  if (CheckCorpus(corpus(churn, true), statics, churn_of).empty()) {
    return "a corpus answer out of docid order was accepted";
  }
  std::vector<std::string> missing = EncodeCorpus({{1, w}, {7, churn}});
  if (CheckCorpus(missing, statics, churn_of).empty()) {
    return "a corpus answer missing a static document was accepted";
  }
  return "";
}

}  // namespace xmlrdb::perfbench
