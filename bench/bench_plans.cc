// Experiment T6 — plan shapes: how many relational joins each mapping needs
// per path query, and the inline mapping's join elimination. A table
// printer, not a timer: the row counts are the result.

#include <cstdio>

#include "bench/bench_util.h"
#include "xpath/xpath_ast.h"

namespace xmlrdb::bench {
namespace {

constexpr double kScale = 0.05;

void Run() {
  std::printf("T6: relational joins per translated path query\n");
  std::printf("(single-statement SQL translation; '-' = not expressible as "
              "one statement for that mapping)\n\n");
  const std::vector<std::string> paths = {
      "/site/people/person/name",
      "/site/regions/africa/item/name",
      "/site/open_auctions/open_auction/bidder/increase",
      "//item",
      "/site/regions//item",
  };
  const std::vector<std::string> mappings = {"edge", "binary", "interval",
                                             "inline"};
  std::printf("%-50s", "path");
  for (const auto& m : mappings) std::printf(" %9s", m.c_str());
  std::printf("\n");

  // Warm stores so catalogs (binary partitions) exist.
  for (const auto& m : mappings) GetStoredAuction(m, kScale);

  for (const std::string& p : paths) {
    auto path = xpath::ParseXPath(p);
    if (!path.ok()) continue;
    std::printf("%-50s", p.c_str());
    for (const auto& mname : mappings) {
      StoredAuction* sa = GetStoredAuction(mname, kScale);
      if (sa == nullptr) {
        std::printf(" %9s", "err");
        continue;
      }
      auto sql = sa->mapping->TranslatePathToSql(sa->doc_id, path.value());
      if (!sql.ok()) {
        std::printf(" %9s", "-");
        continue;
      }
      auto plan = sa->db->PlanSql(sql.value());
      if (!plan.ok()) {
        std::printf(" %9s", "err");
        continue;
      }
      std::printf(" %9d", plan.value()->CountJoins());
    }
    std::printf("\n");
  }

  std::printf("\nExample translated SQL (inline mapping, "
              "/site/people/person/name):\n");
  auto path = xpath::ParseXPath("/site/people/person/name");
  StoredAuction* sa = GetStoredAuction("inline", kScale);
  if (sa != nullptr && path.ok()) {
    auto sql = sa->mapping->TranslatePathToSql(sa->doc_id, path.value());
    std::printf("  %s\n", sql.ok() ? sql.value().c_str()
                                   : sql.status().ToString().c_str());
  }
  std::printf("\nExample translated SQL (edge mapping, same path):\n");
  sa = GetStoredAuction("edge", kScale);
  if (sa != nullptr && path.ok()) {
    auto sql = sa->mapping->TranslatePathToSql(sa->doc_id, path.value());
    std::printf("  %s\n", sql.ok() ? sql.value().c_str()
                                   : sql.status().ToString().c_str());
  }
}

}  // namespace
}  // namespace xmlrdb::bench

int main() {
  xmlrdb::bench::Run();
  return 0;
}
