// load_publish: the write and reconstruction side of every mapping.
//
// A seeded corpus of serialized auction documents of three sizes goes
// through each mapping on its own durable database (WAL on, fsync policy
// kNever: appends reach the OS page cache, nothing waits on the disk). One
// round, per mapping in a seeded order: parse and store every document,
// publish each one, apply two subtree inserts and deletes at fixed paths to
// each, remove them all, and checkpoint the then empty database. Round 0 is
// an untimed warm-up that also measures the stored footprint and the WAL.
//
// Checks: the published text parses back to the input's canonical form;
// after each insert or delete the reconstruction equals the benchmark's own
// DOM with the same edit applied; after Remove the document is no longer
// listed, and after the round the tables hold as many live rows as before.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "common/trace.h"
#include "publish/publisher.h"
#include "rdb/durability.h"
#include "rdb/env.h"
#include "shred/evaluator.h"
#include "workload/xmark.h"
#include "workloads.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/dom_eval.h"

namespace xmlrdb::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// XMark scales of the corpus documents: two documents of each.
constexpr double kScales[] = {0.04, 0.1, 0.25};

/// One subtree edit at a fixed path: insert `subtree` as the last child of
/// the node at `parent`, then delete it again, finding it by `lookup`.
struct Edit {
  const char* parent;
  const char* subtree;
  const char* lookup;
};

constexpr Edit kEdits[] = {
    {"/site/people",
     "<person id=\"perfbench-p\"><name>perf bench</name>"
     "<emailaddress>mailto:perf@bench.example</emailaddress></person>",
     "/site/people/person[@id = 'perfbench-p']"},
    {"/site/regions/asia",
     "<item id=\"perfbench-i\"><location>Nowhere</location>"
     "<quantity>3</quantity><name>bench item</name>"
     "<description>inserted by the benchmark</description></item>",
     "/site/regions/asia/item[@id = 'perfbench-i']"},
};
constexpr size_t kNumEdits = sizeof(kEdits) / sizeof(kEdits[0]);

struct Doc {
  std::string text;
  std::string canonical;                  ///< of the parsed input
  std::string edited[kNumEdits];          ///< canonical after edit e
};

struct Store {
  std::string name;
  std::string dir;
  std::unique_ptr<shred::Mapping> mapping;
  std::unique_ptr<rdb::Database> db;
  // Per-document samples (microseconds); index = corpus position.
  std::vector<std::vector<double>> load_us, publish_us;
  std::vector<std::vector<double>> parse_us, store_us, reconstruct_us,
      serialize_us;
  std::vector<double> update_us, insert_us, delete_us;
  int64_t published_bytes = 0;  ///< of one pass over the corpus
};

/// Live rows per (non-transient) table of the mapping's database.
std::map<std::string, int64_t> LiveRows(rdb::Database* db) {
  std::map<std::string, int64_t> rows;
  for (const std::string& name : db->TableNames()) {
    // Scratch tables, and the binary mapping's partition catalog: one row
    // per label table, schema that grows with the vocabulary like the
    // table list itself.
    if (rdb::Database::IsTransientTableName(name) || name == "bin_labels") {
      continue;
    }
    if (const rdb::Table* t = db->FindTable(name)) {
      rows[name] = static_cast<int64_t>(t->num_rows());
    }
  }
  return rows;
}

/// Tables whose live row count differs between two LiveRows() calls.
std::string RowDiff(const std::map<std::string, int64_t>& before,
                    const std::map<std::string, int64_t>& after) {
  std::string diff;
  for (const auto& [name, rows] : after) {
    auto it = before.find(name);
    const int64_t was = it == before.end() ? 0 : it->second;
    if (rows != was) {
      diff += " " + name + ": " + std::to_string(was) + " -> " +
              std::to_string(rows) + ";";
    }
  }
  return diff;
}

Result<rdb::Value> SingleNode(const std::string& xpath, Store* s,
                              shred::DocId doc) {
  ASSIGN_OR_RETURN(xpath::PathExpr path, xpath::ParseXPath(xpath));
  ASSIGN_OR_RETURN(shred::NodeSet nodes,
                   shred::EvalPath(path, s->mapping.get(), s->db.get(), doc));
  if (nodes.size() != 1) {
    return Status::Internal(xpath + " selected " +
                            std::to_string(nodes.size()) + " nodes, want 1");
  }
  return nodes[0];
}

Result<std::string> ReconstructCanonical(Store* s, shred::DocId doc) {
  ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> tree,
                   s->mapping->Reconstruct(s->db.get(), doc));
  return xml::Canonicalize(*tree);
}

/// Builds the corpus: serialized text plus the canonical forms the checks
/// compare against, all from the parsed text (not the generator's tree).
Status BuildCorpus(const Options& options, std::vector<Doc>* corpus,
                   std::vector<std::unique_ptr<xml::Node>>* subtrees) {
  std::vector<double> scales;
  for (double s : kScales) scales.insert(scales.end(), {s, s});
  for (const Edit& e : kEdits) {
    ASSIGN_OR_RETURN(std::unique_ptr<xml::Node> node,
                     xml::ParseFragment(e.subtree));
    subtrees->push_back(std::move(node));
  }
  for (size_t i = 0; i < scales.size(); ++i) {
    workload::XMarkConfig cfg;
    cfg.scale = scales[i];
    cfg.seed = options.seed * 7919 + i;
    Doc d;
    d.text = xml::Serialize(*workload::GenerateXMark(cfg));
    ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> parsed,
                     xml::Parse(d.text));
    d.canonical = xml::Canonicalize(*parsed);
    for (size_t e = 0; e < kNumEdits; ++e) {
      ASSIGN_OR_RETURN(std::unique_ptr<xml::Document> edited,
                       xml::Parse(d.text));
      ASSIGN_OR_RETURN(xpath::PathExpr path, xpath::ParseXPath(kEdits[e].parent));
      ASSIGN_OR_RETURN(std::vector<const xml::Node*> parents,
                       xpath::EvalOnDom(path, *edited->doc_node()));
      if (parents.size() != 1) {
        return Status::Internal(std::string(kEdits[e].parent) +
                                " is not unique in the corpus document");
      }
      const_cast<xml::Node*>(parents[0])->AddChild((*subtrees)[e]->Clone());
      d.edited[e] = xml::Canonicalize(*edited);
    }
    corpus->push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace

void RunLoadPublish(const Options& options, Report* report) {
  std::vector<Doc> corpus;
  std::vector<std::unique_ptr<xml::Node>> subtrees;
  Status built = BuildCorpus(options, &corpus, &subtrees);
  if (!built.ok()) {
    report->Fail("load_publish corpus: " + built.ToString());
    return;
  }
  int64_t input_bytes = 0;
  for (const Doc& d : corpus) input_bytes += static_cast<int64_t>(d.text.size());
  const size_t nd = corpus.size();

  rdb::DurableOptions durable;
  durable.wal.sync_policy = rdb::WalOptions::SyncPolicy::kNever;
  std::vector<Store> stores;
  for (const std::string& name : MappingNames()) {
    Store s;
    s.name = name;
    s.dir = FreshStoreDir(options, "load_publish_" + name);
    s.mapping = MakeMapping(name);
    auto db = rdb::OpenDurableDatabase(rdb::Env::Default(), s.dir, durable);
    Status st = !db.ok()                ? db.status()
                : s.mapping == nullptr ? Status::Internal("no mapping " + name)
                                        : Status::OK();
    if (st.ok()) {
      s.db = std::move(db).value();
      st = s.mapping->Initialize(s.db.get());
    }
    if (!st.ok()) {
      report->Fail("load_publish open " + name + ": " + st.ToString());
      return;
    }
    for (auto* v : {&s.load_us, &s.publish_us, &s.parse_us, &s.store_us,
                    &s.reconstruct_us, &s.serialize_us}) {
      v->resize(nd);
    }
    stores.push_back(std::move(s));
  }

  int64_t footprint_bytes = 0;
  int64_t wal_bytes = 0;
  double round_sum_us = 0;  ///< summed operation time of the current round

  // One operation-checked round over one mapping. Round 0 is the untimed
  // warm-up; in a traced run every other round is traced, and the calls
  // inside an operation are timed apart.
  auto run_round = [&](Store& s, int64_t round, bool traced) {
    const bool timed = round > 0;
    const std::vector<size_t> order =
        Shuffled(nd, options.seed * 1000003 + static_cast<uint64_t>(round));
    const std::string where = "load_publish " + s.name + ": ";
    const std::map<std::string, int64_t> rows_before = LiveRows(s.db.get());
    std::vector<shred::DocId> ids(nd, 0);
    auto op_failed = [&](const std::string& what, const Status& st) {
      ++report->failed;
      report->Fail(where + what + ": " + st.ToString());
    };
    // Records one untraced operation's time; returns false for untimed ones.
    auto untraced_sample = [&](std::vector<double>* samples, double us) {
      if (!timed || traced) return false;
      if (samples != nullptr) samples->push_back(us);
      round_sum_us += us;
      return true;
    };

    for (size_t d : order) {
      ++report->attempted;
      ScopedSpan span("perfbench.load", "perfbench");
      const Clock::time_point t0 = Clock::now();
      Result<std::unique_ptr<xml::Document>> parsed = Status::Internal("");
      {
        ScopedSpan parse_span("perfbench.xml.parse", "perfbench");
        parsed = xml::Parse(corpus[d].text);
      }
      const Clock::time_point t1 = Clock::now();
      Result<shred::DocId> id = Status::Internal("");
      {
        ScopedSpan store_span("perfbench.shred.store", "perfbench");
        id = parsed.ok() ? s.mapping->Store(*parsed.value(), s.db.get())
                         : Result<shred::DocId>(parsed.status());
      }
      const Clock::time_point t2 = Clock::now();
      if (!id.ok()) return op_failed("store", id.status());
      ids[d] = id.value();
      untraced_sample(&s.load_us[d], MicrosBetween(t0, t2));
      if (timed && traced) {
        s.parse_us[d].push_back(MicrosBetween(t0, t1));
        s.store_us[d].push_back(MicrosBetween(t1, t2));
      }
    }
    if (round == 0) {
      auto fp = s.mapping->FootprintBytes(*s.db);
      if (!fp.ok()) return op_failed("footprint", fp.status());
      footprint_bytes += static_cast<int64_t>(fp.value());
      wal_bytes += DirectoryBytes(s.dir);
    }

    for (size_t d : order) {
      ++report->attempted;
      std::string text;
      const Clock::time_point t0 = Clock::now();
      Clock::time_point t1 = t0;
      if (traced) {
        // The two halves of PublishDocument, timed apart.
        Result<std::unique_ptr<xml::Document>> tree = Status::Internal("");
        {
          ScopedSpan span("perfbench.shred.reconstruct", "perfbench");
          tree = s.mapping->Reconstruct(s.db.get(), ids[d]);
        }
        t1 = Clock::now();
        if (!tree.ok()) return op_failed("reconstruct", tree.status());
        ScopedSpan span("perfbench.xml.serialize", "perfbench");
        text = xml::Serialize(*tree.value());
      } else {
        auto published = publish::PublishDocument(s.mapping.get(), s.db.get(),
                                                  ids[d]);
        if (!published.ok()) return op_failed("publish", published.status());
        text = std::move(published).value();
      }
      const Clock::time_point t2 = Clock::now();
      if (round == 0) s.published_bytes += static_cast<int64_t>(text.size());
      untraced_sample(&s.publish_us[d], MicrosBetween(t0, t2));
      if (timed && traced) {
        s.reconstruct_us[d].push_back(MicrosBetween(t0, t1));
        s.serialize_us[d].push_back(MicrosBetween(t1, t2));
      }
      auto back = xml::Parse(text);
      if (!back.ok() || xml::Canonicalize(*back.value()) != corpus[d].canonical) {
        report->Fail(where + "published document " + std::to_string(d) +
                     " differs from its input");
      }
    }

    for (size_t d : order) {
      for (size_t e = 0; e < kNumEdits; ++e) {
        report->attempted += 2;
        auto parent = SingleNode(kEdits[e].parent, &s, ids[d]);
        if (!parent.ok()) return op_failed("edit parent", parent.status());
        const Clock::time_point t0 = Clock::now();
        Status st;
        {
          ScopedSpan span("perfbench.shred.insert_subtree", "perfbench");
          st = s.mapping->InsertSubtree(s.db.get(), ids[d], parent.value(),
                                        *subtrees[e]);
        }
        const Clock::time_point t1 = Clock::now();
        if (!st.ok()) return op_failed("insert", st);
        auto after = ReconstructCanonical(&s, ids[d]);
        if (!after.ok() || after.value() != corpus[d].edited[e]) {
          report->Fail(where + "after insert " + std::to_string(e) +
                       " into document " + std::to_string(d) +
                       " the reconstruction differs from the edited DOM");
        }
        auto node = SingleNode(kEdits[e].lookup, &s, ids[d]);
        if (!node.ok()) return op_failed("edit lookup", node.status());
        const Clock::time_point t2 = Clock::now();
        {
          ScopedSpan span("perfbench.shred.delete_subtree", "perfbench");
          st = s.mapping->DeleteSubtree(s.db.get(), ids[d], node.value());
        }
        const Clock::time_point t3 = Clock::now();
        if (!st.ok()) return op_failed("delete", st);
        auto restored = ReconstructCanonical(&s, ids[d]);
        if (!restored.ok() || restored.value() != corpus[d].canonical) {
          report->Fail(where + "after delete " + std::to_string(e) +
                       " from document " + std::to_string(d) +
                       " the reconstruction differs from the input");
        }
        untraced_sample(&s.update_us,
                        MicrosBetween(t0, t1) + MicrosBetween(t2, t3));
        if (timed && traced) {
          s.insert_us.push_back(MicrosBetween(t0, t1));
          s.delete_us.push_back(MicrosBetween(t2, t3));
        }
      }
    }

    for (size_t d : order) {
      ++report->attempted;
      const Clock::time_point t0 = Clock::now();
      Status st;
      {
        ScopedSpan span("perfbench.shred.remove", "perfbench");
        st = s.mapping->Remove(ids[d], s.db.get());
      }
      untraced_sample(nullptr, MicrosBetween(t0, Clock::now()));
      if (!st.ok()) return op_failed("remove", st);
      auto listed = s.mapping->ListDocIds(s.db.get());
      if (!listed.ok()) return op_failed("list", listed.status());
      for (shred::DocId id : listed.value()) {
        if (id == ids[d]) report->Fail(where + "removed document still listed");
      }
    }
    const std::string row_diff = RowDiff(rows_before, LiveRows(s.db.get()));
    if (!row_diff.empty()) {
      report->Fail(where + "live rows changed over the round:" + row_diff);
    }
    Status st = s.db->Checkpoint();
    if (!st.ok()) op_failed("checkpoint", st);
  };

  for (Store& s : stores) run_round(s, 0, false);
  if (!options.trace) report->Add("setup_s", SecondsSinceStart(), "s");

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  std::vector<double> round_us;  ///< summed operation time per untraced round
  const int64_t min_rounds = options.trace ? 4 : 2;
  int64_t round = 1;
  for (; round <= min_rounds || Clock::now() < deadline; ++round) {
    const bool traced = options.trace && round % 2 == 0;
    TraceCollector::Global().set_enabled(traced);
    round_sum_us = 0;
    for (size_t m : Shuffled(stores.size(), options.seed * 31 + round)) {
      run_round(stores[m], round, traced);
    }
    TraceCollector::Global().set_enabled(false);
    if (!traced) round_us.push_back(round_sum_us);
  }
  std::fprintf(stderr,
               "load_publish: %zu documents, %lld input bytes, %lld rounds\n",
               nd, static_cast<long long>(input_bytes),
               static_cast<long long>(round - 1));

  // Throughput per mapping: corpus bytes over the sum of per-document
  // median times, so one slow sample moves nothing.
  auto sum_of_medians = [](const std::vector<std::vector<double>>& per_doc) {
    double total = 0;
    for (const auto& samples : per_doc) total += Median(samples);
    return total;
  };
  std::vector<double> load_mbps, publish_mbps, update_us, publish_medians;
  for (const Store& s : stores) {
    load_mbps.push_back(static_cast<double>(input_bytes) /
                        sum_of_medians(s.load_us));
    publish_mbps.push_back(static_cast<double>(s.published_bytes) /
                           sum_of_medians(s.publish_us));
    update_us.push_back(Median(s.update_us));
    for (const auto& samples : s.publish_us) {
      publish_medians.push_back(Median(samples));
    }
  }
  if (!options.trace) {
    report->Add("round_ms", Median(round_us) / 1000.0, "ms");
    report->Add("read_us", GeoMean(publish_medians), "us");
  }
  report->Figure("load_mb_per_s", GeoMean(load_mbps), "MB/s");
  report->Figure("publish_mb_per_s", GeoMean(publish_mbps), "MB/s");
  report->Figure("update_us", GeoMean(update_us), "us");
  report->Figure("stored_bytes_per_input_byte",
                 static_cast<double>(footprint_bytes) /
                     static_cast<double>(input_bytes),
                 "ratio");
  if (!options.trace) return;

  const double per_doc = 1.0 / static_cast<double>(nd);
  std::vector<double> serialize_medians;
  for (const Store& s : stores) {
    report->Add("shred.store_us." + s.name,
                sum_of_medians(s.store_us) * per_doc, "us");
    report->Add("shred.reconstruct_us." + s.name,
                sum_of_medians(s.reconstruct_us) * per_doc, "us");
    report->Add("shred.insert_us." + s.name, Median(s.insert_us), "us");
    report->Add("shred.delete_us." + s.name, Median(s.delete_us), "us");
    for (const auto& samples : s.serialize_us) {
      serialize_medians.push_back(Median(samples));
    }
  }
  double parse_us = 0;
  for (size_t d = 0; d < nd; ++d) {
    std::vector<double> all;
    for (const Store& s : stores) {
      all.insert(all.end(), s.parse_us[d].begin(), s.parse_us[d].end());
    }
    parse_us += Median(all);
  }
  report->Add("xml.parse_mb_per_s", static_cast<double>(input_bytes) / parse_us,
              "MB/s");
  report->Add("publish.serialize_us", Median(serialize_medians), "us");
  report->Add("rdb.wal_bytes_per_input_byte",
              static_cast<double>(wal_bytes) / static_cast<double>(input_bytes),
              "ratio");
}

}  // namespace xmlrdb::perfbench
