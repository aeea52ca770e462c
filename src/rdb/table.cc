#include "rdb/table.h"

#include <algorithm>
#include <mutex>

#include "common/resource_tracker.h"

namespace xmlrdb::rdb {

namespace {

ResourceGauge& RowBytesGauge() {
  static ResourceGauge& g =
      ResourceTracker::Global().GetGauge("tables.row_bytes");
  return g;
}

ResourceGauge& IndexBytesGauge() {
  static ResourceGauge& g =
      ResourceTracker::Global().GetGauge("tables.index_bytes");
  return g;
}

/// Bytes held by superseded/deleted versions still reachable by snapshots.
ResourceGauge& VersionBytesGauge() {
  static ResourceGauge& g =
      ResourceTracker::Global().GetGauge("mvcc.version_bytes");
  return g;
}

/// Cumulative bytes handed back by version GC (monotonic).
ResourceGauge& ReclaimedBytesGauge() {
  static ResourceGauge& g =
      ResourceTracker::Global().GetGauge("mvcc.reclaimed_bytes");
  return g;
}

int64_t RowFootprint(const Row& row) {
  int64_t bytes = 0;
  for (const Value& v : row) bytes += static_cast<int64_t>(v.FootprintBytes());
  return bytes;
}

// Matches the per-entry cost FootprintBytesUnlocked charges: key columns + rid.
int64_t IndexEntryBytes(const Index& idx) {
  return static_cast<int64_t>((idx.key_columns().size() + 1) * sizeof(Value));
}

}  // namespace

Index::Index(std::string name, const Table* table, std::vector<size_t> key_columns)
    : name_(std::move(name)), table_(table), key_columns_(std::move(key_columns)) {}

Row Index::MakeKey(const Row& row, RowId rid) const {
  Row key;
  key.reserve(key_columns_.size() + 1);
  for (size_t c : key_columns_) key.push_back(row[c]);
  key.push_back(Value(static_cast<int64_t>(rid)));
  return key;
}

bool Index::Add(const Row& row, RowId rid) {
  return tree_.Insert(MakeKey(row, rid));
}

bool Index::Remove(const Row& row, RowId rid) {
  return tree_.Erase(MakeKey(row, rid));
}

std::vector<RowId> Index::LookupEqual(const Row& key) const {
  return LookupRange(key, true, key, true);
}

// Stale entries are expected under lazy MVCC maintenance (Delete keeps
// entries, Update leaves the old key's). An entry is *current* iff its row
// is live and its key columns still equal the newest row's — exactly the
// rows an eager index would hold, so the read-latest lookups filter to that.
bool Index::EntryIsCurrent(const Row& entry_key) const {
  const RowId rid = static_cast<RowId>(entry_key.back().AsInt());
  if (!table_->IsLive(rid)) return false;
  const Row& row = table_->row(rid);
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    if (row[key_columns_[i]].Compare(entry_key[i]) != 0) return false;
  }
  return true;
}

std::vector<RowId> Index::LookupRange(const Row& lower, bool lower_inclusive,
                                      const Row& upper,
                                      bool upper_inclusive) const {
  std::vector<RowId> out;
  BTree::Iterator it =
      lower.empty() ? tree_.Begin() : tree_.SeekAtLeast(lower, lower_inclusive);
  while (it.Valid()) {
    const Row& k = it.key();
    if (!upper.empty()) {
      int c = PrefixCompareRows(k, upper);
      if (c > 0 || (!upper_inclusive && c == 0)) break;
    }
    if (EntryIsCurrent(k)) out.push_back(static_cast<RowId>(k.back().AsInt()));
    it.Next();
  }
  return out;
}

std::vector<Row> Index::EntriesInRange(const Row& lower, bool lower_inclusive,
                                       const Row& upper,
                                       bool upper_inclusive) const {
  std::vector<Row> out;
  BTree::Iterator it =
      lower.empty() ? tree_.Begin() : tree_.SeekAtLeast(lower, lower_inclusive);
  while (it.Valid()) {
    const Row& k = it.key();
    if (!upper.empty()) {
      int c = PrefixCompareRows(k, upper);
      if (c > 0 || (!upper_inclusive && c == 0)) break;
    }
    out.push_back(k);
    it.Next();
  }
  return out;
}

bool Index::MatchesPrefix(const std::vector<size_t>& cols) const {
  if (cols.size() > key_columns_.size()) return false;
  return std::equal(cols.begin(), cols.end(), key_columns_.begin());
}

Table::~Table() {
  FreeAllVersions();
  RowBytesGauge().Add(-tracked_row_bytes_);
  IndexBytesGauge().Add(-tracked_index_bytes_);
  VersionBytesGauge().Add(-tracked_version_bytes_);
}

RowId Table::AppendSlot(RowVersion* v) {
  size_t s = num_slots_.load(std::memory_order_relaxed);
  auto [c, off] = SlotPos(s);
  Chunk* ch = chunks_[c].load(std::memory_order_relaxed);
  if (ch == nullptr) {
    ch = new Chunk(1ull << (kFirstChunkBits + c));
    chunks_[c].store(ch, std::memory_order_release);
  }
  ch->slots[off].store(v, std::memory_order_release);
  num_slots_.store(s + 1, std::memory_order_release);
  return s;
}

void Table::StampCreate(RowVersion* v,
                        std::vector<std::atomic<uint64_t>*>* own) {
  Lsn apply = ScopedApplyLsn::Current();
  if (apply != 0) {
    v->created.store(apply, std::memory_order_release);
  } else if (uint64_t txn = MvccTransaction::CurrentTxnId(); txn != 0) {
    v->created.store(kUncommittedStampBit | txn, std::memory_order_release);
    MvccTransaction::RecordStamp(&v->created);
    MvccTransaction::Pin(self_.lock());
  } else {
    // Stamp txn 0 is visible to nobody; the caller self-commits via `own`
    // after the version (and its index entries) are fully published.
    v->created.store(kUncommittedStampBit, std::memory_order_release);
    own->push_back(&v->created);
  }
}

void Table::StampDelete(RowVersion* v,
                        std::vector<std::atomic<uint64_t>*>* own) {
  Lsn apply = ScopedApplyLsn::Current();
  if (apply != 0) {
    v->deleted.store(apply, std::memory_order_release);
  } else if (uint64_t txn = MvccTransaction::CurrentTxnId(); txn != 0) {
    v->deleted.store(kUncommittedStampBit | txn, std::memory_order_release);
    MvccTransaction::RecordStamp(&v->deleted);
    MvccTransaction::Pin(self_.lock());
  } else {
    v->deleted.store(kUncommittedStampBit, std::memory_order_release);
    own->push_back(&v->deleted);
  }
}

Result<RowId> Table::Insert(Row row) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return InsertUnlocked(std::move(row));
}

Result<RowId> Table::InsertUnlocked(Row row) {
  RETURN_IF_ERROR(schema_.ValidateRow(row));
  if (sink_ != nullptr) RETURN_IF_ERROR(sink_->OnInsert(*this, row));
  auto* v = new RowVersion(std::move(row));
  std::vector<std::atomic<uint64_t>*> own;
  if (mvcc_) StampCreate(v, &own);
  RowId rid = AppendSlot(v);
  int64_t delta = RowFootprint(v->row);
  tracked_row_bytes_ += delta;
  RowBytesGauge().Add(delta);
  {
    std::unique_lock<std::shared_mutex> il(index_mu_);
    for (auto& idx : indexes_) {
      if (idx->Add(v->row, rid)) {
        tracked_index_bytes_ += IndexEntryBytes(*idx);
        IndexBytesGauge().Add(IndexEntryBytes(*idx));
      }
    }
  }
  live_rows_.fetch_add(1, std::memory_order_release);
  if (!own.empty()) MvccEngine::Global().CommitStamps(own);
  return rid;
}

Status Table::InsertMany(std::vector<Row> rows) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // One visibility unit: snapshot readers see the whole batch or nothing.
  MvccTransaction txn;
  for (auto& r : rows) {
    ASSIGN_OR_RETURN([[maybe_unused]] RowId rid, InsertUnlocked(std::move(r)));
  }
  txn.Commit();
  return Status::OK();
}

Status Table::Delete(RowId rid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return DeleteUnlocked(rid);
}

Status Table::DeleteUnlocked(RowId rid) {
  if (!IsLive(rid)) {
    return Status::NotFound("row " + std::to_string(rid) + " is not live");
  }
  RowVersion* v = head(rid);
  if (sink_ != nullptr) RETURN_IF_ERROR(sink_->OnDelete(*this, v->row));
  int64_t delta = RowFootprint(v->row);
  if (!mvcc_) {
    std::unique_lock<std::shared_mutex> il(index_mu_);
    for (auto& idx : indexes_) {
      if (idx->Remove(v->row, rid)) {
        tracked_index_bytes_ -= IndexEntryBytes(*idx);
        IndexBytesGauge().Add(-IndexEntryBytes(*idx));
      }
    }
    v->deleted.store(1, std::memory_order_release);
  } else {
    // Index entries stay: older snapshots still reach this version. The
    // row's bytes move from the live gauge to the version gauge until GC.
    std::vector<std::atomic<uint64_t>*> own;
    StampDelete(v, &own);
    tracked_version_bytes_ += delta;
    VersionBytesGauge().Add(delta);
    if (!own.empty()) MvccEngine::Global().CommitStamps(own);
  }
  tracked_row_bytes_ -= delta;
  RowBytesGauge().Add(-delta);
  live_rows_.fetch_sub(1, std::memory_order_release);
  return Status::OK();
}

Status Table::Update(RowId rid, Row row) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return UpdateUnlocked(rid, std::move(row));
}

Status Table::UpdateUnlocked(RowId rid, Row row) {
  if (!IsLive(rid)) {
    return Status::NotFound("row " + std::to_string(rid) + " is not live");
  }
  RETURN_IF_ERROR(schema_.ValidateRow(row));
  RowVersion* old = head(rid);
  if (sink_ != nullptr) {
    RETURN_IF_ERROR(sink_->OnUpdate(*this, old->row, row));
  }
  if (!mvcc_) {
    std::unique_lock<std::shared_mutex> il(index_mu_);
    for (auto& idx : indexes_) idx->Remove(old->row, rid);
    int64_t delta = RowFootprint(row) - RowFootprint(old->row);
    tracked_row_bytes_ += delta;
    RowBytesGauge().Add(delta);
    old->row = std::move(row);
    for (auto& idx : indexes_) idx->Add(old->row, rid);
    return Status::OK();
  }
  auto* v = new RowVersion(std::move(row));
  v->next.store(old, std::memory_order_relaxed);
  // The new version's birth and the old version's death are one commit.
  std::vector<std::atomic<uint64_t>*> own;
  StampCreate(v, &own);
  StampDelete(old, &own);
  auto [c, off] = SlotPos(rid);
  chunks_[c].load(std::memory_order_relaxed)
      ->slots[off]
      .store(v, std::memory_order_release);
  int64_t old_fp = RowFootprint(old->row);
  int64_t new_fp = RowFootprint(v->row);
  tracked_row_bytes_ += new_fp - old_fp;
  RowBytesGauge().Add(new_fp - old_fp);
  tracked_version_bytes_ += old_fp;
  VersionBytesGauge().Add(old_fp);
  {
    // Lazy maintenance: only keys that changed get new entries; unchanged
    // keys keep the entry shared between the two versions.
    std::unique_lock<std::shared_mutex> il(index_mu_);
    for (auto& idx : indexes_) {
      if (idx->Add(v->row, rid)) {
        tracked_index_bytes_ += IndexEntryBytes(*idx);
        IndexBytesGauge().Add(IndexEntryBytes(*idx));
      }
    }
  }
  if (!own.empty()) MvccEngine::Global().CommitStamps(own);
  return Status::OK();
}

void Table::Truncate() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::unique_lock<std::shared_mutex> il(index_mu_);
  FreeAllVersions();
  for (size_t c = 0; c < kNumChunks; ++c) {
    chunks_[c].store(nullptr, std::memory_order_release);
  }
  num_slots_.store(0, std::memory_order_release);
  live_rows_.store(0, std::memory_order_release);
  for (auto& idx : indexes_) {
    idx = std::make_unique<Index>(idx->name(), this, idx->key_columns());
  }
  RowBytesGauge().Add(-tracked_row_bytes_);
  IndexBytesGauge().Add(-tracked_index_bytes_);
  VersionBytesGauge().Add(-tracked_version_bytes_);
  tracked_row_bytes_ = 0;
  tracked_index_bytes_ = 0;
  tracked_version_bytes_ = 0;
}

void Table::FreeAllVersions() {
  for (size_t c = 0; c < kNumChunks; ++c) {
    Chunk* ch = chunks_[c].load(std::memory_order_acquire);
    if (ch == nullptr) continue;
    for (auto& slot : ch->slots) {
      RowVersion* v = slot.load(std::memory_order_relaxed);
      while (v != nullptr) {
        RowVersion* next = v->next.load(std::memory_order_relaxed);
        delete v;
        v = next;
      }
      slot.store(nullptr, std::memory_order_relaxed);
    }
    delete ch;
  }
  for (auto& [stamp, v] : limbo_) delete v;
  limbo_.clear();
}

Status Table::CreateIndex(const std::string& name,
                          const std::vector<std::string>& column_names) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return CreateIndexUnlocked(name, column_names);
}

Status Table::CreateIndexUnlocked(const std::string& name,
                                  const std::vector<std::string>& column_names) {
  if (FindIndex(name) != nullptr) {
    return Status::AlreadyExists("index '" + name + "'");
  }
  std::vector<size_t> cols;
  cols.reserve(column_names.size());
  for (const auto& cn : column_names) {
    ASSIGN_OR_RETURN(size_t i, schema_.IndexOf(cn));
    cols.push_back(i);
  }
  if (sink_ != nullptr) {
    RETURN_IF_ERROR(sink_->OnCreateIndex(*this, name, column_names));
  }
  auto idx = std::make_unique<Index>(name, this, std::move(cols));
  // Under MVCC every version on a row's chain gets an entry, exactly as if
  // the index had existed when the version was written: a snapshot older
  // than this DDL can then use the index and still find the deleted or
  // re-keyed versions it sees (scans re-check each entry against the
  // visible version; GC drops entries no snapshot can reach). Non-MVCC
  // tables remove entries eagerly on Delete, so only live rows get one.
  size_t slots = num_slots_.load(std::memory_order_relaxed);
  for (RowId rid = 0; rid < slots; ++rid) {
    if (!mvcc_) {
      if (IsLive(rid)) idx->Add(head(rid)->row, rid);
      continue;
    }
    for (const RowVersion* v = head(rid); v != nullptr;
         v = v->next.load(std::memory_order_relaxed)) {
      idx->Add(v->row, rid);
    }
  }
  int64_t delta =
      static_cast<int64_t>(idx->num_entries()) * IndexEntryBytes(*idx);
  tracked_index_bytes_ += delta;
  IndexBytesGauge().Add(delta);
  {
    std::unique_lock<std::shared_mutex> il(index_mu_);
    indexes_.push_back(std::move(idx));
  }
  return Status::OK();
}

const Index* Table::FindIndex(const std::string& name) const {
  for (const auto& idx : indexes_) {
    if (idx->name() == name) return idx.get();
  }
  return nullptr;
}

std::vector<const Index*> Table::IndexList() const {
  std::shared_lock<std::shared_mutex> il(index_mu_);
  std::vector<const Index*> out;
  out.reserve(indexes_.size());
  for (const auto& idx : indexes_) out.push_back(idx.get());
  return out;
}

const Index* Table::FindIndexByColumns(const std::vector<size_t>& cols) const {
  std::shared_lock<std::shared_mutex> il(index_mu_);
  for (const auto& idx : indexes_) {
    if (idx->MatchesPrefix(cols)) return idx.get();
  }
  return nullptr;
}

std::vector<Row> Table::IndexEntriesInRange(const Index* index,
                                            const Row& lower,
                                            bool lower_inclusive,
                                            const Row& upper,
                                            bool upper_inclusive) const {
  std::shared_lock<std::shared_mutex> il(index_mu_);
  return index->EntriesInRange(lower, lower_inclusive, upper, upper_inclusive);
}

TableGcStats Table::CollectGarbage(Lsn bound, Lsn floor) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::unique_lock<std::shared_mutex> il(index_mu_);
  TableGcStats stats;
  std::vector<RowVersion*> unlinked;
  if (mvcc_) {
    size_t slots = num_slots_.load(std::memory_order_relaxed);
    for (RowId rid = 0; rid < slots; ++rid) {
      auto [c, off] = SlotPos(rid);
      Chunk* ch = chunks_[c].load(std::memory_order_relaxed);
      std::atomic<RowVersion*>& slot = ch->slots[off];
      RowVersion* h = slot.load(std::memory_order_relaxed);
      if (h == nullptr) continue;
      // Pivot: the first (newest-first) version every snapshot >= bound
      // resolves to, i.e. with a committed created <= bound. Readers never
      // dereference past their resolving version, so everything below the
      // pivot is unreachable once unlinked.
      RowVersion* prev = nullptr;
      RowVersion* pivot = h;
      while (pivot != nullptr) {
        uint64_t created = pivot->created.load(std::memory_order_relaxed);
        if (StampIsCommitted(created) && created <= bound) break;
        prev = pivot;
        pivot = pivot->next.load(std::memory_order_relaxed);
      }
      if (pivot == nullptr) continue;
      RowVersion* dead = nullptr;
      RowVersion* retained_tail = pivot;  // newest..retained_tail survive
      uint64_t d = pivot->deleted.load(std::memory_order_relaxed);
      if (StampIsCommitted(d) && d != 0 && d <= bound) {
        // The pivot itself was deleted before any live snapshot: the whole
        // sub-chain from the pivot down is unreachable.
        if (prev != nullptr) {
          prev->next.store(nullptr, std::memory_order_release);
        } else {
          slot.store(nullptr, std::memory_order_release);
        }
        dead = pivot;
        retained_tail = prev;
      } else {
        dead = pivot->next.load(std::memory_order_relaxed);
        pivot->next.store(nullptr, std::memory_order_release);
      }
      for (RowVersion* p = dead; p != nullptr;
           p = p->next.load(std::memory_order_relaxed)) {
        // Drop index entries that served only this version: an entry is
        // kept while any retained version still carries the same key.
        for (auto& idx : indexes_) {
          Row key = idx->MakeKey(p->row, rid);
          bool shared = false;
          for (RowVersion* r = (retained_tail == nullptr ? nullptr : h);
               r != nullptr; r = r->next.load(std::memory_order_relaxed)) {
            if (CompareRows(idx->MakeKey(r->row, rid), key) == 0) {
              shared = true;
              break;
            }
            if (r == retained_tail) break;
          }
          if (!shared && idx->tree_.Erase(key)) {
            tracked_index_bytes_ -= IndexEntryBytes(*idx);
            IndexBytesGauge().Add(-IndexEntryBytes(*idx));
            ++stats.index_entries_removed;
          }
        }
        int64_t fp = RowFootprint(p->row);
        stats.bytes_unlinked += fp;
        ++stats.versions_freed;
        unlinked.push_back(p);
      }
    }
  }
  if (!unlinked.empty()) {
    tracked_version_bytes_ -= stats.bytes_unlinked;
    VersionBytesGauge().Add(-stats.bytes_unlinked);
    ReclaimedBytesGauge().Add(stats.bytes_unlinked);
    // Stamp with the visible LSN observed *after* the unlinks: any reader
    // that could still hold a pointer into the old chain acquired its
    // snapshot at or below this value and blocks the free until it ends.
    Lsn stamp = MvccEngine::Global().visible_lsn();
    for (RowVersion* p : unlinked) limbo_.emplace_back(stamp, p);
  }
  ReclaimLimboLocked(floor, &stats);
  return stats;
}

size_t Table::ReclaimLimboLocked(Lsn floor, TableGcStats* stats) {
  size_t freed = 0;
  while (!limbo_.empty() && limbo_.front().first < floor) {
    delete limbo_.front().second;
    limbo_.pop_front();
    ++freed;
  }
  if (stats != nullptr) stats->versions_reclaimed += freed;
  return freed;
}

size_t Table::LimboSize() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return limbo_.size();
}

size_t Table::FootprintBytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FootprintBytesUnlocked();
}

size_t Table::FootprintBytesUnlocked() const {
  size_t bytes = 0;
  size_t slots = num_slots_.load(std::memory_order_acquire);
  for (RowId rid = 0; rid < slots; ++rid) {
    if (!IsLive(rid)) continue;
    for (const Value& v : head(rid)->row) bytes += v.FootprintBytes();
  }
  for (const auto& idx : indexes_) {
    // Each index entry stores key columns + rid.
    bytes += idx->num_entries() * (idx->key_columns().size() + 1) * sizeof(Value);
  }
  return bytes;
}

}  // namespace xmlrdb::rdb
