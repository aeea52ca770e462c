// Multi-version concurrency control: LSN-stamped row versions and
// lock-free snapshot reads.
//
// Every committed row version carries two stamps: the LSN of the commit
// that created it and the LSN of the commit that deleted it (0 = still
// live). A read-only statement acquires a snapshot LSN S and sees exactly
// the versions with created <= S and not (deleted != 0 && deleted <= S) —
// without taking any table lock. DML conflicts only with DML.
//
// Stamps and the uncommitted bit
//   While a transaction is in flight its versions carry a provisional stamp
//   kUncommittedStampBit | txn_id, which is invisible to every snapshot
//   except the owning transaction's own statements (read-your-own-writes).
//   Commit re-stamps the whole write set with one freshly allocated LSN and
//   only then publishes that LSN as visible — serialized under a commit
//   mutex, so a reader that observes snapshot S is guaranteed to observe
//   the final stamps of every commit with LSN <= S (release/acquire on
//   visible_lsn pairs with the stamp stores).
//
// LSN space
//   The engine clock shares the WAL's LSN space: Wal::Append advances the
//   clock past every record LSN it hands out, so the commit LSN of a
//   durable transaction is always greater than the LSNs of its WAL records,
//   and recovery can restore exact stamps with ScopedApplyLsn. In-memory
//   databases simply allocate from the same atomic clock.
//
// Reclamation
//   Garbage collection unlinks versions that no current or future snapshot
//   can reach (bounded by min(oldest active snapshot, visible LSN)) and
//   parks them on a limbo list stamped with the visible LSN observed after
//   the unlink. A parked version is freed only once every active snapshot
//   was acquired after that stamp (or none is active) — a reader that could
//   still hold a raw pointer into the chain necessarily acquired its
//   snapshot before the unlink, and such snapshots block the free.

#ifndef XMLRDB_RDB_MVCC_H_
#define XMLRDB_RDB_MVCC_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace xmlrdb::rdb {

using Lsn = uint64_t;

/// Set on a version stamp while its transaction is in flight; the low bits
/// then hold the transaction id instead of an LSN.
inline constexpr uint64_t kUncommittedStampBit = 1ull << 63;

/// Largest value the engine clock can reach (and the "no bound" sentinel).
inline constexpr Lsn kLsnMax = kUncommittedStampBit - 1;

inline bool StampIsCommitted(uint64_t stamp) {
  return (stamp & kUncommittedStampBit) == 0;
}
inline uint64_t StampTxn(uint64_t stamp) {
  return stamp & ~kUncommittedStampBit;
}

/// What a scan is allowed to see. Captured once per statement (at plan-node
/// Open) so every operator of one statement filters identically.
struct MvccReadView {
  Lsn snapshot = 0;      ///< highest commit LSN visible
  uint64_t own_txn = 0;  ///< in-flight txn whose provisional stamps are
                         ///< visible to this view (0 = none)
  bool read_latest = false;  ///< bypass MVCC: see the newest in-memory state
                             ///< (direct executor use)

  /// True if a version created with `stamp` exists for this view.
  bool CreatedVisible(uint64_t stamp) const {
    if (!StampIsCommitted(stamp)) {
      return own_txn != 0 && StampTxn(stamp) == own_txn;
    }
    return stamp <= snapshot;
  }
  /// True if a deletion stamped `stamp` has happened for this view.
  bool DeletedVisible(uint64_t stamp) const {
    if (stamp == 0) return false;
    if (!StampIsCommitted(stamp)) {
      return own_txn != 0 && StampTxn(stamp) == own_txn;
    }
    return stamp <= snapshot;
  }
};

/// Process-wide MVCC clock, commit point, and snapshot registry. One
/// instance serves every Database in the process (they already share the
/// metrics registry and resource tracker); the clock being merely monotonic
/// across databases is harmless.
class MvccEngine {
 public:
  static MvccEngine& Global();

  /// Highest commit LSN whose stamps are guaranteed published (acquire).
  Lsn visible_lsn() const { return visible_.load(std::memory_order_acquire); }

  /// Makes sure the next allocated commit LSN is > `lsn`. Called by the WAL
  /// for every record it stamps, so commit LSNs stay above record LSNs.
  void EnsureNextAbove(Lsn lsn);

  /// Recovery/bulk-load only (single-threaded): moves both the clock and
  /// the visible horizon to at least `lsn`, so stamps replayed from the WAL
  /// are immediately visible and future commits stay above them.
  void AdvanceVisibleTo(Lsn lsn);

  /// Fresh transaction id for provisional stamps (never 0).
  uint64_t AllocateTxnId() {
    return next_txn_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The commit point: allocates the next LSN, rewrites every stamp in
  /// `stamps` with it, then publishes it as visible. Serialized so visible
  /// never runs ahead of unpublished stamps.
  Lsn CommitStamps(const std::vector<std::atomic<uint64_t>*>& stamps);

  /// Registers a snapshot at the current visible LSN.
  Lsn AcquireSnapshot();
  void ReleaseSnapshot(Lsn snapshot);

  /// GC bound: no current or future snapshot can observe a state older
  /// than this. min(oldest active snapshot, visible LSN).
  Lsn GcBound() const;

  /// Limbo-free bound: a version unlinked at stamp V may be freed once
  /// every active snapshot is > V (see file comment). Returns the oldest
  /// active snapshot, or kLsnMax when none is active.
  Lsn ReclaimFloor() const;

  size_t ActiveSnapshots() const;

 private:
  MvccEngine() = default;

  mutable std::mutex commit_mu_;  ///< serializes CommitStamps
  Lsn next_ = 1;                  ///< next commit LSN (under commit_mu_)
  std::atomic<Lsn> visible_{0};

  mutable std::mutex snap_mu_;
  std::map<Lsn, size_t> active_;  ///< snapshot LSN -> refcount

  std::atomic<uint64_t> next_txn_{1};
};

/// RAII registration of one snapshot LSN with the engine.
class MvccSnapshot {
 public:
  MvccSnapshot() : lsn_(MvccEngine::Global().AcquireSnapshot()) {}
  ~MvccSnapshot() {
    if (held_) MvccEngine::Global().ReleaseSnapshot(lsn_);
  }
  MvccSnapshot(MvccSnapshot&& o) noexcept : lsn_(o.lsn_), held_(o.held_) {
    o.held_ = false;
    o.lsn_ = 0;
  }
  MvccSnapshot& operator=(MvccSnapshot&&) = delete;
  MvccSnapshot(const MvccSnapshot&) = delete;

  Lsn lsn() const { return lsn_; }

 private:
  Lsn lsn_;
  bool held_ = true;
};

/// Groups the row mutations issued on this thread into one atomic
/// visibility unit: every touched stamp stays provisional until Commit
/// rewrites them all with a single LSN. Nested scopes are no-ops (the
/// outermost owns the commit). The destructor commits if Commit was not
/// called explicitly — in-memory state intentionally keeps whatever a
/// failed operation left behind (matching WalTransaction's contract that
/// only *recovery* rolls uncommitted work back), so stamps must never stay
/// provisional past the scope that created them.
class MvccTransaction {
 public:
  MvccTransaction();
  ~MvccTransaction();
  MvccTransaction(const MvccTransaction&) = delete;
  MvccTransaction& operator=(const MvccTransaction&) = delete;

  /// Stamps the write set with one fresh LSN and publishes it. Idempotent;
  /// returns 0 on a nested (non-owning) scope or an empty write set.
  Lsn Commit();

  /// Transaction id active on this thread (0 = none).
  static uint64_t CurrentTxnId();

  /// Called by Table under its exclusive lock for every provisional stamp
  /// it writes on behalf of this transaction.
  static void RecordStamp(std::atomic<uint64_t>* stamp);

  /// Keeps an object (the table owning recorded stamps) alive until the
  /// transaction finishes, so commit never touches freed memory even if
  /// the table is dropped mid-transaction.
  static void Pin(std::shared_ptr<const void> keep_alive);

 private:
  bool owner_ = false;
  bool committed_ = false;
  uint64_t txn_id_ = 0;
  std::vector<std::atomic<uint64_t>*> stamps_;
  std::vector<std::shared_ptr<const void>> pins_;
};

/// Installs a read view as the thread's current one for the scope (set per
/// statement by Database; plan nodes capture it at Open).
class ScopedReadView {
 public:
  explicit ScopedReadView(MvccReadView view);
  ~ScopedReadView();
  ScopedReadView(const ScopedReadView&) = delete;
  ScopedReadView& operator=(const ScopedReadView&) = delete;

 private:
  MvccReadView view_;
  const MvccReadView* prev_;
};

/// The thread's current read view, or nullptr when none is installed.
const MvccReadView* CurrentReadView();

/// View scans should use right now: the installed one, or (outside any
/// Database statement — direct executor use, writer-side row access)
/// latest-state semantics.
MvccReadView EffectiveReadView();

/// WAL replay scope: while active, Table stamps mutations on this thread
/// directly with `lsn` as already-committed (and advances the visible
/// horizon), restoring the exact stamps a crashed process had published.
class ScopedApplyLsn {
 public:
  explicit ScopedApplyLsn(Lsn lsn);
  ~ScopedApplyLsn();
  ScopedApplyLsn(const ScopedApplyLsn&) = delete;
  ScopedApplyLsn& operator=(const ScopedApplyLsn&) = delete;

  /// The replay LSN active on this thread (0 = none).
  static Lsn Current();

 private:
  Lsn prev_;
};

}  // namespace xmlrdb::rdb

#endif  // XMLRDB_RDB_MVCC_H_
