#ifndef DBPH_SERVER_DURABLE_STORE_H_
#define DBPH_SERVER_DURABLE_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "obs/metrics.h"
#include "protocol/messages.h"
#include "storage/wal.h"

namespace dbph {
namespace server {

class UntrustedServer;

struct DurableStoreOptions {
  /// fsync policy for WAL appends (see storage::WalSyncMode). kAlways:
  /// an acknowledged mutation survives any crash. kBatch: group commit —
  /// mutations are acknowledged before fsync and become durable at the
  /// next sync tick, kFlush, or checkpoint; a crash may lose the
  /// unsynced suffix but never corrupts the recoverable prefix.
  storage::WalSyncMode sync_mode = storage::WalSyncMode::kAlways;
  /// The background thread checkpoints once the WAL exceeds this many
  /// bytes. 0 = size never triggers a checkpoint.
  size_t checkpoint_wal_bytes = 8 * 1024 * 1024;
  /// The background thread also checkpoints at this cadence when the WAL
  /// is non-empty. 0 = time never triggers a checkpoint.
  int checkpoint_interval_ms = 0;
  /// Group-commit cadence for kBatch mode (and the background thread's
  /// wake period). Must be > 0 when the background thread runs.
  int sync_interval_ms = 50;
  /// Start the background checkpointer/group-commit thread in Open().
  /// Tests drive Checkpoint()/Flush() by hand with this off.
  bool background_thread = true;
};

/// \brief Continuous durability for an UntrustedServer: write-ahead log +
/// atomic snapshot checkpoints in one directory.
///
///   <dir>/snapshot.dbph   checkpoint header + SerializeState image
///   <dir>/wal.log         CRC-guarded mutation log since that snapshot
///
/// Every mutating envelope (kStoreRelation / kDropRelation /
/// kAppendTuples / kDeleteWhere / kAttestRoot — arriving alone or inside
/// a batch) is
/// appended to the WAL *before* the server applies it, via the server's
/// mutation hook, which runs inside the single-writer dispatch lock — so
/// log order always equals apply order, whatever raced on the wire.
/// Replay re-dispatches the logged envelopes through HandleRequest:
/// every handler is deterministic, so recovery rebuilds byte-identical
/// state (documents, chunk layout and row ids included, row ids
/// renumbered from the image).
///
/// Records carry LSNs and the snapshot header stores the last LSN it
/// covers; replay skips records at or below it. That closes the crash
/// window between snapshot rename and WAL trim — a stale log replayed
/// over a fresh snapshot double-applies nothing.
///
/// Checkpoints run under the server's dispatch lock (a quiescent state,
/// no request half-applied): serialize state, write the snapshot
/// atomically (temp + fsync + rename), then reset the WAL.
///
/// Leakage: see README "Durability" — the log is ciphertext +
/// trapdoors, i.e. exactly Eve's per-mutation view, now on disk.
class DurableStore {
 public:
  /// `server` must outlive this object. Nothing touches disk until
  /// Open().
  DurableStore(UntrustedServer* server, std::string dir,
               DurableStoreOptions options = {});

  /// Destroying without Close() is crash-equivalent: hooks are removed
  /// and file descriptors close, but no final checkpoint or sync runs.
  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Recovery + go-live: creates the directory if needed, loads the
  /// snapshot (if any), replays the WAL's valid suffix (truncating a
  /// torn tail), installs the durability hooks on the server, and starts
  /// the background thread (per options). The server must be otherwise
  /// idle until Open returns.
  Status Open();

  /// Graceful shutdown: stops the background thread, takes a final
  /// checkpoint (leaving an empty WAL), uninstalls the hooks. Idempotent.
  Status Close();

  /// Forces a durability point: fsync the WAL. The kFlush handler.
  Status Flush();

  /// Atomic snapshot of the current state + WAL trim, serialized with
  /// request dispatch. Safe to call concurrently with traffic.
  Status Checkpoint();

  std::string snapshot_path() const { return dir_ + "/snapshot.dbph"; }
  std::string wal_path() const { return dir_ + "/wal.log"; }

  struct Stats {
    uint64_t wal_records = 0;      ///< records appended since Open
    uint64_t wal_bytes = 0;        ///< current WAL file size
    uint64_t checkpoints = 0;      ///< checkpoints taken since Open
    uint64_t group_syncs = 0;      ///< background fsyncs (kBatch mode)
    uint64_t replayed_records = 0; ///< records replayed by Open
    bool recovered_torn_tail = false;  ///< Open dropped a torn tail
  };
  Stats stats() const;

 private:
  /// The mutation hook body: assign an LSN, frame, append, maybe fsync.
  /// Runs under the server's dispatch lock.
  Status AppendMutation(const protocol::Envelope& envelope);
  /// Checkpoint body; caller holds the dispatch lock.
  Status CheckpointLocked();
  void BackgroundLoop();

  UntrustedServer* server_;
  std::string dir_;
  DurableStoreOptions options_;

  /// Durability instruments, registered in Open() against the server's
  /// registry (owned there). Clock reads gate on the server's
  /// enable_metrics, same as the dispatch path.
  struct WalInstruments {
    obs::Histogram* fsync_latency = nullptr;       ///< dbph_wal_fsync_seconds
    obs::Histogram* checkpoint_latency = nullptr;  ///< dbph_checkpoint_seconds
    obs::Histogram* group_batch = nullptr;  ///< dbph_wal_group_commit_batch_size
    obs::Counter* appends = nullptr;        ///< dbph_wal_append_records_total
    obs::Counter* checkpoints = nullptr;    ///< dbph_checkpoints_total
    obs::Counter* group_syncs = nullptr;    ///< dbph_wal_group_syncs_total
    obs::Counter* replayed = nullptr;       ///< dbph_wal_replayed_records_total
    obs::Gauge* wal_bytes = nullptr;        ///< dbph_wal_bytes
  };
  WalInstruments ins_;
  /// Appends since the last group-commit fsync; under wal_mutex_.
  uint64_t group_pending_records_ = 0;

  /// Guards wal_ and next_lsn_ against the background thread; acquired
  /// after the dispatch lock where both are held.
  mutable std::mutex wal_mutex_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  /// LSN the next mutation gets; LSNs ≤ next_lsn_ - 1 are applied.
  uint64_t next_lsn_ = 1;
  bool open_ = false;

  std::thread background_;
  std::mutex background_mutex_;
  std::condition_variable background_cv_;
  bool stop_background_ = false;

  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> group_syncs_{0};
  std::atomic<uint64_t> replayed_records_{0};
  std::atomic<bool> recovered_torn_tail_{false};
};

}  // namespace server
}  // namespace dbph

#endif  // DBPH_SERVER_DURABLE_STORE_H_
