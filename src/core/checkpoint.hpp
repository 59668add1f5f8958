// core/checkpoint.hpp — transactional checkpoint/restart on PMem/CXL.
//
// The HPC use-case the paper leads with (§1.2): applications periodically
// persist diagnostics / solver state so a failed job restarts from the last
// epoch instead of from zero.  CheckpointStore implements the standard
// double-buffer discipline on a pmemkit pool, with a chunked incremental
// engine on top:
//
//   * two payload slots; saves go to the inactive one;
//   * each slot carries a per-chunk checksum table (fixed chunk size,
//     default 256 KiB); save() fingerprints the new payload chunk by chunk
//     and rewrites only the chunks that changed since that slot was last
//     sealed — most solver state is identical between adjacent epochs, so
//     an incremental save moves a fraction of the bytes a full save does;
//   * chunk copy+persist fans out over a numakit::ThreadPool when the
//     store was configured with threads (the facade binds the pool to the
//     namespace's NUMA placement) — Wahlgren et al. show a single stream
//     cannot saturate CXL bandwidth;
//   * the payload is written and persisted FIRST, then one small
//     transaction seals the slot: checksums, {active slot, size, epoch}
//     and the slot-valid flag flip atomically;
//   * a crash at any instant leaves either epoch k or epoch k+1 — never a
//     torn checkpoint (CrashSimulator-verified in the tests).  A slot is
//     durably marked invalid before any of its bytes are overwritten, so a
//     save that dies mid-copy can never poison a later incremental diff.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dax.hpp"
#include "numakit/threadpool.hpp"

namespace cxlpmem::core {

/// Default incremental-save chunk: one pmemkit heap chunk's worth of
/// payload, small enough that a handful of dirty pages stays a handful of
/// chunks, large enough that the checksum table stays tiny.
inline constexpr std::uint64_t kDefaultCheckpointChunk = 256 * 1024;

/// Engine knobs, fixed per store.  `chunk_size` is rounded to a 4 KiB
/// multiple and pinned into the pool at creation (reopens use the on-media
/// value, so a store and its pool never disagree about chunk framing).
/// `threads <= 1` keeps saves on the calling thread; larger values fan the
/// chunk copy out over a lazily-built ThreadPool whose workers are labelled
/// with `affinity` (the facade passes the cores of the namespace's NUMA
/// node; empty = thread index as core id).
struct CheckpointOptions {
  std::uint64_t chunk_size = kDefaultCheckpointChunk;
  int threads = 1;
  std::vector<simkit::CoreId> affinity;
};

/// How save() treats the previous epoch's chunk fingerprints.
enum class SaveMode {
  Incremental,  ///< rewrite only chunks whose checksum changed (default)
  Full,         ///< rewrite every chunk (baseline / paranoia mode)
};

/// What one save() actually did — the observability the bench and the
/// incremental tests key on.
struct SaveStats {
  std::uint64_t chunks_total = 0;    ///< chunks the payload spans
  std::uint64_t chunks_written = 0;  ///< chunks copied + persisted
  std::uint64_t bytes_written = 0;   ///< payload bytes actually copied
  bool full_rewrite = false;  ///< no trusted fingerprints (or SaveMode::Full)
  int threads_used = 1;       ///< workers the copy fanned out over
};

class CheckpointStore {
 public:
  /// Opens (or creates) pool `file` in `ns`, sized to hold two payloads of
  /// up to `max_payload_bytes`.  `allow_volatile` forwards to the namespace
  /// persistence check; `pool_options` can attach the PmemSan model for
  /// crash testing; `options` sets the incremental-engine knobs.
  CheckpointStore(DaxNamespace& ns, const std::string& file,
                  std::uint64_t max_payload_bytes,
                  bool allow_volatile = false,
                  pmemkit::PoolOptions pool_options = pmemkit::PoolOptions(),
                  CheckpointOptions options = CheckpointOptions());

  /// Atomically replaces the checkpoint.  Throws on payloads larger than
  /// max_payload_bytes.  Incremental by default; SaveMode::Full forces a
  /// complete rewrite.  Returns what the save moved.
  SaveStats save(std::span<const std::byte> payload,
                 SaveMode mode = SaveMode::Incremental);

  /// The latest checkpoint payload; empty when none was ever saved.
  /// Heap-allocates a fresh copy — restart loops that already own a buffer
  /// should use load_into().
  [[nodiscard]] std::vector<std::byte> load() const;

  /// Copies the latest payload into `dst` without allocating; returns the
  /// number of bytes written (0 when nothing was ever saved).  Throws
  /// PoolError(CapacityExceeded) when `dst` is smaller than the payload —
  /// size the buffer with payload_bytes() or max_payload_bytes().
  std::uint64_t load_into(std::span<std::byte> dst) const;

  /// Size of the latest payload (0 when nothing was ever saved).
  [[nodiscard]] std::uint64_t payload_bytes() const;

  /// Monotonic save counter (0 = nothing saved yet).
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] bool has_checkpoint() const { return epoch() > 0; }
  [[nodiscard]] std::uint64_t max_payload_bytes() const noexcept {
    return max_payload_;
  }

  /// Effective chunk size (requested value rounded/pinned at creation; on
  /// reopen, the on-media value).
  [[nodiscard]] std::uint64_t chunk_size() const noexcept {
    return chunk_size_;
  }

  /// Stats of the most recent save() on this handle (zeroes before one).
  [[nodiscard]] const SaveStats& last_save() const noexcept {
    return last_save_;
  }

  /// True when the pool needed recovery at open (i.e. the writer crashed).
  [[nodiscard]] bool recovered() const { return pool_->recovered(); }

  /// Underlying pool (crash-test harness access).
  [[nodiscard]] pmemkit::ObjectPool& pool() noexcept { return *pool_; }

 private:
  // On-media root (layout "cxlpmem-checkpoint2").  `table[s]` holds one
  // uint64 fingerprint64 fingerprint per chunk of slot s; `valid[s]` is 1
  // only between a seal of slot s and the next save that targets it —
  // while 0, the fingerprints are untrusted and the next save rewrites
  // everything.
  struct Root {
    pmemkit::ObjId slot[2];   ///< chunk data (null until first non-empty save)
    pmemkit::ObjId table[2];  ///< per-chunk checksum tables (fixed capacity)
    std::uint64_t size[2];
    std::uint32_t valid[2];
    std::uint64_t epoch;
    std::uint32_t active;
    std::uint32_t reserved;
    std::uint64_t chunk_size;      ///< pinned at creation
    std::uint64_t table_capacity;  ///< chunks per table, pinned at creation
  };

  [[nodiscard]] Root* root() const;
  void init_tables();
  SaveStats save_empty(Root* r, std::uint32_t target);
  /// Copies dirty chunks of `payload` into the target slot, filling
  /// `sums[i]` with every chunk's fresh fingerprint and `dirty[i]` with
  /// whether chunk i was rewritten.  Runs on the calling thread or the
  /// worker pool.
  void copy_chunks(std::byte* dst, std::span<const std::byte> payload,
                   const std::uint64_t* old_sums, bool trusted,
                   std::uint64_t nchunks, std::vector<std::uint64_t>& sums,
                   std::vector<std::uint8_t>& dirty, SaveStats& stats);
  [[nodiscard]] numakit::ThreadPool* worker_pool();

  static constexpr const char* kLayout = "cxlpmem-checkpoint2";
  static constexpr std::uint32_t kPayloadType = 0x4350;  // 'CP'
  static constexpr std::uint32_t kTableType = 0x4354;    // 'CT'

  std::unique_ptr<pmemkit::ObjectPool> pool_;
  std::uint64_t max_payload_;
  std::uint64_t chunk_size_ = kDefaultCheckpointChunk;
  std::uint64_t table_capacity_ = 1;
  CheckpointOptions options_;
  std::unique_ptr<numakit::ThreadPool> workers_;  ///< lazily built
  SaveStats last_save_;
};

}  // namespace cxlpmem::core
