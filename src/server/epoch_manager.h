// EpochManager: RCU-style publication of EpochSnapshots.
//
// The lifecycle of an epoch:
//
//   Publish(world)        — the updater wraps the new world in an
//        |                  EpochSnapshot (monotone id), swaps it in as
//        v                  current, and retires the previous one
//   current ──Acquire──>   readers pin the current snapshot (per-slot
//        |                  refcount + shared_ptr) and run queries
//        v                  against it; new readers always see the
//   retired                 newest epoch
//        |
//        v                 the sweep (run on every publish/release and
//   freed                   on demand) frees a retired snapshot once its
//                           pins read zero — never sooner, so readers
//                           mid-request keep a stable world
//
// Synchronization contract: Acquire and Publish serialize on one brief
// mutex (a pointer read + refcount bump; no traversal work happens under
// it). Pin release is lock-free. A retired snapshot can never gain new
// pins — Acquire only pins the current snapshot — so "pins == 0 under
// the mutex" is a stable condition and the sweep is race-free; tsan
// agrees (tests/server_test.cc hammers exactly this).
#ifndef NETCLUS_SERVER_EPOCH_MANAGER_H_
#define NETCLUS_SERVER_EPOCH_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "server/snapshot.h"

namespace netclus {

/// \brief Publishes immutable epochs to concurrent readers and frees
/// retired epochs once drained. All methods are thread-safe.
class EpochManager {
 public:
  /// `num_pin_slots` is the number of independent reader slots every
  /// published snapshot carries (one per worker thread; padded to a
  /// cache line each). Acquire reduces slot ids modulo this count, so
  /// any caller-supplied id is safe.
  explicit EpochManager(uint32_t num_pin_slots);
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// \brief RAII epoch pin: holds one reference in the worker's slot
  /// (plus shared ownership of the snapshot) for the scope of a request.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept
        : snap_(std::move(other.snap_)), slot_(other.slot_) {}
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        snap_ = std::move(other.snap_);
        slot_ = other.slot_;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    /// Null when acquired before the first Publish.
    const EpochSnapshot* snapshot() const { return snap_.get(); }
    explicit operator bool() const { return snap_ != nullptr; }

    void Release() {
      if (snap_ != nullptr) {
        snap_->ReleasePin(slot_);
        snap_.reset();
      }
    }

   private:
    friend class EpochManager;
    Pin(std::shared_ptr<const EpochSnapshot> snap, uint32_t slot)
        : snap_(std::move(snap)), slot_(slot) {}

    std::shared_ptr<const EpochSnapshot> snap_;
    uint32_t slot_ = 0;
  };

  /// Pins the current epoch into reader slot `slot % num_pin_slots()`
  /// (reduced, so any slot id is a valid argument).
  /// Returns an empty pin when nothing has been published yet.
  Pin Acquire(uint32_t slot) NETCLUS_EXCLUDES(mu_);

  /// Wraps the next world in a snapshot with the next monotone epoch id,
  /// makes it current, retires the predecessor, and sweeps. Returns the
  /// new epoch id (first publish returns 1). `cache` becomes the
  /// snapshot's distance cache (null = no memoization); since cache keys
  /// are ObjectId pairs the publisher may pass the previous epoch's
  /// cache when the metric is unchanged, and must pass a fresh one
  /// otherwise. `ids` is the epoch's ObjectId <-> dense-PointId map
  /// (null = identity).
  uint64_t Publish(std::shared_ptr<const FrozenGraph> graph,
                   std::shared_ptr<const PointSet> points,
                   std::shared_ptr<const ClusterOutput> clusters,
                   std::shared_ptr<const DistanceCache> cache = nullptr,
                   std::shared_ptr<const IdentityMap> ids = nullptr)
      NETCLUS_EXCLUDES(mu_);

  /// Frees every retired snapshot whose pins read zero. Runs implicitly
  /// on each Publish; exposed so callers can reclaim promptly after the
  /// last reader of an old epoch finishes.
  void SweepRetired() NETCLUS_EXCLUDES(mu_);

  /// Shared handle to the current snapshot (null before first Publish).
  /// Unlike Acquire, holds no pin slot: suitable for inspection, not for
  /// gating the sweep.
  std::shared_ptr<const EpochSnapshot> CurrentShared() const
      NETCLUS_EXCLUDES(mu_);

  /// Current epoch id; 0 before the first Publish.
  uint64_t current_epoch() const NETCLUS_EXCLUDES(mu_);
  uint64_t epochs_published() const {
    return published_.load(std::memory_order_acquire);
  }
  /// Retired snapshots actually destroyed (the test-visible free signal).
  uint64_t epochs_drained() const {
    return freed_->load(std::memory_order_acquire);
  }
  /// Retired snapshots still awaiting their last reader.
  size_t retired_count() const NETCLUS_EXCLUDES(mu_);

  uint32_t num_pin_slots() const { return num_pin_slots_; }

 private:
  void SweepRetiredLocked() NETCLUS_REQUIRES(mu_);

  const uint32_t num_pin_slots_;
  // Rank kEpochManager: above the serving queues (a worker has
  // released queue_mu_ before it pins an epoch) and below the worker
  // resource locks; the sweep destroys snapshots under this mutex, so
  // snapshot teardown must stay lock-free. Rationale: DESIGN.md §14.
  mutable Mutex mu_{lock_rank::kEpochManager, "EpochManager::mu_"};
  std::shared_ptr<const EpochSnapshot> current_ NETCLUS_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<const EpochSnapshot>> retired_
      NETCLUS_GUARDED_BY(mu_);
  std::atomic<uint64_t> published_{0};
  /// Shared with every snapshot so destruction after the manager dies
  /// still has somewhere to record itself.
  std::shared_ptr<std::atomic<uint64_t>> freed_;
};

}  // namespace netclus

#endif  // NETCLUS_SERVER_EPOCH_MANAGER_H_
