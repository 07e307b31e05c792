// Pooled, refcounted float storage for tensors.
//
// Storage is the buffer behind every TensorImpl's data and grad (and the
// per-op float workspaces that are not thread-local scratch). Buffers come
// from StoragePool, a process-wide caching allocator that recycles
// same-bucket blocks across iterations: after one warm-up step, a training
// epoch or a predict_levels call acquires every tensor buffer from a free
// list instead of the heap. See DESIGN.md "Threading and memory model".
//
//  * Refcounted handle. Copying a Storage shares the underlying block
//    (atomic refcount); the block returns to the pool when the last handle
//    drops. Tensor code deep-copies (copy_from) wherever value semantics are
//    required — sharing is reserved for read-only captures such as the
//    saved mean/inv_std of a normalisation op.
//  * Size-bucketed. Requests round up to the next power of two (min 32
//    floats), so buffers recycle across ops whose shapes differ slightly.
//    Requests past the largest bucket fall through to exact heap blocks.
//  * Thread-aware. Each thread front-ends the pool with a small lock-free
//    (thread-local) cache, so parallel_for bodies allocate without touching
//    the shared mutex in the steady state; overflow spills to a global,
//    mutex-protected free list. Blocks may be freed on a different thread
//    than they were acquired on.
//  * Observable. hits/misses/releases plus live and cached high-water marks
//    let tests pin the no-leak bound and the steady-state heap-allocation
//    bound (test_storage_pool.cpp, PoolSteadyState).
//  * Escape hatch. MFA_POOL=off (or 0/false) bypasses the free lists: every
//    acquisition is an exact heap allocation and every release frees it, so
//    ASan sees raw allocations with full poisoning/quarantine. Numerics are
//    bit-identical pool on or off: every acquisition is filled before use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sanitize.h"

namespace mfa::tensor {

namespace detail {
struct Block;  // defined in storage.cpp; handles cache the payload pointer
}  // namespace detail

/// Counter snapshot from StoragePool::stats(). Counts are cumulative since
/// process start (or reset_stats()); gauges reflect the instant of the call.
struct PoolStats {
  std::uint64_t hits = 0;      // acquisitions served from a free list
  std::uint64_t misses = 0;    // acquisitions that went to the heap
  std::uint64_t releases = 0;  // blocks parked on a free list for reuse
  std::uint64_t heap_frees = 0;  // blocks returned to the heap (bypass/trim)
  std::int64_t live_floats = 0;  // floats in blocks currently referenced
  std::int64_t live_floats_high_water = 0;
  std::int64_t cached_floats = 0;  // floats parked on free lists
  std::int64_t cached_floats_high_water = 0;
};

/// Refcounted handle to a pooled float buffer. Vector-like surface so tensor
/// kernels can use it exactly as they used std::vector<float>.
class Storage {
 public:
  Storage() = default;
  Storage(const Storage& other);
  Storage(Storage&& other) noexcept;
  Storage& operator=(const Storage& other);
  Storage& operator=(Storage&& other) noexcept;
  ~Storage();

  /// Pool-backed buffer of n floats, every element set to `value`.
  static Storage full(std::int64_t n, float value);

  /// std::vector::assign semantics: afterwards size() == n and every element
  /// equals `value`. Reuses the current block when it is exclusively owned
  /// and already the right size; otherwise swaps in a fresh pooled block.
  void assign(std::int64_t n, float value);
  /// Deep copy (resizes to match src).
  void copy_from(const Storage& src);
  void copy_from(const float* src, std::int64_t n);
  /// Sets every element to `value`. The one float fill behind assign() and
  /// full(): +0.0f is a memset, any other value (-0.0f included) std::fill.
  void fill(float value);
  std::vector<float> to_vector() const;
  /// Drops this handle's reference; the block returns to the pool once the
  /// last handle lets go. Afterwards empty().
  void reset();

  float* data() {
    check_alive();
    return data_;
  }
  const float* data() const {
    check_alive();
    return data_;
  }
  std::size_t size() const { return static_cast<std::size_t>(size_); }
  bool empty() const { return size_ == 0; }
  // operator[] stays uninstrumented: per-element granularity is too hot even
  // for a Debug diagnostic; begin()/end()/data() cover every loop entry.
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }
  float* begin() {
    check_alive();
    return data_;
  }
  float* end() { return data_ + size_; }
  const float* begin() const {
    check_alive();
    return data_;
  }
  const float* end() const { return data_ + size_; }

  /// True when other handles reference the same block.
  bool shared() const;

  /// On-demand sanitizer check (no-op when mfa::sanitize is off): verifies
  /// this handle is still backed by the block generation it acquired, and
  /// that the block's guard zones are intact. Throws check::CheckError on a
  /// violation.
  void verify_guards() const;

  // ---- mfa::sanitize self-test hooks (Debug builds only) ----------------
  // Manufacture the lifetime / double-release defect classes without UB:
  // sanitize_corrupt_release() drops the block's refcount as if this handle
  // had been destroyed while leaving the handle's pointers in place (the
  // block recycles into the pool's free lists, so the memory itself stays
  // valid — exactly the hazard ASan cannot see). sanitize_abandon() then
  // clears the handle WITHOUT releasing, so scope exit stays balanced.
  void sanitize_corrupt_release();
  void sanitize_abandon();

 private:
  /// Replaces the current block with a fresh (uninitialised) one of n floats.
  void acquire_new(std::int64_t n);

  /// Lifetime check: the handle's stamped generation must match the block's
  /// current one (it diverges when the block is released/recycled under a
  /// live handle). One relaxed load + branch when the checker is off.
  void check_alive() const {
#if MFA_SANITIZE_STORAGE_ON
    if (block_ && ::mfa::sanitize::enabled()) check_alive_slow();
#endif
  }
#if MFA_SANITIZE_STORAGE_ON
  void check_alive_slow() const;  // needs detail::Block (storage.cpp)
#endif

  detail::Block* block_ = nullptr;
  float* data_ = nullptr;
  std::int64_t size_ = 0;
#if MFA_SANITIZE_STORAGE_ON
  // Block generation stamped at acquire; maintained even while the runtime
  // switch is off so enabling mid-process never yields false positives.
  std::uint64_t gen_ = 0;
#endif
};

/// Process-wide caching allocator behind Storage (leaky singleton: safe to
/// use from thread-exit destructors of the worker pool).
class StoragePool {
 public:
  static StoragePool& instance();

  /// False when MFA_POOL=off (or set_enabled(false)): acquisitions bypass
  /// the free lists and releases free immediately.
  bool enabled() const;
  /// Test hook; the initial value comes from MFA_POOL. Blocks carry their
  /// origin, so toggling with buffers outstanding is safe.
  void set_enabled(bool on);

  PoolStats stats() const;
  /// Zeroes the cumulative counters and re-bases the high-water marks on the
  /// current gauges.
  void reset_stats();
  /// Frees every block cached globally and in the calling thread's cache
  /// (other threads' caches drain on their exit). Live blocks are untouched.
  void trim();

  /// mfa::sanitize on-demand sweep (no-op when the checker is off): verifies
  /// the guard zones of every block parked in the calling thread's cache and
  /// in the global free lists. Catches writes through stale pointers into
  /// recycled blocks even when no op happens to reacquire them.
  void verify_cached_guards();

  /// mfa::sanitize leak audit: reports a "leak" violation when the pool's
  /// current live float count exceeds `baseline_live_floats` (as captured
  /// from stats().live_floats before the audited scope). `what` names the
  /// scope in the violation message. No-op when the checker is off.
  void audit_leaks(std::int64_t baseline_live_floats, const char* what);

 private:
  friend class Storage;
  StoragePool();
  detail::Block* acquire(std::int64_t n);
  void release(detail::Block* block);
  void recycle(detail::Block* block);  // refcount already zero

  struct Impl;
  Impl* impl_;
};

}  // namespace mfa::tensor
