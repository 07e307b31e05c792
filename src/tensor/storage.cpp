#include "tensor/storage.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/env.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/sanitize.h"

namespace mfa::tensor {

namespace detail {

// Header placed immediately before the float payload. alignas(64) pads the
// header to one cache line, so the payload is 64-byte aligned and the hot
// refcount never false-shares with payload data.
//
// With mfa::sanitize compiled in (Debug), the header additionally carries a
// generation counter (bumped every time the block leaves the live state, so
// stale handles are detected exactly) and a flag recording whether guard
// zones were laid out around the payload when the block was heap-allocated.
// The extra fields still fit the 64-byte line, so layout-sensitive tests and
// the "payload is 64-byte aligned" property are unchanged.
struct alignas(64) Block {
  std::atomic<std::uint32_t> refs;
  std::int32_t bucket;     // free-list index, or -1 for exact heap blocks
  std::int64_t capacity;   // floats in the payload (guard zones excluded)
  Block* next;             // free-list link while cached
#if MFA_SANITIZE_STORAGE_ON
  std::atomic<std::uint64_t> generation;  // bumped on every recycle
  std::uint32_t redzoned;  // 1 when guard zones bracket the payload
#endif
};
static_assert(sizeof(Block) == 64, "payload must stay 64-byte aligned");

#if MFA_SANITIZE_STORAGE_ON
// Guard zone: 64 bytes (16 floats) on each side of the payload, so the
// payload keeps its 64-byte alignment. Filled with a byte pattern and
// verified bytewise — any float-typed overrun store changes it.
constexpr std::int64_t kRedzoneFloats = 16;
constexpr unsigned char kRedzoneByte = 0xA5;

inline float* payload(Block* b) {
  return reinterpret_cast<float*>(b + 1) + (b->redzoned ? kRedzoneFloats : 0);
}
#else
inline float* payload(Block* b) { return reinterpret_cast<float*>(b + 1); }
#endif

}  // namespace detail

namespace {

using detail::Block;

// Buckets are powers of two: bucket b holds blocks of exactly 2^b floats,
// b in [kMinBucket, kMaxBucket]. Anything larger is an exact heap block.
constexpr int kMinBucket = 5;   // 32 floats
constexpr int kMaxBucket = 30;  // 2^30 floats (4 GiB)
constexpr int kNumBuckets = kMaxBucket + 1;

// Per-thread cache caps: a few blocks per bucket and a total byte budget,
// so one thread cannot strand an unbounded amount of memory.
constexpr int kThreadCacheBlocksPerBucket = 4;
constexpr std::int64_t kThreadCacheMaxFloats = std::int64_t{8} << 20;  // 32 MiB

int bucket_for(std::int64_t n) {
  if (n > (std::int64_t{1} << kMaxBucket)) return -1;
  int b = kMinBucket;
  while ((std::int64_t{1} << b) < n) ++b;
  return b;
}

#if MFA_SANITIZE_STORAGE_ON

void write_redzones(Block* b) {
  if (!b->redzoned) return;
  float* pay = detail::payload(b);
  std::memset(pay - detail::kRedzoneFloats, detail::kRedzoneByte,
              detail::kRedzoneFloats * sizeof(float));
  std::memset(pay + b->capacity, detail::kRedzoneByte,
              detail::kRedzoneFloats * sizeof(float));
}

/// Verifies both guard zones; on a stomped byte reports a redzone violation
/// naming the zone, the offset, and the op context, then repaints the zone
/// so count-only mode reports each corruption once. `allow_throw` is false
/// on paths reachable from (noexcept) destructors.
void verify_redzones(Block* b, const char* when, bool allow_throw) {
  if (!b->redzoned || !sanitize::enabled()) return;
  sanitize::detail::add_redzone_checks(1);
  // Self-test hook: pretend guard byte 0 of the trailing zone was stomped.
  // Proves the detection/report path end to end without real corruption.
  if (MFA_FAULT_POINT("sanitize.redzone_corrupt")) {
    std::ostringstream oss;
    oss << "sanitize[redzone]: guard byte 0 after a pooled block of "
        << b->capacity << " floats was overwritten (detected at " << when
        << ") — fault-injected self-test";
    sanitize::report_violation(sanitize::Defect::kRedzone, oss.str(),
                               allow_throw);
    return;
  }
  const float* pay = detail::payload(b);
  const auto* lo = reinterpret_cast<const unsigned char*>(
      pay - detail::kRedzoneFloats);
  const auto* hi = reinterpret_cast<const unsigned char*>(pay + b->capacity);
  const std::size_t zone = detail::kRedzoneFloats * sizeof(float);
  for (std::size_t i = 0; i < zone; ++i) {
    const bool lo_bad = lo[i] != detail::kRedzoneByte;
    if (!lo_bad && hi[i] == detail::kRedzoneByte) continue;
    std::ostringstream oss;
    oss << "sanitize[redzone]: guard byte " << i << " "
        << (lo_bad ? "before" : "after") << " a pooled block of "
        << b->capacity << " floats was overwritten (detected at " << when
        << ") — a kernel wrote " << (lo_bad ? "before float 0" : "past the end")
        << " of the buffer";
    write_redzones(b);  // repaint: one report per corruption, not per check
    sanitize::report_violation(sanitize::Defect::kRedzone, oss.str(),
                               allow_throw);
    return;
  }
}

#endif  // MFA_SANITIZE_STORAGE_ON

Block* heap_block(std::int64_t capacity, int bucket) {
  std::size_t bytes =
      sizeof(Block) + static_cast<std::size_t>(capacity) * sizeof(float);
#if MFA_SANITIZE_STORAGE_ON
  // Guard zones are laid out only when the checker is live at allocation
  // time; the flag travels with the block so runtime toggling stays safe.
  const bool redzoned = sanitize::enabled();
  if (redzoned)
    bytes += 2 * detail::kRedzoneFloats * sizeof(float);
#endif
  void* mem = ::operator new(bytes, std::align_val_t{alignof(Block)});
  auto* b = new (mem) Block;
  b->refs.store(1, std::memory_order_relaxed);
  b->bucket = bucket;
  b->capacity = capacity;
  b->next = nullptr;
#if MFA_SANITIZE_STORAGE_ON
  b->generation.store(1, std::memory_order_relaxed);
  b->redzoned = redzoned ? 1u : 0u;
  write_redzones(b);
#endif
  return b;
}

void heap_free(Block* b) {
  b->~Block();
  ::operator delete(b, std::align_val_t{alignof(Block)});
}

}  // namespace

struct StoragePool::Impl {
  std::atomic<bool> enabled{true};

  // Cumulative counters (relaxed: they are statistics, not synchronisation).
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> releases{0};
  std::atomic<std::uint64_t> heap_frees{0};
  std::atomic<std::int64_t> live_floats{0};
  std::atomic<std::int64_t> live_high_water{0};
  std::atomic<std::int64_t> cached_floats{0};
  std::atomic<std::int64_t> cached_high_water{0};

  // Global free lists; overflow target of the thread caches.
  std::mutex mutex;
  Block* free_list[kNumBuckets] = {};

  // Thread-local front-end cache. The destructor drains into the global
  // lists, so worker threads that exit hand their blocks back.
  struct ThreadCache {
    Block* head[kNumBuckets] = {};
    int count[kNumBuckets] = {};
    std::int64_t floats = 0;
    ~ThreadCache() {
      auto& impl = *StoragePool::instance().impl_;
      std::lock_guard<std::mutex> lock(impl.mutex);
      for (int b = 0; b < kNumBuckets; ++b) {
        while (head[b]) {
          Block* blk = head[b];
          head[b] = blk->next;
          blk->next = impl.free_list[b];
          impl.free_list[b] = blk;
        }
      }
    }
  };

  static ThreadCache& cache() {
    thread_local ThreadCache tc;
    return tc;
  }

  static void raise_high_water(std::atomic<std::int64_t>& mark,
                               std::int64_t value) {
    std::int64_t seen = mark.load(std::memory_order_relaxed);
    while (value > seen &&
           !mark.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  void note_acquired(std::int64_t capacity) {
    const auto live =
        live_floats.fetch_add(capacity, std::memory_order_relaxed) + capacity;
    raise_high_water(live_high_water, live);
  }

  void note_cached(std::int64_t capacity) {
    const auto cached =
        cached_floats.fetch_add(capacity, std::memory_order_relaxed) +
        capacity;
    raise_high_water(cached_high_water, cached);
  }
};

StoragePool::StoragePool() : impl_(new Impl) {
  impl_->enabled.store(env::flag("MFA_POOL", true), std::memory_order_relaxed);
  // Adopt the pool's existing counters into the metrics registry so
  // metrics_json() snapshots include allocator behaviour without adding a
  // second bump to the acquire/release hot path. `this` is the leaked
  // instance() singleton, so the callback never dangles.
  obs::Registry::instance().register_source("storage_pool", [this] {
    const PoolStats s = stats();
    return std::vector<std::pair<std::string, double>>{
        {"hits", static_cast<double>(s.hits)},
        {"misses", static_cast<double>(s.misses)},
        {"releases", static_cast<double>(s.releases)},
        {"heap_frees", static_cast<double>(s.heap_frees)},
        {"live_floats", static_cast<double>(s.live_floats)},
        {"live_floats_high_water",
         static_cast<double>(s.live_floats_high_water)},
        {"cached_floats", static_cast<double>(s.cached_floats)},
        {"cached_floats_high_water",
         static_cast<double>(s.cached_floats_high_water)},
    };
  });
}

StoragePool& StoragePool::instance() {
  // Leaky on purpose: thread caches drain into the pool from thread-exit
  // destructors, which may run after static destruction would have killed a
  // normal singleton.
  static StoragePool* pool = new StoragePool;
  return *pool;
}

bool StoragePool::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void StoragePool::set_enabled(bool on) {
  impl_->enabled.store(on, std::memory_order_relaxed);
}

PoolStats StoragePool::stats() const {
  PoolStats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.releases = impl_->releases.load(std::memory_order_relaxed);
  s.heap_frees = impl_->heap_frees.load(std::memory_order_relaxed);
  s.live_floats = impl_->live_floats.load(std::memory_order_relaxed);
  s.live_floats_high_water =
      impl_->live_high_water.load(std::memory_order_relaxed);
  s.cached_floats = impl_->cached_floats.load(std::memory_order_relaxed);
  s.cached_floats_high_water =
      impl_->cached_high_water.load(std::memory_order_relaxed);
  return s;
}

void StoragePool::reset_stats() {
  impl_->hits.store(0, std::memory_order_relaxed);
  impl_->misses.store(0, std::memory_order_relaxed);
  impl_->releases.store(0, std::memory_order_relaxed);
  impl_->heap_frees.store(0, std::memory_order_relaxed);
  impl_->live_high_water.store(
      impl_->live_floats.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  impl_->cached_high_water.store(
      impl_->cached_floats.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

void StoragePool::trim() {
  auto& tc = Impl::cache();
  for (int b = 0; b < kNumBuckets; ++b) {
    while (tc.head[b]) {
      Block* blk = tc.head[b];
      tc.head[b] = blk->next;
      tc.count[b] = 0;
      tc.floats -= blk->capacity;
      impl_->cached_floats.fetch_sub(blk->capacity,
                                     std::memory_order_relaxed);
      impl_->heap_frees.fetch_add(1, std::memory_order_relaxed);
      heap_free(blk);
    }
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (int b = 0; b < kNumBuckets; ++b) {
    while (impl_->free_list[b]) {
      Block* blk = impl_->free_list[b];
      impl_->free_list[b] = blk->next;
      impl_->cached_floats.fetch_sub(blk->capacity,
                                     std::memory_order_relaxed);
      impl_->heap_frees.fetch_add(1, std::memory_order_relaxed);
      heap_free(blk);
    }
  }
}

void StoragePool::verify_cached_guards() {
#if MFA_SANITIZE_STORAGE_ON
  if (!sanitize::enabled()) return;
  auto& tc = Impl::cache();
  for (int b = 0; b < kNumBuckets; ++b)
    for (Block* blk = tc.head[b]; blk; blk = blk->next)
      verify_redzones(blk, "cached-block sweep (thread cache)", true);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (int b = 0; b < kNumBuckets; ++b)
    for (Block* blk = impl_->free_list[b]; blk; blk = blk->next)
      verify_redzones(blk, "cached-block sweep (global free list)", true);
#endif
}

void StoragePool::audit_leaks(std::int64_t baseline_live_floats,
                              const char* what) {
#if MFA_SANITIZE_STORAGE_ON
  if (!sanitize::enabled()) return;
  const std::int64_t live =
      impl_->live_floats.load(std::memory_order_relaxed);
  if (live <= baseline_live_floats) return;
  std::ostringstream oss;
  oss << "sanitize[leak]: " << (live - baseline_live_floats)
      << " floats acquired inside '" << (what ? what : "?")
      << "' are still live at the audit point (baseline "
      << baseline_live_floats << ", now " << live
      << ") — a Storage handle outlived its owner scope";
  sanitize::report_violation(sanitize::Defect::kLeak, oss.str());
#else
  (void)baseline_live_floats;
  (void)what;
#endif
}

Block* StoragePool::acquire(std::int64_t n) {
  MFA_CHECK_GE(n, 0) << " Storage: negative size";
  if (n == 0) return nullptr;
  const bool pooled = enabled();
  const int bucket = pooled ? bucket_for(n) : -1;
  if (bucket >= 0) {
    auto& tc = Impl::cache();
    if (Block* blk = tc.head[bucket]) {
      tc.head[bucket] = blk->next;
      --tc.count[bucket];
      tc.floats -= blk->capacity;
      impl_->cached_floats.fetch_sub(blk->capacity,
                                     std::memory_order_relaxed);
      impl_->hits.fetch_add(1, std::memory_order_relaxed);
      impl_->note_acquired(blk->capacity);
#if MFA_SANITIZE_STORAGE_ON
      // Reacquire check: a write through a stale pointer while the block sat
      // in the cache is caught here, before the new owner sees the buffer.
      verify_redzones(blk, "reacquire from thread cache", true);
#endif
      blk->refs.store(1, std::memory_order_relaxed);
      blk->next = nullptr;
      return blk;
    }
    Block* blk = nullptr;
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      blk = impl_->free_list[bucket];
      if (blk) impl_->free_list[bucket] = blk->next;
    }
    if (blk) {
      impl_->cached_floats.fetch_sub(blk->capacity,
                                     std::memory_order_relaxed);
      impl_->hits.fetch_add(1, std::memory_order_relaxed);
      impl_->note_acquired(blk->capacity);
#if MFA_SANITIZE_STORAGE_ON
      verify_redzones(blk, "reacquire from global free list", true);
#endif
      blk->refs.store(1, std::memory_order_relaxed);
      blk->next = nullptr;
      return blk;
    }
  }
  const std::int64_t capacity =
      bucket >= 0 ? (std::int64_t{1} << bucket) : n;
  impl_->misses.fetch_add(1, std::memory_order_relaxed);
  impl_->note_acquired(capacity);
  return heap_block(capacity, bucket);
}

void StoragePool::recycle(Block* block) {
#if MFA_SANITIZE_STORAGE_ON
  // Release check: an overrun is pinned to the op that still held the block,
  // not to whichever op later trips over the corrupted free list. recycle()
  // is reachable from Storage destructors, so this path reports without
  // throwing (the violation still counts and logs).
  verify_redzones(block, "release", /*allow_throw=*/false);
  // The block leaves the live state: stale handles (and their cached raw
  // pointers) are invalid from here on, whether it is cached or freed.
  block->generation.fetch_add(1, std::memory_order_relaxed);
#endif
  impl_->live_floats.fetch_sub(block->capacity, std::memory_order_relaxed);
  if (block->bucket < 0 || !enabled()) {
    impl_->heap_frees.fetch_add(1, std::memory_order_relaxed);
    heap_free(block);
    return;
  }
  impl_->releases.fetch_add(1, std::memory_order_relaxed);
  impl_->note_cached(block->capacity);
  const int bucket = block->bucket;
  auto& tc = Impl::cache();
  if (tc.count[bucket] < kThreadCacheBlocksPerBucket &&
      tc.floats + block->capacity <= kThreadCacheMaxFloats) {
    block->next = tc.head[bucket];
    tc.head[bucket] = block;
    ++tc.count[bucket];
    tc.floats += block->capacity;
    return;
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  block->next = impl_->free_list[bucket];
  impl_->free_list[bucket] = block;
}

void StoragePool::release(Block* block) {
  const std::uint32_t prev =
      block->refs.fetch_sub(1, std::memory_order_release);
#if MFA_SANITIZE_STORAGE_ON
  if (prev == 0 && sanitize::enabled()) {
    // The refcount was already zero: this is a double release (the unsigned
    // counter just wrapped — the "negative refcount" case). Restore the
    // count before reporting so the pool stays consistent either way.
    block->refs.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream oss;
    oss << "sanitize[refcount]: double release of a pooled block of "
        << block->capacity
        << " floats (refcount was already zero — it would have gone negative)";
    sanitize::report_violation(sanitize::Defect::kRefcount, oss.str());
    return;
  }
#endif
  if (prev != 1) return;
  std::atomic_thread_fence(std::memory_order_acquire);
  recycle(block);
}

// ---- Storage handle ----

// The copy/move members replicate gen_ alongside the pointers: sibling
// handles share both the block and the generation they acquired it at.
#if MFA_SANITIZE_STORAGE_ON
#define MFA_STORAGE_COPY_GEN_(other) gen_ = (other).gen_;
#else
#define MFA_STORAGE_COPY_GEN_(other)
#endif

Storage::Storage(const Storage& other)
    : block_(other.block_), data_(other.data_), size_(other.size_) {
  MFA_STORAGE_COPY_GEN_(other)
  if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
}

Storage::Storage(Storage&& other) noexcept
    : block_(other.block_), data_(other.data_), size_(other.size_) {
  MFA_STORAGE_COPY_GEN_(other)
  other.block_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

Storage& Storage::operator=(const Storage& other) {
  if (this == &other) return *this;
  if (other.block_) other.block_->refs.fetch_add(1, std::memory_order_relaxed);
  reset();
  block_ = other.block_;
  data_ = other.data_;
  size_ = other.size_;
  MFA_STORAGE_COPY_GEN_(other)
  return *this;
}

Storage& Storage::operator=(Storage&& other) noexcept {
  if (this == &other) return *this;
  reset();
  block_ = other.block_;
  data_ = other.data_;
  size_ = other.size_;
  MFA_STORAGE_COPY_GEN_(other)
  other.block_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

#undef MFA_STORAGE_COPY_GEN_

#if MFA_SANITIZE_STORAGE_ON

void Storage::check_alive_slow() const {
  const std::uint64_t now =
      block_->generation.load(std::memory_order_relaxed);
  if (now == gen_) return;
  std::ostringstream oss;
  oss << "sanitize[lifetime]: use of a Storage handle (" << size_
      << " floats) after its block was released/recycled: handle holds "
         "generation "
      << gen_ << ", block is at generation " << now;
  sanitize::report_violation(sanitize::Defect::kLifetime, oss.str());
}

void Storage::verify_guards() const {
  if (!block_ || !sanitize::enabled()) return;
  check_alive_slow();
  verify_redzones(block_, "on-demand verify", true);
}

void Storage::sanitize_corrupt_release() {
  if (block_) StoragePool::instance().release(block_);
}

void Storage::sanitize_abandon() {
  block_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

#else  // !MFA_SANITIZE_STORAGE_ON — the hooks keep their (trivial) ABI so
       // test binaries link in Release; the checks themselves are gone.

void Storage::verify_guards() const {}
void Storage::sanitize_corrupt_release() {}
void Storage::sanitize_abandon() {}

#endif  // MFA_SANITIZE_STORAGE_ON

Storage::~Storage() { reset(); }

void Storage::reset() {
  if (block_) StoragePool::instance().release(block_);
  block_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

bool Storage::shared() const {
  return block_ && block_->refs.load(std::memory_order_relaxed) > 1;
}

void Storage::acquire_new(std::int64_t n) {
  Block* fresh = StoragePool::instance().acquire(n);
  reset();
  block_ = fresh;
  data_ = fresh ? detail::payload(fresh) : nullptr;
  size_ = fresh ? n : 0;
#if MFA_SANITIZE_STORAGE_ON
  gen_ = fresh ? fresh->generation.load(std::memory_order_relaxed) : 0;
#endif
}

Storage Storage::full(std::int64_t n, float value) {
  Storage s;
  s.assign(n, value);
  return s;
}

void Storage::assign(std::int64_t n, float value) {
  if (n != size_ || shared()) acquire_new(n);
  fill(value);
}

void Storage::fill(float value) {
  check_alive();
  if (size_ == 0) return;
  // gcc -O2 compiles std::fill of a float to a 4-byte store loop; memset is
  // about twice as fast on the zero-fills every op output and gradient
  // takes. Only the all-zero bit pattern qualifies, so -0.0f keeps its sign.
  if (std::bit_cast<std::uint32_t>(value) == 0)
    std::memset(data_, 0, static_cast<std::size_t>(size_) * sizeof(float));
  else
    std::fill(data_, data_ + size_, value);
}

void Storage::copy_from(const Storage& src) {
  copy_from(src.data_, src.size_);
}

void Storage::copy_from(const float* src, std::int64_t n) {
  if (n != size_ || shared())
    acquire_new(n);
  else
    check_alive();
  if (size_ > 0)
    std::memcpy(data_, src, static_cast<std::size_t>(size_) * sizeof(float));
}

std::vector<float> Storage::to_vector() const {
  check_alive();
  return std::vector<float>(data_, data_ + size_);
}

}  // namespace mfa::tensor
