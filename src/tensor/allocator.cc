#include "tensor/allocator.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "utils/check.h"
#include "utils/env.h"

namespace focus {

namespace {

// Small classes: powers of two from 64 floats (256 B) to 1 Mi floats
// (4 MiB). Larger requests round up to a 1 MiB quantum.
constexpr int kMinSmallLog2 = 6;
constexpr int kMaxSmallLog2 = 20;
constexpr int kNumSmallClasses = kMaxSmallLog2 - kMinSmallLog2 + 1;
constexpr int64_t kSmallMaxFloats = int64_t{1} << kMaxSmallLog2;
constexpr int64_t kLargeQuantumFloats = int64_t{1} << 18;  // 1 MiB

constexpr int64_t kDefaultCapMb = 256;

// Every buffer is cache-line *and* vector-register aligned: 64 bytes
// covers both the x86 cache line and two 32-byte AVX2 lanes, so the SIMD
// layer's unaligned loads never straddle a line on the fast path. All
// frees must pass the same alignment back to operator delete[].
constexpr std::align_val_t kBufferAlign{64};

float* AlignedNewFloats(int64_t cfloats) {
  return static_cast<float*>(::operator new[](
      static_cast<size_t>(cfloats) * sizeof(float), kBufferAlign));
}

void AlignedDeleteFloats(float* ptr) {
  ::operator delete[](static_cast<void*>(ptr), kBufferAlign);
}

// One free-list shard. Threads are pinned round-robin to shards so the
// thread pool never serializes on a single mutex; a miss scavenges the
// other shards before touching the system allocator.
struct Shard {
  std::mutex mu;
  // small[i] holds buffers of exactly 1 << (kMinSmallLog2 + i) floats.
  std::vector<float*> small[kNumSmallClasses];
  // Large buffers keyed by exact capacity (a multiple of the quantum).
  std::vector<std::pair<int64_t, std::vector<float*>>> large;
};

constexpr int kShards = 8;
Shard g_shards[kShards];

// Relaxed atomics: counters are telemetry; the cap check tolerates
// transient over/undershoot of one buffer.
std::atomic<int64_t> g_cap_bytes{-1};  // -1 = env not read yet
std::atomic<int64_t> g_cached_bytes{0};
std::atomic<int64_t> g_raw_bytes{0};
std::atomic<int64_t> g_hits{0};
std::atomic<int64_t> g_misses{0};
std::atomic<int64_t> g_frees_cached{0};
std::atomic<int64_t> g_frees_released{0};
std::atomic<int64_t> g_trims{0};
std::atomic<int64_t> g_trimmed_bytes{0};

int OwnShard() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned idx =
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(kShards);
  return static_cast<int>(idx);
}

// Pops a buffer of exactly `cfloats` capacity from one shard, or nullptr.
float* PopFromShard(Shard& shard, int64_t cfloats) {
  std::lock_guard<std::mutex> lock(shard.mu);
  if (cfloats <= kSmallMaxFloats) {
    int cls = 0;
    while ((int64_t{1} << (kMinSmallLog2 + cls)) < cfloats) ++cls;
    std::vector<float*>& list = shard.small[cls];
    if (list.empty()) return nullptr;
    float* p = list.back();
    list.pop_back();
    return p;
  }
  for (auto& entry : shard.large) {
    if (entry.first == cfloats && !entry.second.empty()) {
      float* p = entry.second.back();
      entry.second.pop_back();
      return p;
    }
  }
  return nullptr;
}

void PushToShard(Shard& shard, float* ptr, int64_t cfloats) {
  std::lock_guard<std::mutex> lock(shard.mu);
  if (cfloats <= kSmallMaxFloats) {
    int cls = 0;
    while ((int64_t{1} << (kMinSmallLog2 + cls)) < cfloats) ++cls;
    shard.small[cls].push_back(ptr);
    return;
  }
  for (auto& entry : shard.large) {
    if (entry.first == cfloats) {
      entry.second.push_back(ptr);
      return;
    }
  }
  shard.large.emplace_back(cfloats, std::vector<float*>{ptr});
}

int64_t CapBytesOnce() {
  int64_t cap = g_cap_bytes.load(std::memory_order_relaxed);
  if (cap >= 0) return cap;
  // First use reads FOCUS_ALLOC_CACHE_MB via the hardened env helpers.
  // A benign race re-reads the same value.
  cap = GetEnvIntInRangeOr("FOCUS_ALLOC_CACHE_MB", kDefaultCapMb, 0,
                           int64_t{1} << 20) *
        (int64_t{1} << 20);
  g_cap_bytes.store(cap, std::memory_order_relaxed);
  return cap;
}

}  // namespace

Allocator& Allocator::Get() {
  // NOLINTNEXTLINE — leaked singleton, same lifetime story as ThreadPool.
  static Allocator* allocator = new Allocator();
  return *allocator;
}

int64_t Allocator::SizeClassFloats(int64_t numel) {
  if (numel < 1) numel = 1;
  if (numel <= kSmallMaxFloats) {
    int64_t c = int64_t{1} << kMinSmallLog2;
    while (c < numel) c <<= 1;
    return c;
  }
  return (numel + kLargeQuantumFloats - 1) / kLargeQuantumFloats *
         kLargeQuantumFloats;
}

float* Allocator::Allocate(int64_t numel) {
  const int64_t cfloats = SizeClassFloats(numel);
  const int64_t cbytes = cfloats * static_cast<int64_t>(sizeof(float));
  if (CapBytesOnce() > 0) {
    const int own = OwnShard();
    float* p = PopFromShard(g_shards[own], cfloats);
    for (int s = 0; p == nullptr && s < kShards; ++s) {
      if (s != own) p = PopFromShard(g_shards[s], cfloats);
    }
    if (p != nullptr) {
      g_cached_bytes.fetch_sub(cbytes, std::memory_order_relaxed);
      g_hits.fetch_add(1, std::memory_order_relaxed);
      // Recycled memory is garbage, and ASan considers it live. Under the
      // debug-check tier, poison it so a kernel that reads its output
      // before writing trips the central finite-output guard.
      if (debug::ChecksEnabled()) {
        std::fill_n(p, cfloats, std::numeric_limits<float>::quiet_NaN());
      }
      return p;
    }
  }
  g_misses.fetch_add(1, std::memory_order_relaxed);
  g_raw_bytes.fetch_add(cbytes, std::memory_order_relaxed);
  // The one place tensor float buffers come from the system allocator.
  return AlignedNewFloats(cfloats);
}

void Allocator::Deallocate(float* ptr, int64_t numel) {
  if (ptr == nullptr) return;
  const int64_t cfloats = SizeClassFloats(numel);
  const int64_t cbytes = cfloats * static_cast<int64_t>(sizeof(float));
  const int64_t cap = CapBytesOnce();
  if (cap > 0) {
    // Optimistically reserve cache space; back out if over the cap.
    const int64_t prev =
        g_cached_bytes.fetch_add(cbytes, std::memory_order_relaxed);
    if (prev + cbytes <= cap) {
      PushToShard(g_shards[OwnShard()], ptr, cfloats);
      g_frees_cached.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    g_cached_bytes.fetch_sub(cbytes, std::memory_order_relaxed);
  }
  g_frees_released.fetch_add(1, std::memory_order_relaxed);
  g_raw_bytes.fetch_sub(cbytes, std::memory_order_relaxed);
  AlignedDeleteFloats(ptr);
}

int64_t Allocator::Trim() {
  int64_t released = 0;
  for (int s = 0; s < kShards; ++s) {
    Shard& shard = g_shards[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (int cls = 0; cls < kNumSmallClasses; ++cls) {
      const int64_t cbytes = (int64_t{1} << (kMinSmallLog2 + cls)) *
                             static_cast<int64_t>(sizeof(float));
      for (float* p : shard.small[cls]) {
        AlignedDeleteFloats(p);
        released += cbytes;
      }
      shard.small[cls].clear();
    }
    for (auto& entry : shard.large) {
      const int64_t cbytes =
          entry.first * static_cast<int64_t>(sizeof(float));
      for (float* p : entry.second) {
        AlignedDeleteFloats(p);
        released += cbytes;
      }
    }
    shard.large.clear();
  }
  if (released > 0) {
    g_cached_bytes.fetch_sub(released, std::memory_order_relaxed);
    g_raw_bytes.fetch_sub(released, std::memory_order_relaxed);
    g_trims.fetch_add(1, std::memory_order_relaxed);
    g_trimmed_bytes.fetch_add(released, std::memory_order_relaxed);
  }
  return released;
}

AllocatorStats Allocator::Stats() const {
  AllocatorStats stats;
  stats.hits = g_hits.load(std::memory_order_relaxed);
  stats.misses = g_misses.load(std::memory_order_relaxed);
  stats.frees_cached = g_frees_cached.load(std::memory_order_relaxed);
  stats.frees_released = g_frees_released.load(std::memory_order_relaxed);
  stats.trims = g_trims.load(std::memory_order_relaxed);
  stats.trimmed_bytes = g_trimmed_bytes.load(std::memory_order_relaxed);
  stats.cached_bytes = g_cached_bytes.load(std::memory_order_relaxed);
  stats.raw_bytes = g_raw_bytes.load(std::memory_order_relaxed);
  return stats;
}

int64_t Allocator::cap_bytes() const { return CapBytesOnce(); }

void Allocator::SetCapBytes(int64_t bytes) {
  FOCUS_CHECK_GE(bytes, 0) << "allocator cap must be >= 0";
  g_cap_bytes.store(bytes, std::memory_order_relaxed);
  // Bypass (or a lowered cap) must not strand cached buffers.
  const int64_t cached = g_cached_bytes.load(std::memory_order_relaxed);
  if (cached > bytes) Trim();
}

}  // namespace focus
