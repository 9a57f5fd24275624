#include "obs/heap_profiler.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "utils/json.h"

#if defined(ISREC_HEAP_PROFILE_HOOK) && __has_include(<malloc.h>)
#include <malloc.h>
#define ISREC_HAVE_MALLOC_USABLE_SIZE 1
#endif

namespace isrec::obs::heap {
namespace {

// Everything below is reachable from operator new during static
// initialization and thread teardown, so all state is constant-
// initialized (constinit) namespace-scope atomics and trivial
// thread-locals — no dynamic initialization, no allocation, no locks.

constinit std::atomic<bool> g_enabled{false};

struct alignas(64) HeapShard {
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> frees{0};
  std::atomic<uint64_t> alloc_bytes{0};
  std::atomic<uint64_t> usable_alloc_bytes{0};
  std::atomic<uint64_t> usable_freed_bytes{0};
};
constinit HeapShard g_heap_shards[obs::internal::kShards];

/// Per-span attribution: open-addressed fixed table keyed by the frame
/// pointer (span names are static literals, so pointer identity is
/// stable). Rows are claimed with a CAS and never released except by
/// ResetHeapProfile; a full probe sequence counts into g_site_overflow.
constexpr size_t kSiteTableSize = 256;  // Power of two.
constexpr size_t kSiteProbeLimit = 16;

struct SiteCell {
  std::atomic<const char*> span{nullptr};
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> bytes{0};
};
constinit SiteCell g_sites[kSiteTableSize];
constinit std::atomic<uint64_t> g_site_overflow{0};

const char* const kNoSpan = "(no_span)";

thread_local AllocationCounter* t_scope = nullptr;

void BumpSite(const char* span, std::size_t size) {
  size_t slot = (reinterpret_cast<uintptr_t>(span) >> 4) *
                0x9e3779b97f4a7c15ull % kSiteTableSize;
  for (size_t probe = 0; probe < kSiteProbeLimit; ++probe) {
    SiteCell& cell = g_sites[slot];
    const char* occupant = cell.span.load(std::memory_order_acquire);
    if (occupant == nullptr) {
      if (!cell.span.compare_exchange_strong(occupant, span,
                                             std::memory_order_acq_rel)) {
        // Lost the claim; fall through to re-check the winner below.
      } else {
        occupant = span;
      }
    }
    if (occupant == span) {
      cell.count.fetch_add(1, std::memory_order_relaxed);
      cell.bytes.fetch_add(size, std::memory_order_relaxed);
      return;
    }
    slot = (slot + 1) % kSiteTableSize;
  }
  g_site_overflow.fetch_add(1, std::memory_order_relaxed);
}

std::size_t UsableSize(void* p) {
#if defined(ISREC_HAVE_MALLOC_USABLE_SIZE)
  return malloc_usable_size(p);
#else
  (void)p;
  return 0;
#endif
}

}  // namespace

/// Hook-side mutator of AllocationCounter internals (friend; keeps the
/// public class surface read-only).
struct HookAccess {
  static void Charge(std::size_t size) {
    if (AllocationCounter* scope = t_scope; scope != nullptr) {
      ++scope->count_;
      scope->bytes_ += size;
    }
  }
};

namespace internal_hook {

/// Called by operator new with the block already allocated. Must never
/// allocate (recursion) and never throw.
void NoteAlloc(void* p, std::size_t size) noexcept {
  const int shard = obs::internal::ThreadShard();
  HeapShard& cell = g_heap_shards[shard];
  cell.allocs.fetch_add(1, std::memory_order_relaxed);
  cell.alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  cell.usable_alloc_bytes.fetch_add(UsableSize(p), std::memory_order_relaxed);
  HookAccess::Charge(size);
  const char* span = obs::internal::CurrentProfileFrame();
  BumpSite(span != nullptr ? span : kNoSpan, size);
}

void NoteFree(void* p) noexcept {
  const int shard = obs::internal::ThreadShard();
  HeapShard& cell = g_heap_shards[shard];
  cell.frees.fetch_add(1, std::memory_order_relaxed);
  cell.usable_freed_bytes.fetch_add(UsableSize(p), std::memory_order_relaxed);
}

bool Enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

}  // namespace internal_hook

bool HookCompiled() {
#if defined(ISREC_HEAP_PROFILE_HOOK)
  return true;
#else
  return false;
#endif
}

bool HeapProfilingEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void EnableHeapProfiling(bool on) {
  g_enabled.store(on && HookCompiled(), std::memory_order_relaxed);
}

HeapTotals SnapshotHeapTotals() {
  HeapTotals totals;
  uint64_t usable_alloc = 0;
  uint64_t usable_freed = 0;
  for (const HeapShard& shard : g_heap_shards) {
    totals.allocs += shard.allocs.load(std::memory_order_relaxed);
    totals.frees += shard.frees.load(std::memory_order_relaxed);
    totals.alloc_bytes += shard.alloc_bytes.load(std::memory_order_relaxed);
    usable_alloc += shard.usable_alloc_bytes.load(std::memory_order_relaxed);
    usable_freed += shard.usable_freed_bytes.load(std::memory_order_relaxed);
  }
  totals.live_allocs = static_cast<int64_t>(totals.allocs) -
                       static_cast<int64_t>(totals.frees);
  totals.live_bytes = static_cast<int64_t>(usable_alloc) -
                      static_cast<int64_t>(usable_freed);
  return totals;
}

std::vector<AllocSite> TopAllocationSites(size_t max_sites) {
  std::vector<AllocSite> sites;
  for (const SiteCell& cell : g_sites) {
    const char* span = cell.span.load(std::memory_order_acquire);
    if (span == nullptr) continue;
    const uint64_t count = cell.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    sites.push_back({span, count, cell.bytes.load(std::memory_order_relaxed)});
  }
  std::sort(sites.begin(), sites.end(),
            [](const AllocSite& a, const AllocSite& b) {
              if (a.bytes != b.bytes) return a.bytes > b.bytes;
              if (a.count != b.count) return a.count > b.count;
              return std::strcmp(a.span, b.span) < 0;
            });
  if (sites.size() > max_sites) sites.resize(max_sites);
  return sites;
}

uint64_t SiteTableOverflow() {
  return g_site_overflow.load(std::memory_order_relaxed);
}

void ResetHeapProfile() {
  for (HeapShard& shard : g_heap_shards) {
    shard.allocs.store(0, std::memory_order_relaxed);
    shard.frees.store(0, std::memory_order_relaxed);
    shard.alloc_bytes.store(0, std::memory_order_relaxed);
    shard.usable_alloc_bytes.store(0, std::memory_order_relaxed);
    shard.usable_freed_bytes.store(0, std::memory_order_relaxed);
  }
  for (SiteCell& cell : g_sites) {
    // Zero counts but keep claimed spans: a concurrent BumpSite may be
    // between its claim and its bump, and reclaiming rows under it
    // would misfile that one increment.
    cell.count.store(0, std::memory_order_relaxed);
    cell.bytes.store(0, std::memory_order_relaxed);
  }
  g_site_overflow.store(0, std::memory_order_relaxed);
}

std::string HeapzJson() {
  const HeapTotals totals = SnapshotHeapTotals();
  std::string out = "{\"hook_compiled\": ";
  out += HookCompiled() ? "true" : "false";
  out += ", \"enabled\": ";
  out += HeapProfilingEnabled() ? "true" : "false";
  out += ", \"allocs\": " + std::to_string(totals.allocs);
  out += ", \"frees\": " + std::to_string(totals.frees);
  out += ", \"alloc_bytes\": " + std::to_string(totals.alloc_bytes);
  out += ", \"live_allocs\": " + std::to_string(totals.live_allocs);
  out += ", \"live_bytes\": " + std::to_string(totals.live_bytes);
  out += ", \"site_overflow\": " + std::to_string(SiteTableOverflow());
  out += ", \"sites\": [";
  const std::vector<AllocSite> sites = TopAllocationSites();
  for (size_t s = 0; s < sites.size(); ++s) {
    out += s == 0 ? "\n" : ",\n";
    out += "{\"span\": " + json::Escape(sites[s].span);
    out += ", \"count\": " + std::to_string(sites[s].count);
    out += ", \"bytes\": " + std::to_string(sites[s].bytes) + "}";
  }
  out += "\n]}";
  return out;
}

AllocationCounter::AllocationCounter() {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  parent_ = t_scope;
  t_scope = this;
}

AllocationCounter::~AllocationCounter() {
  if (active_) t_scope = parent_;
}

namespace {

// ISREC_HEAP_PROFILE=1 (or "true"/"on"): heap accounting on from
// process start — the env half of the compile/env gate.
struct HeapEnvInit {
  HeapEnvInit() {
    const char* env = std::getenv("ISREC_HEAP_PROFILE");
    if (env == nullptr) return;
    if (std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0 ||
        std::strcmp(env, "on") == 0) {
      EnableHeapProfiling(true);
    }
  }
} g_heap_env_init;

}  // namespace
}  // namespace isrec::obs::heap

#if defined(ISREC_HEAP_PROFILE_HOOK)

// ---------------------------------------------------------------------
// Global operator new/delete interposition. These replace the standard
// library definitions program-wide (linked in whenever a binary
// references any symbol above — every tool and test links isrec_obs).
// Disabled, each call adds one relaxed load + branch on top of malloc.
// ---------------------------------------------------------------------

namespace {

using isrec::obs::heap::internal_hook::Enabled;
using isrec::obs::heap::internal_hook::NoteAlloc;
using isrec::obs::heap::internal_hook::NoteFree;

void* HookedAllocate(std::size_t size) {
  for (;;) {
    void* p = std::malloc(size != 0 ? size : 1);
    if (p != nullptr) {
      if (Enabled()) NoteAlloc(p, size);
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* HookedAllocateNothrow(std::size_t size) noexcept {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p != nullptr && Enabled()) NoteAlloc(p, size);
  return p;
}

void* HookedAllocateAligned(std::size_t size, std::size_t align) {
  if (align < sizeof(void*)) align = sizeof(void*);
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, align, size != 0 ? size : 1) == 0) {
      if (Enabled()) NoteAlloc(p, size);
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* HookedAllocateAlignedNothrow(std::size_t size,
                                   std::size_t align) noexcept {
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  if (Enabled()) NoteAlloc(p, size);
  return p;
}

void HookedFree(void* p) noexcept {
  if (p == nullptr) return;
  if (Enabled()) NoteFree(p);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return HookedAllocate(size); }
void* operator new[](std::size_t size) { return HookedAllocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return HookedAllocateNothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return HookedAllocateNothrow(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return HookedAllocateAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return HookedAllocateAligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return HookedAllocateAlignedNothrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return HookedAllocateAlignedNothrow(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { HookedFree(p); }
void operator delete[](void* p) noexcept { HookedFree(p); }
void operator delete(void* p, std::size_t) noexcept { HookedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { HookedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  HookedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  HookedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept { HookedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { HookedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  HookedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  HookedFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  HookedFree(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  HookedFree(p);
}

#endif  // ISREC_HEAP_PROFILE_HOOK
