#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "utils/json.h"

namespace isrec::obs {
namespace {

/// One thread's "what am I doing" stack. Every slot is an atomic so the
/// sampler can read a stack the owner is concurrently pushing/popping
/// without locks: a momentarily inconsistent read costs one slightly
/// wrong sample, never a data race (all pointers are static string
/// literals, so any value read is safe to dereference).
struct FrameStack {
  std::atomic<uint32_t> depth{0};
  std::atomic<const char*> frames[kProfileMaxDepth] = {};
  /// Set by the owning thread's TLS destructor; the sampler skips dead
  /// stacks and the registry prunes them once quiescent.
  std::atomic<bool> dead{false};
};

/// Content-based path ordering: two call sites spelling the same span
/// name in different translation units get distinct literal pointers but
/// must fold into one line.
struct PathLess {
  bool operator()(const std::vector<const char*>& a,
                  const std::vector<const char*>& b) const {
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      const int c = std::strcmp(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

using PathCounts = std::map<std::vector<const char*>, uint64_t, PathLess>;

// Leaked (never destroyed) for the same static-destruction reason as the
// trace buffers: the ISREC_PROFILE exit flush runs after main.
struct ProfState {
  std::mutex mutex;  // Registry + sampler lifecycle.
  std::vector<std::shared_ptr<FrameStack>> stacks;
  std::thread sampler;
  bool running = false;
  int hz = 0;
  /// /profilez windows currently borrowing the sampler, and whether the
  /// running sampler was started by a window (auto-stopped at zero) or
  /// explicitly (kept running).
  int windows = 0;
  bool auto_started = false;
  std::condition_variable stop_cv;
  bool stop = false;

  std::mutex agg_mutex;  // Aggregated samples.
  PathCounts counts;
  uint64_t samples = 0;
  uint64_t idle_samples = 0;
};

ProfState& State() {
  static ProfState* state = new ProfState();
  return *state;
}

thread_local FrameStack* t_frames = nullptr;
thread_local bool t_frames_dead = false;

/// Registers the calling thread's stack; the holder's destructor marks
/// it dead and detaches the raw TLS pointers so late allocations during
/// thread teardown can never touch freed profiler state.
struct FrameStackHolder {
  std::shared_ptr<FrameStack> stack;
  ~FrameStackHolder() {
    t_frames = nullptr;
    t_frames_dead = true;
    if (stack != nullptr) stack->dead.store(true, std::memory_order_release);
  }
};

FrameStack& LocalFrames() {
  thread_local FrameStackHolder holder;
  if (holder.stack == nullptr) {
    holder.stack = std::make_shared<FrameStack>();
    ProfState& state = State();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.stacks.push_back(holder.stack);
  }
  return *holder.stack;
}

const char* const kIdleFrame = "(idle)";
const char* const kTruncatedFrame = "(truncated)";

/// One sampler tick: fold every live thread's current stack into the
/// aggregate. Scratch vectors are reused across ticks.
void SampleOnce(std::vector<std::shared_ptr<FrameStack>>& stacks_scratch,
                std::vector<const char*>& path_scratch) {
  ProfState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    // Prune quiescent dead stacks while copying (cheap: few threads).
    auto& stacks = state.stacks;
    stacks.erase(std::remove_if(stacks.begin(), stacks.end(),
                                [](const std::shared_ptr<FrameStack>& s) {
                                  return s->dead.load(
                                             std::memory_order_acquire) &&
                                         s->depth.load(
                                             std::memory_order_acquire) == 0;
                                }),
                 stacks.end());
    stacks_scratch = stacks;
  }
  std::lock_guard<std::mutex> lock(state.agg_mutex);
  for (const auto& stack : stacks_scratch) {
    if (stack->dead.load(std::memory_order_acquire)) continue;
    const uint32_t depth = stack->depth.load(std::memory_order_acquire);
    ++state.samples;
    if (depth == 0) {
      ++state.idle_samples;
      path_scratch.assign(1, kIdleFrame);
    } else {
      const uint32_t stored =
          std::min(depth, static_cast<uint32_t>(kProfileMaxDepth));
      path_scratch.clear();
      for (uint32_t i = 0; i < stored; ++i) {
        const char* frame = stack->frames[i].load(std::memory_order_acquire);
        // A frame can read null for one instant mid-push; skip it.
        if (frame != nullptr) path_scratch.push_back(frame);
      }
      if (depth > static_cast<uint32_t>(kProfileMaxDepth)) {
        path_scratch.push_back(kTruncatedFrame);
      }
      if (path_scratch.empty()) path_scratch.push_back(kIdleFrame);
    }
    ++state.counts[path_scratch];
  }
}

void SamplerLoop(int hz) {
  ProfState& state = State();
  const auto period = std::chrono::nanoseconds(1000000000ll / hz);
  std::vector<std::shared_ptr<FrameStack>> stacks_scratch;
  std::vector<const char*> path_scratch;
  auto next = std::chrono::steady_clock::now() + period;
  std::unique_lock<std::mutex> lock(state.mutex);
  while (!state.stop) {
    if (state.stop_cv.wait_until(lock, next, [&state] { return state.stop; })) {
      break;
    }
    lock.unlock();
    SampleOnce(stacks_scratch, path_scratch);
    lock.lock();
    next += period;
    // A long scheduler stall must not turn into a burst of make-up
    // samples (each would double-count the same stalled stacks).
    const auto now = std::chrono::steady_clock::now();
    if (next < now) next = now + period;
  }
}

void StartLocked(ProfState& state, int hz) {
  state.hz = std::clamp(hz, 1, 10000);
  state.stop = false;
  state.running = true;
  state.sampler = std::thread([&state] { SamplerLoop(state.hz); });
  internal::SetSpanHook(internal::kSpanHookProfile, true);
}

void StopLocked(ProfState& state, std::unique_lock<std::mutex>& lock) {
  internal::SetSpanHook(internal::kSpanHookProfile, false);
  state.stop = true;
  state.running = false;
  std::thread sampler = std::move(state.sampler);
  state.stop_cv.notify_all();
  lock.unlock();
  if (sampler.joinable()) sampler.join();
  lock.lock();
}

ProfileSnapshot RenderSnapshot(uint64_t samples, uint64_t idle, int hz,
                               const PathCounts& counts) {
  ProfileSnapshot snapshot;
  snapshot.samples = samples;
  snapshot.idle_samples = idle;
  snapshot.hz = hz;
  snapshot.stacks.reserve(counts.size());
  for (const auto& [path, count] : counts) {
    if (count == 0) continue;
    snapshot.stacks.push_back({path, count});
  }
  std::stable_sort(snapshot.stacks.begin(), snapshot.stacks.end(),
                   [](const ProfileStack& a, const ProfileStack& b) {
                     return a.count > b.count;
                   });
  return snapshot;
}

// ISREC_PROFILE=path.folded: sampler on from process start, collapsed
// stacks written at exit (mirror of ISREC_TRACE in obs/trace.cc).
struct ProfileEnvInit {
  std::string out_path;
  ProfileEnvInit() {
    if (const char* env = std::getenv("ISREC_PROFILE");
        env != nullptr && env[0] != '\0') {
      out_path = env;
      StartProfiler();
    }
  }
  ~ProfileEnvInit() {
    if (out_path.empty()) return;
    StopProfiler();
    if (WriteProfile(out_path)) {
      std::fprintf(stderr, "[obs] profile written to %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "[obs] cannot write profile to %s\n",
                   out_path.c_str());
    }
  }
} g_profile_env_init;

}  // namespace

namespace internal {

bool PushProfileFrame(const char* name) {
  if (t_frames_dead) return false;
  if (t_frames == nullptr) t_frames = &LocalFrames();
  FrameStack& stack = *t_frames;
  const uint32_t depth = stack.depth.load(std::memory_order_relaxed);
  if (depth < static_cast<uint32_t>(kProfileMaxDepth)) {
    stack.frames[depth].store(name, std::memory_order_release);
  }
  stack.depth.store(depth + 1, std::memory_order_release);
  return true;
}

void PopProfileFrame() {
  FrameStack& stack = *t_frames;  // Non-null: a push always precedes.
  const uint32_t depth = stack.depth.load(std::memory_order_relaxed);
  if (depth > 0) stack.depth.store(depth - 1, std::memory_order_release);
}

const char* CurrentProfileFrame() {
  const FrameStack* stack = t_frames;
  if (stack == nullptr) return nullptr;
  uint32_t depth = stack->depth.load(std::memory_order_acquire);
  if (depth == 0) return nullptr;
  depth = std::min(depth, static_cast<uint32_t>(kProfileMaxDepth));
  return stack->frames[depth - 1].load(std::memory_order_acquire);
}

}  // namespace internal

bool ProfilerRunning() {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.running;
}

void StartProfiler(int hz) {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.running) {
    state.auto_started = false;  // Explicit start pins the sampler on.
    return;
  }
  state.auto_started = false;
  StartLocked(state, hz);
}

void StopProfiler() {
  ProfState& state = State();
  std::unique_lock<std::mutex> lock(state.mutex);
  if (!state.running) return;
  StopLocked(state, lock);
}

void ClearProfile() {
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.agg_mutex);
  state.counts.clear();
  state.samples = 0;
  state.idle_samples = 0;
}

ProfileSnapshot SnapshotProfile() {
  ProfState& state = State();
  int hz;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    hz = state.hz;
  }
  std::lock_guard<std::mutex> lock(state.agg_mutex);
  return RenderSnapshot(state.samples, state.idle_samples, hz, state.counts);
}

ProfileSnapshot DiffProfile(const ProfileSnapshot& earlier,
                            const ProfileSnapshot& later) {
  PathCounts counts;
  for (const ProfileStack& stack : later.stacks) {
    counts[stack.frames] = stack.count;
  }
  for (const ProfileStack& stack : earlier.stacks) {
    auto it = counts.find(stack.frames);
    if (it == counts.end()) continue;
    it->second -= std::min(it->second, stack.count);
  }
  ProfileSnapshot diff = RenderSnapshot(
      later.samples - std::min(later.samples, earlier.samples),
      later.idle_samples - std::min(later.idle_samples, earlier.idle_samples),
      later.hz, counts);
  return diff;
}

ProfileSnapshot CollectProfileWindow(double seconds, int hz) {
  ProfState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    if (!state.running) {
      state.auto_started = true;
      StartLocked(state, hz);
    }
    ++state.windows;
  }
  const ProfileSnapshot before = SnapshotProfile();
  const double clamped = std::clamp(seconds, 0.01, 60.0);
  std::this_thread::sleep_for(std::chrono::duration<double>(clamped));
  const ProfileSnapshot after = SnapshotProfile();
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    --state.windows;
    if (state.windows == 0 && state.auto_started && state.running) {
      StopLocked(state, lock);
    }
  }
  return DiffProfile(before, after);
}

std::string FoldedStacksText(const ProfileSnapshot& snapshot) {
  std::string out;
  for (const ProfileStack& stack : snapshot.stacks) {
    for (size_t i = 0; i < stack.frames.size(); ++i) {
      if (i > 0) out.push_back(';');
      out += stack.frames[i];
    }
    out.push_back(' ');
    out += std::to_string(stack.count);
    out.push_back('\n');
  }
  return out;
}

std::string ProfileSummaryJson(const ProfileSnapshot& snapshot) {
  std::string out = "{\"samples\": " + std::to_string(snapshot.samples);
  out += ", \"idle_samples\": " + std::to_string(snapshot.idle_samples);
  out += ", \"hz\": " + std::to_string(snapshot.hz);
  out += ", \"distinct_stacks\": " + std::to_string(snapshot.stacks.size());
  out += ", \"stacks\": [";
  // Top stacks only: the folded text is the lossless export.
  constexpr size_t kMaxJsonStacks = 100;
  const size_t n = std::min(snapshot.stacks.size(), kMaxJsonStacks);
  for (size_t s = 0; s < n; ++s) {
    const ProfileStack& stack = snapshot.stacks[s];
    out += s == 0 ? "\n" : ",\n";
    out += "{\"stack\": [";
    for (size_t i = 0; i < stack.frames.size(); ++i) {
      if (i > 0) out += ", ";
      out += json::Escape(stack.frames[i]);
    }
    out += "], \"count\": " + std::to_string(stack.count) + "}";
  }
  out += "\n]}";
  return out;
}

bool WriteProfile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = FoldedStacksText(SnapshotProfile());
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  return written == text.size() && std::fclose(f) == 0;
}

}  // namespace isrec::obs
