#ifndef ISREC_TOOLS_FLAGS_H_
#define ISREC_TOOLS_FLAGS_H_

// Minimal shared command-line flag parser for the isrec tools, so every
// flag (notably the serving v2 set: --deadline-ms, --shed-watermark,
// --allow-degraded, --fault) is defined in exactly one place instead of
// being duplicated across isrec_cli and isrec_serve parsing loops.
//
// Usage:
//   FlagParser parser;
//   parser.String("--model", &options.model);
//   parser.Int("--epochs", &options.epochs);
//   parser.Bool("--no-verify", &options.no_verify);   // presence flag
//   if (!parser.Parse(argc, argv)) { print usage; return 2; }

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/heap_profiler.h"
#include "obs/profiler.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "tensor/tensor.h"

namespace isrec::tools {

class FlagParser {
 public:
  /// Flag taking a string value: `--name VALUE`.
  void String(const char* name, std::string* target) {
    specs_.push_back({name, Kind::kString, target});
  }
  /// Flag taking an integer value: `--name N`.
  void Int(const char* name, Index* target) {
    specs_.push_back({name, Kind::kInt, target});
  }
  /// Flag taking a floating-point value: `--name X`.
  void Double(const char* name, double* target) {
    specs_.push_back({name, Kind::kDouble, target});
  }
  /// Valueless presence flag: `--name` sets *target = true.
  void Bool(const char* name, bool* target) {
    specs_.push_back({name, Kind::kBool, target});
  }
  /// Repeatable string flag: each `--name VALUE` appends to *target
  /// (e.g. isrec_router --replica HOST:PORT --replica HOST:PORT).
  void StringList(const char* name, std::vector<std::string>* target) {
    specs_.push_back({name, Kind::kStringList, target});
  }

  /// Parses argv. Returns false — with a diagnostic on stderr for
  /// anything except an explicit --help/-h — on an unknown flag or a
  /// missing value, so callers can print usage and exit.
  bool Parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--help" || flag == "-h") return false;
      const Spec* spec = Find(flag);
      if (spec == nullptr) {
        std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
        return false;
      }
      if (spec->kind == Kind::kBool) {
        *static_cast<bool*>(spec->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        return false;
      }
      const char* value = argv[++i];
      switch (spec->kind) {
        case Kind::kString:
          *static_cast<std::string*>(spec->target) = value;
          break;
        case Kind::kInt:
          *static_cast<Index*>(spec->target) = std::atol(value);
          break;
        case Kind::kDouble:
          *static_cast<double*>(spec->target) = std::atof(value);
          break;
        case Kind::kStringList:
          static_cast<std::vector<std::string>*>(spec->target)
              ->push_back(value);
          break;
        case Kind::kBool:
          break;  // Handled above.
      }
    }
    return true;
  }

 private:
  enum class Kind { kString, kInt, kDouble, kBool, kStringList };
  struct Spec {
    std::string name;
    Kind kind;
    void* target;
  };

  const Spec* Find(const std::string& name) const {
    for (const Spec& spec : specs_) {
      if (spec.name == name) return &spec;
    }
    return nullptr;
  }

  std::vector<Spec> specs_;
};

/// The serving-engine flag set shared by isrec_serve and any future
/// serving harness: Register() defines the flags once, ToEngineConfig()
/// maps them onto a serve::EngineConfig. The v2 robustness knobs:
///
///   --deadline-ms D      per-request deadline (0 = none)
///   --shed-watermark H   admission control: shed above depth H
///                        (low watermark = H/2; 0 = blocking backpressure)
///   --allow-degraded     requests accept a popularity-prior fallback
///   --fault SPEC         ISREC_FAULT grammar, e.g. score_delay_ms:5
struct EngineFlags {
  Index threads = 8;
  Index max_batch = 32;
  Index batch_window_us = 200;
  Index cache_capacity = 0;
  double deadline_ms = 0.0;
  Index shed_watermark = 0;
  bool allow_degraded = false;
  std::string fault_spec;

  void Register(FlagParser& parser) {
    parser.Int("--threads", &threads);
    parser.Int("--max-batch", &max_batch);
    parser.Int("--batch-window-us", &batch_window_us);
    parser.Int("--cache", &cache_capacity);
    parser.Double("--deadline-ms", &deadline_ms);
    parser.Int("--shed-watermark", &shed_watermark);
    parser.Bool("--allow-degraded", &allow_degraded);
    parser.String("--fault", &fault_spec);
  }

  /// Maps the flags onto an EngineConfig; false (with a diagnostic) on a
  /// malformed --fault spec.
  bool ToEngineConfig(serve::EngineConfig* config) const {
    config->num_threads = threads;
    config->max_batch_size = max_batch;
    config->batch_window_us = batch_window_us;
    config->cache_capacity = cache_capacity;
    config->shed_high_watermark = shed_watermark;
    config->shed_low_watermark = shed_watermark / 2;
    if (!fault_spec.empty() &&
        !serve::ParseFaultSpec(fault_spec, &config->fault)) {
      std::fprintf(stderr, "malformed --fault spec '%s'\n",
                   fault_spec.c_str());
      return false;
    }
    return true;
  }

  serve::RequestOptions ToRequestOptions() const {
    serve::RequestOptions options;
    options.deadline_ms = deadline_ms;
    options.allow_degraded = allow_degraded;
    return options;
  }
};

/// Model artifact flags shared by isrec_cli and isrec_serve — one
/// definition of how a tool names, loads, and refreshes a model:
///
///   --load PATH          checkpoint to load (ServableModel::Load).
///                        --checkpoint is accepted as an alias; both
///                        write the same field, last one wins.
///   --quantize int8      serve through the int8 quantized scorer
///                        (applies to every load, including hot reloads)
///   --stream PATH        interaction event stream to tail for online
///                        learning ("user item" lines; see data/stream.h)
///   --reload-period-s S  seconds between online refresh attempts
struct ModelFlags {
  std::string load;
  std::string quantize;  // "" (fp32) or "int8".
  std::string stream;
  double reload_period_s = 5.0;

  void Register(FlagParser& parser) {
    parser.String("--load", &load);
    parser.String("--checkpoint", &load);  // Alias: same target.
    parser.String("--quantize", &quantize);
    parser.String("--stream", &stream);
    parser.Double("--reload-period-s", &reload_period_s);
  }

  /// False (with a diagnostic) on an unsupported --quantize mode or a
  /// non-positive --reload-period-s.
  bool Validate() const {
    if (!quantize.empty() && quantize != "int8") {
      std::fprintf(stderr, "--quantize supports only: int8\n");
      return false;
    }
    if (reload_period_s <= 0.0) {
      std::fprintf(stderr, "--reload-period-s must be > 0\n");
      return false;
    }
    return true;
  }

  serve::LoadOptions ToLoadOptions() const {
    serve::LoadOptions options;
    if (quantize == "int8") {
      options.quantization = serve::Quantization::kInt8;
    }
    return options;
  }
};

/// Admin/observability flags shared by isrec_cli, isrec_serve and
/// isrec_router:
///
///   --admin-port P      serve the live introspection plane
///                       (/healthz /metrics /varz /statusz /tracez) on
///                       127.0.0.1:P. 0 = off (the default); starting it
///                       also enables metrics, tracing, and request
///                       tracing so the endpoints have data.
///   --admin-hold-s S    keep the process (and the admin server) alive S
///                       extra seconds after the workload finishes, so a
///                       human or a scraper can inspect the final state.
///   --metrics-json PATH enable obs metrics and dump the registry as
///                       JSON on exit (each tool wraps it in its own
///                       envelope — serve_stats, router decisions, ...).
///   --trace-out PATH    enable obs tracing and write a chrome://tracing
///                       JSON timeline of the span ring on exit.
///   --profile-out PATH  run the sampling profiler for the process
///                       lifetime and write folded stacks
///                       (flamegraph.pl input) to PATH on exit. The
///                       live window variant is /profilez?seconds=N.
///   --heap-profile      enable the hooked-allocator heap accounting
///                       (/heapz, serve.alloc.* counters,
///                       allocs/request in serve_stats).
struct AdminFlags {
  Index admin_port = 0;
  double admin_hold_s = 0.0;
  std::string metrics_json;
  std::string trace_out;
  std::string profile_out;
  bool heap_profile = false;

  void Register(FlagParser& parser) {
    parser.Int("--admin-port", &admin_port);
    parser.Double("--admin-hold-s", &admin_hold_s);
    parser.String("--metrics-json", &metrics_json);
    parser.String("--trace-out", &trace_out);
    parser.String("--profile-out", &profile_out);
    parser.Bool("--heap-profile", &heap_profile);
  }
};

/// RAII wiring of the profiling flags, shared by isrec_cli, isrec_serve
/// and isrec_router: construction enables the heap hook
/// (--heap-profile) and starts the sampler (--profile-out); destruction
/// writes the accumulated folded stacks. Construct it before the
/// workload so every return path still flushes.
struct ProfilingSession {
  explicit ProfilingSession(const AdminFlags& flags)
      : profile_out(flags.profile_out) {
    if (flags.heap_profile) {
      obs::heap::EnableHeapProfiling(true);
      if (!obs::heap::HookCompiled()) {
        std::fprintf(stderr,
                     "--heap-profile: allocator hook compiled out "
                     "(-DISREC_HEAP_PROFILE=OFF); counters stay zero\n");
      }
    }
    if (!profile_out.empty()) obs::StartProfiler();
  }
  ~ProfilingSession() {
    if (profile_out.empty()) return;
    obs::StopProfiler();
    if (obs::WriteProfile(profile_out)) {
      std::printf("profile written to %s (folded stacks — feed to "
                  "flamegraph.pl)\n",
                  profile_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write profile to %s\n",
                   profile_out.c_str());
    }
  }

  ProfilingSession(const ProfilingSession&) = delete;
  ProfilingSession& operator=(const ProfilingSession&) = delete;

  std::string profile_out;
};

}  // namespace isrec::tools

#endif  // ISREC_TOOLS_FLAGS_H_
