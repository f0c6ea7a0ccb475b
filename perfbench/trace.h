#pragma once
// Span recorder for the benchmark's traced runs.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into a layer's public function; nothing under src/ is instrumented.
// A span records its name, layer, start, end, parent span and op id.  Spans
// stay in memory and are written out once, when the run ends.  With tracing
// off a `Span` costs one branch and records nothing, so untraced runs time
// exactly the same code.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed epoch (steady clock).
[[nodiscard]] double now_s();

/// Op id for spans outside any op (set-up, answer checks).
inline constexpr std::int64_t kNoOp = -1;

/// One recorded span.
struct SpanRecord {
  std::string name;         ///< e.g. "core.optimize"
  std::string layer;        ///< "bench", "topo", ..., "serve"
  double start_s = 0;       ///< `now_s()` at entry
  double end_s = 0;         ///< `now_s()` at exit
  std::int64_t id = 0;      ///< index in the recorder
  std::int64_t parent = -1; ///< enclosing span on the same thread, or -1
  std::int64_t op = kNoOp;  ///< op the span belongs to
  /// True for calls outside the timed work: answer checks, and calls made
  /// only to split one layer's time from another's.  Self times leave
  /// them out.
  bool untimed = false;
};

/// Process-wide span store.
class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Reserves a span slot and returns its id; the span's thread-local
  /// parent is the innermost open span on the calling thread.
  std::int64_t open(std::string name, std::string layer, std::int64_t op,
                    bool untimed);
  void close(std::int64_t id);

  /// A copy of every recorded span.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Self time per layer, in seconds: each span's duration minus the time
  /// its direct children cover.  Untimed spans are left out.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes every span as one JSON object per line.  False on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span.  Does nothing unless the global tracer is enabled.
class Span {
 public:
  Span(const char* name, const char* layer, std::int64_t op = kNoOp,
       bool untimed = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_ = -1;
};

}  // namespace perfbench
