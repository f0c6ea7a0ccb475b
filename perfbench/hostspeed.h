#pragma once
// Host-speed reference for the benchmark's timings.
//
// The benchmark runs on a few vCPUs of a shared host whose speed changes by
// up to 1.65x over minutes (README.md, "Host noise and the host-speed
// reference").  A sampler thread times a fixed kernel (a dependent integer
// chain; nothing from src/) every 100 ms while the workload runs.  run.py
// scales every timing of the run by the ratio of the kernel's nominal time
// to its median time in the run, so that runs in a slow host phase and in a
// fast one report closer program costs.

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// The kernel's median time, in ms, on the 4-vCPU Xeon VM the benchmark
/// was defined on, in a calm host phase; it only fixes the scale of the
/// scaled timings.
inline constexpr double kNominalReferenceMs = 1.0;

class HostSpeed {
 public:
  static HostSpeed& global();

  /// Starts sampling (idempotent).
  void start();
  /// Marks the end of set-up: samples taken before it scale `setup_s`,
  /// the later ones every other timing.  Workloads call it once.
  void end_setup();
  /// Stops sampling and waits for the sampler thread (idempotent).  The
  /// load generator calls it when a workload returns; serve_paper calls it
  /// earlier, before answer checks that load every core.
  void stop();

  /// Median kernel time, in ms, over the samples taken during set-up, and
  /// over those taken after it; 0 without samples.
  [[nodiscard]] double setup_reference_ms() const;
  [[nodiscard]] double reference_ms() const;
  /// Samples taken during set-up, and after it.
  [[nodiscard]] std::size_t setup_samples() const;
  [[nodiscard]] std::size_t samples() const;

  ~HostSpeed() { stop(); }

 private:
  void loop();
  /// The median of samples [from, to); the caller holds the mutex.
  [[nodiscard]] double median_locked(std::size_t from, std::size_t to) const;

  std::atomic<bool> running_{false};
  std::thread thread_;
  mutable std::mutex mutex_;
  std::vector<double> samples_ms_;
  std::size_t setup_end_ = 0;  ///< samples taken before end_setup()
};

}  // namespace perfbench
