#include "hostspeed.h"

#include <chrono>
#include <cstdint>
#include <vector>

#include "common.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Steps of the kernel: about 1 ms on a calm reference host.
constexpr std::uint64_t kKernelSteps = std::uint64_t{1} << 19;
/// Pause between samples: the sampler uses about 1% of one core.
constexpr auto kInterval = std::chrono::milliseconds(100);

/// One dependent chain of 64-bit multiplies and xor-shifts, with no memory
/// traffic: its time is set by the speed the host gives the core.
std::uint64_t kernel(std::uint64_t x) {
  for (std::uint64_t i = 0; i < kKernelSteps; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

}  // namespace

HostSpeed& HostSpeed::global() {
  static HostSpeed speed;
  return speed;
}

void HostSpeed::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { loop(); });
}

void HostSpeed::stop() {
  if (!running_.exchange(false)) return;
  thread_.join();
}

void HostSpeed::loop() {
  volatile std::uint64_t sink = 1;
  while (running_.load(std::memory_order_relaxed)) {
    const double t0 = now_s();
    sink = kernel(sink);
    const double ms = (now_s() - t0) * 1e3;
    {
      const std::lock_guard lock(mutex_);
      samples_ms_.push_back(ms);
    }
    std::this_thread::sleep_for(kInterval);
  }
}

void HostSpeed::end_setup() {
  const std::lock_guard lock(mutex_);
  setup_end_ = samples_ms_.size();
}

double HostSpeed::setup_reference_ms() const {
  const std::lock_guard lock(mutex_);
  return median_locked(0, setup_end_);
}

double HostSpeed::reference_ms() const {
  const std::lock_guard lock(mutex_);
  return median_locked(setup_end_, samples_ms_.size());
}

std::size_t HostSpeed::setup_samples() const {
  const std::lock_guard lock(mutex_);
  return setup_end_;
}

std::size_t HostSpeed::samples() const {
  const std::lock_guard lock(mutex_);
  return samples_ms_.size() - setup_end_;
}

double HostSpeed::median_locked(std::size_t from, std::size_t to) const {
  return median(std::vector<double>(
      samples_ms_.begin() + static_cast<std::ptrdiff_t>(from),
      samples_ms_.begin() + static_cast<std::ptrdiff_t>(to)));
}

}  // namespace perfbench
