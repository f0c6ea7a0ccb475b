// The optimizer's scoring path is pure: any number of threads may score
// configurations on one const Optimizer (the serve layer's `score` op does
// exactly that) and get the single-threaded results byte for byte.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "netbase/rng.h"
#include "support/core_fixture.h"

namespace anyopt::core {
namespace {

using anyopt::testing::default_env;

bool same_bytes(const EvaluatedConfig& a, const EvaluatedConfig& b) {
  return std::memcmp(&a.predicted_mean_rtt, &b.predicted_mean_rtt,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.predictable_mean_rtt, &b.predictable_mean_rtt,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.fraction_ordered, &b.fraction_ordered,
                     sizeof(double)) == 0 &&
         a.config.announce_order == b.config.announce_order;
}

TEST(OptimizerConcurrency, ConcurrentScoringMatchesSerial) {
  const Optimizer optimizer(default_env().pipeline->predictor());
  const std::size_t sites = default_env().world->deployment().site_count();

  // Mixed configurations: every size, many provider subsets, shuffled
  // announcement orders.
  std::vector<anycast::AnycastConfig> configs;
  Rng rng{0x5C0E};
  for (std::size_t i = 0; i < 60; ++i) {
    std::vector<SiteId> all;
    for (std::size_t s = 0; s < sites; ++s) {
      all.push_back(SiteId{static_cast<SiteId::underlying_type>(s)});
    }
    rng.shuffle(all);
    all.resize(1 + i % sites);
    anycast::AnycastConfig config;
    config.announce_order = std::move(all);
    configs.push_back(std::move(config));
  }
  std::vector<EvaluatedConfig> serial;
  for (const auto& config : configs) {
    serial.push_back(optimizer.evaluate_uncached(config));
  }

  // Each thread walks the list from its own offset, so different threads
  // score different provider subsets at the same moment.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<EvaluatedConfig>> results(
      kThreads, std::vector<EvaluatedConfig>(configs.size()));
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t j = 0; j < configs.size(); ++j) {
        const std::size_t i = (j + w * configs.size() / kThreads) %
                              configs.size();
        results[w][i] = optimizer.evaluate_uncached(configs[i]);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  for (std::size_t w = 0; w < kThreads; ++w) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      EXPECT_TRUE(same_bytes(results[w][i], serial[i]))
          << "thread " << w << ", config " << i;
    }
  }
}

}  // namespace
}  // namespace anyopt::core
