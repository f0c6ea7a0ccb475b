// Capacity (Appendix B Eq. 7) and workload-weighting extensions of the
// configuration search.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/optimizer.h"
#include "support/core_fixture.h"

namespace anyopt::core {
namespace {

using anyopt::testing::default_env;

OptimizerOptions quick() {
  OptimizerOptions opts;
  opts.time_budget_s = 20.0;
  opts.order_candidates = 6;
  return opts;
}

TEST(OptimizerConstraints, UncapacitatedEqualsDefault) {
  auto& pipeline = *default_env().pipeline;
  const SearchOutcome plain = pipeline.optimize(quick());
  OptimizerOptions opts = quick();
  opts.site_capacity.assign(15, 1e18);  // effectively unlimited
  const SearchOutcome capped = pipeline.optimize(opts);
  EXPECT_EQ(plain.best.config.announce_order,
            capped.best.config.announce_order);
  EXPECT_DOUBLE_EQ(plain.best.predicted_mean_rtt,
                   capped.best.predicted_mean_rtt);
}

TEST(OptimizerConstraints, TightCapacityChangesOrExcludesConfigs) {
  auto& pipeline = *default_env().pipeline;
  const SearchOutcome plain = pipeline.optimize(quick());

  // Find the busiest site of the unconstrained winner and cap it below
  // its predicted load.
  const Prediction pred = pipeline.predict(plain.best.config);
  std::vector<double> load(15, 0);
  for (const SiteId s : pred.site_of_target) {
    if (s.valid()) load[s.value()] += 1.0;
  }
  const std::size_t busiest = static_cast<std::size_t>(
      std::max_element(load.begin(), load.end()) - load.begin());

  OptimizerOptions opts = quick();
  opts.site_capacity.assign(15, 1e18);
  opts.site_capacity[busiest] = load[busiest] / 2;
  const SearchOutcome capped = pipeline.optimize(opts);
  ASSERT_FALSE(capped.best.config.announce_order.empty());
  // The new winner either avoids the capped site or sheds enough load.
  const Prediction new_pred = pipeline.predict(capped.best.config);
  double new_load = 0;
  for (const SiteId s : new_pred.site_of_target) {
    if (s.valid() && s.value() == busiest) new_load += 1.0;
  }
  EXPECT_LE(new_load, load[busiest] / 2 * 1.1 + 10.0);
  // Feasibility costs latency: the constrained optimum cannot beat the
  // unconstrained one.
  EXPECT_GE(capped.best.predicted_mean_rtt,
            plain.best.predicted_mean_rtt - 1e-9);
}

TEST(OptimizerConstraints, LoadExactlyAtCapacityPasses) {
  // The Eq. 7 gate is strictly greater-than: a site loaded exactly to its
  // capacity is feasible.  With a single enabled site every predictable
  // target lands on it, so the site's load is exactly the predictable
  // count and we can pin capacity to the boundary.
  auto& env = default_env();
  auto& pipeline = *env.pipeline;
  const SearchOutcome plain = pipeline.optimize(quick());
  ASSERT_FALSE(plain.best.config.announce_order.empty());
  const SiteId solo_site = plain.best.config.announce_order.front();
  const anycast::AnycastConfig solo =
      anycast::AnycastConfig::of_sites({solo_site});

  OptimizerOptions opts = quick();
  core::Optimizer unconstrained(pipeline.predictor(), opts);
  const EvaluatedConfig base = unconstrained.evaluate_uncached(solo);
  const double n = static_cast<double>(env.world->targets().size());
  const double load = std::round(base.fraction_ordered * n);
  ASSERT_GT(load, 0.0);

  opts.site_capacity.assign(15, 1e18);
  opts.site_capacity[solo_site.value()] = load;  // exactly at capacity
  core::Optimizer at_capacity(pipeline.predictor(), opts);
  EXPECT_TRUE(
      std::isfinite(at_capacity.evaluate_uncached(solo).predicted_mean_rtt));

  opts.site_capacity[solo_site.value()] = load - 0.5;  // just below
  core::Optimizer over_capacity(pipeline.predictor(), opts);
  EXPECT_FALSE(
      std::isfinite(over_capacity.evaluate_uncached(solo).predicted_mean_rtt));
}

TEST(OptimizerConstraints, ZeroCapacityWithZeroWeightCatchmentIsFeasible) {
  // Capacity 0 is not a poison value: the gate never divides by capacity,
  // so a drained site (capacity 0) under a drained workload (its whole
  // catchment weighted 0) is compliant.  The same zero-capacity site under
  // uniform weights gates the configuration.
  auto& env = default_env();
  auto& pipeline = *env.pipeline;
  const SearchOutcome plain = pipeline.optimize(quick());
  const anycast::AnycastConfig config = plain.best.config;
  ASSERT_GE(config.announce_order.size(), 2u);

  // Busiest site of the winner — guaranteed a non-empty catchment.
  const Prediction pred = pipeline.predict(config);
  std::vector<double> load(15, 0);
  for (const SiteId s : pred.site_of_target) {
    if (s.valid()) load[s.value()] += 1.0;
  }
  const std::size_t drained = static_cast<std::size_t>(
      std::max_element(load.begin(), load.end()) - load.begin());
  ASSERT_GT(load[drained], 0.0);

  OptimizerOptions opts = quick();
  opts.site_capacity.assign(15, 1e18);
  opts.site_capacity[drained] = 0.0;
  opts.target_weight.assign(env.world->targets().size(), 1.0);
  for (std::size_t t = 0; t < pred.site_of_target.size(); ++t) {
    // Zero out the drained site's catchment and the unpredictable targets
    // (the latter add no load either way; zeroing keeps the weights tidy).
    if (!pred.site_of_target[t].valid() ||
        pred.site_of_target[t].value() == drained) {
      opts.target_weight[t] = 0.0;
    }
  }
  core::Optimizer drained_workload(pipeline.predictor(), opts);
  EXPECT_TRUE(std::isfinite(
      drained_workload.evaluate_uncached(config).predicted_mean_rtt));

  OptimizerOptions uniform = quick();
  uniform.site_capacity = opts.site_capacity;
  core::Optimizer live_workload(pipeline.predictor(), uniform);
  EXPECT_FALSE(std::isfinite(
      live_workload.evaluate_uncached(config).predicted_mean_rtt));
}

TEST(OptimizerConstraints, ImpossibleCapacityYieldsNoConfig) {
  auto& pipeline = *default_env().pipeline;
  OptimizerOptions opts = quick();
  opts.site_capacity.assign(15, 0.0);  // nothing may carry traffic
  const SearchOutcome out = pipeline.optimize(opts);
  EXPECT_TRUE(out.best.config.announce_order.empty());
}

TEST(OptimizerConstraints, UniformWeightsMatchUnweighted) {
  auto& pipeline = *default_env().pipeline;
  const SearchOutcome plain = pipeline.optimize(quick());
  OptimizerOptions opts = quick();
  opts.target_weight.assign(default_env().world->targets().size(), 3.0);
  const SearchOutcome weighted = pipeline.optimize(opts);
  EXPECT_EQ(plain.best.config.announce_order,
            weighted.best.config.announce_order);
  EXPECT_NEAR(plain.best.predicted_mean_rtt,
              weighted.best.predicted_mean_rtt, 1e-6);
}

TEST(OptimizerConstraints, SkewedWeightsFollowTheHeavyClients) {
  // Put all workload on the clients of one region: the weighted objective
  // equals (approximately) those clients' mean RTT, so the optimum must
  // serve them well.
  auto& env = default_env();
  auto& pipeline = *env.pipeline;
  const std::size_t targets = env.world->targets().size();
  OptimizerOptions opts = quick();
  opts.target_weight.assign(targets, 0.001);
  // Weight the first quarter of targets heavily.
  for (std::size_t t = 0; t < targets / 4; ++t) {
    opts.target_weight[t] = 100.0;
  }
  const SearchOutcome weighted = pipeline.optimize(opts);
  ASSERT_FALSE(weighted.best.config.announce_order.empty());

  // Weighted mean under the returned config, recomputed independently.
  const Prediction pred = pipeline.predict(weighted.best.config);
  double heavy_sum = 0;
  std::size_t heavy_n = 0;
  for (std::size_t t = 0; t < targets / 4; ++t) {
    if (pred.rtt_ms[t] >= 0) {
      heavy_sum += pred.rtt_ms[t];
      ++heavy_n;
    }
  }
  ASSERT_GT(heavy_n, 0u);
  // The reported weighted objective must sit near the heavy clients' mean
  // (light clients contribute ~0.001 weight each).
  EXPECT_NEAR(weighted.best.predicted_mean_rtt, heavy_sum / heavy_n,
              0.12 * (heavy_sum / heavy_n) + 2.0);
}

}  // namespace
}  // namespace anyopt::core
