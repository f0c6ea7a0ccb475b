#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "support/core_fixture.h"

namespace anyopt::core {
namespace {

using anyopt::testing::default_env;

OptimizerOptions quick_options() {
  OptimizerOptions opts;
  opts.time_budget_s = 20.0;
  opts.order_candidates = 8;
  return opts;
}

TEST(Optimizer, SearchCoversAllSubsets) {
  const SearchOutcome out = default_env().pipeline->optimize(quick_options());
  EXPECT_TRUE(out.exhausted);
  EXPECT_EQ(out.configurations_evaluated, (1u << 15) - 1);
  ASSERT_EQ(out.best_per_size.size(), 16u);
  EXPECT_FALSE(out.best.config.announce_order.empty());
}

TEST(Optimizer, BestPerSizeHasRequestedSizes) {
  const SearchOutcome out = default_env().pipeline->optimize(quick_options());
  for (std::size_t k = 1; k <= 15; ++k) {
    EXPECT_EQ(out.best_per_size[k].config.announce_order.size(), k);
  }
}

TEST(Optimizer, BestBeatsGreedyBaselineOnPredictedRtt) {
  auto& pipeline = *default_env().pipeline;
  const SearchOutcome out = pipeline.optimize(quick_options());
  const Optimizer optimizer(pipeline.predictor(), quick_options());
  for (const std::size_t k : {4u, 8u, 12u}) {
    const auto greedy =
        Optimizer::greedy_unicast(pipeline.predictor().rtts(), k);
    const EvaluatedConfig greedy_eval = optimizer.evaluate_uncached(greedy);
    EXPECT_LE(out.best_per_size[k].predicted_mean_rtt,
              greedy_eval.predicted_mean_rtt + 1e-9)
        << "k=" << k;
  }
}

TEST(Optimizer, GlobalBestIsBestOfPerSize) {
  const SearchOutcome out = default_env().pipeline->optimize(quick_options());
  double best = std::numeric_limits<double>::infinity();
  for (const auto& slot : out.best_per_size) {
    if (!slot.config.announce_order.empty()) {
      best = std::min(best, slot.predicted_mean_rtt);
    }
  }
  EXPECT_DOUBLE_EQ(out.best.predicted_mean_rtt, best);
}

TEST(Optimizer, SizeBoundsRespected) {
  OptimizerOptions opts = quick_options();
  opts.min_sites = 3;
  opts.max_sites = 5;
  const SearchOutcome out = default_env().pipeline->optimize(opts);
  for (std::size_t k = 0; k < out.best_per_size.size(); ++k) {
    if (k < 3 || k > 5) {
      EXPECT_TRUE(out.best_per_size[k].config.announce_order.empty());
    } else {
      EXPECT_EQ(out.best_per_size[k].config.announce_order.size(), k);
    }
  }
}

TEST(Optimizer, SampledSearchRescoresOnFullTargets) {
  OptimizerOptions opts = quick_options();
  opts.target_sample = 150;
  const SearchOutcome sampled = default_env().pipeline->optimize(opts);
  // Re-scoring must make the reported numbers full-population numbers:
  // evaluating the winning config directly gives the same value.
  const Optimizer optimizer(default_env().pipeline->predictor(), opts);
  const EvaluatedConfig check =
      optimizer.evaluate_uncached(sampled.best.config);
  EXPECT_NEAR(check.predicted_mean_rtt, sampled.best.predicted_mean_rtt, 1e-9);
}

TEST(Optimizer, EvaluateMatchesPredictorOnOptimizerOrder) {
  // evaluate_uncached() uses the optimizer-chosen announcement order for the
  // provider subset; on the predictable population, predicting the *same
  // returned config* must agree with the search's bookkeeping closely.
  auto& pipeline = *default_env().pipeline;
  const SearchOutcome out = pipeline.optimize(quick_options());
  const auto& cfg = out.best_per_size[6].config;
  const Prediction direct = pipeline.predict(cfg);
  EXPECT_NEAR(direct.mean_rtt(), out.best_per_size[6].predictable_mean_rtt,
              0.05 * direct.mean_rtt() + 0.5);
  // And the imputed (population-wide) estimate sits at or above the
  // predictable-only mean only when the excluded clients are worse off —
  // either way both must be finite and ordered sanely.
  EXPECT_GT(out.best_per_size[6].predicted_mean_rtt, 0.0);
  EXPECT_LT(out.best_per_size[6].predicted_mean_rtt, 1e6);
}

TEST(Optimizer, ZeroTimeBudgetKeepsTheAscendingMaskPrefix) {
  // The budget is checked once every 4096 masks, so a zero budget stops
  // the search at mask 4096: masks 1..4095 (sites 0-11) are scored, in
  // ascending order, and nothing else.
  OptimizerOptions opts;
  opts.time_budget_s = 0;
  const Optimizer optimizer(default_env().pipeline->predictor(), opts);
  const SearchOutcome out = optimizer.search();
  EXPECT_FALSE(out.exhausted);
  EXPECT_EQ(out.configurations_evaluated, 4095u);
  ASSERT_EQ(out.best_per_size.size(), 16u);

  // Each size's winner is the first minimum over those masks.
  std::vector<EvaluatedConfig> first_min(16);
  std::vector<std::uint32_t> first_mask(16, 0);
  for (std::uint32_t mask = 1; mask < 4096; ++mask) {
    anycast::AnycastConfig config;
    for (std::uint32_t s = 0; s < 12; ++s) {
      if (mask >> s & 1) {
        config.announce_order.push_back(
            SiteId{static_cast<SiteId::underlying_type>(s)});
      }
    }
    const EvaluatedConfig scored = optimizer.evaluate_uncached(config);
    const auto k = static_cast<std::size_t>(__builtin_popcount(mask));
    if (scored.predicted_mean_rtt < first_min[k].predicted_mean_rtt) {
      first_min[k] = scored;
      first_mask[k] = mask;
    }
  }
  for (std::size_t k = 1; k <= 12; ++k) {
    const EvaluatedConfig& slot = out.best_per_size[k];
    std::uint32_t mask = 0;
    for (const SiteId s : slot.config.announce_order) {
      mask |= std::uint32_t{1} << s.value();
    }
    EXPECT_EQ(mask, first_mask[k]) << "k=" << k;
    EXPECT_EQ(slot.predicted_mean_rtt, first_min[k].predicted_mean_rtt)
        << "k=" << k;
    EXPECT_EQ(slot.predictable_mean_rtt, first_min[k].predictable_mean_rtt)
        << "k=" << k;
    EXPECT_EQ(slot.fraction_ordered, first_min[k].fraction_ordered)
        << "k=" << k;
  }
  for (std::size_t k = 13; k <= 15; ++k) {
    EXPECT_TRUE(out.best_per_size[k].config.announce_order.empty())
        << "k=" << k;
  }
}

TEST(Optimizer, ProvidersBeyondEightSitesAreRejected) {
  // The constructor keeps one site column per non-empty subset of a
  // provider's sites, 2^k - 1 of them, so it caps k at 8.
  for (const std::size_t k : {8u, 9u}) {
    anycast::WorldParams params = anycast::WorldParams::test_scale(31);
    params.sites.assign(k, anycast::SiteSpec{"Atlanta", "Telia", 0});
    const auto world = anycast::World::create(params);
    DiscoveryResult discovery;
    discovery.provider_prefs.init(1, 0);
    discovery.site_prefs.resize(1);
    discovery.site_prefs[0].init(k, 0);
    discovery.provider_sites = {
        world->deployment().sites_of_provider(ProviderId{0})};
    const Predictor predictor(world->deployment(), discovery,
                              RttMatrix(k, 0));
    if (k <= 8) {
      EXPECT_NO_THROW((void)Optimizer(predictor));
    } else {
      EXPECT_THROW((void)Optimizer(predictor), std::invalid_argument);
    }
  }
}

TEST(Optimizer, GreedyUnicastPicksLowestMeanSites) {
  const RttMatrix& rtts = default_env().pipeline->predictor().rtts();
  const auto cfg = Optimizer::greedy_unicast(rtts, 4);
  ASSERT_EQ(cfg.announce_order.size(), 4u);
  const auto ranked = rtts.sites_by_mean();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cfg.announce_order[i], ranked[i]);
  }
}

TEST(Optimizer, RandomConfigShape) {
  Rng rng{3};
  const auto cfg = Optimizer::random_config(
      default_env().world->deployment(), 2, 2, rng);
  EXPECT_EQ(cfg.announce_order.size(), 4u);
  // Exactly two providers, two sites each.
  std::map<std::size_t, int> per_provider;
  for (const SiteId s : cfg.announce_order) {
    ++per_provider[default_env()
                       .world->deployment()
                       .site(s)
                       .provider.value()];
  }
  EXPECT_EQ(per_provider.size(), 2u);
  for (const auto& [p, n] : per_provider) EXPECT_EQ(n, 2);
}

TEST(Optimizer, MoreSitesWellChosenNeverHurtPrediction) {
  // best-per-size predicted RTT should be non-increasing in k: enabling a
  // site can always be avoided, so the optimum over k+1-site subsets is at
  // most ... NOT guaranteed in anycast (adding a site can hurt!), but the
  // *minimum over subsets of size <= k* is monotone.  Verify on the
  // cumulative minimum.
  const SearchOutcome out = default_env().pipeline->optimize(quick_options());
  double cummin = std::numeric_limits<double>::infinity();
  std::size_t argmin = 0;
  for (std::size_t k = 1; k <= 15; ++k) {
    if (out.best_per_size[k].predicted_mean_rtt < cummin) {
      cummin = out.best_per_size[k].predicted_mean_rtt;
      argmin = k;
    }
  }
  EXPECT_EQ(out.best.config.announce_order.size(), argmin);
  // And the paper's headline phenomenon: enabling all 15 sites is NOT the
  // best configuration.
  EXPECT_LT(out.best.predicted_mean_rtt,
            out.best_per_size[15].predicted_mean_rtt + 1e-9);
}

}  // namespace
}  // namespace anyopt::core
