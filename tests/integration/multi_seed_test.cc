// Robustness sweep: the reproduction's qualitative claims must hold on
// freshly generated worlds, not just the committed seed.

#include <gtest/gtest.h>

#include "core/anyopt.h"
#include "support/core_fixture.h"

namespace anyopt {
namespace {

class MultiSeedTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    world_ = anycast::World::create(
        anycast::WorldParams::test_scale(GetParam()));
    orchestrator_ = std::make_unique<measure::Orchestrator>(*world_);
    pipeline_ = std::make_unique<core::AnyOptPipeline>(*orchestrator_);
  }
  std::unique_ptr<anycast::World> world_;
  std::unique_ptr<measure::Orchestrator> orchestrator_;
  std::unique_ptr<core::AnyOptPipeline> pipeline_;
};

TEST_P(MultiSeedTest, PredictionAccuracyHoldsAcrossWorlds) {
  Rng rng{GetParam() ^ 0xACC};
  anycast::AnycastConfig cfg;
  std::vector<std::size_t> ids(15);
  for (std::size_t i = 0; i < 15; ++i) ids[i] = i;
  rng.shuffle(ids);
  for (std::size_t i = 0; i < 7; ++i) {
    cfg.announce_order.push_back(
        SiteId{static_cast<SiteId::underlying_type>(ids[i])});
  }
  const core::Prediction prediction = pipeline_->predict(cfg);
  const measure::Census census = orchestrator_->measure(cfg, 0xCAFE);
  EXPECT_GT(prediction.accuracy_against(census), 0.88)
      << "seed " << GetParam();
}

TEST_P(MultiSeedTest, OrderAccountingAlwaysHelpsCoverage) {
  // Total-order coverage with order accounting must beat the naive flat
  // approach on every world (Fig. 4c's qualitative claim).
  core::DiscoveryOptions naive_opts;
  naive_opts.account_order = false;
  const core::Discovery naive(*orchestrator_, naive_opts);
  std::size_t experiments = 0;
  const core::PairwiseTable flat = naive.flat_site_level(&experiments);
  std::vector<std::size_t> items(15);
  std::vector<std::size_t> arrival(15);
  for (std::size_t i = 0; i < 15; ++i) {
    items[i] = i;
    arrival[i] = i;
  }
  const double naive_frac =
      core::fraction_with_total_order(flat, items, arrival);

  const auto all = anycast::AnycastConfig::all_sites(world_->deployment());
  const double two_level = pipeline_->predictor().fraction_ordered(all);
  EXPECT_GT(two_level, naive_frac) << "seed " << GetParam();
}

TEST_P(MultiSeedTest, OptimizerNeverLosesToGreedyOnPredictedScore) {
  core::OptimizerOptions opts;
  opts.time_budget_s = 20;
  opts.order_candidates = 6;
  const core::SearchOutcome out = pipeline_->optimize(opts);
  const core::Optimizer optimizer(pipeline_->predictor(), opts);
  for (const std::size_t k : {6u, 10u}) {
    const auto greedy = core::Optimizer::greedy_unicast(
        pipeline_->predictor().rtts(), k);
    EXPECT_LE(out.best_per_size[k].predicted_mean_rtt,
              optimizer.evaluate_uncached(greedy).predicted_mean_rtt + 1e-9)
        << "seed " << GetParam() << " k " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSeedTest,
                         ::testing::Values(911, 922, 933));

}  // namespace
}  // namespace anyopt
