// Cross-module integration invariants: properties that must hold across
// the topology -> BGP -> measurement -> prediction chain as a whole.

#include <gtest/gtest.h>

#include "topo/serialize.h"
#include "support/core_fixture.h"

namespace anyopt {
namespace {

using anyopt::testing::default_env;

TEST(Integration, CensusMatchesRawResolution) {
  // The orchestrator's catchment census must agree with walking the data
  // plane directly (probe noise only affects RTT values, not catchments,
  // except for full probe loss).
  auto& env = default_env();
  const auto cfg = anycast::AnycastConfig::all_sites(env.world->deployment());
  const measure::Census census = env.orchestrator->measure(cfg, 0x1D);
  const auto schedule = cfg.schedule(env.world->deployment());
  const bgp::RoutingState state = env.world->simulator().run(schedule, 0x1D);
  std::size_t mismatches = 0;
  std::size_t compared = 0;
  for (std::uint32_t t = 0; t < env.world->targets().size(); ++t) {
    const auto& target = env.world->targets().target(TargetId{t});
    const bgp::ResolvedPath path = state.resolve(target.as, target.where, t);
    if (!census.site_of_target[t].valid() || !path.reachable) continue;
    ++compared;
    mismatches += census.site_of_target[t] != path.site;
  }
  ASSERT_GT(compared, 0u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Integration, ExplainOrderDependenceMatchesDiscoveryRate) {
  // Two independent views of §4.2's phenomenon must agree in magnitude:
  // the fraction of clients whose deployed route needed the arrival-order
  // step (explain()) and the fraction of order-dependent pairwise
  // preferences (discovery classification).
  auto& env = default_env();
  const auto cfg = anycast::AnycastConfig::all_sites(env.world->deployment());
  const auto schedule = cfg.schedule(env.world->deployment());
  const bgp::RoutingState state = env.world->simulator().run(schedule, 0x2E);
  std::size_t order_dependent = 0;
  std::size_t reachable = 0;
  for (std::uint32_t t = 0; t < env.world->targets().size(); ++t) {
    const auto& target = env.world->targets().target(TargetId{t});
    const bgp::Explanation why = state.explain(target.as, target.where, t);
    if (!why.reachable) continue;
    ++reachable;
    order_dependent += why.order_dependent();
  }
  const double explain_rate =
      static_cast<double>(order_dependent) / static_cast<double>(reachable);

  const core::PairwiseStats stats =
      core::tabulate(env.pipeline->discover().provider_prefs);
  const double od_rate =
      static_cast<double>(stats.order_dependent) /
      static_cast<double>(stats.strict + stats.order_dependent +
                          stats.inconsistent + stats.unknown);
  // Same phenomenon, different denominators: require the same ballpark.
  EXPECT_GT(explain_rate, od_rate / 4);
  EXPECT_LT(explain_rate, od_rate * 6 + 0.05);
}

TEST(Integration, PredictorAgreesWithExplainedSites) {
  // For targets the predictor claims to predict, the explanation of the
  // deployed state should land on the same site almost always.
  auto& env = default_env();
  anycast::AnycastConfig cfg;
  cfg.announce_order = {SiteId{1}, SiteId{4}, SiteId{7}, SiteId{12}};
  const core::Prediction prediction = env.pipeline->predict(cfg);
  const auto schedule = cfg.schedule(env.world->deployment());
  const bgp::RoutingState state = env.world->simulator().run(schedule, 0x3F);
  std::size_t agree = 0;
  std::size_t compared = 0;
  for (std::uint32_t t = 0; t < env.world->targets().size(); ++t) {
    if (!prediction.site_of_target[t].valid()) continue;
    const auto& target = env.world->targets().target(TargetId{t});
    const bgp::Explanation why = state.explain(target.as, target.where, t);
    if (!why.reachable) continue;
    ++compared;
    agree += why.site == prediction.site_of_target[t];
  }
  ASSERT_GT(compared, 0u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(compared),
            0.93);
}

TEST(Integration, WorldIsFullyDeterministic) {
  // Two worlds from the same seed must produce identical discovery tables
  // and bit-identical RTT matrices.
  auto world_a =
      anycast::World::create(anycast::WorldParams::test_scale(1234));
  auto world_b =
      anycast::World::create(anycast::WorldParams::test_scale(1234));
  measure::Orchestrator orch_a(*world_a);
  measure::Orchestrator orch_b(*world_b);
  core::AnyOptPipeline pipe_a(orch_a);
  core::AnyOptPipeline pipe_b(orch_b);

  const core::DiscoveryResult& a = pipe_a.discover();
  const core::DiscoveryResult& b = pipe_b.discover();
  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.provider_sites, b.provider_sites);
  EXPECT_EQ(a.provider_prefs.item_count, b.provider_prefs.item_count);
  EXPECT_EQ(a.provider_prefs.outcome, b.provider_prefs.outcome);
  ASSERT_EQ(a.site_prefs.size(), b.site_prefs.size());
  for (std::size_t p = 0; p < a.site_prefs.size(); ++p) {
    EXPECT_EQ(a.site_prefs[p].item_count, b.site_prefs[p].item_count)
        << "provider " << p;
    EXPECT_EQ(a.site_prefs[p].outcome, b.site_prefs[p].outcome)
        << "provider " << p;
  }

  const core::RttMatrix& rtt_a = pipe_a.measure_rtts();
  const core::RttMatrix& rtt_b = pipe_b.measure_rtts();
  ASSERT_EQ(rtt_a.site_count(), rtt_b.site_count());
  ASSERT_EQ(rtt_a.target_count(), rtt_b.target_count());
  for (std::size_t s = 0; s < rtt_a.site_count(); ++s) {
    const SiteId site{static_cast<SiteId::underlying_type>(s)};
    std::vector<double> row_a;
    std::vector<double> row_b;
    for (std::uint32_t t = 0; t < rtt_a.target_count(); ++t) {
      row_a.push_back(rtt_a.rtt(site, TargetId{t}));
      row_b.push_back(rtt_b.rtt(site, TargetId{t}));
    }
    // operator== on doubles deliberately: bit-identical, not "close".
    EXPECT_EQ(row_a, row_b) << "site " << s;
  }
}

TEST(Integration, DifferentSeedsProduceDifferentWorlds) {
  auto world_a =
      anycast::World::create(anycast::WorldParams::test_scale(1));
  auto world_b =
      anycast::World::create(anycast::WorldParams::test_scale(2));
  EXPECT_NE(topo::save_internet(world_a->internet()),
            topo::save_internet(world_b->internet()));
}

TEST(Integration, SplpoOptimumMatchesOptimizerOnFixedOrder) {
  // Solving the Appendix-B SPLPO instance built from the campaign must
  // agree with the optimizer's per-size scan when both use the same
  // (site-id) announcement order and the same client population: the
  // SPLPO exhaustive optimum can never be worse.
  auto& env = default_env();
  const auto order = anycast::AnycastConfig::all_sites(env.world->deployment());
  const core::SplpoInstance inst = env.pipeline->splpo_instance(order);
  core::ExhaustiveOptions opts;
  opts.min_open = 4;
  opts.max_open = 4;
  const core::SplpoSolution exact = core::solve_exhaustive(inst, opts);
  ASSERT_TRUE(exact.feasible);
  // Evaluate the optimizer's 4-site winner on the SPLPO instance.
  core::OptimizerOptions oopts;
  oopts.time_budget_s = 20;
  const core::SearchOutcome search = env.pipeline->optimize(oopts);
  std::vector<std::uint32_t> open;
  for (const SiteId s : search.best_per_size[4].config.announce_order) {
    open.push_back(s.value());
  }
  const core::SplpoSolution via_optimizer =
      core::evaluate_open_set(inst, open);
  EXPECT_LE(exact.total_cost, via_optimizer.total_cost + 1e-6);
}

TEST(Integration, PeerEnablementNeverBreaksTransitReachability) {
  // Turning peers on can only move catchments, never strand a client that
  // the transit-only configuration could serve.
  auto& env = default_env();
  anycast::AnycastConfig base =
      anycast::AnycastConfig::all_sites(env.world->deployment());
  const measure::Census before = env.orchestrator->measure(base, 0x77);
  anycast::AnycastConfig with_peers = base;
  const auto peers = env.world->deployment().all_peer_attachments();
  with_peers.enabled_peers.assign(peers.begin(), peers.end());
  const measure::Census after = env.orchestrator->measure(with_peers, 0x77);
  // Allow a handful of probe-loss differences, nothing systematic.
  EXPECT_GE(after.reachable_count() + 5, before.reachable_count());
}

}  // namespace
}  // namespace anyopt
