// Arena invariance: the per-thread simulation arena
// (`Orchestrator::thread_scratch`) and the frozen RIB's walk cache must not
// change a single measured bit.  A census taken on a warm arena — after
// other experiments on the same thread, or inside a campaign runner of 1,
// 2 or 4 threads — must equal, byte for byte, the same spec measured as
// the first census of a brand-new thread (a cold arena).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anycast/world.h"
#include "bgp/compact.h"
#include "core/discovery.h"
#include "measure/campaign_runner.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"

namespace anyopt::measure {
namespace {

struct ArenaEnv {
  std::unique_ptr<anycast::World> world;
  std::unique_ptr<Orchestrator> orchestrator;
};

/// One shared world (building a world costs seconds).
ArenaEnv& env() {
  static ArenaEnv e = [] {
    ArenaEnv out;
    out.world = anycast::World::create(anycast::WorldParams::test_scale(21));
    out.orchestrator = std::make_unique<Orchestrator>(*out.world);
    return out;
  }();
  return e;
}

/// Keeps telemetry state from leaking between suites in this binary.
class CacheInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override { force_off(); }
  void TearDown() override { force_off(); }
  static void force_off() {
    telemetry::set_enabled(false);
    telemetry::set_tracing(false);
    telemetry::Registry::global().reset();
  }
};

std::vector<ExperimentSpec> campaign_specs(const anycast::Deployment& depl) {
  // A pairwise-order batch shaped like a discovery campaign leg.
  std::vector<ExperimentSpec> specs;
  const std::size_t sites = depl.site_count();
  for (std::size_t k = 0; k < 12; ++k) {
    ExperimentSpec spec;
    spec.config.announce_order = {
        SiteId{static_cast<SiteId::underlying_type>(k % sites)},
        SiteId{static_cast<SiteId::underlying_type>((k + 1 + k / sites) %
                                                    sites)}};
    spec.nonce = mix64(0xCAC4E, k);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Measures `spec` as the first census of a brand-new thread, whose arena
/// has never held a simulation.
Census cold_census(const Orchestrator& orch, const ExperimentSpec& spec) {
  Census out;
  std::thread([&] { out = orch.measure(spec.config, spec.nonce); }).join();
  return out;
}

/// Runs a few unrelated experiments on the calling thread so its arena
/// holds recycled buffers from other schedules.
void warm_this_thread(const Orchestrator& orch) {
  for (std::uint64_t k = 0; k < 3; ++k) {
    anycast::AnycastConfig config;
    config.announce_order = {SiteId{static_cast<SiteId::underlying_type>(k)},
                             SiteId{7}, SiteId{12}};
    (void)orch.measure(config, mix64(0x3A3, k));
  }
}

void expect_censuses_identical(const std::vector<Census>& a,
                               const std::vector<Census>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site_of_target, b[i].site_of_target) << "experiment " << i;
    EXPECT_EQ(a[i].attachment_of_target, b[i].attachment_of_target)
        << "experiment " << i;
    ASSERT_EQ(a[i].rtt_ms.size(), b[i].rtt_ms.size());
    for (std::size_t t = 0; t < a[i].rtt_ms.size(); ++t) {
      // operator== on doubles deliberately: bit-identical, not "close".
      ASSERT_EQ(a[i].rtt_ms[t], b[i].rtt_ms[t])
          << "experiment " << i << " target " << t;
    }
  }
}

void expect_tables_identical(const core::DiscoveryResult& a,
                             const core::DiscoveryResult& b) {
  EXPECT_EQ(a.experiments, b.experiments);
  EXPECT_EQ(a.provider_sites, b.provider_sites);
  EXPECT_EQ(a.provider_prefs.outcome, b.provider_prefs.outcome);
  ASSERT_EQ(a.site_prefs.size(), b.site_prefs.size());
  for (std::size_t p = 0; p < a.site_prefs.size(); ++p) {
    EXPECT_EQ(a.site_prefs[p].outcome, b.site_prefs[p].outcome)
        << "provider " << p;
  }
}

TEST_F(CacheInvarianceTest, CensusesBitIdenticalAcrossThreadCounts) {
  const Orchestrator& orch = *env().orchestrator;
  const auto specs = campaign_specs(orch.world().deployment());
  std::vector<Census> want;
  for (const ExperimentSpec& spec : specs) {
    want.push_back(cold_census(orch, spec));
  }

  warm_this_thread(orch);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const CampaignRunner runner(orch, {.threads = threads});
    expect_censuses_identical(want, runner.run(specs));
  }
}

TEST_F(CacheInvarianceTest, DiscoveryTablesBitIdentical) {
  // The same discovery run from a fresh thread, from the warm calling
  // thread, and over a two-worker pool: no arena history may leak into a
  // preference table.
  const Orchestrator& orch = *env().orchestrator;
  core::DiscoveryOptions serial;
  serial.threads = 1;
  core::DiscoveryResult fresh;
  std::thread([&] { fresh = core::Discovery(orch, serial).run(); }).join();

  warm_this_thread(orch);
  expect_tables_identical(fresh, core::Discovery(orch, serial).run());
  core::DiscoveryOptions pooled;
  pooled.threads = 2;
  expect_tables_identical(fresh, core::Discovery(orch, pooled).run());
}

TEST_F(CacheInvarianceTest, ExplainAgreesWithColdAndWarmResolve) {
  // One converged state, three readings of every sampled target: the
  // reference walk, its explanation, and the frozen RIB's walk — first
  // while each client AS's cache slot is cold, then replayed warm.
  const anycast::World& world = *env().world;
  const auto& targets = world.targets();
  anycast::AnycastConfig config;
  config.announce_order = {SiteId{0}, SiteId{1}};
  const bgp::RoutingState state = world.simulator().run(
      config.schedule(world.deployment()), mix64(0xE4, 9));
  const bgp::CompactState rib =
      bgp::CompactState::freeze(world.simulator(), state);

  const std::size_t step = std::max<std::size_t>(1, targets.size() / 40);
  for (const char* pass : {"cold", "warm"}) {
    SCOPED_TRACE(pass);
    for (std::size_t t = 0; t < targets.size(); t += step) {
      const anycast::Target& tgt =
          targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
      const bgp::ResolvedPath want = state.resolve(tgt.as, tgt.where, t);
      const bgp::Explanation why = state.explain(tgt.as, tgt.where, t);
      ASSERT_EQ(why.reachable, want.reachable) << "target " << t;
      if (want.reachable) {
        EXPECT_EQ(why.site, want.site) << "target " << t;
        ASSERT_EQ(why.hops.size(), want.as_path.size()) << "target " << t;
        for (std::size_t h = 0; h < why.hops.size(); ++h) {
          EXPECT_EQ(why.hops[h].as, want.as_path[h]) << "target " << t;
        }
      }
      const bgp::ResolvedPath got = rib.resolve(tgt.as, tgt.where, t);
      EXPECT_EQ(got.reachable, want.reachable) << "target " << t;
      EXPECT_EQ(got.site, want.site) << "target " << t;
      EXPECT_EQ(got.attachment, want.attachment) << "target " << t;
      EXPECT_EQ(got.as_path, want.as_path) << "target " << t;
      ASSERT_EQ(got.one_way_ms, want.one_way_ms) << "target " << t;
    }
  }
  EXPECT_GT(rib.cache_hits(), 0u);
}

TEST_F(CacheInvarianceTest, AmortizationActuallyEngages) {
  // Guard against the suite passing vacuously: the cold reference really
  // starts from an empty arena, while a serial campaign on one thread
  // recycles its arena and replays cached walks.
  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::global();
  const Orchestrator& orch = *env().orchestrator;
  const auto specs = campaign_specs(orch.world().deployment());

  (void)cold_census(orch, specs.front());
  EXPECT_EQ(reg.counter_value("sim.scratch_reuse"), 0u);

  reg.reset();
  const CampaignRunner runner(orch, {.threads = 1});
  (void)runner.run(specs);
  EXPECT_GT(reg.counter_value("bgp.resolve.cache_hit"), 0u);
  EXPECT_GT(reg.counter_value("sim.scratch_reuse"), 0u);
}

}  // namespace
}  // namespace anyopt::measure
