// Layout invariance: every census resolves against the frozen
// structure-of-arrays RIB (`bgp::CompactState`) through its walk cache,
// and the engine layout's plain walk (`bgp::RoutingState::resolve`) over
// the same converged state is the reference.  The suite's orchestrator
// probes a lossless, noise-free channel, so every target the reference
// walk reaches must be measured with the reference's site, attachment and
// round-trip latency, and every target it finds unreachable must stay
// unmeasured.  Classic, overlay and overlay-pair censuses are checked.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "anycast/world.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"
#include "netbase/telemetry.h"

namespace anyopt::measure {
namespace {

struct LayoutEnv {
  std::unique_ptr<anycast::World> world;
  std::unique_ptr<Orchestrator> orchestrator;
};

LayoutEnv& env() {
  static LayoutEnv e = [] {
    LayoutEnv out;
    out.world = anycast::World::create(anycast::WorldParams::test_scale(23));
    // No probe is lost and none is perturbed: a reachable target always
    // yields a measurement, and its RTT is the walk's round trip.
    OrchestratorOptions options;
    options.probe.loss_rate = 0.0;
    options.probe.jitter_frac = 0.0;
    options.probe.jitter_floor_ms = 0.0;
    options.probe.spike_prob = 0.0;
    out.orchestrator = std::make_unique<Orchestrator>(*out.world, options);
    return out;
  }();
  return e;
}

/// Keeps telemetry state from leaking between suites in this binary.
class LayoutInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override { force_off(); }
  void TearDown() override { force_off(); }
  static void force_off() {
    telemetry::set_enabled(false);
    telemetry::set_tracing(false);
    telemetry::Registry::global().reset();
  }
};

/// Checks `census` against the reference walk over `reference`, the
/// engine-layout state the census's own convergence produced.
void expect_census_matches_reference(const Census& census,
                                     const bgp::RoutingState& reference) {
  const auto& targets = env().world->targets();
  ASSERT_EQ(census.site_of_target.size(), targets.size());
  std::size_t reachable = 0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const anycast::Target& tgt =
        targets.target(TargetId{static_cast<TargetId::underlying_type>(t)});
    const bgp::ResolvedPath want = reference.resolve(tgt.as, tgt.where, t);
    if (!want.reachable) {
      EXPECT_FALSE(census.site_of_target[t].valid()) << "target " << t;
      EXPECT_EQ(census.attachment_of_target[t], bgp::kNoAttachment)
          << "target " << t;
      EXPECT_LT(census.rtt_ms[t], 0.0) << "target " << t;
      continue;
    }
    ++reachable;
    EXPECT_EQ(census.site_of_target[t], want.site) << "target " << t;
    EXPECT_EQ(census.attachment_of_target[t], want.attachment)
        << "target " << t;
    // The tunnel RTT is added before probing and subtracted after, so the
    // estimate equals the round trip up to rounding (floored at 0.05 ms).
    EXPECT_NEAR(census.rtt_ms[t], std::max(0.05, 2.0 * want.one_way_ms), 1e-9)
        << "target " << t;
  }
  EXPECT_GT(reachable, 0u);
  EXPECT_EQ(census.reachable_count(), reachable);
}

TEST_F(LayoutInvarianceTest, CensusesMatchReferenceWalkAcrossRandomConfigs) {
  const anycast::World& world = *env().world;
  const std::size_t sites = world.deployment().site_count();
  Rng rng{0x50A};
  for (std::uint64_t round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    anycast::AnycastConfig config;
    const std::size_t k = 1 + rng.below(sites);
    std::vector<std::size_t> ids(sites);
    for (std::size_t s = 0; s < sites; ++s) ids[s] = s;
    rng.shuffle(ids);
    for (std::size_t s = 0; s < k; ++s) {
      config.announce_order.push_back(
          SiteId{static_cast<SiteId::underlying_type>(ids[s])});
    }
    const std::uint64_t nonce = mix64(0x1A40, round);
    const bgp::RoutingState reference =
        world.simulator().run(config.schedule(world.deployment()), nonce);
    expect_census_matches_reference(env().orchestrator->measure(config, nonce),
                                    reference);
  }
}

TEST_F(LayoutInvarianceTest, OverlayCensusesMatchReferenceWalk) {
  // Overlay states freeze through the copy-on-write view: untouched ASes
  // read the shared base's pages, written ones their private copies.
  const anycast::World& world = *env().world;
  const Orchestrator& orch = *env().orchestrator;
  const auto& depl = world.deployment();
  const auto& sim = world.simulator();
  anycast::AnycastConfig base_cfg;
  base_cfg.announce_order = {SiteId{0}};
  const bgp::BaseState base = orch.converge_base(base_cfg, mix64(0xBA5E, 0));

  for (const SiteId second : {SiteId{3}, SiteId{9}}) {
    SCOPED_TRACE("second site " + std::to_string(second.value()));
    const std::vector<bgp::Injection> delta{
        {base_cfg.spacing_s, depl.transit_attachment(second), false}};
    const std::vector<bgp::AttachmentIndex> reage{
        depl.transit_attachment(SiteId{0})};
    anycast::AnycastConfig config0;
    config0.announce_order = {SiteId{0}, second};
    anycast::AnycastConfig config1;
    config1.announce_order = {second, SiteId{0}};
    const std::uint64_t nonce0 = mix64(0x0E, second.value());
    const std::uint64_t nonce1 = nonce0 ^ 1;

    const bgp::RoutingState single = sim.run_overlay(base, delta, nonce0);
    expect_census_matches_reference(
        orch.measure_overlay(base, config0, delta, nonce0, {}), single);

    bgp::RoutingState leg0 =
        sim.run_overlay(base, delta, nonce0, nullptr, {}, true);
    const Orchestrator::OverlayPairCensus pair = orch.measure_overlay_pair(
        base, config0, config1, delta, reage, nonce0, nonce1,
        &Orchestrator::thread_scratch(), {}, {});
    expect_census_matches_reference(pair.leg0, leg0);
    const bgp::RoutingState leg1 =
        sim.resume_overlay(std::move(leg0), {}, nonce1, nullptr, reage);
    expect_census_matches_reference(pair.leg1, leg1);
  }
}

TEST_F(LayoutInvarianceTest, CompactPathActuallyEngages) {
  // Guard against the suite passing vacuously: with telemetry on, a census
  // must freeze a RIB (bytes.rib high-water > 0), stream its aggregation
  // through shards, and replay cached walks.
  telemetry::set_enabled(true);
  auto& reg = telemetry::Registry::global();

  anycast::AnycastConfig config;
  config.announce_order = {SiteId{0}, SiteId{1}};
  (void)env().orchestrator->measure(config, 0xE6A6E);
  EXPECT_GT(reg.gauge_max("bytes.rib"), 0);
  EXPECT_GT(reg.gauge_max("bytes.census_shards"), 0);
  EXPECT_GT(reg.counter_value("bgp.resolve.cache_hit"), 0u);
}

}  // namespace
}  // namespace anyopt::measure
