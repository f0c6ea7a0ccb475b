// census_35k: the measurement plane at Internet scale (35,000 ASes, 98,149
// targets).  Ops alternate between a classic census of a seeded site
// subset and order, and an incremental discovery pair over the shared base
// of one provider anchor.  See README.md for why.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "anycast/world.h"
#include "common.h"
#include "hostspeed.h"
#include "measure/orchestrator.h"
#include "netbase/rng.h"
#include "topo/builder.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace anyopt;

constexpr std::size_t kAses = 35000;
/// Nominal length of one census + one overlay pair (measured on a 4-vCPU
/// Xeon VM); with `--seconds` it fixes how many op pairs a run times.  At
/// 20 s that is 20 of each, so op_tail_ms is a p75 with ten ops beyond it.
constexpr double kNominalCycleS = 1.0;
/// Full set-ups (world + anchor bases) per run; setup_s is their median.
constexpr int kSetups = 2;
/// Ops of each kind re-run untimed per run and compared bit for bit.
constexpr std::size_t kRechecks = 2;
/// Census configs converged alone in traced runs, to split bgp from measure.
constexpr std::size_t kSplitEvery = 3;
/// Announcement spacing of every schedule (the discovery default).
constexpr double kSpacingS = 360.0;

struct CensusOp {
  anycast::AnycastConfig config;
  std::uint64_t nonce = 0;
};

struct PairOp {
  std::size_t anchor = 0;  ///< index into the anchors / bases
  anycast::AnycastConfig config0, config1;
  std::vector<bgp::Injection> delta;
  std::vector<bgp::AttachmentIndex> reage;
  std::uint64_t nonce0 = 0, nonce1 = 0;
};

/// The shared base of one provider anchor: the anchor announced alone.
anycast::AnycastConfig anchor_config(SiteId anchor) {
  anycast::AnycastConfig config;
  config.announce_order = {anchor};
  config.spacing_s = kSpacingS;
  return config;
}

std::uint64_t base_nonce(std::uint64_t seed, std::size_t anchor) {
  return derive(seed, 0xBA5E, anchor);
}

measure::Orchestrator::OverlayPairCensus run_pair(
    const measure::Orchestrator& orchestrator, const bgp::BaseState& base,
    const PairOp& op) {
  return orchestrator.measure_overlay_pair(
      base, op.config0, op.config1, op.delta, op.reage, op.nonce0, op.nonce1,
      nullptr, measure::ExperimentAt{}, measure::ExperimentAt{});
}

}  // namespace

void run_census_35k(const Args& args, Record& record) {
  // Set-up: world plus one converged base per provider anchor, kSetups
  // times; the last set-up is kept.
  std::unique_ptr<anycast::World> world;
  std::unique_ptr<measure::Orchestrator> orchestrator;
  std::vector<bgp::BaseState> bases;
  std::vector<SiteId> anchors;
  std::vector<double> setups, world_builds;
  for (int i = 0; i < kSetups; ++i) {
    bases.clear();
    orchestrator.reset();
    world.reset();
    const double t0 = now_s();
    {
      const Span span("anycast.World::create", "anycast");
      world = anycast::World::create(
          anycast::WorldParams::at_scale(kAses, args.world_seed));
    }
    world_builds.push_back(now_s() - t0);
    orchestrator = std::make_unique<measure::Orchestrator>(*world);
    const anycast::Deployment& dep = world->deployment();
    anchors.clear();
    for (std::size_t p = 0; p < dep.provider_count(); ++p) {
      anchors.push_back(dep.sites_of_provider(
          ProviderId{static_cast<ProviderId::underlying_type>(p)})[0]);
      const Span span("measure::Orchestrator::converge_base", "bgp");
      bases.push_back(orchestrator->converge_base(anchor_config(anchors[p]),
                                                  base_nonce(args.seed, p)));
    }
    setups.push_back(now_s() - t0);
  }
  HostSpeed::global().end_setup();
  record.metric("setup_s", median(setups), "s");
  record.metric("anycast.world_build_s", median(world_builds), "s");
  const anycast::Deployment& dep = world->deployment();
  const std::size_t sites = dep.site_count();

  // The op list: a pure function of the seed and the run length.  Subset
  // sizes follow a fixed sequence, so every run measures the same mix of
  // sizes; which sites, their order and every nonce come from the seed.
  const std::size_t cycles = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds / kNominalCycleS + 0.5));
  Rng rng{derive(args.seed, 0xCE45)};
  std::vector<CensusOp> census_ops(cycles);
  std::vector<PairOp> pair_ops(cycles);
  for (std::size_t k = 0; k < cycles; ++k) {
    std::vector<SiteId> order;
    for (std::size_t s = 0; s < sites; ++s) {
      order.push_back(SiteId{static_cast<SiteId::underlying_type>(s)});
    }
    rng.shuffle(order);
    order.resize(1 + (k * 7) % sites);
    census_ops[k].config = anycast::AnycastConfig::of_sites(std::move(order));
    census_ops[k].config.spacing_s = kSpacingS;
    census_ops[k].nonce = derive(args.seed, 0xC0, k);

    PairOp& pair = pair_ops[k];
    pair.anchor = k % anchors.size();
    const SiteId lead = anchors[pair.anchor];
    SiteId trail = lead;
    while (trail == lead) {
      trail = SiteId{static_cast<SiteId::underlying_type>(rng.below(sites))};
    }
    pair.config0.announce_order = {lead, trail};
    pair.config0.spacing_s = kSpacingS;
    pair.config1.announce_order = {trail, lead};
    pair.config1.spacing_s = kSpacingS;
    pair.delta = {bgp::Injection{kSpacingS, dep.transit_attachment(trail),
                                 false}};
    pair.reage = {dep.transit_attachment(lead)};
    pair.nonce0 = derive(args.seed, 0x9A, 2 * k);
    pair.nonce1 = derive(args.seed, 0x9A, 2 * k + 1);
  }
  // Which ops the answer check re-runs.
  std::vector<std::size_t> recheck;
  for (std::size_t i = 0; i < kRechecks && i < cycles; ++i) {
    recheck.push_back((derive(args.seed, 0xC4EC, i) % cycles));
  }
  const auto rechecked = [&](std::size_t k) {
    return std::find(recheck.begin(), recheck.end(), k) != recheck.end();
  };

  // Timed phase: census and pair interleave, so both see the same host
  // phases.
  std::vector<double> census_ms(cycles, 0), pair_ms(cycles, 0);
  std::vector<char> census_ok(cycles, 0), pair_ok(cycles, 0);
  std::vector<measure::Census> kept_census(cycles);
  std::vector<measure::Orchestrator::OverlayPairCensus> kept_pair(cycles);
  for (std::size_t k = 0; k < cycles; ++k) {
    const auto op = static_cast<std::int64_t>(2 * k);
    try {
      double t0 = 0;
      measure::Census census;
      {
        const Span span("census.classic", "bench", op);
        t0 = now_s();
        const Span call("measure::Orchestrator::measure", "measure", op);
        census = orchestrator->measure(census_ops[k].config,
                                       census_ops[k].nonce);
      }
      census_ms[k] = (now_s() - t0) * 1e3;
      census_ok[k] = census.reachable_count() > 0;
      record.count("measure.reachable_targets", census.reachable_count());
      if (rechecked(k)) kept_census[k] = std::move(census);
    } catch (const std::exception& e) {
      record.fail("census " + std::to_string(k) + ": " + e.what());
    }
    try {
      double t0 = 0;
      measure::Orchestrator::OverlayPairCensus legs;
      {
        const Span span("census.overlay_pair", "bench", op + 1);
        t0 = now_s();
        const Span call("measure::Orchestrator::measure_overlay_pair",
                        "measure", op + 1);
        legs = run_pair(*orchestrator, bases[pair_ops[k].anchor], pair_ops[k]);
      }
      pair_ms[k] = (now_s() - t0) * 1e3;
      pair_ok[k] =
          legs.leg0.reachable_count() > 0 && legs.leg1.reachable_count() > 0;
      record.count("measure.reachable_targets",
                   legs.leg0.reachable_count() + legs.leg1.reachable_count());
      if (rechecked(k)) kept_pair[k] = std::move(legs);
    } catch (const std::exception& e) {
      record.fail("overlay pair " + std::to_string(k) + ": " + e.what());
    }
  }
  record.metric("peak_rss_mb", peak_rss_mb(), "MB");
  if (args.trace) record_registry_metrics(record, cycles);

  // Answer checks: the same op re-run untimed must give the same bytes;
  // an overlay pair is re-run over a freshly converged private base, which
  // the converge_base contract makes interchangeable with the shared one.
  for (const std::size_t k : recheck) {
    const Span span("census.recheck", "bench", kNoOp, true);
    if (census_ok[k] &&
        !same_census(kept_census[k], orchestrator->measure(
                                         census_ops[k].config,
                                         census_ops[k].nonce))) {
      census_ok[k] = 0;
      record.fail("census " + std::to_string(k) + " is not reproducible");
    }
    const PairOp& pair = pair_ops[k];
    const bgp::BaseState private_base = orchestrator->converge_base(
        anchor_config(anchors[pair.anchor]), base_nonce(args.seed, pair.anchor));
    const measure::Orchestrator::OverlayPairCensus again =
        run_pair(*orchestrator, private_base, pair);
    if (pair_ok[k] && !(same_census(kept_pair[k].leg0, again.leg0) &&
                        same_census(kept_pair[k].leg1, again.leg1))) {
      pair_ok[k] = 0;
      record.fail("overlay pair " + std::to_string(k) +
                  " differs on a private base");
    }
  }
  for (std::size_t k = 0; k < cycles; ++k) {
    if (!census_ok[k]) record.fail("census " + std::to_string(k) + " failed");
    if (!pair_ok[k]) record.fail("overlay pair " + std::to_string(k) + " failed");
    record.op(census_ok[k] != 0);
    record.op(pair_ok[k] != 0);
  }

  record.samples("census", census_ms);
  record.samples("overlay_pair", pair_ms);
  std::vector<double> all_ms = census_ms;
  all_ms.insert(all_ms.end(), pair_ms.begin(), pair_ms.end());
  // The tail pools both op kinds, each one measurement call of about the
  // same cost: over two sets of ten runs the slowest of 18 censuses alone
  // spread 0.07 and 0.35 (IQR share of the median), a p75 of the 36 pooled
  // ops 0.15 in both.
  const double tail = tail_percentile(all_ms.size());
  record.info("tail_percentile", std::to_string(tail));
  record.info("ops", std::to_string(cycles) + " censuses + " +
                         std::to_string(cycles) + " overlay pairs");
  record.metric("op_p50_ms", median(census_ms), "ms");
  record.metric("op_tail_ms", percentile(all_ms, tail), "ms");
  record.metric("aux_p50_ms", median(pair_ms), "ms");
  record.metric("ops_per_s", ops_per_second(all_ms), "1/s");

  if (!args.trace) return;
  {
    const double t0 = now_s();
    {
      const Span span("topo::build_internet", "topo", kNoOp, true);
      const topo::Internet net = topo::build_internet(world->params().internet);
    }
    record.metric("topo.build_internet_s", now_s() - t0, "s");
  }
  // Split bgp from measure: converge every kSplitEvery-th census config
  // alone (same nonce); the census's remainder is resolve + probe.
  std::vector<double> converge_ms, resolve_ms, ns_per_event, events;
  for (std::size_t k = 0; k < cycles; k += kSplitEvery) {
    const double t0 = now_s();
    std::size_t n = 0;
    {
      const Span span("measure::Orchestrator::converge_base", "bgp",
                      static_cast<std::int64_t>(2 * k), true);
      n = orchestrator->converge_base(census_ops[k].config, census_ops[k].nonce)
              .events();
    }
    const double ms = (now_s() - t0) * 1e3;
    converge_ms.push_back(ms);
    resolve_ms.push_back(census_ms[k] - ms);
    ns_per_event.push_back(ms * 1e6 / static_cast<double>(n));
    events.push_back(static_cast<double>(n));
  }
  record.metric("bgp.converge_ms", median(converge_ms), "ms");
  record.metric("bgp.events_per_census", mean(events), "count");
  record.metric("bgp.ns_per_event", median(ns_per_event), "ns");
  record.metric("measure.census_ms", median(census_ms), "ms");
  record.metric("measure.resolve_probe_ms", median(resolve_ms), "ms");
  // A classic census is one experiment, an overlay pair two: 3 experiments
  // per 2 ops.
  record.metric("measure.experiments_per_s", 1.5 * ops_per_second(all_ms),
                "1/s");
}

}  // namespace perfbench
