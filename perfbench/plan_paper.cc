// plan_paper: the paper's planning loop at paper scale (Table-1
// deployment, 15,300 targets).  Each op is one planning round on a fresh
// pipeline: discover (56 experiments), measure_rtts (15), optimize over
// every site subset, predict the winner.  See README.md for why.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "anycast/world.h"
#include "common.h"
#include "core/anyopt.h"
#include "hostspeed.h"
#include "measure/orchestrator.h"
#include "topo/builder.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace anyopt;

/// Nominal round length (measured on a 4-vCPU Xeon VM); with `--seconds` it
/// fixes how many rounds a run times (never "as many as fit").
constexpr double kNominalRoundS = 14.0;
/// Rounds a run times at least, whatever `--seconds` says.  Four keep a
/// run near a minute on a slow host (rounds of 10-16 s), which the
/// benchmark's time budget needs.
constexpr std::size_t kMinRounds = 4;
/// World builds per run (0.12-0.2 s each); setup_s is their median.
constexpr int kSetups = 15;
/// Discovery experiments re-run per round in traced runs to split the
/// round's measurement time into bgp (converge) and measure (the rest).
constexpr std::size_t kSplitSamples = 3;

/// Every pair of every discovery table saw at least one reachable target
/// in both legs (a pair with an empty census is unknown for all targets).
bool tables_have_data(const core::DiscoveryResult& d) {
  const auto table_ok = [](const core::PairwiseTable& t) {
    for (const std::vector<core::PrefKind>& pair : t.outcome) {
      bool any = false;
      for (const core::PrefKind k : pair) any = any || k != core::PrefKind::kUnknown;
      if (!any) return false;
    }
    return true;
  };
  if (!table_ok(d.provider_prefs)) return false;
  for (const core::PairwiseTable& t : d.site_prefs) {
    if (!table_ok(t)) return false;
  }
  return true;
}

/// Every site's RTT row reached at least one target.
bool rtt_rows_have_data(const core::RttMatrix& m) {
  for (std::size_t s = 0; s < m.site_count(); ++s) {
    bool any = false;
    for (std::size_t t = 0; t < m.target_count() && !any; ++t) {
      any = m.rtt(SiteId{static_cast<SiteId::underlying_type>(s)},
                  TargetId{static_cast<TargetId::underlying_type>(t)}) >= 0;
    }
    if (!any) return false;
  }
  return true;
}

/// Discovery experiments the two-level campaign must run: both orders of
/// every provider pair and of every site pair within a provider.
std::size_t expected_discovery_experiments(const anycast::Deployment& dep) {
  const std::size_t p = dep.provider_count();
  std::size_t n = p * (p - 1);
  for (std::size_t i = 0; i < p; ++i) {
    const std::size_t k =
        dep.sites_of_provider(ProviderId{static_cast<ProviderId::underlying_type>(i)})
            .size();
    n += k * (k - 1);
  }
  return n;
}

}  // namespace

void run_plan_paper(const Args& args, Record& record) {
  // Set-up: the world, built kSetups times; the last build is kept.
  std::vector<double> setups;
  std::unique_ptr<anycast::World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const double t0 = now_s();
    {
      const Span span("anycast.World::create", "anycast");
      world = anycast::World::create(
          anycast::WorldParams::paper_scale(args.world_seed));
    }
    setups.push_back(now_s() - t0);
  }
  HostSpeed::global().end_setup();
  record.metric("setup_s", median(setups), "s");
  record.metric("anycast.world_build_s", median(setups), "s");
  if (args.trace) {
    const double t0 = now_s();
    {
      const Span span("topo::build_internet", "topo", kNoOp, true);
      const topo::Internet net = topo::build_internet(world->params().internet);
    }
    record.metric("topo.build_internet_s", now_s() - t0, "s");
  }

  const measure::Orchestrator orchestrator(*world);
  const anycast::Deployment& deployment = world->deployment();
  const std::size_t sites = deployment.site_count();
  const std::size_t want_discovery = expected_discovery_experiments(deployment);
  const std::size_t want_experiments = want_discovery + sites;
  const std::size_t want_configs = (std::size_t{1} << sites) - 1;
  const std::size_t rounds = std::max<std::size_t>(
      kMinRounds,
      static_cast<std::size_t>(std::ceil(args.seconds / kNominalRoundS)));

  std::vector<double> round_ms, measure_ms, discover_ms, rtt_ms, optimize_ms,
      predict_ms, evaluate_ms, split_converge_ms, split_census_ms,
      split_resolve_ms, split_ns_per_event, split_events;
  // Per-round exact counts, for the traced run's per-layer metrics.
  std::vector<double> discovery_runs, experiment_runs, configs_run;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto op = static_cast<std::int64_t>(r);
    core::PipelineOptions options;
    options.discovery.nonce_base = derive(args.seed, 0xD15C, r);
    options.rtt_nonce_base = derive(args.seed, 0x5111, r);
    core::OptimizerOptions search;
    // Far above any search time, so a slow host phase can never cut the
    // search short and make the round look faster.
    search.time_budget_s = 1e9;
    search.seed = derive(args.seed, 0x0F7, r);

    bool ok = true;
    double t0 = 0, t1 = 0, t2 = 0, t3 = 0, t_measured = 0;
    core::SearchOutcome outcome;
    core::Prediction prediction;
    core::AnyOptPipeline pipeline(orchestrator, options);
    try {
      const Span round("plan.round", "bench", op);
      t0 = now_s();
      {
        const Span span("core::AnyOptPipeline::discover", "core", op);
        (void)pipeline.discover();
      }
      t1 = now_s();
      {
        const Span span("core::AnyOptPipeline::measure_rtts", "core", op);
        (void)pipeline.measure_rtts();
      }
      t_measured = now_s();
      {
        const Span span("core::AnyOptPipeline::optimize", "core", op);
        outcome = pipeline.optimize(search);
      }
      t2 = now_s();
      {
        const Span span("core::AnyOptPipeline::predict", "core", op);
        prediction = pipeline.predict(outcome.best.config);
      }
      t3 = now_s();
    } catch (const std::exception& e) {
      record.fail("round " + std::to_string(r) + ": " + e.what());
      record.op(false);
      continue;
    }
    round_ms.push_back((t3 - t0) * 1e3);
    measure_ms.push_back((t_measured - t0) * 1e3);
    discover_ms.push_back((t1 - t0) * 1e3);
    rtt_ms.push_back((t_measured - t1) * 1e3);
    optimize_ms.push_back((t2 - t_measured) * 1e3);
    predict_ms.push_back((t3 - t2) * 1e3);

    // Answer checks (untimed).
    const std::string tag = "round " + std::to_string(r) + ": ";
    const core::DiscoveryResult& discovery = pipeline.discover();
    if (pipeline.experiments_run() != want_experiments ||
        discovery.experiments != want_discovery) {
      ok = false;
      record.fail(tag + std::to_string(pipeline.experiments_run()) +
                  " experiments, want " + std::to_string(want_experiments));
    }
    if (!tables_have_data(discovery) ||
        !rtt_rows_have_data(pipeline.measure_rtts())) {
      ok = false;
      record.fail(tag + "an experiment returned an empty census");
    }
    if (!outcome.exhausted || outcome.configurations_evaluated != want_configs) {
      ok = false;
      record.fail(tag + "search evaluated " +
                  std::to_string(outcome.configurations_evaluated) +
                  " configurations, want all " + std::to_string(want_configs));
    }
    {
      const core::Optimizer rescore(pipeline.predictor(), search);
      const double e0 = now_s();
      core::EvaluatedConfig again;
      {
        const Span span("core::Optimizer::evaluate_uncached", "core", op,
                        true);
        again = rescore.evaluate_uncached(outcome.best.config);
      }
      evaluate_ms.push_back((now_s() - e0) * 1e3);
      if (std::memcmp(&again.predicted_mean_rtt,
                      &outcome.best.predicted_mean_rtt, sizeof(double)) != 0) {
        ok = false;
        record.fail(tag + "re-scoring the winner gave a different mean RTT");
      }
    }
    std::size_t predicted = 0;
    for (const SiteId s : prediction.site_of_target) predicted += s.valid();
    if (prediction.site_of_target.size() != world->targets().size() ||
        predicted == 0) {
      ok = false;
      record.fail(tag + "the winner's prediction is empty");
    }
    record.op(ok);
    discovery_runs.push_back(static_cast<double>(discovery.experiments));
    experiment_runs.push_back(static_cast<double>(pipeline.experiments_run()));
    configs_run.push_back(static_cast<double>(outcome.configurations_evaluated));
    record.count("core.experiments", pipeline.experiments_run());
    record.count("core.configs_evaluated", outcome.configurations_evaluated);
    record.count("core.predicted_targets", predicted);

    if (args.trace) {
      // Split the round's measurement time: re-run a few of its provider
      // discovery experiments (same config, same nonce), once converged
      // only and once as a full census.
      const core::Discovery discovery_engine(orchestrator, options.discovery);
      for (std::size_t k = 0; k < kSplitSamples; ++k) {
        const auto p = static_cast<ProviderId::underlying_type>(
            derive(args.seed, 0x5B1, r * kSplitSamples + k) %
            deployment.provider_count());
        const auto q = static_cast<ProviderId::underlying_type>(
            (p + 1) % deployment.provider_count());
        const SiteId first = discovery_engine.representative(ProviderId{p});
        const SiteId second = discovery_engine.representative(ProviderId{q});
        anycast::AnycastConfig config;
        config.announce_order = {first, second};
        config.spacing_s = options.discovery.spacing_s;
        const std::uint64_t nonce =
            discovery_engine.experiment_nonce(first, second, 0);
        const double c0 = now_s();
        std::size_t events = 0;
        {
          const Span span("measure::Orchestrator::converge_base", "bgp", op,
                          true);
          events = orchestrator.converge_base(config, nonce).events();
        }
        const double c1 = now_s();
        {
          const Span span("measure::Orchestrator::measure", "measure", op,
                          true);
          (void)orchestrator.measure(config, nonce);
        }
        const double c2 = now_s();
        split_converge_ms.push_back((c1 - c0) * 1e3);
        split_census_ms.push_back((c2 - c1) * 1e3);
        split_resolve_ms.push_back(((c2 - c1) - (c1 - c0)) * 1e3);
        split_events.push_back(static_cast<double>(events));
        split_ns_per_event.push_back((c1 - c0) * 1e9 /
                                     static_cast<double>(events));
      }
    }
  }
  record.metric("peak_rss_mb", peak_rss_mb(), "MB");

  record.samples("round", round_ms);
  record.samples("measurement_phase", measure_ms);
  record.samples("optimize", optimize_ms);
  const double tail = tail_percentile(round_ms.size());
  record.info("tail_percentile", std::to_string(tail));
  record.info("ops", std::to_string(rounds) + " rounds");
  record.metric("op_p50_ms", median(round_ms), "ms");
  record.metric("op_tail_ms", percentile(round_ms, tail), "ms");
  // The search, not the 71-experiment measurement phase: at about 2.5 s a
  // round that phase moved with host speed by 40-64% (IQR over ten seeds).
  record.metric("aux_p50_ms", median(optimize_ms), "ms");
  record.metric("ops_per_s", ops_per_second(round_ms), "1/s");

  if (!args.trace) return;
  record.metric("core.discover_ms", median(discover_ms), "ms");
  record.metric("core.rtt_matrix_ms", median(rtt_ms), "ms");
  record.metric("core.experiments", mean(discovery_runs), "count");
  record.metric("core.optimize_ms", median(optimize_ms), "ms");
  record.metric("core.configs_evaluated", mean(configs_run), "count");
  record.metric("core.us_per_config",
                median(optimize_ms) * 1e3 / mean(configs_run), "us");
  record.metric("core.predict_full_ms", median(predict_ms), "ms");
  record.metric("core.evaluate_ms", median(evaluate_ms), "ms");
  record.metric("measure.experiments_per_s",
                mean(experiment_runs) / (median(measure_ms) / 1e3), "1/s");
  record.metric("bgp.converge_ms", median(split_converge_ms), "ms");
  record.metric("measure.census_ms", median(split_census_ms), "ms");
  record.metric("measure.resolve_probe_ms", median(split_resolve_ms), "ms");
  record.metric("bgp.events_per_census", mean(split_events), "count");
  record.metric("bgp.ns_per_event", median(split_ns_per_event), "ns");
  record_registry_metrics(record, 0);
}

}  // namespace perfbench
