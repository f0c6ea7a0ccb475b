#include "measure/campaign_runner.h"

#include "measure/provenance.h"
#include "measure/store.h"
#include "netbase/telemetry.h"

namespace anyopt::measure {

namespace {

/// Pre-resolved campaign metrics (one registry lookup per process).
struct CampaignMetrics {
  telemetry::Counter* batches;
  telemetry::Counter* experiments;
  telemetry::Histogram* experiment_ms;

  static const CampaignMetrics& get() {
    static const CampaignMetrics m = [] {
      auto& reg = telemetry::Registry::global();
      return CampaignMetrics{&reg.counter("campaign.batches"),
                             &reg.counter("campaign.experiments"),
                             &reg.histogram("campaign.experiment_ms")};
    }();
    return m;
  }
};

/// One provenance line for a census replayed from the result store: no
/// simulation ran, so only the identity and outcome fields apply.  The
/// orchestrator records every simulated path; store hits bypass it, so the
/// runner is the only place that knows they happened.
void record_store_hit(std::uint64_t nonce, std::size_t ordinal,
                      const Census& census, double t0_us) {
  provenance::ExperimentTrace trace;
  trace.nonce = nonce;
  trace.ordinal = ordinal;
  trace.path = "store-hit";
  trace.targets = census.site_of_target.size();
  trace.reachable = census.reachable_count();
  trace.duration_ms = (telemetry::now_us() - t0_us) / 1e3;
  provenance::FlightLog::global().record(trace);
}

}  // namespace

CampaignRunner::CampaignRunner(const Orchestrator& orchestrator,
                               CampaignRunnerOptions options)
    : orchestrator_(orchestrator), store_(options.store) {
  if (options.threads != 1) {
    pool_ = std::make_unique<ThreadPool>(options.threads);
  }
}

std::vector<Census> CampaignRunner::run(
    std::span<const ExperimentSpec> specs) const {
  const bool telem = telemetry::enabled();
  telemetry::ScopedTimer batch_span(
      "campaign.batch", "campaign", nullptr,
      telem && telemetry::tracing()
          ? telemetry::make_args("experiments", specs.size(), "threads",
                                 threads())
          : std::string{});
  if (telem) {
    const CampaignMetrics& m = CampaignMetrics::get();
    m.batches->add(1);
    m.experiments->add(specs.size());
  }
  const auto measure_one = [&](std::size_t i) {
    // Store hits replay a persisted census without simulating.  Retried
    // specs (attempt > 0) never take this path: a retry exists to replace
    // the stored result, not to re-read it.
    if (store_ != nullptr && specs[i].attempt == 0) {
      const double t0_us =
          provenance::active() ? telemetry::now_us() : 0.0;
      const std::uint64_t key =
          ResultStore::census_key(specs[i].config, specs[i].nonce);
      if (std::optional<Census> cached = store_->find_census(key);
          cached.has_value()) {
        if (provenance::active()) {
          record_store_hit(specs[i].nonce, specs[i].ordinal, *cached, t0_us);
        }
        return *std::move(cached);
      }
    }
    telemetry::ScopedTimer span(
        "campaign.experiment", "campaign",
        telemetry::enabled() ? CampaignMetrics::get().experiment_ms : nullptr,
        telemetry::enabled() && telemetry::tracing()
            ? telemetry::make_args("index", i, "nonce", specs[i].nonce)
            : std::string{});
    Census census = orchestrator_.measure(
        specs[i].config, specs[i].nonce,
        ExperimentAt{specs[i].ordinal, specs[i].attempt});
    // Flush the moment the experiment finishes: an interrupted campaign
    // loses at most its in-flight experiments.  A write failure only costs
    // the checkpoint, never the campaign.
    if (store_ != nullptr) {
      const Status flushed = store_->put_census(
          ResultStore::census_key(specs[i].config, specs[i].nonce), census);
      (void)flushed;
    }
    return census;
  };

  std::vector<Census> censuses(specs.size());
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      censuses[i] = measure_one(i);
    }
    return censuses;
  }
  pool_->parallel_for(specs.size(), [&](std::size_t i) {
    censuses[i] = measure_one(i);
  });
  return censuses;
}

std::vector<Census> CampaignRunner::run_overlays(
    std::span<const OverlaySpec> specs) const {
  const bool telem = telemetry::enabled();
  telemetry::ScopedTimer batch_span(
      "campaign.batch", "campaign", nullptr,
      telem && telemetry::tracing()
          ? telemetry::make_args("experiments", specs.size(), "threads",
                                 threads())
          : std::string{});
  if (telem) {
    const CampaignMetrics& m = CampaignMetrics::get();
    m.batches->add(1);
    m.experiments->add(specs.size());
  }
  const auto measure_one = [&](std::size_t i) {
    const OverlaySpec& spec = specs[i];
    const std::uint64_t key = ResultStore::census_key(spec.config, spec.nonce);
    // Same store policy as `run`: replay persisted censuses, never serve a
    // stored result to a retry.
    if (store_ != nullptr && spec.attempt == 0) {
      const double t0_us =
          provenance::active() ? telemetry::now_us() : 0.0;
      if (std::optional<Census> cached = store_->find_census(key);
          cached.has_value()) {
        if (provenance::active()) {
          record_store_hit(spec.nonce, spec.ordinal, *cached, t0_us);
        }
        return *std::move(cached);
      }
    }
    telemetry::ScopedTimer span(
        "campaign.experiment", "campaign",
        telemetry::enabled() ? CampaignMetrics::get().experiment_ms : nullptr,
        telemetry::enabled() && telemetry::tracing()
            ? telemetry::make_args("index", i, "nonce", spec.nonce)
            : std::string{});
    Census census = orchestrator_.measure_overlay(
        *spec.base, spec.config, spec.delta, spec.nonce,
        ExperimentAt{spec.ordinal, spec.attempt});
    if (store_ != nullptr) {
      (void)store_->put_census(key, census);
    }
    return census;
  };

  std::vector<Census> censuses(specs.size());
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      censuses[i] = measure_one(i);
    }
    return censuses;
  }
  pool_->parallel_for(specs.size(), [&](std::size_t i) {
    censuses[i] = measure_one(i);
  });
  return censuses;
}

std::vector<Census> CampaignRunner::run_overlay_pairs(
    std::span<const OverlayPairSpec> specs) const {
  const bool telem = telemetry::enabled();
  telemetry::ScopedTimer batch_span(
      "campaign.batch", "campaign", nullptr,
      telem && telemetry::tracing()
          ? telemetry::make_args("experiments", specs.size() * 2, "threads",
                                 threads())
          : std::string{});
  if (telem) {
    const CampaignMetrics& m = CampaignMetrics::get();
    m.batches->add(1);
    m.experiments->add(specs.size() * 2);
  }
  std::vector<Census> censuses(specs.size() * 2);
  const auto measure_pair = [&](std::size_t i) {
    const OverlayPairSpec& spec = specs[i];
    const std::uint64_t key0 = ResultStore::census_key(spec.config0, spec.nonce0);
    const std::uint64_t key1 = ResultStore::census_key(spec.config1, spec.nonce1);
    // The pair simulates as a unit (leg 1 resumes leg 0's state), so the
    // store shortcut needs BOTH legs persisted; retries (attempt > 0)
    // always re-run, as in `run`.
    if (store_ != nullptr && spec.attempt == 0) {
      const double t0_us =
          provenance::active() ? telemetry::now_us() : 0.0;
      std::optional<Census> cached0 = store_->find_census(key0);
      std::optional<Census> cached1 =
          cached0.has_value() ? store_->find_census(key1) : std::nullopt;
      if (cached0.has_value() && cached1.has_value()) {
        if (provenance::active()) {
          record_store_hit(spec.nonce0, spec.ordinal0, *cached0, t0_us);
          record_store_hit(spec.nonce1, spec.ordinal1, *cached1, t0_us);
        }
        censuses[2 * i] = *std::move(cached0);
        censuses[2 * i + 1] = *std::move(cached1);
        return;
      }
    }
    telemetry::ScopedTimer span(
        "campaign.experiment", "campaign",
        telemetry::enabled() ? CampaignMetrics::get().experiment_ms : nullptr,
        telemetry::enabled() && telemetry::tracing()
            ? telemetry::make_args("index", i, "nonce", spec.nonce0)
            : std::string{});
    Orchestrator::OverlayPairCensus pair = orchestrator_.measure_overlay_pair(
        *spec.base, spec.config0, spec.config1, spec.delta, spec.reage,
        spec.nonce0, spec.nonce1, &Orchestrator::thread_scratch(),
        ExperimentAt{spec.ordinal0, spec.attempt},
        ExperimentAt{spec.ordinal1, spec.attempt});
    if (store_ != nullptr) {
      // Same flush-as-you-go policy as `run`; a write failure only costs
      // the checkpoint.
      (void)store_->put_census(key0, pair.leg0);
      (void)store_->put_census(key1, pair.leg1);
    }
    censuses[2 * i] = std::move(pair.leg0);
    censuses[2 * i + 1] = std::move(pair.leg1);
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < specs.size(); ++i) measure_pair(i);
    return censuses;
  }
  pool_->parallel_for(specs.size(),
                      [&](std::size_t i) { measure_pair(i); });
  return censuses;
}

}  // namespace anyopt::measure
