// Per-thread SimScratch arenas under concurrency.  Every thread — pool
// workers included — owns exactly one recycled-allocation arena
// (`Orchestrator::thread_scratch`), so a pooled campaign must be
// data-race-free — this suite is labelled `tsan` and runs under
// ThreadSanitizer (-DANYOPT_SANITIZE=thread) to prove it — and must still
// produce the census each spec gives as the first census of a brand-new
// thread, where no arena reuse can happen.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "anycast/world.h"
#include "measure/campaign_runner.h"
#include "netbase/rng.h"

namespace anyopt::measure {
namespace {

const anycast::World& shared_world() {
  static const std::unique_ptr<anycast::World> world =
      anycast::World::create(anycast::WorldParams::test_scale(27));
  return *world;
}

std::vector<ExperimentSpec> specs_for(const anycast::Deployment& depl,
                                      std::size_t count) {
  std::vector<ExperimentSpec> specs;
  const std::size_t sites = depl.site_count();
  for (std::size_t k = 0; k < count; ++k) {
    ExperimentSpec spec;
    spec.config.announce_order = {
        SiteId{static_cast<SiteId::underlying_type>(k % sites)},
        SiteId{static_cast<SiteId::underlying_type>((k * 3 + 1) % sites)}};
    spec.nonce = mix64(0x5C4A, k);
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ScratchConcurrency, PooledScratchReuseMatchesSerialNoReuse) {
  const Orchestrator orchestrator(shared_world());
  const auto specs = specs_for(shared_world().deployment(), 16);

  // The reference: each spec measured serially, alone on a fresh thread.
  std::vector<Census> want(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::thread([&] {
      want[i] = orchestrator.measure(specs[i].config, specs[i].nonce);
    }).join();
  }

  CampaignRunnerOptions pooled_options;
  pooled_options.threads = 4;
  const CampaignRunner pooled(orchestrator, pooled_options);

  // Two batches through the same pool: the second run recycles warm
  // arenas, which is exactly the state TSan needs to observe workers
  // re-touching buffers a (different) experiment wrote earlier.
  for (int round = 0; round < 2; ++round) {
    const std::vector<Census> got = pooled.run(specs);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].site_of_target, got[i].site_of_target)
          << "round " << round << " experiment " << i;
      EXPECT_EQ(want[i].attachment_of_target, got[i].attachment_of_target)
          << "round " << round << " experiment " << i;
      ASSERT_EQ(want[i].rtt_ms.size(), got[i].rtt_ms.size());
      for (std::size_t t = 0; t < want[i].rtt_ms.size(); ++t) {
        ASSERT_EQ(want[i].rtt_ms[t], got[i].rtt_ms[t])
            << "round " << round << " experiment " << i << " target " << t;
      }
    }
  }
}

TEST(ScratchConcurrency, ConcurrentRunnersDoNotShareScratch) {
  // Two pooled runners over the same orchestrator, run back to back: each
  // pool's workers are their own threads and so use only their own
  // arenas.
  const Orchestrator orchestrator(shared_world());
  const auto specs = specs_for(shared_world().deployment(), 8);

  const CampaignRunner first(orchestrator, {.threads = 2});
  const CampaignRunner second(orchestrator, {.threads = 2});
  const std::vector<Census> a = first.run(specs);
  const std::vector<Census> b = second.run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site_of_target, b[i].site_of_target) << "experiment " << i;
    EXPECT_EQ(a[i].rtt_ms, b[i].rtt_ms) << "experiment " << i;
  }
}

}  // namespace
}  // namespace anyopt::measure
