// Pins the configuration search's output bit for bit on the shared test
// world.  Every `best_per_size` slot's three doubles (as hex floats), its
// announcement order, the global best and the configuration count are
// fixed for five option sets, so any change to the order choice, the
// scoring arithmetic or the ascending-mask tie-break fails here.  The
// values were produced by the nested-vector optimizer that the flat-table
// kernel replaced.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "support/core_fixture.h"

namespace anyopt::core {
namespace {

using anyopt::testing::default_env;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One pinned search: the option set and the predictor's site-level mode.
struct PinCase {
  const char* name;
  OptimizerOptions options;
  SitePrefMode mode = SitePrefMode::kExperiments;
};

std::vector<PinCase> pin_cases() {
  const std::size_t targets =
      default_env().pipeline->predictor().discovery().provider_prefs
          .target_count;
  OptimizerOptions defaults;
  // Far above any search time, so a slow host never truncates the search.
  defaults.time_budget_s = 1e9;

  OptimizerOptions sized = defaults;
  sized.min_sites = 3;
  sized.max_sites = 5;

  OptimizerOptions sampled = defaults;
  sampled.target_sample = 150;

  // Appendix-B Eq. 7: non-uniform weights and a capacity of 30% of the
  // total weight on sites 0-12 (sites 13-14 uncapacitated).  The gate
  // binds: no configuration of 14 or 15 sites is feasible.
  OptimizerOptions capacitated = defaults;
  double total = 0;
  for (std::size_t t = 0; t < targets; ++t) {
    capacitated.target_weight.push_back(0.5 +
                                        0.1 * static_cast<double>(t % 10));
    total += capacitated.target_weight.back();
  }
  capacitated.site_capacity.assign(13, 0.3 * total);

  return {{"defaults", defaults},
          {"sites_3_to_5", sized},
          {"sample_150", sampled},
          {"weighted_eq7", capacitated},
          {"rtt_ranking", defaults, SitePrefMode::kRttRanking}};
}

/// Runs one pinned search on the shared test world.
SearchOutcome run_case(const PinCase& c) {
  auto& pipeline = *default_env().pipeline;
  const Predictor predictor(default_env().world->deployment(),
                            pipeline.discover(), pipeline.measure_rtts(),
                            c.mode);
  return Optimizer(predictor, c.options).search();
}

struct PinnedSlot {
  double predicted_mean_rtt;
  double predictable_mean_rtt;
  double fraction_ordered;
  std::vector<std::uint32_t> announce_order;
};

struct PinnedOutcome {
  std::size_t configurations_evaluated;
  PinnedSlot best;
  std::vector<PinnedSlot> per_size;  ///< sizes 1..15
};

// Same order as pin_cases().
const std::vector<PinnedOutcome>& pinned() {
  static const std::vector<PinnedOutcome> values = {
      // defaults
      {32767,
       {0x1.a7847c1278a4p+6, 0x1.a24f314a8c73dp+6, 0x1.f6e5d4c3b2a19p-1,
        {0, 1, 11, 4, 14, 6, 8, 10}},
       {
           {0x1.f8d57767e862bp+6, 0x1.f6e846e86cebp+6, 0x1.ce81b4e81b4e8p-1,
            {10}},
           {0x1.e3688b69f45aep+6, 0x1.cb8d1c3eeb344p+6, 0x1.ce81b4e81b4e8p-1,
            {6, 10}},
           {0x1.c4da9a0b66a83p+6, 0x1.c142936ab4cf3p+6, 0x1.ec16c16c16c17p-1,
            {0, 1, 12}},
           {0x1.b06ab5289c243p+6, 0x1.ad911a6bdc73dp+6, 0x1.f92c5f92c5f93p-1,
            {0, 1, 6, 10}},
           {0x1.ab5a85dfd0028p+6, 0x1.9f68b4df7d4c5p+6, 0x1.eca8641fdb975p-1,
            {0, 1, 12, 6, 10}},
           {0x1.a8545601f05b4p+6, 0x1.9d35cc3e60646p+6, 0x1.eca8641fdb975p-1,
            {0, 1, 11, 12, 6, 10}},
           {0x1.a79a0ab0d6affp+6, 0x1.9cee2d94fdc63p+6, 0x1.eca8641fdb975p-1,
            {0, 1, 11, 12, 6, 8, 10}},
           {0x1.a7847c1278a4p+6, 0x1.a24f314a8c73dp+6, 0x1.f6e5d4c3b2a19p-1,
            {0, 1, 11, 4, 14, 6, 8, 10}},
           {0x1.a7c5eb0711e53p+6, 0x1.a21cfac1b4215p+6, 0x1.f6e5d4c3b2a19p-1,
            {0, 1, 11, 4, 14, 5, 6, 8, 10}},
           {0x1.b13c84824d211p+6, 0x1.9cec42131504bp+6, 0x1.da740da740da7p-1,
            {0, 1, 11, 4, 14, 5, 6, 8, 10, 12}},
           {0x1.b3b92c4bc9226p+6, 0x1.9cec42131504bp+6, 0x1.da740da740da7p-1,
            {0, 1, 11, 4, 14, 5, 6, 8, 10, 3, 12}},
           {0x1.e2ba84c968e45p+6, 0x1.d5b3dc524fbafp+6, 0x1.ea61d950c83fbp-1,
            {0, 1, 11, 6, 8, 10, 4, 14, 2, 7, 9, 13}},
           {0x1.e3f5104384dc9p+6, 0x1.d5805db687dd3p+6, 0x1.ea61d950c83fbp-1,
            {0, 1, 11, 5, 6, 8, 10, 4, 14, 2, 7, 9, 13}},
           {0x1.0d51f4e9d873p+7, 0x1.f6a98255597ccp+6, 0x1.b851eb851eb85p-1,
            {9, 5, 6, 8, 10, 4, 14, 3, 12, 2, 7, 0, 1, 11}},
           {0x1.0f0177fb2516ap+7, 0x1.f6a98255597ccp+6, 0x1.b851eb851eb85p-1,
            {9, 13, 5, 6, 8, 10, 4, 14, 3, 12, 2, 7, 0, 1, 11}},
       }},
      // sites_3_to_5
      {4823,
       {0x1.ab5a85dfd0028p+6, 0x1.9f68b4df7d4c5p+6, 0x1.eca8641fdb975p-1,
        {0, 1, 12, 6, 10}},
       {
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {0x1.c4da9a0b66a83p+6, 0x1.c142936ab4cf3p+6, 0x1.ec16c16c16c17p-1,
            {0, 1, 12}},
           {0x1.b06ab5289c243p+6, 0x1.ad911a6bdc73dp+6, 0x1.f92c5f92c5f93p-1,
            {0, 1, 6, 10}},
           {0x1.ab5a85dfd0028p+6, 0x1.9f68b4df7d4c5p+6, 0x1.eca8641fdb975p-1,
            {0, 1, 12, 6, 10}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
       }},
      // sample_150
      {32767,
       {0x1.a7847c1278a4p+6, 0x1.a24f314a8c73dp+6, 0x1.f6e5d4c3b2a19p-1,
        {0, 1, 11, 4, 14, 6, 8, 10}},
       {
           {0x1.f8d57767e862bp+6, 0x1.f6e846e86cebp+6, 0x1.ce81b4e81b4e8p-1,
            {10}},
           {0x1.ff7f5d8531eaep+6, 0x1.fb0ebc7242323p+6, 0x1.e6f8091a2b3c5p-1,
            {0, 1}},
           {0x1.c4da9a0b66a83p+6, 0x1.c142936ab4cf3p+6, 0x1.ec16c16c16c17p-1,
            {0, 1, 12}},
           {0x1.cc82de5c30043p+6, 0x1.c6e70bcea18fep+6, 0x1.e6f8091a2b3c5p-1,
            {4, 14, 12, 1}},
           {0x1.cb78e0b283ceap+6, 0x1.c349a4e625749p+6, 0x1.e6f8091a2b3c5p-1,
            {4, 14, 12, 1, 11}},
           {0x1.c54fbe9bda014p+6, 0x1.bc0c16734c1d7p+6, 0x1.e6f8091a2b3c5p-1,
            {4, 14, 12, 0, 1, 11}},
           {0x1.c39393ac03f51p+6, 0x1.b5cda90611107p+6, 0x1.e6f8091a2b3c5p-1,
            {4, 14, 3, 12, 0, 1, 11}},
           {0x1.a7847c1278a4p+6, 0x1.a24f314a8c73dp+6, 0x1.f6e5d4c3b2a19p-1,
            {0, 1, 11, 4, 14, 6, 8, 10}},
           {0x1.a7c5eb0711e53p+6, 0x1.a21cfac1b4215p+6, 0x1.f6e5d4c3b2a19p-1,
            {0, 1, 11, 4, 14, 5, 6, 8, 10}},
           {0x1.b2a200124512bp+6, 0x1.9d217b43bf5fcp+6, 0x1.da740da740da7p-1,
            {0, 1, 11, 4, 14, 6, 8, 10, 3, 12}},
           {0x1.b3b92c4bc9226p+6, 0x1.9cec42131504bp+6, 0x1.da740da740da7p-1,
            {0, 1, 11, 4, 14, 5, 6, 8, 10, 3, 12}},
           {0x1.e2ba84c968e45p+6, 0x1.d5b3dc524fbafp+6, 0x1.ea61d950c83fbp-1,
            {0, 1, 11, 6, 8, 10, 4, 14, 2, 7, 9, 13}},
           {0x1.e3f5104384dc9p+6, 0x1.d5805db687dd3p+6, 0x1.ea61d950c83fbp-1,
            {0, 1, 11, 5, 6, 8, 10, 4, 14, 2, 7, 9, 13}},
           {0x1.0e84d384b60e6p+7, 0x1.f78dacde122cp+6, 0x1.b851eb851eb85p-1,
            {9, 13, 5, 8, 10, 4, 14, 3, 12, 2, 7, 0, 1, 11}},
           {0x1.0f0177fb2516ap+7, 0x1.f6a98255597ccp+6, 0x1.b851eb851eb85p-1,
            {9, 13, 5, 6, 8, 10, 4, 14, 3, 12, 2, 7, 0, 1, 11}},
       }},
      // weighted_eq7
      {32767,
       {0x1.df06f04a92ed5p+6, 0x1.da5ad5a79b29ap+6, 0x1.e9d0369d0369dp-1,
        {0, 1, 11, 4, 14}},
       {
           {0x1.2b8c857efa3ccp+7, 0x1.2a3e664c5d621p+7, 0x1.fedcba9876543p-1,
            {14}},
           {0x1.097c0acea834fp+7, 0x1.0869ff947e5b5p+7, 0x1.fedcba9876543p-1,
            {4, 14}},
           {0x1.0beb7d57197f9p+7, 0x1.0ba82706d3527p+7, 0x1.e9d0369d0369dp-1,
            {0, 1, 14}},
           {0x1.dffbac865cf0fp+6, 0x1.dc830e47e9ad5p+6, 0x1.e9d0369d0369dp-1,
            {0, 1, 4, 14}},
           {0x1.df06f04a92ed5p+6, 0x1.da5ad5a79b29ap+6, 0x1.e9d0369d0369dp-1,
            {0, 1, 11, 4, 14}},
           {0x1.0b9245f554cf1p+7, 0x1.059f2edcbd4d1p+7, 0x1.edcba98765432p-1,
            {4, 14, 6, 10, 9, 1}},
           {0x1.0aca0e321e70dp+7, 0x1.050c9566fe4b6p+7, 0x1.edcba98765432p-1,
            {4, 14, 6, 10, 9, 1, 11}},
           {0x1.0aa8595f94d12p+7, 0x1.04dfa98a3df5ap+7, 0x1.edcba98765432p-1,
            {4, 14, 6, 8, 10, 9, 1, 11}},
           {0x1.0ab422cbf0156p+7, 0x1.04a82cdc69059p+7, 0x1.edcba98765432p-1,
            {4, 14, 6, 8, 10, 9, 0, 1, 11}},
           {0x1.0b46ac1f6702fp+7, 0x1.04a82cdc69059p+7, 0x1.edcba98765432p-1,
            {4, 14, 6, 8, 10, 9, 13, 0, 1, 11}},
           {0x1.0beb01de6835cp+7, 0x1.048a2cb807fb6p+7, 0x1.edcba98765432p-1,
            {4, 14, 5, 6, 8, 10, 9, 13, 0, 1, 11}},
           {0x1.161f1a558478cp+7, 0x1.0551f91d6f5f2p+7, 0x1.be93e93e93e94p-1,
            {0, 1, 11, 9, 13, 4, 14, 12, 5, 6, 8, 10}},
           {0x1.17af94b7912b2p+7, 0x1.0551f91d6f5f2p+7, 0x1.be93e93e93e94p-1,
            {0, 1, 11, 9, 13, 4, 14, 3, 12, 5, 6, 8, 10}},
           {kInf, kInf, 0x0p+0,
            {}},
           {kInf, kInf, 0x0p+0,
            {}},
       }},
      // rtt_ranking
      {32767,
       {0x1.a1198facdfc5p+6, 0x1.9eaba4b4de61ap+6, 0x1.fdb97530eca86p-1,
        {0, 1, 11, 4, 14, 5, 6, 8, 10}},
       {
           {0x1.f8d57767e862bp+6, 0x1.f8d57767e862bp+6, 0x1p+0,
            {10}},
           {0x1.c8d13ff78a4f2p+6, 0x1.c8d13ff78a4f2p+6, 0x1p+0,
            {6, 10}},
           {0x1.bf6ddb2720b65p+6, 0x1.bf6ddb2720b65p+6, 0x1p+0,
            {0, 1, 12}},
           {0x1.ac1717aea3352p+6, 0x1.ac1717aea3352p+6, 0x1p+0,
            {0, 1, 6, 10}},
           {0x1.a88e60efb2e66p+6, 0x1.9e6079ca3a197p+6, 0x1.f0123456789acp-1,
            {0, 1, 12, 6, 10}},
           {0x1.a43644183d6ddp+6, 0x1.a1ffb94ebe5a3p+6, 0x1.fdb97530eca86p-1,
            {0, 1, 4, 14, 6, 10}},
           {0x1.a28cf4d714f6ap+6, 0x1.a03c4a7aaa658p+6, 0x1.fdb97530eca86p-1,
            {0, 1, 11, 4, 14, 6, 10}},
           {0x1.a12fbeaadb206p+6, 0x1.9ef57d82828f6p+6, 0x1.fdb97530eca86p-1,
            {0, 1, 11, 4, 14, 6, 8, 10}},
           {0x1.a1198facdfc5p+6, 0x1.9eaba4b4de61ap+6, 0x1.fdb97530eca86p-1,
            {0, 1, 11, 4, 14, 5, 6, 8, 10}},
           {0x1.ad1cec63d4fc8p+6, 0x1.9a92bd1edb25ap+6, 0x1.ddddddddddddep-1,
            {0, 1, 11, 4, 14, 5, 6, 8, 10, 12}},
           {0x1.af7e29810cb68p+6, 0x1.9a92bd1edb25ap+6, 0x1.ddddddddddddep-1,
            {0, 1, 11, 4, 14, 5, 6, 8, 10, 3, 12}},
           {0x1.db77b2b1057a8p+6, 0x1.d068df3c9bd09p+6, 0x1.f0123456789acp-1,
            {0, 1, 11, 6, 8, 10, 4, 14, 2, 7, 9, 13}},
           {0x1.dc7bfe09e80a8p+6, 0x1.d01cfe1e26c99p+6, 0x1.f0123456789acp-1,
            {0, 1, 11, 5, 6, 8, 10, 4, 14, 2, 7, 9, 13}},
           {0x1.0a24ae4b61b73p+7, 0x1.f1f277c0ad8cdp+6, 0x1.bb2a1907f6e5dp-1,
            {9, 13, 5, 6, 8, 10, 4, 14, 12, 2, 7, 0, 1, 11}},
           {0x1.0bcedc3da29ap+7, 0x1.f1f277c0ad8cdp+6, 0x1.bb2a1907f6e5dp-1,
            {9, 13, 5, 6, 8, 10, 4, 14, 3, 12, 2, 7, 0, 1, 11}},
       }},
  };
  return values;
}

void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": got " << std::hexfloat << got << ", want " << want;
}

void expect_slot(const EvaluatedConfig& got, const PinnedSlot& want,
                 const std::string& what) {
  expect_bits(got.predicted_mean_rtt, want.predicted_mean_rtt,
              what + " predicted_mean_rtt");
  expect_bits(got.predictable_mean_rtt, want.predictable_mean_rtt,
              what + " predictable_mean_rtt");
  expect_bits(got.fraction_ordered, want.fraction_ordered,
              what + " fraction_ordered");
  std::vector<std::uint32_t> order;
  for (const SiteId s : got.config.announce_order) order.push_back(s.value());
  EXPECT_EQ(order, want.announce_order) << what << " announce_order";
}

TEST(OptimizerPinned, SearchOutcomesAreBitIdentical) {
  const std::vector<PinCase> cases = pin_cases();
  ASSERT_EQ(cases.size(), pinned().size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    const SearchOutcome out = run_case(cases[i]);
    const PinnedOutcome& want = pinned()[i];
    EXPECT_TRUE(out.exhausted);
    EXPECT_EQ(out.configurations_evaluated, want.configurations_evaluated);
    expect_slot(out.best, want.best, "best");
    ASSERT_EQ(out.best_per_size.size(), want.per_size.size() + 1);
    for (std::size_t k = 1; k < out.best_per_size.size(); ++k) {
      expect_slot(out.best_per_size[k], want.per_size[k - 1],
                  "size " + std::to_string(k));
    }
  }
}

}  // namespace
}  // namespace anyopt::core
