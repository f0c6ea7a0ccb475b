#pragma once
// Offline configuration search (§5.3).
//
// Enumerates site subsets, picks for each an announcement order that
// maximizes the number of clients with a consistent total order (§4.5 step
// 3), predicts the mean client RTT with the two-level tables, and returns
// the best configuration per subset size and overall — the computation the
// paper ran for six hours to find its 12-site configuration.
//
// Also provides the two baselines of Fig. 6: greedy-by-unicast-latency and
// random provider/site picks.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "anycast/config.h"
#include "core/predictor.h"
#include "netbase/rng.h"

namespace anyopt::core {

/// \brief Search-space and objective parameters of the offline search.
struct OptimizerOptions {
  std::size_t min_sites = 1;  ///< smallest enabled-site count examined
  /// Largest enabled-site count examined.
  std::size_t max_sites = std::numeric_limits<std::size_t>::max();
  /// Wall-clock bound for the search, checked once every 4096 site masks
  /// (the paper used six hours; the exhaustive 15-site search takes about
  /// 1.5 s at paper scale on one core).
  double time_budget_s = 60.0;
  /// Candidate announcement orders examined per provider subset when
  /// maximizing the consistent-client fraction.
  std::size_t order_candidates = 24;
  /// Evaluate configurations on a uniform sample of this many targets
  /// (0 = all).  The best-per-size configurations are always re-scored on
  /// the full target set afterwards.
  std::size_t target_sample = 0;
  /// Per-site workload capacity (in summed target weight); empty =
  /// uncapacitated.  Configurations whose predicted catchment overloads a
  /// site are discarded, the Appendix-B load constraint (Eq. 7) applied
  /// during the search.  The gate is a strict comparison (`load > cap`)
  /// and never divides by capacity, so the edge cases are well defined:
  /// load exactly at capacity passes, and a zero-capacity site is feasible
  /// as long as every target in its predicted catchment has weight 0 (a
  /// drained site under a drained workload is compliant, not overloaded).
  /// Sites beyond the vector's length are uncapacitated.
  std::vector<double> site_capacity;
  /// Per-target workload weights (empty = uniform).  The objective becomes
  /// the workload-weighted mean RTT, the Appendix-B weighting extension.
  std::vector<double> target_weight;
  std::uint64_t seed = 0x0F7;  ///< seeds order-candidate sampling
};

/// \brief One evaluated configuration.
struct EvaluatedConfig {
  anycast::AnycastConfig config;  ///< the configuration scored
  /// Population-wide mean RTT estimate used for ranking: predictable
  /// targets contribute their predicted catchment's unicast RTT; targets
  /// without a total order are *imputed* with their mean unicast RTT over
  /// the enabled sites.  Without imputation the search would favour
  /// configurations that simply exclude their worst clients from
  /// prediction (a winner's-curse artifact the paper's measured
  /// evaluation would expose).
  double predicted_mean_rtt = std::numeric_limits<double>::infinity();
  /// Mean over predictable targets only (comparable to
  /// Prediction::mean_rtt).
  double predictable_mean_rtt = std::numeric_limits<double>::infinity();
  double fraction_ordered = 0;  ///< targets with a usable total order
};

/// \brief Search output.
struct SearchOutcome {
  EvaluatedConfig best;  ///< overall best configuration found
  /// Best configuration found for each enabled-site count (index = count;
  /// index 0 unused).
  std::vector<EvaluatedConfig> best_per_size;
  std::size_t configurations_evaluated = 0;  ///< total subsets scored
  bool exhausted = false;  ///< true if every subset in range was evaluated
};

/// \brief The offline configuration search of §5.3.
///
/// The constructor builds flat, immutable tables: each target's
/// provider-level preference pattern and, per provider and non-empty
/// subset of its sites, a column of each target's preferred site.  RTTs
/// are read from the predictor's matrix.  A provider subset's announcement
/// order and per-target winning provider are built into a local by each
/// call, so every method is a pure read: any number of threads may call
/// `search` and `evaluate_uncached` concurrently on one Optimizer.
class Optimizer {
 public:
  /// \brief Builds the optimizer over a predictor.
  /// \param predictor the offline predictor (must outlive this).
  /// \param options search-space parameters; see `OptimizerOptions`.
  /// \throws std::invalid_argument for more than 31 sites, or a provider
  ///         with more than 8 sites (one site column per subset of them).
  Optimizer(const Predictor& predictor, OptimizerOptions options = {});

  /// \brief Full subset search under the time budget: site masks in
  ///        ascending order, each size's first minimum kept.
  /// \return the best configurations found plus the search trace.
  [[nodiscard]] SearchOutcome search() const;

  /// \brief Scores one configuration exactly as `search` scores it, on
  ///        every target (the serve layer's `score` op).
  ///
  /// Uses the announcement order the search chooses for the config's
  /// provider subset, not the config's own order; Predictor::predict gives
  /// a config-order-faithful prediction.  Builds the provider subset's
  /// table into a local ("uncached"): it costs that subset's order choice
  /// plus one pass over the targets, and mutates nothing.
  /// \param config the configuration to score.
  /// \return its predicted means and ordered fraction.
  [[nodiscard]] EvaluatedConfig evaluate_uncached(
      const anycast::AnycastConfig& config) const;

  /// \brief Bytes the constructor's tables retain (feeds the serve
  ///        layer's `bytes.snapshot` gauge).
  /// \return the tables' heap bytes.
  [[nodiscard]] std::size_t retained_bytes() const;

  /// \brief Baseline: the k sites with the lowest mean unicast RTT,
  ///        announced in that order (the "12-Greedy" line of Fig. 6).
  /// \param rtts the unicast RTT matrix to rank sites by.
  /// \param k number of sites to pick.
  /// \return the greedy configuration.
  [[nodiscard]] static anycast::AnycastConfig greedy_unicast(
      const RttMatrix& rtts, std::size_t k);

  /// \brief Baseline: random providers with random sites from each (the
  ///        "4-Random" line of Fig. 6).
  /// \param deployment the deployment to draw from.
  /// \param providers number of providers to pick.
  /// \param sites_per_provider number of sites per picked provider.
  /// \param rng the draw stream (advanced).
  /// \return the random configuration.
  [[nodiscard]] static anycast::AnycastConfig random_config(
      const anycast::Deployment& deployment, std::size_t providers,
      std::size_t sites_per_provider, Rng& rng);

 private:
  /// Marks "no provider/site": the target has no total order there.
  static constexpr std::uint8_t kNoChoice = 0xFF;

  /// One provider subset's precomputation.
  struct SubsetTable {
    /// Member provider slots in the chosen announcement order.
    std::vector<std::size_t> order;
    /// Per target: the provider slot it prefers under that order, or
    /// kNoChoice when its provider-level tournament is not a total order.
    std::vector<std::uint8_t> winner;
  };

  struct MaskScore {
    double imputed_mean = std::numeric_limits<double>::infinity();
    double predictable_mean = std::numeric_limits<double>::infinity();
    double fraction_ordered = 0;
  };

  /// Chooses the subset's announcement order (the candidate with the most
  /// totally ordered targets) and each target's winning provider under it.
  [[nodiscard]] SubsetTable build_subset(std::size_t provider_mask) const;
  /// The one scoring body of `search` and `evaluate_uncached`: sums each
  /// target's contribution in the order of `targets`.
  [[nodiscard]] MaskScore score_mask(
      std::uint32_t site_mask, const SubsetTable& table,
      std::span<const std::uint32_t> targets) const;

  const Predictor& predictor_;
  OptimizerOptions options_;
  std::size_t targets_ = 0;

  // Immutable precomputation.
  std::vector<std::uint8_t> provider_of_site_;
  /// Per site: its bit in its provider's local site-subset index.
  std::vector<std::uint32_t> local_bit_of_site_;
  /// Per target: the id of its provider-level preference pattern.
  std::vector<std::uint32_t> pattern_of_target_;
  /// Per pattern: how many targets share it.
  std::vector<std::uint32_t> pattern_targets_;
  /// Per pattern: the provider-pair classifications, in `pair_index` order.
  std::vector<PrefKind> patterns_;
  /// Per provider: the column index of its local site subset 1.
  std::vector<std::size_t> column_base_;
  /// Column-major [column][target]: the target's preferred site (id) among
  /// the column's site subset, or kNoChoice.
  std::vector<std::uint8_t> site_columns_;
};

}  // namespace anyopt::core
