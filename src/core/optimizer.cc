#include "core/optimizer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "netbase/telemetry.h"

namespace anyopt::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Largest provider the site columns cover: a provider with k sites has
/// 2^k - 1 columns of one byte per target.
constexpr std::size_t kMaxProviderSites = 8;

/// One target's tournament among `n` items, split into what every
/// announcement order shares (the strict pairs' out-degrees) and the
/// order-dependent pairs an order orients.  `kind_of(a, b)` classifies the
/// pair a < b.  Returns false when a pair is unknown or inconsistent: the
/// target then has no total order under any announcement order.
template <typename KindOf>
bool split_tournament(
    std::size_t n, KindOf kind_of, std::uint8_t* strict_degree,
    std::vector<std::array<std::uint8_t, 2>>& order_dependent) {
  std::fill_n(strict_degree, n, std::uint8_t{0});
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      switch (kind_of(a, b)) {
        case PrefKind::kStrictFirst: ++strict_degree[a]; break;
        case PrefKind::kStrictSecond: ++strict_degree[b]; break;
        case PrefKind::kOrderDependent:
          order_dependent.push_back(
              {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)});
          break;
        default: return false;
      }
    }
  }
  return true;
}

/// Out-degrees under one announcement order: `first_wins(a, b)` orients
/// each order-dependent pair.  Returns whether they are distinct — the
/// tournament is then transitive, a total order ranked by descending
/// out-degree.
template <typename FirstWins>
bool orient(std::size_t n, const std::uint8_t* strict_degree,
            std::span<const std::array<std::uint8_t, 2>> order_dependent,
            FirstWins first_wins, std::array<std::uint8_t, 32>& degree) {
  std::copy_n(strict_degree, n, degree.begin());
  for (const auto& [a, b] : order_dependent) {
    ++degree[first_wins(a, b) ? a : b];
  }
  std::uint32_t seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (seen >> degree[i] & 1) return false;
    seen |= std::uint32_t{1} << degree[i];
  }
  return true;
}

template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

Optimizer::Optimizer(const Predictor& predictor, OptimizerOptions options)
    : predictor_(predictor), options_(std::move(options)) {
  const auto& deployment = predictor_.deployment();
  const auto& discovery = predictor_.discovery();
  const auto& rtts = predictor_.rtts();
  const std::size_t sites = deployment.site_count();
  const std::size_t providers = deployment.provider_count();
  targets_ = discovery.provider_prefs.target_count;
  if (sites > 31) {
    throw std::invalid_argument(
        "Optimizer enumerates site bitmasks; deployments beyond 31 sites "
        "should use the SPLPO heuristics");
  }

  provider_of_site_.resize(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    provider_of_site_[s] = static_cast<std::uint8_t>(
        deployment.site(SiteId{static_cast<SiteId::underlying_type>(s)})
            .provider.value());
  }

  // Provider-level patterns: targets that classify every provider pair
  // alike get the same order count and winner in every provider subset.
  const PairwiseTable& provider_prefs = discovery.provider_prefs;
  const std::size_t pairs = pair_count(provider_prefs.item_count);
  std::vector<PrefKind> by_target(targets_ * pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    for (std::size_t t = 0; t < targets_; ++t) {
      by_target[t * pairs + k] = provider_prefs.outcome[k][t];
    }
  }
  std::unordered_map<std::string_view, std::uint32_t> pattern_ids;
  pattern_of_target_.resize(targets_);
  for (std::size_t t = 0; t < targets_; ++t) {
    const PrefKind* pattern = by_target.data() + t * pairs;
    const auto [it, fresh] = pattern_ids.try_emplace(
        std::string_view(reinterpret_cast<const char*>(pattern), pairs),
        static_cast<std::uint32_t>(pattern_ids.size()));
    if (fresh) {
      patterns_.insert(patterns_.end(), pattern, pattern + pairs);
      pattern_targets_.push_back(0);
    }
    pattern_of_target_[t] = it->second;
    ++pattern_targets_[it->second];
  }

  // Site columns: per provider and non-empty subset of its sites, each
  // target's first enabled site in its site-level preference order.
  local_bit_of_site_.assign(sites, 0);
  column_base_.resize(providers);
  std::size_t columns = 0;
  for (std::size_t p = 0; p < providers; ++p) {
    const auto& provider_sites = discovery.provider_sites[p];
    if (provider_sites.size() > kMaxProviderSites) {
      throw std::invalid_argument(
          "Optimizer keeps one site column per subset of a provider's "
          "sites; providers beyond 8 sites should use the SPLPO heuristics");
    }
    for (std::size_t i = 0; i < provider_sites.size(); ++i) {
      local_bit_of_site_[provider_sites[i].value()] = std::uint32_t{1} << i;
    }
    column_base_[p] = columns;
    columns += (std::size_t{1} << provider_sites.size()) - 1;
  }
  site_columns_.assign(columns * targets_, kNoChoice);

  std::array<std::uint8_t, 32> ranking{};  // site ids, most preferred first
  std::array<std::uint8_t, 32> strict{};
  std::array<std::uint8_t, 32> degree{};
  std::vector<std::array<std::uint8_t, 2>> order_dependent;
  std::vector<std::pair<double, std::uint8_t>> by_rtt;
  for (std::size_t p = 0; p < providers; ++p) {
    const auto& provider_sites = discovery.provider_sites[p];
    const std::size_t k = provider_sites.size();
    const PairwiseTable& site_prefs = discovery.site_prefs[p];
    for (std::size_t t = 0; t < targets_; ++t) {
      std::size_t ranked = 0;
      if (k == 1) {
        ranking[ranked++] =
            static_cast<std::uint8_t>(provider_sites[0].value());
      } else if (predictor_.mode() == SitePrefMode::kRttRanking) {
        by_rtt.clear();
        for (const SiteId s : provider_sites) {
          const double r = rtts.rtt(
              s, TargetId{static_cast<TargetId::underlying_type>(t)});
          if (r >= 0) {
            by_rtt.push_back({r, static_cast<std::uint8_t>(s.value())});
          }
        }
        std::sort(by_rtt.begin(), by_rtt.end());
        for (const auto& [r, s] : by_rtt) ranking[ranked++] = s;
      } else {
        order_dependent.clear();
        const auto kind_of = [&](std::size_t a, std::size_t b) {
          return site_prefs.get(a, b, t);
        };
        // Equal arrival ranks: the later site wins an order-dependent
        // pair, as in target_total_order.
        const auto later_wins = [](std::size_t, std::size_t) { return false; };
        if (split_tournament(k, kind_of, strict.data(), order_dependent) &&
            orient(k, strict.data(), order_dependent, later_wins, degree)) {
          for (std::size_t i = 0; i < k; ++i) {
            ranking[k - 1 - degree[i]] =
                static_cast<std::uint8_t>(provider_sites[i].value());
          }
          ranked = k;
        }
      }
      // An unranked target (inconsistent site-level preferences, or no
      // measured RTT) keeps kNoChoice: it is imputed if this provider wins.
      for (std::uint32_t sub = 1; sub < (std::uint32_t{1} << k); ++sub) {
        for (std::size_t i = 0; i < ranked; ++i) {
          if (sub & local_bit_of_site_[ranking[i]]) {
            site_columns_[(column_base_[p] + sub - 1) * targets_ + t] =
                ranking[i];
            break;
          }
        }
      }
    }
  }
}

Optimizer::SubsetTable Optimizer::build_subset(
    std::size_t provider_mask) const {
  const std::size_t items = predictor_.discovery().provider_prefs.item_count;
  const std::size_t pairs = pair_count(items);
  std::vector<std::size_t> providers;
  for (std::size_t p = 0; provider_mask >> p; ++p) {
    if (provider_mask >> p & 1) providers.push_back(p);
  }
  const std::size_t n = providers.size();

  // Candidate announcement orders: identity, reverse, rotations, then
  // seeded random shuffles (§4.5 step 3 wants the order maximizing the
  // consistent fraction; sampling orders is the practical variant).
  std::vector<std::vector<std::size_t>> candidates;
  std::vector<std::size_t> perm = providers;
  candidates.push_back(perm);
  std::reverse(perm.begin(), perm.end());
  if (n > 1) candidates.push_back(perm);
  for (std::size_t r = 1; r < n; ++r) {
    perm = providers;
    std::rotate(perm.begin(), perm.begin() + r, perm.end());
    candidates.push_back(perm);
  }
  Rng rng{options_.seed ^ (0x9e37u * provider_mask)};
  while (candidates.size() < options_.order_candidates && n > 2) {
    perm = providers;
    rng.shuffle(perm);
    candidates.push_back(perm);
  }

  // Each pattern's strict out-degrees and order-dependent member pairs.
  // A pattern with an unknown or inconsistent member pair has no total
  // order under any candidate and is left out.
  std::vector<std::uint32_t> usable;
  std::vector<std::uint8_t> strict;  // n per usable pattern
  std::vector<std::array<std::uint8_t, 2>> order_dependent;
  std::vector<std::size_t> order_dependent_end;  // per usable pattern
  std::array<std::uint8_t, 32> split{};
  for (std::size_t k = 0; k < pattern_targets_.size(); ++k) {
    const PrefKind* kinds = patterns_.data() + k * pairs;
    const auto kind_of = [&](std::size_t a, std::size_t b) {
      return kinds[pair_index(providers[a], providers[b], items)];
    };
    const std::size_t begin = order_dependent.size();
    if (split_tournament(n, kind_of, split.data(), order_dependent)) {
      usable.push_back(static_cast<std::uint32_t>(k));
      strict.insert(strict.end(), split.begin(), split.begin() + n);
      order_dependent_end.push_back(order_dependent.size());
    } else {
      order_dependent.resize(begin);
    }
  }
  std::vector<std::size_t> arrival(items, 0);
  std::array<std::uint8_t, 32> degree{};
  const auto ordered = [&](std::size_t u) {
    const std::size_t begin = u == 0 ? 0 : order_dependent_end[u - 1];
    return orient(
        n, strict.data() + u * n,
        std::span(order_dependent)
            .subspan(begin, order_dependent_end[u] - begin),
        [&](std::size_t a, std::size_t b) {
          return arrival[providers[a]] < arrival[providers[b]];
        },
        degree);
  };
  const auto arrive_in = [&](const std::vector<std::size_t>& order) {
    for (std::size_t i = 0; i < order.size(); ++i) arrival[order[i]] = i;
  };

  // Pick the candidate under which the most targets have a total order.
  // Only a strictly larger count replaces the incumbent, so a repeated
  // candidate can never win and is not scored again.
  std::size_t best = 0;
  std::size_t best_count = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (std::find(candidates.begin(), candidates.begin() + c,
                  candidates[c]) != candidates.begin() + c) {
      continue;
    }
    arrive_in(candidates[c]);
    std::size_t count = 0;
    for (std::size_t u = 0; u < usable.size(); ++u) {
      if (ordered(u)) count += pattern_targets_[usable[u]];
    }
    if (c == 0 || count > best_count) {
      best = c;
      best_count = count;
    }
  }

  // Each pattern's most preferred provider under the chosen order, then
  // each target's.
  SubsetTable table;
  table.order = std::move(candidates[best]);
  arrive_in(table.order);
  std::vector<std::uint8_t> pattern_winner(pattern_targets_.size(),
                                           kNoChoice);
  for (std::size_t u = 0; u < usable.size(); ++u) {
    if (!ordered(u)) continue;
    for (std::size_t i = 0; i < n; ++i) {
      if (degree[i] == n - 1) {
        pattern_winner[usable[u]] = static_cast<std::uint8_t>(providers[i]);
      }
    }
  }
  table.winner.resize(targets_);
  for (std::size_t t = 0; t < targets_; ++t) {
    table.winner[t] = pattern_winner[pattern_of_target_[t]];
  }
  return table;
}

Optimizer::MaskScore Optimizer::score_mask(
    std::uint32_t site_mask, const SubsetTable& table,
    std::span<const std::uint32_t> targets) const {
  const auto& rtts = predictor_.rtts();
  // Each member provider's column for its enabled sites.
  std::array<std::uint32_t, 32> local{};
  for (std::uint32_t m = site_mask; m != 0; m &= m - 1) {
    const int s = __builtin_ctz(m);
    local[provider_of_site_[s]] |= local_bit_of_site_[s];
  }
  std::array<const std::uint8_t*, 32> column{};
  for (const std::size_t p : table.order) {
    column[p] =
        site_columns_.data() + (column_base_[p] + local[p] - 1) * targets_;
  }

  double predictable_sum = 0;
  double predictable_weight = 0;
  double imputed_sum = 0;
  double imputed_weight = 0;
  std::size_t predictable = 0;
  const bool weighted = !options_.target_weight.empty();
  const bool capacitated = !options_.site_capacity.empty();
  std::array<double, 32> load{};

  // Mean unicast RTT over enabled sites, the imputation for targets
  // without a usable total order (they still receive traffic when the
  // configuration is deployed).
  const auto impute = [&](std::uint32_t t) {
    double sum = 0;
    std::size_t n = 0;
    for (std::uint32_t m = site_mask; m != 0; m &= m - 1) {
      const double r =
          rtts.rtt(SiteId{static_cast<SiteId::underlying_type>(
                       __builtin_ctz(m))},
                   TargetId{t});
      if (r >= 0) {
        sum += r;
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : -1.0;
  };

  for (const std::uint32_t t : targets) {
    const double w = weighted ? options_.target_weight[t] : 1.0;
    const std::uint8_t p = table.winner[t];
    const std::uint8_t s = p == kNoChoice ? kNoChoice : column[p][t];
    if (s != kNoChoice) {
      ++predictable;
      if (capacitated) load[s] += w;
      const double r = rtts.rtt(SiteId{s}, TargetId{t});
      if (r >= 0) {
        predictable_sum += w * r;
        predictable_weight += w;
        imputed_sum += w * r;
        imputed_weight += w;
      }
    } else {
      const double r = impute(t);
      if (r >= 0) {
        imputed_sum += w * r;
        imputed_weight += w;
      }
    }
  }
  MaskScore score;
  score.fraction_ordered = targets.empty()
                               ? 0
                               : static_cast<double>(predictable) /
                                     static_cast<double>(targets.size());
  if (capacitated) {
    // Appendix-B Eq. 7: discard configurations whose predicted catchment
    // overloads any enabled site.  Strictly greater, never a ratio: load
    // exactly at capacity is feasible, and capacity 0 with summed weight 0
    // is feasible too — the agility layer's SLO assessor mirrors these
    // exact semantics (src/agility/workload.h).
    for (std::size_t s = 0; s < options_.site_capacity.size() && s < 32;
         ++s) {
      if ((site_mask >> s & 1) && load[s] > options_.site_capacity[s]) {
        return score;  // both means stay +inf => never selected
      }
    }
  }
  if (predictable_weight > 0) {
    score.predictable_mean = predictable_sum / predictable_weight;
  }
  if (imputed_weight > 0) {
    score.imputed_mean = imputed_sum / imputed_weight;
  }
  return score;
}

SearchOutcome Optimizer::search() const {
  const auto t0 = Clock::now();
  const std::size_t sites = predictor_.deployment().site_count();

  std::vector<std::uint32_t> sample(targets_);
  std::iota(sample.begin(), sample.end(), 0u);
  if (options_.target_sample > 0 && options_.target_sample < targets_) {
    Rng rng{options_.seed ^ 0xA53EDULL};
    rng.shuffle(sample);
    sample.resize(options_.target_sample);
  }

  SearchOutcome outcome;
  outcome.best_per_size.resize(sites + 1);
  outcome.exhausted = true;

  // Provider-subset tables, built on first use.
  std::vector<std::optional<SubsetTable>> tables(
      std::size_t{1} << predictor_.deployment().provider_count());
  const std::uint32_t limit = std::uint32_t{1} << sites;
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    const auto size = static_cast<std::size_t>(__builtin_popcount(mask));
    if (size < options_.min_sites || size > options_.max_sites) continue;
    if ((mask & 0xFFF) == 0 &&
        seconds_since(t0) > options_.time_budget_s) {
      outcome.exhausted = false;
      break;
    }
    std::size_t provider_mask = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      provider_mask |= std::size_t{1}
                       << provider_of_site_[__builtin_ctz(m)];
    }
    std::optional<SubsetTable>& table = tables[provider_mask];
    if (!table) table = build_subset(provider_mask);
    const MaskScore score = score_mask(mask, *table, sample);
    ++outcome.configurations_evaluated;

    auto& slot = outcome.best_per_size[size];
    if (score.imputed_mean < slot.predicted_mean_rtt) {
      slot.predicted_mean_rtt = score.imputed_mean;
      slot.predictable_mean_rtt = score.predictable_mean;
      slot.fraction_ordered = score.fraction_ordered;
      // Materialize the announcement order: providers in chosen arrival
      // order, each provider's enabled sites in site-id order.
      anycast::AnycastConfig cfg;
      for (const std::size_t p : table->order) {
        for (std::size_t s = 0; s < sites; ++s) {
          if ((mask >> s & 1) && provider_of_site_[s] == p) {
            cfg.announce_order.push_back(
                SiteId{static_cast<SiteId::underlying_type>(s)});
          }
        }
      }
      slot.config = std::move(cfg);
    }
  }

  // Re-score the per-size winners on the full target set (if sampled) and
  // pick the global best.
  for (auto& slot : outcome.best_per_size) {
    if (slot.config.announce_order.empty()) continue;
    if (sample.size() != targets_) {
      const EvaluatedConfig rescored = evaluate_uncached(slot.config);
      slot.predicted_mean_rtt = rescored.predicted_mean_rtt;
      slot.predictable_mean_rtt = rescored.predictable_mean_rtt;
      slot.fraction_ordered = rescored.fraction_ordered;
    }
    if (slot.predicted_mean_rtt < outcome.best.predicted_mean_rtt) {
      outcome.best = slot;
    }
  }
  if (telemetry::enabled()) {
    auto& reg = telemetry::Registry::global();
    reg.counter("optimizer.searches").add(1);
    reg.counter("optimizer.configs_evaluated")
        .add(outcome.configurations_evaluated);
  }
  return outcome;
}

EvaluatedConfig Optimizer::evaluate_uncached(
    const anycast::AnycastConfig& config) const {
  std::size_t provider_mask = 0;
  std::uint32_t site_mask = 0;
  for (const SiteId s : config.announce_order) {
    provider_mask |= std::size_t{1} << provider_of_site_[s.value()];
    site_mask |= std::uint32_t{1} << s.value();
  }
  std::vector<std::uint32_t> all(targets_);
  std::iota(all.begin(), all.end(), 0u);
  EvaluatedConfig out;
  out.config = config;
  const MaskScore score =
      score_mask(site_mask, build_subset(provider_mask), all);
  out.predicted_mean_rtt = score.imputed_mean;
  out.predictable_mean_rtt = score.predictable_mean;
  out.fraction_ordered = score.fraction_ordered;
  return out;
}

std::size_t Optimizer::retained_bytes() const {
  return heap_bytes(provider_of_site_) + heap_bytes(local_bit_of_site_) +
         heap_bytes(pattern_of_target_) + heap_bytes(pattern_targets_) +
         heap_bytes(patterns_) + heap_bytes(column_base_) +
         heap_bytes(site_columns_);
}

anycast::AnycastConfig Optimizer::greedy_unicast(const RttMatrix& rtts,
                                                 std::size_t k) {
  anycast::AnycastConfig cfg;
  const auto ranked = rtts.sites_by_mean();
  for (std::size_t i = 0; i < std::min(k, ranked.size()); ++i) {
    cfg.announce_order.push_back(ranked[i]);
  }
  return cfg;
}

anycast::AnycastConfig Optimizer::random_config(
    const anycast::Deployment& deployment, std::size_t providers,
    std::size_t sites_per_provider, Rng& rng) {
  std::vector<std::size_t> eligible;
  for (std::size_t p = 0; p < deployment.provider_count(); ++p) {
    if (deployment
            .sites_of_provider(
                ProviderId{static_cast<ProviderId::underlying_type>(p)})
            .size() >= sites_per_provider) {
      eligible.push_back(p);
    }
  }
  rng.shuffle(eligible);
  eligible.resize(std::min(providers, eligible.size()));
  anycast::AnycastConfig cfg;
  for (const std::size_t p : eligible) {
    auto sites = deployment.sites_of_provider(
        ProviderId{static_cast<ProviderId::underlying_type>(p)});
    rng.shuffle(sites);
    for (std::size_t i = 0; i < sites_per_provider && i < sites.size(); ++i) {
      cfg.announce_order.push_back(sites[i]);
    }
  }
  rng.shuffle(cfg.announce_order);
  return cfg;
}

}  // namespace anyopt::core
