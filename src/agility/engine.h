#pragma once
// The mitigation search: "which knob sequence restores the SLO fastest?"
//
// Given a deployed configuration whose SLO an attack pulse breaks, the
// engine enumerates candidate playbooks (prepend / withdraw / re-announce
// sequences), evaluates each through the copy-on-write overlay path — one
// shared converged base, one delta re-convergence per step — and scores
// survivors by time-to-mitigate, then post-mitigation mean RTT.
//
// Search discipline:
//  * Depth-first by step count.  Time-to-mitigate is monotone in the
//    number of knobs applied (each knob costs `knob_delay_s` of operator
//    clock), so if ANY single step restores the SLO no two-step playbook
//    can beat it and deeper enumeration is skipped entirely.
//  * Pruning: a candidate's next step must plausibly help — shed load from
//    a currently-overloaded site (withdraw/prepend it) or add capacity
//    (re-announce a disabled site).  Valid-but-aimless steps are counted in
//    `MitigationResult::pruned` and never simulated.
//  * Determinism: every simulation nonce is a content hash of the playbook
//    prefix it evaluates (never of thread or enumeration order), candidate
//    evaluations write indexed slots, and winner selection is a serial
//    total order — results are bit-identical at any thread count, and the
//    overlay path is bit-identical to classic per-step re-convergence
//    because a shared base is interchangeable with a freshly converged
//    private one (the documented `converge_base` contract; the agility
//    invariance suite enforces both).
//
// Fault composition: the engine inherits the orchestrator's FaultInjector.
// Steps whose schedule the fault layer would rewrite fall back to classic
// measurement inside `measure_overlay` transparently; attacks therefore
// compose with session flaps and loss storms exactly as campaigns do.

#include <cstdint>
#include <limits>
#include <vector>

#include "agility/playbook.h"
#include "agility/workload.h"
#include "measure/orchestrator.h"
#include "netbase/thread_pool.h"

namespace anyopt::agility {

/// \brief Search parameters.
struct AgilityOptions {
  SloPolicy slo;               ///< the objective to restore
  /// Operator clock per knob applied (config push + BGP propagation);
  /// step i of a playbook lands at (i+1) * knob_delay_s.
  double knob_delay_s = 60.0;
  /// Settle time after the last knob before the SLO is re-assessed; the
  /// time-to-mitigate of a k-step playbook is k*knob_delay_s + settle_s.
  double settle_s = 60.0;
  std::size_t max_steps = 2;       ///< deepest playbook examined
  std::uint8_t prepend_levels = 2; ///< prepend depths 1..levels per site
  std::uint64_t seed = 0xA61;      ///< roots every content-derived nonce
  /// Candidate-parallel evaluation pool (not owned; nullptr = serial).
  /// Must NOT be a pool the calling task itself runs on — nested
  /// parallel_for on one pool can deadlock.  Each candidate's census runs
  /// on its worker thread's arena (`Orchestrator::thread_scratch`).
  ThreadPool* pool = nullptr;
  /// Evaluate steps over one shared converged base (copy-on-write
  /// overlays).  `false` re-converges a private base per step — the classic
  /// path; results are bit-identical, only the event counts differ.
  bool use_overlays = true;
  /// Model-clock instant the SLO is assessed at (attack pulses active at
  /// this time apply).
  double attack_time_s = 0.0;
};

/// \brief One evaluated step of a playbook.
struct StepOutcome {
  SloState slo;               ///< SLO state after this step settled
  double at_s = 0;            ///< operator clock when the knob applied
  std::size_t sim_events = 0; ///< simulation events this step cost
};

/// \brief One fully scored candidate playbook.
struct PlaybookOutcome {
  Playbook playbook;
  bool mitigated = false;
  /// Operator clock from attack detection to a passing SLO assessment;
  /// infinity when the playbook never restores the SLO.
  double time_to_mitigate_s = std::numeric_limits<double>::infinity();
  /// Demand-weighted mean RTT after the final evaluated step.
  double post_mean_rtt_ms = std::numeric_limits<double>::infinity();
  std::size_t steps_needed = 0;   ///< steps applied when the SLO passed
  std::size_t sim_events = 0;     ///< summed events across evaluated steps
  std::vector<StepOutcome> steps; ///< per-step trail (prefix-shared runs)
};

/// \brief Search result.
struct MitigationResult {
  SloState baseline;        ///< SLO state of the deployed config under attack
  bool slo_violated = false;///< baseline verdict (false = nothing to do)
  PlaybookOutcome best;     ///< winning playbook (empty "hold" when none)
  std::size_t candidates = 0;      ///< playbooks actually simulated
  std::size_t pruned = 0;          ///< valid steps pruned unsimulated
  std::size_t base_events = 0;     ///< events converging the shared base
  /// Total simulation events the search issued (base + baseline + every
  /// step run) — the overlay-vs-classic savings counter the bench records.
  std::size_t total_sim_events = 0;
};

/// \brief The playbook search engine.
class AgilityEngine {
 public:
  /// \brief Binds the engine to a measurement plane and a demand model.
  /// \param orchestrator the measurement orchestrator (must outlive this).
  /// \param demand per-target demand plus attack pulses.
  /// \param options search parameters; see `AgilityOptions`.
  AgilityEngine(const measure::Orchestrator& orchestrator, DemandModel demand,
                AgilityOptions options = {});

  /// \brief Runs the mitigation search for `deployed`.
  ///
  /// Converges the deployed schedule once, assesses the baseline SLO under
  /// the attack, and — when violated — searches playbooks up to
  /// `max_steps` deep.  Deterministic: the result is a pure function of
  /// (world, deployed, demand, options), bit-identical at any pool size
  /// and between the overlay and classic paths.
  /// \param deployed the configuration currently announced.
  /// \return the search result.
  [[nodiscard]] MitigationResult mitigate(
      const anycast::AnycastConfig& deployed) const;

  [[nodiscard]] const DemandModel& demand() const { return demand_; }
  [[nodiscard]] const AgilityOptions& options() const { return options_; }

 private:
  const measure::Orchestrator& orchestrator_;
  DemandModel demand_;
  AgilityOptions options_;
};

}  // namespace anyopt::agility
