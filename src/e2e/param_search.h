// Scenario-level solve engine: from a concrete network description
// (link rate, path length, MMOO flow counts, scheduler, target violation
// probability) to a probabilistic end-to-end delay bound.
//
// The paper's bound has two free parameters that are not optimized
// analytically: the Chernoff parameter s of the effective bandwidth (the
// EBB description A ~ (1, N eb(s), s)) and the per-node rate slack gamma
// of the network service curve.  The engine minimizes the bound over
// both: an outer golden-section search on s (seeded by a coarse
// logarithmic scan) and an inner golden-section search on gamma within
// the stability window of Eq. (32).  For the exact optimizer on paths
// below the band-search crossover the coarse gamma scan runs through the
// SoA SIMD kernel of e2e/scan_batch.h, bit-identical to evaluating the
// same gammas one at a time; every other scan does exactly that.
//
// EDF deadlines in the paper's examples are self-referential: d*_0 and
// d*_c are multiples of d_e2e / H where d_e2e is the EDF bound itself
// (Examples 1 and 3).  The engine resolves this with a fixed-point
// iteration on Delta_{0,c} = d*_0 - d*_c: secant steps with a damped
// fallback, far-from-root iterates at a reduced search budget, and a
// full-budget confirmation as the only accepted answer.
//
// The one public entry point is deltanc::Solver (e2e/solver.h); the
// historical scenario-level free functions were retired with the rest
// of the deprecated shims, and scripts/check.sh gates against their
// return.  This header keeps the
// scenario/result/stats vocabulary plus the internal engine interface
// the Solver and the sweep chain executor share.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/diagnostics.h"
#include "e2e/path_params.h"
#include "sched/scheduler_spec.h"
#include "traffic/mmoo.h"

namespace deltanc::e2e {

class SolveState;  // e2e/solve_state.h (opaque warm-start context)

/// A homogeneous end-to-end scenario with MMOO traffic (Section V).
struct Scenario {
  double capacity = 100.0;  ///< Mbps (= kb/ms at 1 ms slots)
  int hops = 2;             ///< H
  traffic::MmooSource source = traffic::MmooSource::paper_source();
  int n_through = 100;      ///< N_0
  int n_cross = 100;        ///< N_c at every node
  double epsilon = 1e-9;    ///< target violation probability
  /// Scheduler identity (kind + parameters; carries the EDF deadline
  /// factors that used to live in a separate `edf` field).
  sched::SchedulerSpec scheduler{};

  /// Total utilization U = (N0 + Nc) * mean_rate / C.
  [[nodiscard]] double utilization() const {
    return (n_through + n_cross) * source.mean_rate() / capacity;
  }

  /// Validates every field in one pass and returns *all* violations
  /// (malformed capacity/hops/flow counts, epsilon outside (0,1), EDF
  /// deadline factors, MMOO rate inconsistencies) instead of throwing on
  /// the first.  An overloaded but well-formed scenario (utilization
  /// >= 1) is reported as a kUnstable violation with report.ok() still
  /// true: the solver accepts it and classifies the +inf bound.
  [[nodiscard]] diag::ValidationReport validate() const;
};

/// How to solve the theta optimization.
enum class Method {
  kExactOpt,  ///< exact breakpoint enumeration (e2e/delay_bound.h)
  kPaperK,    ///< the paper's K-procedure (e2e/k_procedure.h)
};

/// Warm-start policy of a solve that is handed a SolveState.
enum class WarmStart {
  /// Ignore any carried context; solve from scratch (bit-identical to a
  /// stateless solve).  The state is still refreshed afterwards.
  kCold,
  /// Consume fingerprint-matching hints from the state: the eb(s) memo
  /// and the stable-s bracket are reused bit-exactly; the previous
  /// optimum and the resolved EDF fixed point seed the search (which may
  /// legitimately change iteration paths within the documented
  /// warm-start tolerance; see docs/API.md#warm-starts).
  kWarm,
};

/// Instrumentation of one solve: how much work the nested search did and
/// where the wall-clock went.  Counters aggregate across the EDF fixed
/// point when one runs; `operator+=` lets sweeps aggregate across points.
struct SolveStats {
  std::int64_t optimize_evals = 0;  ///< theta optimizations (Eq. 39 / K-proc)
  std::int64_t eb_evals = 0;        ///< distinct eb(s) computations (memo misses)
  std::int64_t sigma_evals = 0;     ///< sigma(epsilon) evaluations (Eq. 34)
  int edf_iterations = 0;           ///< EDF fixed-point iterations (0 otherwise)
  bool edf_converged = true;        ///< false if the fixed point hit its cap
  int retries = 0;     ///< EDF fixed-point restarts with tighter damping
  int fallbacks = 0;   ///< dense log-scan rescues of a degenerate/missed s scan
  // Wall-clock timings: in-process only (--stats, SweepReport, benches).
  // The codec never encodes them, so a stored or served result stays a
  // pure function of (scenario, options).
  double scan_ms = 0.0;             ///< wall time in the coarse s scans
  double refine_ms = 0.0;           ///< wall time in the golden refinements
  // SIMD / warm-start instrumentation (PR 9): the speedup must be
  // observable, not inferred.
  std::int64_t batched_evals = 0;   ///< evals dispatched through the SIMD kernel
  std::int64_t warm_start_hits = 0; ///< warm hints consumed (probe / EDF seed)
  std::int64_t brackets_reused = 0; ///< stable-s brackets adopted (no bisection)
  // Delay-profile instrumentation (PR 10): set on DelayProfile::stats by
  // the profile driver (per-level BoundResult::stats keep them zero), so
  // a sweep/batch aggregate shows how many levels were solved and how
  // many of them actually consumed a chained warm hint.
  std::int64_t profile_levels = 0;     ///< epsilon levels solved in profiles
  std::int64_t profile_chain_hits = 0; ///< post-first levels that used the chain

  SolveStats& operator+=(const SolveStats& other);
};

/// Result of the search; `delay_ms` is +infinity when the configuration
/// is unstable (per-node load >= capacity).  A non-finite or degraded
/// result is classified in `diagnostics` (kUnstable, kNumericalDomain,
/// or a kNoConvergence warning) instead of being silently accepted.
struct BoundResult {
  double delay_ms;
  double gamma;   ///< optimizing per-node rate slack
  double s;       ///< optimizing Chernoff parameter
  double sigma;   ///< sigma(epsilon) at the optimum
  double delta;   ///< resolved Delta_{0,c}
  SolveStats stats{};             ///< instrumentation of this solve
  diag::Diagnostics diagnostics{};  ///< error/warning classification
};

/// A full d(epsilon) CCDF artifact: the violation-probability grid plus
/// one complete BoundResult per level (delay, Delta/sigma/theta optima,
/// diagnostics, per-level stats).  `levels[i]` solves the scenario at
/// `epsilons[i]`; the order is the caller's, whatever order the solver
/// visited the levels in internally.  `stats` aggregates the per-level
/// counters and additionally carries `profile_levels` /
/// `profile_chain_hits` (which per-level stats keep at zero).
///
/// The theory guarantees d(epsilon) is non-increasing in epsilon (a
/// looser violation probability can only shrink the bound); the
/// self_check_profile battery enforces this within the warm-start
/// tolerance.
struct DelayProfile {
  std::vector<double> epsilons;     ///< violation-probability grid
  std::vector<BoundResult> levels;  ///< levels[i] solves epsilons[i]
  SolveStats stats{};               ///< aggregate + profile counters
};

/// The largest Chernoff parameter keeping the per-node load below
/// capacity ((N0+Nc) eb(s) < C); +infinity when even the peak rate fits,
/// 0 when the mean rate already overloads the link.
[[nodiscard]] double max_stable_s(const Scenario& sc);

namespace detail {

/// Search-budget policy of one engine solve.  kFull is the historical
/// budget (every cold or scalar-warm solve).  kLocal shrinks the gamma
/// scan/golden budgets and the s refinement *only while a warm probe has
/// landed* -- consecutive profile levels differ in epsilon alone, so the
/// optimum moves little and the full re-localization is wasted work; a
/// missed probe silently reverts the solve to the full budget, so
/// robustness (dense-scan fallback included) is unchanged.  The EDF fixed
/// point also runs its far-from-root iterates at kLocal, but accepts only
/// a solve at the request's own effort.
enum class SearchEffort {
  kFull,   ///< historical budgets; bit-identical to pre-profile solves
  kLocal,  ///< reduced budgets around a landed warm probe (profile descent)
};

/// What deltanc::Solver (or the sweep chain executor) asks the engine to
/// do.  Internal: user code calls deltanc::Solver, never this.
struct EngineRequest {
  Method method = Method::kExactOpt;
  /// EDF fixed-point retry policy: -1 = full damped-restart schedule,
  /// 0 = no restarts, n = at most n.
  int max_edf_restarts = -1;
  /// Solve at this fixed, already-resolved Delta (skips the EDF fixed
  /// point and the scheduler's static Delta).
  std::optional<double> delta;
  /// Consume warm hints from the state (WarmStart::kWarm semantics).
  /// With false the solve is bit-identical to a stateless one.
  bool use_warm = false;
  /// Search budget; only the warm profile descent requests kLocal.
  SearchEffort effort = SearchEffort::kFull;
};

/// The scenario-solve engine behind deltanc::Solver.  `state` may be
/// null (one-shot solve); when non-null it is consulted per
/// `req.use_warm` and refreshed with this solve's context either way.
[[nodiscard]] BoundResult solve_scenario(const Scenario& sc,
                                         const EngineRequest& req,
                                         SolveState* state);

/// The d(epsilon) profile engine behind Solver::solve_profile.  With
/// `req.use_warm` false every level is solved independently at the full
/// budget -- bit-identical to K scalar solves of the same scenarios (the
/// pinning contract).  With `req.use_warm` true the engine visits the
/// levels in *descending* epsilon order, threading one warm-start state
/// (the caller's, or a profile-local one when `state` is null) from each
/// level to the next, and solves post-probe levels at SearchEffort::kLocal;
/// results come back in the caller's epsilon order regardless.  Throws
/// std::invalid_argument when `epsilons` is empty or any level falls
/// outside (0, 1).
[[nodiscard]] DelayProfile solve_profile_scenario(
    const Scenario& sc, std::span<const double> epsilons,
    const EngineRequest& req, SolveState* state);

}  // namespace detail

}  // namespace deltanc::e2e
