// deltanc::Solver -- the consolidated solve entry point of the public
// API (re-exported by include/deltanc/deltanc.h).
//
// Historically the library exposed free-function entry points at
// different altitudes: a full scenario solve, a scenario solve at a
// fixed Delta, and workspace-less wrappers of the low-level theta
// optimizers (one (gamma, sigma) evaluation each, method chosen by
// which function you call).  Solver unifies them behind one object carrying a
// SolveOptions: the method, an optional scheduler override, an optional
// fixed Delta, the EDF retry policy, and the warm-start policy all live
// in one struct -- which is also exactly what the persistent result
// cache hashes (io::cache_key), so "what was solved" and "what
// keys the cache" can never drift apart.  The free-function shims were
// retired in PR 9; scripts/check.sh gates against their return.
//
// Cold solves are bit-identical to the free functions they replaced
// (pinned by tests/solver_facade_test.cpp against the PR 2 hexfloat
// goldens).  Warm-started solves (SolveOptions::warm_start = kWarm plus
// a Solver::State threaded between related solves) may take different
// iteration paths; the deviation is bounded by the documented tolerance
// (docs/API.md#warm-starts, enforced by the CLI selfcheck battery).
#pragma once

#include <optional>
#include <span>

#include "e2e/delay_bound.h"
#include "e2e/k_procedure.h"
#include "e2e/param_search.h"
#include "e2e/solve_state.h"

namespace deltanc {

/// Everything that parameterizes a solve besides the scenario itself.
/// Hashed (together with the scenario and the library version) into the
/// persistent cache key, so every field here must stay serializable.
struct SolveOptions {
  /// Theta optimization: exact breakpoint enumeration or the paper's
  /// K-procedure.
  e2e::Method method = e2e::Method::kExactOpt;
  /// Override the scenario's scheduler without copying the scenario by
  /// hand (e.g. one base scenario solved under every scheduler).  A bare
  /// sched::SchedulerKind converts implicitly.
  std::optional<sched::SchedulerSpec> scheduler;
  /// Solve at this fixed, already-resolved Delta instead of deriving it
  /// from the scheduler (skips the EDF fixed point entirely).
  std::optional<double> delta;
  /// EDF fixed-point retry policy: -1 = the solver's full damped-restart
  /// schedule (default, bit-identical to the historical behavior),
  /// 0 = no restarts, n = at most n restarts.
  int max_edf_restarts = -1;
  /// Whether solve(sc, state) consumes the hints carried in the state
  /// (kWarm) or only refreshes it (kCold, the default: bit-identical to
  /// the stateless solve(sc)).  Stateless solves ignore this field.
  e2e::WarmStart warm_start = e2e::WarmStart::kCold;
};

/// The facade over the (gamma, s) parameter search and the theta
/// optimizers.  Cheap to construct; copyable.  solve()/solve_at() are
/// const and thread-safe; optimize() mutates the Solver's workspace, so
/// give each thread its own Solver there.
class Solver {
 public:
  /// Opaque warm-start context for solve(sc, state): carries the eb(s)
  /// memo, the stable-s bracket, the previous optimum, and the resolved
  /// EDF fixed point between related solves.  Thread it through a
  /// sequence of nearby scenarios (one State per sequence -- it is a
  /// hint channel, not shared state; never share one across threads).
  using State = e2e::SolveState;

  Solver() = default;
  explicit Solver(SolveOptions options) : options_(options) {}
  /// Convenience: a Solver differing from the defaults only in method.
  explicit Solver(e2e::Method method) { options_.method = method; }

  [[nodiscard]] const SolveOptions& options() const noexcept {
    return options_;
  }

  /// The scenario this Solver would actually solve: `sc` with the
  /// scheduler override (if any) applied.  Exposed so callers (and the
  /// cache key) can see the effective input.
  [[nodiscard]] e2e::Scenario effective_scenario(
      const e2e::Scenario& sc) const;

  /// Full scenario solve: resolves EDF deadlines by fixed point when
  /// needed (honoring max_edf_restarts), then optimizes (gamma, s).
  /// With options().delta set, solves at that fixed Delta instead.
  [[nodiscard]] e2e::BoundResult solve(const e2e::Scenario& sc) const;

  /// Stateful variant: per options().warm_start the solve consumes the
  /// context carried in `state` (kWarm; hints whose fingerprints do not
  /// match the scenario are ignored, so any state is safe to pass) or
  /// ignores it (kCold).  Either way the state is refreshed with this
  /// solve's context on return, ready for the next nearby scenario.
  [[nodiscard]] e2e::BoundResult solve(const e2e::Scenario& sc,
                                       State& state) const;

  /// Full d(epsilon) profile: one complete BoundResult per level of the
  /// given violation-probability grid (each in (0, 1); at least one).
  /// With options().warm_start == kCold (the default) every level is an
  /// independent full-budget solve, bit-identical to solve() of the same
  /// scenario at that epsilon -- the pinning contract.  With kWarm the
  /// levels are solved in descending-epsilon order, chained through one
  /// warm-start state at a reduced local-search budget; each level then
  /// stays within the documented warm-start tolerance of its cold value
  /// (docs/API.md#delay-profiles) while a multi-level profile solves
  /// several times faster than independent cold solves.  Levels are
  /// returned in the caller's epsilon order either way.
  [[nodiscard]] e2e::DelayProfile solve_profile(
      const e2e::Scenario& sc, std::span<const double> epsilons) const;

  /// Stateful profile solve: like solve(sc, state) the chain state is
  /// consumed per options().warm_start (the profile's first level can
  /// warm-start from a neighboring point's state) and is left holding
  /// the last-solved level's context on return.
  [[nodiscard]] e2e::DelayProfile solve_profile(const e2e::Scenario& sc,
                                                std::span<const double> epsilons,
                                                State& state) const;

  /// Scenario solve at an explicit fixed Delta (overrides
  /// options().delta for this call).
  [[nodiscard]] e2e::BoundResult solve_at(const e2e::Scenario& sc,
                                          double delta) const;

  /// One theta optimization (Eq. 39 exactly, or the paper's K-procedure,
  /// per options().method) at fixed (gamma, sigma).  Consecutive calls
  /// share this Solver's buffers (allocation-free hot loops); the result
  /// is copied out.
  [[nodiscard]] e2e::DelayResult optimize(const e2e::PathParams& p,
                                          double gamma, double sigma) const;

 private:
  [[nodiscard]] e2e::detail::EngineRequest engine_request() const;

  SolveOptions options_;
  mutable e2e::SolveWorkspace workspace_;
};

}  // namespace deltanc
