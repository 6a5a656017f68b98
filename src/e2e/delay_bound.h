// The end-to-end delay bound d(sigma) of Eq. (39):
//
//     d(sigma) = min_{X >= 0}  X + sum_{h=1}^H theta_h(X) .
//
// Each theta_h(X) is piecewise affine in X, so the objective is piecewise
// affine and its global minimum is attained at one of finitely many
// breakpoints -- `optimize_delay` returns the fold of the objective over
// all of them (this also covers the non-convex Delta > 0 case the paper
// points out).  For Delta <= 0 and Delta = +inf the objective is convex,
// and on long paths (kBandSearchMinHops) the same answer, bit for bit, comes
// from a certified band search that evaluates a few breakpoints next to
// the optimum instead of all 3H + 1 (docs/THEORY.md, "Eq. (39)").  The
// paper's explicit (near-optimal) K-procedure is implemented separately
// in e2e/k_procedure.h; closed forms for BMUX (Eq. 43), FIFO (Eq. 44),
// and SP-high are provided for cross-validation.
#pragma once

#include "e2e/path_params.h"

namespace deltanc::e2e {

/// Exact minimization of Eq. (39) over its breakpoints,
/// allocation-free for hot paths: all buffers (breakpoint
/// candidates, per-node constants, the theta vector of the result) live
/// in `ws` and are reused across calls.  The returned reference points
/// into `ws` and is valid until the next call with the same workspace.
/// (deltanc::Solver::optimize wraps this with method dispatch and an
/// owned workspace; the old workspace-less shim was removed in PR 9.)
const DelayResult& optimize_delay(const PathParams& p, double gamma,
                                  double sigma, SolveWorkspace& ws);

/// Path lengths from which optimize_delay answers a convex objective by
/// the band search: kBandSearchMinHops for a finite Delta <= 0 (FIFO,
/// EDF), kBandSearchMinHopsUnbounded for Delta = +inf or -inf (BMUX,
/// SP-high), whose enumeration has only H + 1 candidates instead of
/// 2H + 2 and so stays cheaper for longer.  Below them the enumeration
/// wins; the parameter search's gamma scan keeps those paths on its SoA
/// kernel (e2e/scan_batch.h) for the same reason.  Measured with
/// BM_OptimizeDelaySearch and BM_GammaScan (EXPERIMENTS.md, "Band
/// search").
inline constexpr int kBandSearchMinHops = 8;
inline constexpr int kBandSearchMinHopsUnbounded = 12;

/// True when optimize_delay(p, ...) answers by the band search.
[[nodiscard]] bool uses_band_search(const PathParams& p);

namespace detail {

/// The full breakpoint enumeration, for any Delta.
const DelayResult& optimize_delay_enumerate(const PathParams& p, double gamma,
                                            double sigma, SolveWorkspace& ws);

/// The band search at any path length; bit-identical to
/// optimize_delay_enumerate.  Requires Delta <= 0 or Delta = +inf
/// (std::invalid_argument otherwise).  Falls back to the enumeration
/// for inputs outside its proof: an infinite sigma, or constants so
/// close to the Eq. (32) limit that a candidate's denominator rounds to
/// zero or below.
const DelayResult& optimize_delay_band(const PathParams& p, double gamma,
                                       double sigma, SolveWorkspace& ws);

}  // namespace detail

/// Blind multiplexing closed form (Eq. 43): d = sigma / (C - rho_c - H gamma).
/// Requires p.delta = +infinity.
[[nodiscard]] double bmux_delay(const PathParams& p, double gamma,
                                double sigma);

/// FIFO closed form (Eq. 44).  Requires p.delta = 0.
[[nodiscard]] double fifo_delay(const PathParams& p, double gamma,
                                double sigma);

/// SP-high closed form (cross traffic never precedes, Delta = -infinity):
/// d = sigma / (C - (H-1) gamma).
[[nodiscard]] double sp_high_delay(const PathParams& p, double gamma,
                                   double sigma);

}  // namespace deltanc::e2e
