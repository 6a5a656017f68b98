// Batched (structure-of-arrays) evaluation of the inner gamma scan of
// the Chernoff parameter search.
//
// The scan phase of best-over-gamma evaluates the Eq. (39) objective at
// a fixed grid of gamma probes that share everything except gamma
// itself.  Restructured as SoA -- parallel arrays of per-lane sigma,
// rho_cross + gamma, per-node constants and breakpoint candidates
// (e2e::GammaScanBatch) -- the enumeration becomes branch-free
// arithmetic that `#pragma omp simd` vectorizes across lanes.
//
// Bit-identity discipline: the kernel vectorizes ONLY IEEE-exact
// operations (+, -, *, /, comparisons/blends); the transcendentals
// behind sigma(epsilon) stay scalar per lane (vectorized libm variants
// are not bit-identical), and the kernel translation unit is compiled
// with -ffp-contract=off so no FMA contraction can perturb a lane.
// Every lane therefore reproduces, bit for bit, sigma_of(gamma) followed
// by the breakpoint enumeration (detail::optimize_delay_enumerate) --
// what optimize_delay runs below the band-search crossover, and what
// tests/band_search_test.cpp compares every lane against.
// best_over_gamma (e2e/param_search.cpp) selects the kernel from its
// input alone: the exact optimizer on a path below that crossover.
#pragma once

#include <span>

#include "e2e/network_epsilon.h"
#include "e2e/path_params.h"

namespace deltanc::e2e::detail {

/// Fills delays[i] with the Eq. (39) exact-optimization objective at
/// gammas[i] for fixed (p, sigma_of): bit-identical, lane for lane, to
/// the scalar sequence  sigma = sigma_of(gamma);
/// detail::optimize_delay_enumerate(p, gamma, sigma, ws).delay .
///
/// Preconditions (enforced by the caller, the scan of best-over-gamma):
/// every gamma lies strictly inside (0, p.gamma_limit()), so Eq. (32)
/// holds at every node and the scalar path would not throw.
void gamma_scan_exact_batch(const PathParams& p,
                            const SigmaForEpsilon& sigma_of,
                            std::span<const double> gammas,
                            std::span<double> delays, GammaScanBatch& batch);

}  // namespace deltanc::e2e::detail
