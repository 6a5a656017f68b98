// SoA gamma-scan kernel (see e2e/scan_batch.h for the contract).  This
// translation unit is compiled with -fopenmp-simd (activates the simd
// pragmas, no OpenMP runtime) and -ffp-contract=off (no FMA contraction:
// lanes must stay bit-identical to the scalar evaluation).
#include "e2e/scan_batch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace deltanc::e2e::detail {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

void gamma_scan_exact_batch(const PathParams& p,
                            const SigmaForEpsilon& sigma_of,
                            std::span<const double> gammas,
                            std::span<double> delays, GammaScanBatch& batch) {
  assert(gammas.size() == delays.size());
  const std::size_t lanes = gammas.size();
  if (lanes == 0) return;
  const std::size_t hops = static_cast<std::size_t>(p.hops);
  const double* const g_p = gammas.data();

  // --- Scalar per-lane stage: the transcendental sigma(epsilon) chain
  // (exp/pow/log inside SigmaForEpsilon) must go through libm one lane
  // at a time to stay bit-identical.
  batch.sigma.resize(lanes);
  batch.rc.resize(lanes);
  for (std::size_t g = 0; g < lanes; ++g) {
    batch.sigma[g] = sigma_of(gammas[g]);
    batch.rc[g] = p.rho_cross + gammas[g];
  }
  double* const sig_p = batch.sigma.data();
  double* const rc_p = batch.rc.data();

  // --- Per-node constants, hop-major SoA.  Same formulas (and the same
  // int-to-double promotions) as the hoisting loop of optimize_delay.
  batch.node_cap.resize(hops * lanes);
  batch.node_slack.resize(hops * lanes);
  for (std::size_t h0 = 0; h0 < hops; ++h0) {
    const int h = static_cast<int>(h0) + 1;
    double* const cap = batch.node_cap.data() + h0 * lanes;
    double* const slk = batch.node_slack.data() + h0 * lanes;
#pragma omp simd
    for (std::size_t g = 0; g < lanes; ++g) {
      slk[g] = p.capacity - p.rho_cross - h * g_p[g];
      cap[g] = p.capacity - (h - 1) * g_p[g];
      // Eq. (32) holds across the scan range (caller precondition), so
      // the scalar path's slack > 0 throw cannot trigger here.
      assert(slk[g] > 0.0);
    }
  }

  // --- Breakpoint candidates, candidate-major SoA, in the exact push
  // order of optimize_delay's enumeration (the bracket kink -Delta once,
  // after the first node's first candidate).  Note the candidate
  // formulas use slack = node_cap - rc (a different float expression
  // from node_slack, though mathematically equal) -- replicated verbatim.
  const bool positive_delta = p.delta > 0.0;
  const bool finite_delta = std::isfinite(p.delta);
  const bool kinked = finite_delta && !positive_delta;
  const std::size_t per_hop = finite_delta ? (kinked ? 2 : 3) : 1;
  const std::size_t n_cand = 1 + hops * per_hop + (kinked ? 1 : 0);
  batch.cand.resize(n_cand * lanes);
  double* const cand = batch.cand.data();
#pragma omp simd
  for (std::size_t g = 0; g < lanes; ++g) cand[g] = 0.0;
  double* row = cand + lanes;
  for (std::size_t h0 = 0; h0 < hops; ++h0) {
    const double* const cap = batch.node_cap.data() + h0 * lanes;
    if (positive_delta) {
#pragma omp simd
      for (std::size_t g = 0; g < lanes; ++g) {
        const double cslack = cap[g] - rc_p[g];
        row[g] = sig_p[g] / cslack;  // theta_a = 0
        if (finite_delta) {
          row[lanes + g] = sig_p[g] / cslack - p.delta;  // theta_a = Delta
          row[2 * lanes + g] =
              (sig_p[g] + rc_p[g] * p.delta) / cslack;  // theta_b = 0
        }
      }
      row += per_hop * lanes;
    } else {
#pragma omp simd
      for (std::size_t g = 0; g < lanes; ++g) {
        row[g] = sig_p[g] / cap[g];  // bracket empty
      }
      row += lanes;
      if (finite_delta) {
        if (h0 == 0) {
#pragma omp simd
          for (std::size_t g = 0; g < lanes; ++g) row[g] = -p.delta;  // kink
          row += lanes;
        }
#pragma omp simd
        for (std::size_t g = 0; g < lanes; ++g) {
          const double cslack = cap[g] - rc_p[g];
          row[g] = (sig_p[g] + rc_p[g] * p.delta) / cslack;  // theta = 0
        }
        row += lanes;
      }
    }
  }

  // --- Candidate sweep: for each candidate, accumulate the objective
  // x + sum_h theta_h(x) hop by hop (the scalar accumulation order),
  // then fold into the per-lane running argmin with the scalar path's
  // exact tie-break (toward larger X within 1e-12).
  batch.obj.resize(lanes);
  batch.best_f.resize(lanes);
  batch.best_x.resize(lanes);
  double* const obj = batch.obj.data();
  double* const best_f = batch.best_f.data();
  double* const best_x = batch.best_x.data();
#pragma omp simd
  for (std::size_t g = 0; g < lanes; ++g) {
    best_f[g] = kInf;
    best_x[g] = 0.0;
  }
  const bool minus_inf_delta = p.delta == -kInf;
  for (std::size_t j = 0; j < n_cand; ++j) {
    const double* const x_row = cand + j * lanes;
#pragma omp simd
    for (std::size_t g = 0; g < lanes; ++g) obj[g] = x_row[g];
    for (std::size_t h0 = 0; h0 < hops; ++h0) {
      const double* const cap = batch.node_cap.data() + h0 * lanes;
      const double* const slk = batch.node_slack.data() + h0 * lanes;
      if (positive_delta) {
#pragma omp simd
        for (std::size_t g = 0; g < lanes; ++g) {
          const double x = x_row[g];
          const double theta_a = sig_p[g] / slk[g] - x;
          const double theta_b =
              (sig_p[g] + rc_p[g] * (x + p.delta)) / cap[g] - x;
          obj[g] += theta_a <= 0.0 ? 0.0
                                   : (theta_a <= p.delta ? theta_a : theta_b);
        }
      } else {
#pragma omp simd
        for (std::size_t g = 0; g < lanes; ++g) {
          const double x = x_row[g];
          const double bracket =
              minus_inf_delta ? 0.0 : std::max(0.0, x + p.delta);
          const double t = (sig_p[g] + rc_p[g] * bracket) / cap[g] - x;
          obj[g] += std::max(0.0, t);
        }
      }
    }
#pragma omp simd
    for (std::size_t g = 0; g < lanes; ++g) {
      const double x = x_row[g];
      const double f = obj[g];
      const bool better =
          x >= 0.0 && (f < best_f[g] - 1e-12 ||
                       (f < best_f[g] + 1e-12 && x > best_x[g]));
      const double folded = f < best_f[g] ? f : best_f[g];
      best_x[g] = better ? x : best_x[g];
      best_f[g] = better ? folded : best_f[g];
    }
  }
  for (std::size_t g = 0; g < lanes; ++g) delays[g] = best_f[g];
}

}  // namespace deltanc::e2e::detail
