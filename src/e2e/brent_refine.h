// One-dimensional refinement of the Chernoff-parameter search: Brent's
// method (parabolic interpolation with a golden-section fallback; R. P.
// Brent, "Algorithms for Minimization without Derivatives", 1973, ch. 5)
// around the winner of a coarse scan.
//
// Every refinement of the parameter search goes through brent_refine:
// the gamma refinement of best-over-gamma, the s refinement of the
// Delta engine and the s search of the curve-backed schedulers
// (e2e/param_search.cpp).  The objectives are +inf outside a feasibility
// window (gamma at or past the Eq. (32) limit, an unstable s), so a
// parabolic step is taken only when all three of its points are finite;
// otherwise the step is golden.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

namespace deltanc::e2e::detail {

/// Relative x-tolerance of brent_refine, ~sqrt(DBL_EPSILON): below it a
/// smooth minimum's value no longer changes in double precision.
inline constexpr double kBrentRelTol = 1e-8;

/// Minimizes f on [best_x - step, best_x + step] (clipped to [lo, hi])
/// starting from a scan winner (best_x, best_v = f(best_x)), which is
/// the first best point and is not re-evaluated.  Stops once the bracket
/// is within kBrentRelTol of the best point or after `max_evals`
/// evaluations of f.  Never evaluates f outside [lo, hi].  Keeps the
/// argmin over the winner: the best point moves only to a strictly
/// smaller value (the winner stays on ties), so the returned value is
/// never above best_v; its argument is left in best_x.
template <typename F>
double brent_refine(F f, double lo, double hi, double step, int max_evals,
                    double& best_x, double best_v) {
  constexpr double kCGold = 0.3819660112501051;  // 2 - golden ratio
  // An absolute floor keeps the tolerance positive at x = 0.
  constexpr double kAbsTol = std::numeric_limits<double>::epsilon() * 1e-3;
  double a = std::max(lo, best_x - step);
  double b = std::min(hi, best_x + step);
  // x: best point so far (the winner to start); w: second best; v: the
  // previous w.
  double x = best_x, w = best_x, v = best_x;
  double fx = best_v, fw = best_v, fv = best_v;
  double d = 0.0;  // the last step
  double e = 0.0;  // the step before it
  for (int evals = 0; evals < max_evals; ++evals) {
    const double xm = 0.5 * (a + b);
    const double tol1 = kBrentRelTol * std::abs(x) + kAbsTol;
    const double tol2 = 2.0 * tol1;
    if (std::abs(x - xm) <= tol2 - 0.5 * (b - a)) break;
    bool golden = true;
    if (std::abs(e) > tol1 && std::isfinite(fx) && std::isfinite(fw) &&
        std::isfinite(fv)) {
      // Parabola through (x, fx), (w, fw), (v, fv); its vertex is x + p/q.
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::abs(q);
      // Accept the vertex only when it lies inside the bracket and the
      // step is under half the step before last (so the steps shrink).
      if (std::abs(p) < std::abs(0.5 * q * e) && p > q * (a - x) &&
          p < q * (b - x)) {
        e = d;
        d = p / q;
        const double u = x + d;
        if (u - a < tol2 || b - u < tol2) d = std::copysign(tol1, xm - x);
        golden = false;
      }
    }
    if (golden) {
      // Golden section into the larger of the two segments beside x.
      e = x >= xm ? a - x : b - x;
      d = kCGold * e;
    }
    const double u = std::abs(d) >= tol1 ? x + d : x + std::copysign(tol1, d);
    const double fu = f(u);
    if (fu < fx) {
      if (u >= x) {
        a = x;
      } else {
        b = x;
      }
      v = w;
      fv = fw;
      w = x;
      fw = fx;
      x = u;
      fx = fu;
    } else {
      if (u < x) {
        a = u;
      } else {
        b = u;
      }
      if (fu <= fw || w == x) {
        v = w;
        fv = fw;
        w = u;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  best_x = x;
  return fx;
}

}  // namespace deltanc::e2e::detail
