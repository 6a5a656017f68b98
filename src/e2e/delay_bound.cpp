#include "e2e/delay_bound.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace deltanc::e2e {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool convex_delta(double delta) { return delta <= 0.0 || delta == kInf; }

/// Validates the arguments and hoists the per-node constants of theta_h
/// into `ws`, once per call instead of inside every objective evaluation
/// (theta_h re-derives and re-validates them per call; the expressions
/// here are the same, so values are bit-identical).
void prepare(const PathParams& p, double gamma, double sigma,
             SolveWorkspace& ws) {
  p.validate();
  if (!(gamma > 0.0) || !(gamma < p.gamma_limit())) {
    throw std::invalid_argument(
        "optimize_delay: gamma must satisfy Eq. (32): 0 < (H+1) gamma < "
        "C - rho_c - rho");
  }
  if (!(sigma >= 0.0)) {
    throw std::invalid_argument("optimize_delay: sigma must be >= 0");
  }
  const std::size_t hops = static_cast<std::size_t>(p.hops);
  ws.node_cap.clear();
  ws.node_slack.clear();
  ws.node_cap.reserve(hops);
  ws.node_slack.reserve(hops);
  for (int h = 1; h <= p.hops; ++h) {
    const double slack = p.capacity - p.rho_cross - h * gamma;
    if (!(slack > 0.0)) {
      throw std::invalid_argument(
          "theta_h: stability requires C - rho_c - h*gamma > 0 (Eq. 32)");
    }
    ws.node_cap.push_back(p.capacity - (h - 1) * gamma);
    ws.node_slack.push_back(slack);
  }
}

/// The Eq. (39) objective X + sum_h theta_h(X) from the hoisted
/// constants -- theta_h with the same case split, in the same arithmetic
/// order, as theta_h in e2e/theta_solver.cpp.
struct Objective {
  const PathParams& p;
  double sigma;
  double rc;  // rho_cross + gamma
  const SolveWorkspace& ws;

  [[nodiscard]] double theta(std::size_t h0, double x) const {
    const double ch = ws.node_cap[h0];
    if (p.delta > 0.0) {
      const double theta_a = sigma / ws.node_slack[h0] - x;
      if (theta_a <= 0.0) return 0.0;
      if (theta_a <= p.delta) return theta_a;  // handles Delta = +inf (BMUX)
      return (sigma + rc * (x + p.delta)) / ch - x;
    }
    const double bracket =
        p.delta == -kInf ? 0.0 : std::max(0.0, x + p.delta);
    return std::max(0.0, (sigma + rc * bracket) / ch - x);
  }

  [[nodiscard]] double operator()(double x) const {
    double f = x;
    for (std::size_t h0 = 0; h0 < ws.node_cap.size(); ++h0) f += theta(h0, x);
    return f;
  }
};

/// The running argmin over breakpoints, in push order.  Ties are broken
/// toward larger X: the objective has flat stretches (e.g. BMUX), and the
/// all-theta-zero corner is the canonical optimum the paper reports
/// (Eq. 43).  Both searches fold through this, so they agree bit for bit.
struct Fold {
  double best_x = 0.0;
  double best_f = kInf;

  void offer(double x, double f) {
    if (f < best_f - 1e-12 || (f < best_f + 1e-12 && x > best_x)) {
      best_f = std::min(best_f, f);
      best_x = x;
    }
  }
};

const DelayResult& finish(const Objective& obj, const Fold& fold,
                          SolveWorkspace& ws) {
  DelayResult& result = ws.result;
  result.delay = fold.best_f;
  result.x = fold.best_x;
  result.theta.clear();
  result.theta.reserve(ws.node_cap.size());
  for (std::size_t h0 = 0; h0 < ws.node_cap.size(); ++h0) {
    result.theta.push_back(obj.theta(h0, fold.best_x));
  }
  return result;
}

/// Breakpoints of X -> theta_h(X): regime switches and zeros of each
/// theta_h.  Between consecutive candidates the objective is affine, so
/// the global optimum sits on a candidate.  The bracket kink -Delta is
/// the same for every node and is pushed once, after the first node's
/// first candidate: a repeated X can never pass the fold's tie rule.
const DelayResult& enumerate(const PathParams& p, double sigma,
                             const Objective& obj, SolveWorkspace& ws) {
  const double rc = obj.rc;
  std::vector<double>& candidates = ws.candidates;
  candidates.clear();
  candidates.push_back(0.0);
  for (std::size_t h0 = 0; h0 < ws.node_cap.size(); ++h0) {
    const double ch = ws.node_cap[h0];
    const double slack = ch - rc;
    if (p.delta > 0.0) {
      candidates.push_back(sigma / slack);                    // theta_a = 0
      if (std::isfinite(p.delta)) {
        candidates.push_back(sigma / slack - p.delta);        // theta_a = Delta
        candidates.push_back((sigma + rc * p.delta) / slack); // theta_b = 0
      }
    } else {
      candidates.push_back(sigma / ch);                       // bracket empty
      if (std::isfinite(p.delta)) {
        if (h0 == 0) candidates.push_back(-p.delta);          // bracket kink
        candidates.push_back((sigma + rc * p.delta) / slack); // theta = 0
      }
    }
  }

  Fold fold;
  for (double x : candidates) {
    if (!(x >= 0.0)) continue;
    fold.offer(x, obj(x));
  }
  return finish(obj, fold, ws);
}

/// One family of breakpoint candidates, num / (C - (h-1) gamma - sub)
/// over the nodes h, or a single point when `cap` is null.  Values are
/// computed on demand with the enumeration's expressions (subtracting a
/// zero `sub` is exact), and they are non-decreasing in h because
/// rounding is monotone.  [lo, hi) is the window the band search has
/// visited; element i sits at position key0 + stride * i of the
/// enumeration's push order; left / right cache the values just outside
/// it (-inf / +inf past either end).
struct Family {
  double num = 0.0;
  const double* cap = nullptr;
  double sub = 0.0;
  std::size_t n = 1;
  int key0 = 0;
  int stride = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  double left = -kInf;
  double right = kInf;

  [[nodiscard]] double operator[](std::size_t i) const {
    return cap == nullptr ? num : num / (cap[i] - sub);
  }
  /// Moves the window to [at, at) and refreshes the cached neighbours.
  void start(std::size_t at) {
    lo = hi = at;
    left = lo > 0 ? (*this)[lo - 1] : -kInf;
    right = hi < n ? (*this)[hi] : kInf;
  }
  /// Takes the element right of the window into it; returns its index.
  std::size_t take_right() {
    const std::size_t j = hi++;
    right = hi < n ? (*this)[hi] : kInf;
    return j;
  }
  /// Takes the element left of the window into it; returns its index.
  std::size_t take_left() {
    const std::size_t j = --lo;
    left = lo > 0 ? (*this)[lo - 1] : -kInf;
    return j;
  }
};

/// The band search (docs/THEORY.md, "Eq. (39)"): for a convex objective,
/// start at the breakpoint the slope rule names, walk outward over the
/// candidates in X order (the families are already sorted, so they are
/// merged, never sorted), and stop once convexity, with a bound on the
/// floating-point error of every evaluation, proves that no unvisited
/// candidate could change the fold.  Then fold the visited candidates in
/// push order, which gives the enumeration's answer bit for bit.
const DelayResult& band_search(const PathParams& p, double sigma,
                               const Objective& obj, SolveWorkspace& ws) {
  const double rc = obj.rc;
  const std::size_t hops = ws.node_cap.size();
  const double* const cap = ws.node_cap.data();
  const bool bracketed = std::isfinite(p.delta);  // Delta <= 0, finite

  // The X = 0 corner; per node, where theta_h reaches 0 without cross
  // traffic in the bracket (A_h = sigma / (C - (h-1) gamma); for BMUX
  // sigma / (C - rho_c - h gamma)); the bracket kink -Delta; and where
  // theta_h reaches 0 past the kink, B_h (none when all are negative,
  // as the enumeration skips X < 0).
  std::array<Family, 4> fams;
  std::size_t n_fams = 0;
  fams[n_fams++] = Family{};
  fams[n_fams++] = {sigma, cap, p.delta > 0.0 ? rc : 0.0, hops, 1,
                    bracketed ? 3 : 1};
  const double num = bracketed ? sigma + rc * p.delta : 0.0;  // B_h numerator
  if (bracketed) {
    fams[n_fams++] = {-p.delta, nullptr, 0.0, 1, 2, 0};
    fams[n_fams++] = {num, cap, rc, num >= 0.0 ? hops : 0, 3, 3};
  }
  for (std::size_t i = 0; i < n_fams; ++i) {
    // Monotone and finite only with positive denominators and a finite
    // largest value; anything else takes the enumeration.
    const Family& fam = fams[i];
    if (fam.n == 0 || fam.cap == nullptr) continue;
    if (!(cap[hops - 1] - fam.sub > 0.0) || !std::isfinite(fam[hops - 1])) {
      return enumerate(p, sigma, obj, ws);
    }
  }

  // On [0, min(-Delta, A_H)] every theta_h has slope -1 or 0, so the
  // objective falls until A_H when A_H is left of the kink (and always
  // for Delta = -inf or +inf, where A_H is the whole answer).
  double x0 = fams[1][hops - 1];
  if (bracketed && !(x0 <= -p.delta)) {
    // Past the kink the slope is 1 - sum_{h: B_h > X} (1 - rc / c_h)
    // and B_h grows with h: the Eq. (40) suffix-sum rule.
    double tail = 0.0;
    std::size_t k = hops;
    for (std::size_t h0 = hops; h0-- > 0;) {
      const double term = (cap[h0] - rc) / cap[h0];
      if (tail + term >= 1.0) break;
      tail += term;
      k = h0;
    }
    x0 = k == 0 ? -p.delta : std::max(-p.delta, num / (cap[k - 1] - rc));
  }
  for (std::size_t i = 0; i < n_fams; ++i) {
    Family& fam = fams[i];
    std::size_t lo = 0, hi = fam.n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (fam[mid] < x0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    fam.start(lo);
  }

  // visits: every evaluated candidate; band: one entry per distinct X,
  // sorted by X (the visited band grows at either end).
  ws.visits.clear();
  ws.band.clear();
  // The next unvisited X on one side (+inf / -inf when none is left).
  const auto next_x = [&](bool right) {
    double nx = right ? kInf : -kInf;
    for (std::size_t i = 0; i < n_fams; ++i) {
      nx = right ? std::min(nx, fams[i].right) : std::max(nx, fams[i].left);
    }
    return nx;
  };
  // Visits every candidate at the next X on one side, if any is left.
  const auto step = [&](bool right) {
    const double gx = next_x(right);
    if (!std::isfinite(gx)) return;
    double gf = 0.0;
    bool have = false;
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < n_fams; ++i) {
      Family& fam = fams[i];
      while ((right ? fam.right : fam.left) == gx) {
        const double x = right ? fam.right : fam.left;
        const std::size_t j = right ? fam.take_right() : fam.take_left();
        // +0 and -0 (X = -Delta at Delta = 0) compare equal but are
        // distinct candidates; each X is evaluated as itself.
        if (!have || std::bit_cast<std::uint64_t>(x) != bits) {
          gf = obj(x);
          bits = std::bit_cast<std::uint64_t>(x);
          have = true;
        }
        ws.visits.push_back({fam.key0 + fam.stride * static_cast<int>(j), x,
                             gf});
      }
    }
    const SolveWorkspace::Visit g{0, gx, gf};
    if (right) {
      ws.band.push_back(g);
    } else {
      ws.band.insert(ws.band.begin(), g);
    }
  };

  // |computed f - exact f| <= rho * exact f for the exact objective on
  // the hoisted constants, which is convex (docs/THEORY.md).  Bounds
  // below use 2 rho so their own rounding is covered too.
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const double rho = (13.0 * static_cast<double>(hops) + 8.0) * kEps;
  const double down = 1.0 - 2.0 * rho;
  const double up = 1.0 + 2.0 * rho;
  // The fold's 1e-12 tie window, widened for rounding near large f.
  const auto window = [](double t) { return 2e-12 + 16.0 * kEps * t; };

  // The start and its two neighbours: the least any certificate needs.
  step(true);
  step(true);
  step(false);
  if (ws.band.empty()) step(false);  // x0 is right of every candidate
  for (;;) {
    // t: the least threshold >= min f with no visited f in (t, t + window].
    double t = kInf;
    for (const SolveWorkspace::Visit& v : ws.visits) t = std::min(t, v.f);
    for (bool grew = true; grew;) {
      grew = false;
      const double top = t + window(t);
      for (const SolveWorkspace::Visit& v : ws.visits) {
        if (v.f > t && v.f <= top) {
          t = v.f;
          grew = true;
        }
      }
    }
    const double target = t + window(t);
    const std::vector<SolveWorkspace::Visit>& band = ws.band;
    const SolveWorkspace::Visit* best = &band.front();
    for (const SolveWorkspace::Visit& g : band) {
      if (g.f < best->f) best = &g;
    }
    // Every unvisited candidate on a side must provably have f > target:
    // the secant through the band's edge and a point inside bounds the
    // exact objective beyond the edge from below (convexity).
    const auto certified = [&](bool right) {
      const double u = next_x(right);
      if (!std::isfinite(u)) return true;
      if (band.size() < 2) return false;
      const SolveWorkspace::Visit& e = right ? band.back() : band.front();
      const SolveWorkspace::Visit& in =
          right ? band[band.size() - 2] : band[1];
      double lb = -kInf;
      for (const SolveWorkspace::Visit* r : {&in, best}) {
        if (r->x == e.x) continue;
        if (right) {
          const double s = (e.f * down - r->f * up) / (e.x - r->x);
          if (s >= 0.0) lb = std::max(lb, e.f * down + s * (u - e.x));
        } else {
          const double s = (r->f * up - e.f * down) / (r->x - e.x);
          if (s <= 0.0) lb = std::max(lb, e.f * down - s * (e.x - u));
        }
      }
      return lb * down > target;
    };
    const bool right_ok = certified(true);
    if (right_ok && certified(false)) break;
    step(!right_ok);
  }

  // Back to push order; a handful of entries, so insertion sort.
  std::vector<SolveWorkspace::Visit>& visits = ws.visits;
  for (std::size_t i = 1; i < visits.size(); ++i) {
    const SolveWorkspace::Visit v = visits[i];
    std::size_t j = i;
    for (; j > 0 && visits[j - 1].key > v.key; --j) visits[j] = visits[j - 1];
    visits[j] = v;
  }
  Fold fold;
  for (const SolveWorkspace::Visit& v : ws.visits) fold.offer(v.x, v.f);
  return finish(obj, fold, ws);
}

}  // namespace

bool uses_band_search(const PathParams& p) {
  if (!convex_delta(p.delta)) return false;
  return p.hops >= (std::isfinite(p.delta) ? kBandSearchMinHops
                                           : kBandSearchMinHopsUnbounded);
}

const DelayResult& optimize_delay(const PathParams& p, double gamma,
                                  double sigma, SolveWorkspace& ws) {
  prepare(p, gamma, sigma, ws);
  const Objective obj{p, sigma, p.rho_cross + gamma, ws};
  if (uses_band_search(p) && std::isfinite(sigma)) {
    return band_search(p, sigma, obj, ws);
  }
  return enumerate(p, sigma, obj, ws);
}

namespace detail {

const DelayResult& optimize_delay_enumerate(const PathParams& p, double gamma,
                                            double sigma, SolveWorkspace& ws) {
  prepare(p, gamma, sigma, ws);
  return enumerate(p, sigma, Objective{p, sigma, p.rho_cross + gamma, ws}, ws);
}

const DelayResult& optimize_delay_band(const PathParams& p, double gamma,
                                       double sigma, SolveWorkspace& ws) {
  prepare(p, gamma, sigma, ws);
  if (!convex_delta(p.delta)) {
    throw std::invalid_argument(
        "optimize_delay_band: requires Delta <= 0 or Delta = +infinity");
  }
  const Objective obj{p, sigma, p.rho_cross + gamma, ws};
  if (!std::isfinite(sigma)) return enumerate(p, sigma, obj, ws);
  return band_search(p, sigma, obj, ws);
}

}  // namespace detail

double bmux_delay(const PathParams& p, double gamma, double sigma) {
  p.validate();
  if (p.delta != kInf) {
    throw std::invalid_argument("bmux_delay: requires Delta = +infinity");
  }
  const double slack = p.capacity - p.rho_cross - p.hops * gamma;
  if (!(slack > 0.0)) {
    throw std::invalid_argument("bmux_delay: unstable (Eq. 32 violated)");
  }
  return sigma / slack;
}

double fifo_delay(const PathParams& p, double gamma, double sigma) {
  p.validate();
  if (p.delta != 0.0) {
    throw std::invalid_argument("fifo_delay: requires Delta = 0");
  }
  // Eq. (40): smallest K with sum_{h>K} (C - rho_c - h gamma)/(C - (h-1) gamma) < 1.
  int k = p.hops;
  double tail = 0.0;
  for (int h = p.hops; h >= 1; --h) {
    const double term = (p.capacity - p.rho_cross - h * gamma) /
                        (p.capacity - (h - 1) * gamma);
    if (tail + term >= 1.0) break;
    tail += term;
    k = h - 1;
  }
  if (k == 0) {
    // Eq. (41) sets X = 0 for K = 0; then theta_h = sigma / (C - (h-1) gamma).
    double d = 0.0;
    for (int h = 1; h <= p.hops; ++h) {
      d += sigma / (p.capacity - (h - 1) * gamma);
    }
    return d;
  }
  const double slack_k = p.capacity - p.rho_cross - k * gamma;
  if (!(slack_k > 0.0)) {
    throw std::invalid_argument("fifo_delay: unstable configuration");
  }
  // Eq. (44).
  double factor = 1.0;
  for (int h = k + 1; h <= p.hops; ++h) {
    factor += (h - k) * gamma / (p.capacity - (h - 1) * gamma);
  }
  return sigma / slack_k * factor;
}

double sp_high_delay(const PathParams& p, double gamma, double sigma) {
  p.validate();
  if (p.delta != -kInf) {
    throw std::invalid_argument("sp_high_delay: requires Delta = -infinity");
  }
  const double slack = p.capacity - (p.hops - 1) * gamma;
  if (!(slack > 0.0)) {
    throw std::invalid_argument("sp_high_delay: unstable configuration");
  }
  return sigma / slack;
}

}  // namespace deltanc::e2e
