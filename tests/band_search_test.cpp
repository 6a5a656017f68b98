// The band search of Eq. (39) (e2e/delay_bound.h) must return exactly
// what the breakpoint enumeration returns: the same delay, X and every
// theta_h, bit for bit.  A seeded, deterministic differential battery
// over ~10^5 convex inputs (Delta <= 0 and Delta = +inf) compares the
// two, and on every fourth case also a reference copy of the
// enumeration as it stood before the bracket kink -Delta was pushed
// once instead of once per node.  A non-convex Delta > 0 input pins that
// such inputs stay on the enumeration, and full solves on long paths pin
// their answers and evaluation counts.  A second seeded battery holds the
// parameter search's SoA gamma-scan kernel (e2e/scan_batch.h) to the same
// standard: every lane must equal sigma(gamma) followed by the
// enumeration, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "e2e/delay_bound.h"
#include "e2e/network_epsilon.h"
#include "e2e/scan_batch.h"
#include "e2e/solver.h"
#include "e2e/theta_solver.h"

namespace deltanc::e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The enumeration before -Delta was deduplicated: every node pushes
/// its own copy of the bracket kink.
DelayResult reference_enumeration(const PathParams& p, double gamma,
                                  double sigma) {
  const double rc = p.rho_cross + gamma;
  std::vector<double> cap, slk;
  for (int h = 1; h <= p.hops; ++h) {
    slk.push_back(p.capacity - p.rho_cross - h * gamma);
    cap.push_back(p.capacity - (h - 1) * gamma);
  }
  const auto theta_at = [&](std::size_t h0, double x) -> double {
    const double ch = cap[h0];
    if (p.delta > 0.0) {
      const double theta_a = sigma / slk[h0] - x;
      if (theta_a <= 0.0) return 0.0;
      if (theta_a <= p.delta) return theta_a;
      return (sigma + rc * (x + p.delta)) / ch - x;
    }
    const double bracket =
        p.delta == -kInf ? 0.0 : std::max(0.0, x + p.delta);
    return std::max(0.0, (sigma + rc * bracket) / ch - x);
  };
  std::vector<double> candidates{0.0};
  for (std::size_t h0 = 0; h0 < cap.size(); ++h0) {
    const double ch = cap[h0];
    const double slack = ch - rc;
    if (p.delta > 0.0) {
      candidates.push_back(sigma / slack);
      if (std::isfinite(p.delta)) {
        candidates.push_back(sigma / slack - p.delta);
        candidates.push_back((sigma + rc * p.delta) / slack);
      }
    } else {
      candidates.push_back(sigma / ch);
      if (std::isfinite(p.delta)) {
        candidates.push_back(-p.delta);
        candidates.push_back((sigma + rc * p.delta) / slack);
      }
    }
  }
  double best_x = 0.0;
  double best_f = kInf;
  for (double x : candidates) {
    if (!(x >= 0.0)) continue;
    double f = x;
    for (std::size_t h0 = 0; h0 < cap.size(); ++h0) f += theta_at(h0, x);
    if (f < best_f - 1e-12 || (f < best_f + 1e-12 && x > best_x)) {
      best_f = std::min(best_f, f);
      best_x = x;
    }
  }
  DelayResult r{best_f, best_x, {}};
  for (std::size_t h0 = 0; h0 < cap.size(); ++h0) {
    r.theta.push_back(theta_at(h0, best_x));
  }
  return r;
}

bool same_bits(const DelayResult& a, const DelayResult& b) {
  return std::memcmp(&a.delay, &b.delay, sizeof(double)) == 0 &&
         std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         a.theta.size() == b.theta.size() &&
         std::memcmp(a.theta.data(), b.theta.data(),
                     a.theta.size() * sizeof(double)) == 0;
}

struct Case {
  PathParams p;
  double gamma;
  double sigma;
};

std::string describe(const Case& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "C=%a H=%d rho=%a rho_c=%a delta=%a gamma=%a sigma=%a",
                c.p.capacity, c.p.hops, c.p.rho, c.p.rho_cross, c.p.delta,
                c.gamma, c.sigma);
  return buf;
}

enum class DeltaFamily { kZero, kPlusInf, kMinusInf, kNegative, kCoincident };

/// Seeded case generator: hops cycle through 1..max_hops; gamma sits at
/// either end of the Eq. (32) window or inside it; sigma is 0 now and
/// then, else log-uniform over nine decades.  kCoincident draws
/// binary-exact rates, an integer Delta and sigma = -Delta * c_h, so the
/// kink -Delta lands on A_h (and B_h) of some node.
class CaseGenerator {
 public:
  CaseGenerator(DeltaFamily family, std::uint64_t seed)
      : family_(family), rng_(seed) {}

  Case next(int hops) {
    Case c{};
    c.p.hops = hops;
    c.p.alpha = 0.5;
    c.p.m = 1.0;
    if (family_ == DeltaFamily::kCoincident) {
      c.p.capacity = 100.0;
      c.p.rho = 0.25 * static_cast<double>(pick(0, 160));
      c.p.rho_cross = 0.25 * static_cast<double>(pick(0, 180));
    } else {
      c.p.capacity = log_uniform(10.0, 1000.0);
      c.p.rho = c.p.capacity * unit() * 0.45;
      c.p.rho_cross = c.p.capacity * unit() * 0.5;
    }
    const double glim = c.p.gamma_limit();
    switch (pick(0, 4)) {
      case 0: c.gamma = glim * 1e-9; break;
      case 1: c.gamma = glim * 1e-4; break;
      case 2: c.gamma = glim * 0.9999; break;
      case 3: c.gamma = glim * (1.0 - 0x1p-40); break;
      default: c.gamma = glim * (0.001 + 0.998 * unit()); break;
    }
    c.sigma = pick(0, 19) == 0 ? 0.0 : log_uniform(1e-3, 1e6);
    switch (family_) {
      case DeltaFamily::kZero:
        c.p.delta = pick(0, 9) == 0 ? -0.0 : 0.0;
        break;
      case DeltaFamily::kPlusInf: c.p.delta = kInf; break;
      case DeltaFamily::kMinusInf: c.p.delta = -kInf; break;
      case DeltaFamily::kNegative:
        c.p.delta = -log_uniform(1e-4, 1e4);
        break;
      case DeltaFamily::kCoincident: {
        // gamma on a 2^-12 grid keeps c_h = C - (h-1) gamma exact.
        c.gamma = std::max(0x1p-12, std::floor(c.gamma * 0x1p12) * 0x1p-12);
        if (!(c.gamma < glim)) c.gamma = glim * 0.5;
        c.p.delta = -static_cast<double>(pick(1, 64));
        const int h = pick(1, hops);
        c.sigma = -c.p.delta * (c.p.capacity - (h - 1) * c.gamma);
        break;
      }
    }
    return c;
  }

  /// A path for the gamma-scan kernel battery: rates as in next(), a
  /// Chernoff parameter s = alpha over three decades, the given Delta,
  /// and a violation probability epsilon over ten decades.
  std::pair<PathParams, double> next_path(int hops, double delta) {
    PathParams p{};
    p.capacity = log_uniform(10.0, 1000.0);
    p.hops = hops;
    p.rho = p.capacity * unit() * 0.45;
    p.rho_cross = p.capacity * unit() * 0.5;
    p.alpha = log_uniform(1e-3, 1.0);
    p.m = 1.0;
    p.delta = delta;
    return {p, log_uniform(1e-12, 1e-2)};
  }

  double unit() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  double log_uniform(double lo, double hi) {
    return std::exp(std::log(lo) + (std::log(hi) - std::log(lo)) * unit());
  }

  DeltaFamily family_;
  std::mt19937_64 rng_;
};

/// Runs `per_hop` cases at every H in 1..max_hops; the band search, the
/// dispatching optimize_delay and (every fourth case) the pre-dedup
/// reference must all equal the enumeration bit for bit.
void run_battery(DeltaFamily family, std::uint64_t seed, int max_hops,
                 int per_hop) {
  CaseGenerator gen(family, seed);
  SolveWorkspace ws_band, ws_enum, ws_public;
  int cases = 0, failures = 0;
  for (int hops = 1; hops <= max_hops; ++hops) {
    for (int i = 0; i < per_hop; ++i, ++cases) {
      const Case c = gen.next(hops);
      const DelayResult& want =
          detail::optimize_delay_enumerate(c.p, c.gamma, c.sigma, ws_enum);
      const DelayResult& band =
          detail::optimize_delay_band(c.p, c.gamma, c.sigma, ws_band);
      const DelayResult& pub = optimize_delay(c.p, c.gamma, c.sigma, ws_public);
      bool ok = same_bits(band, want) && same_bits(pub, want);
      if (ok && cases % 4 == 0) {
        ok = same_bits(reference_enumeration(c.p, c.gamma, c.sigma), want);
      }
      if (!ok && ++failures <= 5) {
        ADD_FAILURE() << "band search differs from the enumeration at "
                      << describe(c) << " (band delay " << band.delay
                      << " x " << band.x << ", enumeration delay "
                      << want.delay << " x " << want.x << ")";
      }
    }
  }
  EXPECT_EQ(failures, 0) << "of " << cases << " cases";
}

TEST(BandSearch, MatchesEnumerationFifo) {
  run_battery(DeltaFamily::kZero, 101, 200, 100);
}

TEST(BandSearch, MatchesEnumerationBmux) {
  run_battery(DeltaFamily::kPlusInf, 202, 200, 100);
}

TEST(BandSearch, MatchesEnumerationSpHigh) {
  run_battery(DeltaFamily::kMinusInf, 303, 200, 100);
}

TEST(BandSearch, MatchesEnumerationNegativeDelta) {
  run_battery(DeltaFamily::kNegative, 404, 200, 100);
}

TEST(BandSearch, MatchesEnumerationWhenKinkCoincides) {
  run_battery(DeltaFamily::kCoincident, 505, 200, 100);
}

TEST(BandSearch, MatchesEnumerationAtThousandHops) {
  const DeltaFamily families[] = {DeltaFamily::kZero, DeltaFamily::kPlusInf,
                                  DeltaFamily::kMinusInf,
                                  DeltaFamily::kNegative,
                                  DeltaFamily::kCoincident};
  for (DeltaFamily family : families) {
    CaseGenerator gen(family, 606);
    SolveWorkspace ws_band, ws_enum;
    for (int i = 0; i < 4; ++i) {
      const Case c = gen.next(1000);
      const DelayResult& want =
          detail::optimize_delay_enumerate(c.p, c.gamma, c.sigma, ws_enum);
      const DelayResult& band =
          detail::optimize_delay_band(c.p, c.gamma, c.sigma, ws_band);
      EXPECT_TRUE(same_bits(band, want)) << describe(c);
      EXPECT_TRUE(same_bits(reference_enumeration(c.p, c.gamma, c.sigma),
                            want))
          << describe(c);
    }
  }
}

/// Runs the SoA gamma-scan kernel on `batches` random (p, epsilon) at
/// every H in 1..12 and compares each lane with the scalar sequence it
/// replaces, sigma = sigma_of(gamma) then the enumeration.  The lanes are
/// the parameter search's 25-point scan grid, both edges of the Eq. (32)
/// window (1e-9 and 1 - 2^-40 of the limit, and the last double below
/// it) and a few interior draws.
void run_kernel_battery(double delta, std::uint64_t seed, int batches) {
  CaseGenerator gen(DeltaFamily::kZero, seed);
  SolveWorkspace ws;
  GammaScanBatch batch;
  std::vector<double> gammas, delays;
  int lanes = 0, failures = 0;
  for (int hops = 1; hops <= 12; ++hops) {
    for (int b = 0; b < batches; ++b) {
      const auto [p, epsilon] = gen.next_path(hops, delta);
      const double glim = p.gamma_limit();
      gammas = {glim * 1e-9, glim * (1.0 - 0x1p-40),
                std::nextafter(glim, 0.0)};
      for (int i = 0; i <= 24; ++i) {
        gammas.push_back(1e-4 * glim +
                         (0.9999 * glim - 1e-4 * glim) * i / 24);
      }
      for (int i = 0; i < 4; ++i) gammas.push_back(glim * gen.unit());
      delays.assign(gammas.size(), 0.0);
      const SigmaForEpsilon sigma_of(p, epsilon);
      detail::gamma_scan_exact_batch(p, sigma_of, gammas, delays, batch);
      for (std::size_t g = 0; g < gammas.size(); ++g, ++lanes) {
        const double want =
            detail::optimize_delay_enumerate(p, gammas[g],
                                             sigma_of(gammas[g]), ws)
                .delay;
        if (std::memcmp(&delays[g], &want, sizeof(double)) != 0 &&
            ++failures <= 5) {
          ADD_FAILURE() << "kernel lane differs from the scalar path at C="
                        << std::hexfloat << p.capacity << " H=" << hops
                        << " rho=" << p.rho << " rho_c=" << p.rho_cross
                        << " s=" << p.alpha << " delta=" << delta
                        << " eps=" << epsilon << " gamma=" << gammas[g]
                        << " (kernel " << delays[g] << ", scalar " << want
                        << ")";
        }
      }
    }
  }
  EXPECT_EQ(failures, 0) << "of " << lanes << " lanes";
}

TEST(BandSearch, GammaScanKernelMatchesScalarFifo) {
  run_kernel_battery(0.0, 701, 200);
}

TEST(BandSearch, GammaScanKernelMatchesScalarNegativeDelta) {
  run_kernel_battery(-50.0, 702, 200);
}

TEST(BandSearch, GammaScanKernelMatchesScalarPositiveDelta) {
  run_kernel_battery(5.0, 703, 200);
}

TEST(BandSearch, GammaScanKernelMatchesScalarBmux) {
  run_kernel_battery(kInf, 704, 200);
}

TEST(BandSearch, GammaScanKernelMatchesScalarSpHigh) {
  run_kernel_battery(-kInf, 705, 200);
}

TEST(BandSearch, DispatchFollowsConvexityAndCrossover) {
  const auto at = [](int hops, double delta) {
    return PathParams{100.0, hops, 20.0, 30.0, 0.5, 1.0, delta};
  };
  for (double delta : {0.0, -3.0}) {
    EXPECT_FALSE(uses_band_search(at(kBandSearchMinHops - 1, delta)));
    EXPECT_TRUE(uses_band_search(at(kBandSearchMinHops, delta)));
  }
  for (double delta : {-kInf, kInf}) {
    EXPECT_FALSE(uses_band_search(at(kBandSearchMinHopsUnbounded - 1, delta)));
    EXPECT_TRUE(uses_band_search(at(kBandSearchMinHopsUnbounded, delta)));
  }
  EXPECT_FALSE(uses_band_search(at(1000, 5.0)));
  SolveWorkspace ws;
  EXPECT_THROW(detail::optimize_delay_band(at(10, 5.0), 0.5, 30.0, ws),
               std::invalid_argument);
}

TEST(BandSearch, NonConvexDeltaKeepsTheEnumeration) {
  // Delta = 0.01 > 0 on two hops: the objective rises from X = 0, falls
  // into a second local minimum at X = sigma / (C - rho_c - gamma) = 1
  // and rises again.  The global minimum is the corner X = 0; a search
  // that walks out from the local minimum at X = 1 would stop there.
  const PathParams p{100.0, 2, 5.0, 60.0, 0.5, 1.0, 0.01};
  const double gamma = 1.0, sigma = 39.0;
  const auto f = [&](double x) {
    return x + theta_h(p, gamma, sigma, 1, x) + theta_h(p, gamma, sigma, 2, x);
  };
  ASSERT_LT(f(1.0), f(0.995));
  ASSERT_LT(f(1.0), f(1.005));
  ASSERT_GT(f(0.005), f(0.0));

  EXPECT_FALSE(uses_band_search(p));
  SolveWorkspace ws, ws_enum;
  const DelayResult& got = optimize_delay(p, gamma, sigma, ws);
  EXPECT_TRUE(same_bits(got, detail::optimize_delay_enumerate(p, gamma, sigma,
                                                              ws_enum)));
  EXPECT_EQ(got.x, 0.0);
  EXPECT_LT(got.delay, f(1.0));
  EXPECT_TRUE(same_bits(got, reference_enumeration(p, gamma, sigma)));
}

TEST(BandSearch, LongPathSolvesKeepAnswersAndEvaluationCounts) {
  // Full solves whose every theta optimization runs the band search
  // (convex Delta, hops at or past the crossover).  The band search makes
  // each call cheaper and changes neither the answer nor the number of
  // calls the parameter search makes, so these bits and counts are the
  // enumeration's too; the EDF row also pins its fixed-point iterations.
  const struct {
    int hops;
    sched::SchedulerKind kind;
    double delay, gamma, s;
    std::int64_t optimize_evals, edf_iterations;
  } pins[] = {
      {20, sched::SchedulerKind::kEdf, 0x1.ef718f77c96b1p+7,
       0x1.f283aa9a71a85p-4, 0x1.840754ac522p-5, 5494, 5},
      {40, sched::SchedulerKind::kFifo, 0x1.f6b93aa2c3acbp+9,
       0x1.9de0cfd2b0c95p-5, 0x1.49ab1ec77b1bdp-5, 2125, 0},
      {40, sched::SchedulerKind::kBmux, 0x1.f74fb0be446cbp+9,
       0x1.944321cd44c4dp-5, 0x1.497ebe8213108p-5, 2055, 0},
      {12, sched::SchedulerKind::kSpHigh, 0x1.66483d1e41c7fp+6,
       0x1.8ff0b4c2b42e8p-3, 0x1.841df2c87894cp-5, 2014, 0},
  };
  for (const auto& pin : pins) {
    Scenario sc;
    sc.hops = pin.hops;
    sc.n_through = 100;
    sc.n_cross = 236;
    sc.epsilon = 1e-9;
    sc.scheduler = pin.kind;
    const BoundResult r = Solver().solve(sc);
    EXPECT_EQ(r.delay_ms, pin.delay) << "hops " << pin.hops;
    EXPECT_EQ(r.gamma, pin.gamma) << "hops " << pin.hops;
    EXPECT_EQ(r.s, pin.s) << "hops " << pin.hops;
    EXPECT_EQ(r.stats.optimize_evals, pin.optimize_evals) << "hops " << pin.hops;
    EXPECT_EQ(r.stats.edf_iterations, pin.edf_iterations) << "hops " << pin.hops;
  }
}

}  // namespace
}  // namespace deltanc::e2e
