#include "e2e/param_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "e2e/additive_baseline.h"
#include "e2e/brent_refine.h"
#include "e2e/delay_bound.h"
#include "e2e/network_epsilon.h"
#include "e2e/solver.h"

namespace deltanc::e2e {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Scenario paper_scenario(int hops, int n_through, int n_cross,
                        sched::SchedulerKind sched) {
  Scenario sc;
  sc.hops = hops;
  sc.n_through = n_through;
  sc.n_cross = n_cross;
  sc.scheduler = sched;
  return sc;
}

TEST(ParamSearch, MaxStableSBehaviour) {
  // 100 + 100 paper flows at ~0.149 Mbps each on 100 Mbps: stable, and
  // there is a finite s beyond which eb exceeds the fair share.
  Scenario sc = paper_scenario(2, 100, 100, sched::SchedulerKind::kFifo);
  const double s_max = max_stable_s(sc);
  EXPECT_TRUE(std::isfinite(s_max));
  EXPECT_GT(s_max, 0.0);
  const double at_limit =
      (sc.n_through + sc.n_cross) * sc.source.effective_bandwidth(s_max);
  EXPECT_LT(at_limit, sc.capacity);
  // Overload: mean rate alone exceeds capacity.
  sc.n_through = 400;
  sc.n_cross = 400;
  EXPECT_EQ(max_stable_s(sc), 0.0);
  // Peak rate fits entirely: every s is stable.
  sc.n_through = 2;
  sc.n_cross = 2;
  EXPECT_EQ(max_stable_s(sc), kInf);
}

TEST(ParamSearch, UnstableScenarioGivesInfiniteBound) {
  const Scenario sc = paper_scenario(3, 400, 400, sched::SchedulerKind::kBmux);
  const BoundResult r = deltanc::Solver().solve(sc);
  EXPECT_EQ(r.delay_ms, kInf);
}

TEST(ParamSearch, BoundsArePositiveFiniteAndOrdered) {
  // At moderate utilization: SP-high <= EDF-favoured <= FIFO <= BMUX.
  const int n = 168;  // ~50% total with N0 = Nc
  const BoundResult bmux =
      deltanc::Solver().solve(paper_scenario(4, n, n, sched::SchedulerKind::kBmux));
  const BoundResult fifo =
      deltanc::Solver().solve(paper_scenario(4, n, n, sched::SchedulerKind::kFifo));
  const BoundResult sp =
      deltanc::Solver().solve(paper_scenario(4, n, n, sched::SchedulerKind::kSpHigh));
  const BoundResult edf =
      deltanc::Solver().solve(paper_scenario(4, n, n, sched::SchedulerKind::kEdf));
  ASSERT_TRUE(std::isfinite(bmux.delay_ms));
  EXPECT_GT(sp.delay_ms, 0.0);
  EXPECT_LE(sp.delay_ms, edf.delay_ms + 1e-6);
  EXPECT_LE(edf.delay_ms, fifo.delay_ms + 1e-6);
  EXPECT_LE(fifo.delay_ms, bmux.delay_ms + 1e-6);
}

TEST(ParamSearch, FifoApproachesBmuxOnLongPaths) {
  // The paper's headline observation (Fig. 2): FIFO bounds become
  // indistinguishable from BMUX already at H = 5.
  const int n_cross = 236;  // U ~ 50% with N0 = 100
  const double f2 =
      deltanc::Solver().solve(paper_scenario(2, 100, n_cross, sched::SchedulerKind::kFifo))
          .delay_ms;
  const double b2 =
      deltanc::Solver().solve(paper_scenario(2, 100, n_cross, sched::SchedulerKind::kBmux))
          .delay_ms;
  const double f5 =
      deltanc::Solver().solve(paper_scenario(5, 100, n_cross, sched::SchedulerKind::kFifo))
          .delay_ms;
  const double b5 =
      deltanc::Solver().solve(paper_scenario(5, 100, n_cross, sched::SchedulerKind::kBmux))
          .delay_ms;
  EXPECT_LT(f2, 0.75 * b2);             // visibly different at H = 2
  EXPECT_GT(f5, 0.95 * b5);             // indistinguishable at H = 5
}

TEST(ParamSearch, EdfKeepsItsAdvantageOnLongPaths) {
  // EDF with d*_c = 10 d*_0 stays well below BMUX even at H = 10 --
  // scheduling *does* matter on long paths.
  const int n_cross = 236;
  const double e10 =
      deltanc::Solver().solve(paper_scenario(10, 100, n_cross, sched::SchedulerKind::kEdf))
          .delay_ms;
  const double b10 =
      deltanc::Solver().solve(paper_scenario(10, 100, n_cross, sched::SchedulerKind::kBmux))
          .delay_ms;
  ASSERT_TRUE(std::isfinite(e10));
  EXPECT_LT(e10, 0.6 * b10);
}

TEST(ParamSearch, EdfFixedPointIsSelfConsistent) {
  // Re-solving with the resolved Delta must reproduce the fixed point.
  const Scenario sc = paper_scenario(5, 150, 150, sched::SchedulerKind::kEdf);
  const BoundResult r = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  const sched::EdfFactors& edf = sc.scheduler.edf_factors();
  const double factor_gap = edf.own_factor - edf.cross_factor;
  EXPECT_NEAR(r.delta, factor_gap * r.delay_ms / sc.hops,
              1e-4 * std::abs(r.delta));
  const BoundResult again =
      deltanc::Solver(Method::kExactOpt).solve_at(sc, r.delta);
  EXPECT_NEAR(again.delay_ms, r.delay_ms, 5e-3 * r.delay_ms);
}

TEST(ParamSearch, BestForDeltaNeverWorseThanDenseScan) {
  // Regression for the refinement bug: the final re-solve used to happen
  // at the *refined* s even when the coarse scan had already found a
  // better point, so the returned bound could exceed the scan optimum.
  // A dense brute-force (s, gamma) grid built from the public primitives
  // must never beat the search by more than grid resolution.
  const Scenario sc = paper_scenario(3, 100, 200, sched::SchedulerKind::kFifo);
  for (double delta : {0.0, kInf, -kInf}) {
    SCOPED_TRACE(delta);
    const BoundResult r = deltanc::Solver(Method::kExactOpt).solve_at(sc, delta);
    ASSERT_TRUE(std::isfinite(r.delay_ms));
    const double s_lo = 1e-4;
    const double s_hi = max_stable_s(sc) * 0.999;
    double dense_best = kInf;
    for (int i = 0; i <= 160; ++i) {
      const double s = s_lo * std::pow(s_hi / s_lo, i / 160.0);
      const double eb = sc.source.effective_bandwidth(s);
      const PathParams p{sc.capacity, sc.hops, sc.n_through * eb,
                         sc.n_cross * eb, s, 1.0, delta};
      const double glim = p.gamma_limit();
      if (!(glim > 0.0)) continue;
      for (int j = 1; j <= 120; ++j) {
        const double gamma = glim * j / 121.0;
        const double sigma = sigma_for_epsilon(p, gamma, sc.epsilon);
        dense_best = std::min(dense_best,
                              deltanc::Solver().optimize(p, gamma, sigma).delay);
      }
    }
    EXPECT_LE(r.delay_ms, dense_best * 1.001);
    // The returned tuple is the point the search actually evaluated:
    // re-solving at (s, gamma, sigma) reproduces delay_ms exactly.
    const double eb = sc.source.effective_bandwidth(r.s);
    const PathParams p{sc.capacity, sc.hops, sc.n_through * eb,
                       sc.n_cross * eb, r.s, 1.0, delta};
    EXPECT_EQ(sigma_for_epsilon(p, r.gamma, sc.epsilon), r.sigma);
    EXPECT_EQ(deltanc::Solver().optimize(p, r.gamma, r.sigma).delay, r.delay_ms);
  }
}

TEST(ParamSearch, EdfReturnsConsistentTuple) {
  // Regression for the fixed-point bug: delay_ms used to be the damped
  // average while gamma/s/sigma came from the last solve at a different
  // Delta.  The converged iterate is returned as solved, so every field
  // describes one solve.
  const Scenario sc = paper_scenario(5, 150, 150, sched::SchedulerKind::kEdf);
  const BoundResult r = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  EXPECT_TRUE(r.stats.edf_converged);
  EXPECT_GT(r.stats.edf_iterations, 0);
  const double eb = sc.source.effective_bandwidth(r.s);
  const PathParams p{sc.capacity, sc.hops, sc.n_through * eb,
                     sc.n_cross * eb, r.s, 1.0, r.delta};
  EXPECT_EQ(sigma_for_epsilon(p, r.gamma, sc.epsilon), r.sigma);
  EXPECT_EQ(deltanc::Solver().optimize(p, r.gamma, r.sigma).delay, r.delay_ms);
  // And the resolved Delta agrees with the returned delay to the fixed
  // point's own tolerance.
  const sched::EdfFactors& edf = sc.scheduler.edf_factors();
  const double factor_gap = edf.own_factor - edf.cross_factor;
  EXPECT_NEAR(r.delta, factor_gap * r.delay_ms / sc.hops,
              1e-5 * std::abs(r.delta));
}

/// The unchanged acceptance test of the EDF fixed point, d recovered from
/// the returned Delta = gap * d / H (the slack absorbs that rounding).
void expect_edf_fixed_point(const Scenario& sc, const BoundResult& r) {
  const sched::EdfFactors& edf = sc.scheduler.edf_factors();
  const double d = r.delta * sc.hops / (edf.own_factor - edf.cross_factor);
  EXPECT_LE(std::abs(r.delay_ms - d),
            1e-7 * std::max(1.0, d) + 1e-13 * std::abs(d));
}

TEST(ParamSearch, EdfAnswerIsAFullBudgetSolveNotACheapIterate) {
  // Far-from-root EDF iterates run at the kLocal budget.  An engine solve
  // whose own effort is kLocal runs the very same iterates and accepts
  // the first one that converges; the full-budget solve must instead
  // re-solve that d at the full budget and return the confirmation.  In
  // these scenarios the two budgets give different bits at the same
  // Delta, so an answer taken from the cheap iterate would show here.
  for (int hops : {5, 20, 40}) {
    SCOPED_TRACE(testing::Message() << "H=" << hops);
    const Scenario sc =
        paper_scenario(hops, 100, 135, sched::SchedulerKind::kEdf);
    const BoundResult full = deltanc::Solver().solve(sc);
    detail::EngineRequest req;
    req.effort = detail::SearchEffort::kLocal;
    const BoundResult cheap = detail::solve_scenario(sc, req, nullptr);
    ASSERT_TRUE(full.stats.edf_converged);
    ASSERT_TRUE(cheap.stats.edf_converged);
    EXPECT_EQ(full.delta, cheap.delta);
    EXPECT_EQ(full.stats.edf_iterations, cheap.stats.edf_iterations + 1);
    EXPECT_NE(full.delay_ms, cheap.delay_ms);
    EXPECT_NE(full.s, cheap.s);
    expect_edf_fixed_point(sc, full);
  }
}

TEST(ParamSearch, EdfLongPathGridStaysOnThePinnedDelays) {
  // EDF delays of an H x uc grid at eps = 1e-9 (uc = 0.1 / 0.45 / 0.8 is
  // Nc = 67 / 303 / 538 paper flows), pinned (%.17g) from the solver
  // whose every fixed-point iterate ran at the full budget.  Cheap
  // iterates plus a full-budget confirmation may move the bits, never
  // by more than 1e-9 relative, and every answer passes the fixed-point
  // test.
  const struct {
    int hops, n_cross;
    double delay;
  } pins[] = {
      {5, 67, 17.760863886477203},   {5, 303, 49.962476705963773},
      {5, 538, 514.45551571819988},  {10, 67, 36.705056350938321},
      {10, 303, 106.90403084679801}, {10, 538, 1113.9700159453882},
      {20, 67, 92.948374895817395},  {20, 303, 345.59530905725359},
      {20, 538, 3875.6429590988382}, {40, 67, 219.50821189225954},
      {40, 303, 1011.2273590066748}, {40, 538, 12379.100441552269},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(testing::Message()
                 << "H=" << pin.hops << " Nc=" << pin.n_cross);
    Scenario sc =
        paper_scenario(pin.hops, 100, pin.n_cross, sched::SchedulerKind::kEdf);
    sc.epsilon = 1e-9;
    const BoundResult r = deltanc::Solver().solve(sc);
    ASSERT_TRUE(r.stats.edf_converged);
    EXPECT_NEAR(r.delay_ms, pin.delay, 1e-9 * pin.delay);
    expect_edf_fixed_point(sc, r);
  }
}

TEST(ParamSearch, SolveStatsCountTheWork) {
  const Scenario sc = paper_scenario(4, 100, 200, sched::SchedulerKind::kFifo);
  const BoundResult r = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  EXPECT_GT(r.stats.optimize_evals, 0);
  // One sigma evaluation per optimizer evaluation (both happen inside
  // the gamma inner loop).
  EXPECT_EQ(r.stats.sigma_evals, r.stats.optimize_evals);
  // Memoization: distinct eb(s) computations are one-per-s-probe, far
  // fewer than the per-gamma optimizer evaluations.
  EXPECT_GT(r.stats.eb_evals, 0);
  EXPECT_LT(r.stats.eb_evals * 10, r.stats.optimize_evals);
  EXPECT_EQ(r.stats.edf_iterations, 0);  // no fixed point for FIFO
  EXPECT_TRUE(r.stats.edf_converged);
  EXPECT_GE(r.stats.scan_ms, 0.0);
  EXPECT_GE(r.stats.refine_ms, 0.0);

  SolveStats sum;
  sum += r.stats;
  sum += r.stats;
  EXPECT_EQ(sum.optimize_evals, 2 * r.stats.optimize_evals);
  EXPECT_EQ(sum.edf_iterations, 0);
  EXPECT_TRUE(sum.edf_converged);
}

TEST(ParamSearch, Fig2NonEdfBoundsArePinned) {
  // The exact doubles of the Fig. 2 (H = 5, eps = 1e-6) grid for the
  // delta-independent schedulers, pinned bit-for-bit: the hot-path
  // refactoring (workspace reuse, eb memoization, hoisted sigma) must
  // not perturb any non-EDF result.  Regenerate only for an intentional
  // algorithm change (print with %a).
  struct Golden {
    int n_cross;
    sched::SchedulerKind sched;
    double delay_ms, gamma, s;
  };
  const Golden goldens[] = {
      {67, sched::SchedulerKind::kFifo, 0x1.6126458d64834p+4, 0x1.8cead6f98cb0ap-1,
       0x1.7f822b77752f3p-4},
      {67, sched::SchedulerKind::kBmux, 0x1.62f9aace0d657p+4, 0x1.732568d835b39p-1,
       0x1.80af0f21b9f6cp-4},
      {67, sched::SchedulerKind::kSpHigh, 0x1.a80e65f9ad22ap+3, 0x1.7f877dc97786ep-1,
       0x1.801e6bc501ecap-4},
      {202, sched::SchedulerKind::kFifo, 0x1.184f61904a275p+6, 0x1.75cc0a62673c6p-1,
       0x1.7afa81be9b206p-5},
      {202, sched::SchedulerKind::kBmux, 0x1.1bf9a680e6f18p+6, 0x1.35bbe7ea9cdfap-1,
       0x1.7836894576eep-5},
      {202, sched::SchedulerKind::kSpHigh, 0x1.8b064d292984fp+4, 0x1.4e025ce366c14p-1,
       0x1.b241230c4dc22p-5},
      {404, sched::SchedulerKind::kFifo, 0x1.49503568d2275p+8, 0x1.d910ee9549885p-2,
       0x1.5215c97366732p-6},
      {404, sched::SchedulerKind::kBmux, 0x1.548cb87dd1ccp+8, 0x1.2372d19e9f56p-2,
       0x1.5114f60a1d893p-6},
      {404, sched::SchedulerKind::kSpHigh, 0x1.113af9313db0ap+6, 0x1.103e35c7bc6edp-2,
       0x1.604babf427d22p-6},
      {538, sched::SchedulerKind::kFifo, 0x1.053936dc28648p+11, 0x1.6b2b4f7031511p-5,
       0x1.1968d4639ec71p-8},
      {538, sched::SchedulerKind::kBmux, 0x1.4cf730841a578p+11, 0x1.7223e7a436b41p-5,
       0x1.1920f30e31423p-8},
      {538, sched::SchedulerKind::kSpHigh, 0x1.a25363d5b911ap+8, 0x1.657e358df6a74p-5,
       0x1.19a35a66fbb9cp-8},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(testing::Message() << "Nc=" << g.n_cross << " sched="
                                    << static_cast<int>(g.sched));
    Scenario sc = paper_scenario(5, 100, g.n_cross, g.sched);
    sc.epsilon = 1e-6;
    const BoundResult r = deltanc::Solver().solve(sc);
    EXPECT_EQ(r.delay_ms, g.delay_ms);
    EXPECT_EQ(r.gamma, g.gamma);
    EXPECT_EQ(r.s, g.s);
  }
}

TEST(ParamSearch, BoundDoesNotGrowWithCapacityAcrossThePeakFit) {
  // 100 flows of peak 1.5 Mbps fill exactly 150 Mbps.  Just below that
  // the stability limit of s is finite but huge (~1e6 at 149.99999);
  // above it every s is stable.  Both sides end the s search at the same
  // cap (1e8), so a slightly faster link never gets a larger bound, and
  // below the cap the search still runs up to the stability limit.
  // Rows pinned bit for bit (%a).
  const struct {
    double capacity, delay, s;
  } rows[] = {
      {149.99999, 0x1.d107e79bbc394p-20, 0x1.e61b117fb75d6p+19},
      {150.000001, 0x1.0009b9ac51829p-26, 0x1.7d16980000000p+26},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.capacity);
    Scenario sc = paper_scenario(4, 50, 50, sched::SchedulerKind::kFifo);
    sc.capacity = row.capacity;
    const BoundResult r = deltanc::Solver().solve(sc);
    EXPECT_EQ(r.delay_ms, row.delay);
    EXPECT_EQ(r.s, row.s);
  }
  for (sched::SchedulerKind kind :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf,
        sched::SchedulerKind::kGps}) {
    double prev = kInf;
    for (double capacity : {149.0, 149.9, 149.999, 149.99999, 149.9999999,
                            150.0, 150.000001, 150.001, 150.1}) {
      SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                      << " C=" << capacity);
      Scenario sc = paper_scenario(4, 50, 50, kind);
      sc.capacity = capacity;
      const double d = deltanc::Solver().solve(sc).delay_ms;
      ASSERT_TRUE(std::isfinite(d));
      EXPECT_LE(d, prev);
      prev = d;
    }
  }
}

/// Runs detail::brent_refine from the best point of a `scan`-step grid
/// over [lo, hi] (as the parameter search does) and records every x it
/// evaluates.
struct RefineRun {
  double x = 0.0, v = kInf, seed_x = 0.0, seed_v = kInf;
  std::vector<double> probes;
};

template <typename F>
RefineRun refine_after_scan(F f, double lo, double hi, int scan,
                            int max_evals) {
  RefineRun run;
  run.seed_x = lo;
  for (int i = 0; i <= scan; ++i) {
    const double x = lo + (hi - lo) * i / scan;
    if (const double v = f(x); v < run.seed_v) {
      run.seed_v = v;
      run.seed_x = x;
    }
  }
  run.x = run.seed_x;
  run.v = detail::brent_refine(
      [&](double x) {
        run.probes.push_back(x);
        return f(x);
      },
      lo, hi, (hi - lo) / scan, max_evals, run.x, run.seed_v);
  return run;
}

TEST(BrentRefine, SmoothQuadraticConvergesInFewEvaluations) {
  const auto f = [](double x) { return (x - 0.3) * (x - 0.3) + 2.0; };
  const RefineRun run = refine_after_scan(f, 0.0, 1.0, 8, 48);
  EXPECT_NEAR(run.x, 0.3, 1e-7);
  EXPECT_EQ(run.v, f(run.x));
  EXPECT_LE(run.probes.size(), 8u);
}

TEST(BrentRefine, VShapedKinkStillConverges) {
  // No parabola fits a kink; the golden fallback must carry it home.
  const auto f = [](double x) { return std::abs(x - 0.37) + 1.0; };
  const RefineRun run = refine_after_scan(f, 0.0, 1.0, 8, 64);
  EXPECT_NEAR(run.x, 0.37, 1e-6);
  EXPECT_LT(run.probes.size(), 64u);
}

TEST(BrentRefine, StaysInsideTheRangeWhenOutsideAWindowIsInfinite) {
  // +inf beyond a feasibility window, as for gamma past the Eq. (32)
  // limit or an unstable s.  The minimum sits on the window's edge and
  // the bracket around the scan winner runs past both ends of [lo, hi].
  const auto window = [](double x) {
    return x > 0.2 && x < 0.5 ? (x - 0.6) * (x - 0.6) : kInf;
  };
  for (int scan : {2, 3, 8}) {
    SCOPED_TRACE(scan);
    const RefineRun run = refine_after_scan(window, 0.1, 0.9, scan, 48);
    for (double x : run.probes) {
      EXPECT_GE(x, 0.1);
      EXPECT_LE(x, 0.9);
    }
    EXPECT_FALSE(std::isnan(run.v));
    EXPECT_FALSE(std::isnan(run.x));
    ASSERT_TRUE(std::isfinite(run.v));
    EXPECT_NEAR(run.x, 0.5, 1e-6);
  }
  // A scan that saw no finite value at all still returns no NaN.
  const RefineRun blind = refine_after_scan(
      [](double x) { return x > 0.5 && x < 0.52 ? 1.0 : kInf; }, 0.0, 1.0,
      4, 24);
  EXPECT_FALSE(std::isnan(blind.v));
  EXPECT_FALSE(std::isnan(blind.x));
  for (double x : blind.probes) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(BrentRefine, NeverWorseThanTheSeed) {
  // The bracket around the winner holds only worse values: the seed is
  // kept, argument and value.
  const auto bumpy = [](double x) {
    return x == 0.5 ? 0.0 : 1.0 + std::sin(40.0 * x) * std::sin(40.0 * x);
  };
  double x = 0.5;
  EXPECT_EQ(detail::brent_refine(bumpy, 0.0, 1.0, 0.125, 48, x, 0.0), 0.0);
  EXPECT_EQ(x, 0.5);
  // A constant objective: every probe ties the seed, which stays.
  x = 0.25;
  EXPECT_EQ(detail::brent_refine([](double) { return 3.0; }, 0.0, 1.0,
                                 0.125, 48, x, 3.0),
            3.0);
  EXPECT_EQ(x, 0.25);
  // And a refined result is never above the seed value.
  for (int scan : {3, 5, 8, 13}) {
    const RefineRun run = refine_after_scan(
        [](double t) { return std::cos(9.0 * t) + 0.1 * t; }, 0.0, 2.0, scan,
        32);
    EXPECT_LE(run.v, run.seed_v) << "scan " << scan;
  }
}

TEST(BrentRefine, EvaluationCapHolds) {
  // A kink converges at the golden rate only, so short caps bind.
  const auto kink = [](double x) { return std::abs(x - 0.37) + 1.0; };
  for (int cap : {0, 1, 2, 5, 20}) {
    SCOPED_TRACE(cap);
    const RefineRun run = refine_after_scan(kink, 0.0, 1.0, 8, cap);
    EXPECT_EQ(run.probes.size(), static_cast<std::size_t>(cap));
    EXPECT_LE(run.v, run.seed_v);
  }
}

TEST(ParamSearch, PaperKMethodIsCloseToExact) {
  const Scenario sc = paper_scenario(5, 100, 236, sched::SchedulerKind::kFifo);
  const BoundResult exact = deltanc::Solver(Method::kExactOpt).solve(sc);
  const BoundResult paper = deltanc::Solver(Method::kPaperK).solve(sc);
  EXPECT_GE(paper.delay_ms, exact.delay_ms - 1e-6);
  EXPECT_LE(paper.delay_ms, 1.1 * exact.delay_ms);
}

TEST(ParamSearch, DelayGrowsWithUtilization) {
  double prev = 0.0;
  for (int n_cross : {50, 150, 250, 350}) {
    const double d =
        deltanc::Solver().solve(paper_scenario(3, 100, n_cross, sched::SchedulerKind::kFifo))
            .delay_ms;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(ParamSearch, DelayGrowsWithPathLength) {
  double prev = 0.0;
  for (int hops : {1, 2, 4, 8}) {
    const double d =
        deltanc::Solver().solve(paper_scenario(hops, 100, 200, sched::SchedulerKind::kBmux))
            .delay_ms;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(ParamSearch, NearlyLinearScalingInH) {
  // Theta(H log H): between H = 4 and H = 16 the bound grows by a factor
  // well below quadratic scaling (16x would be quadratic: ratio 16).
  const double d4 =
      deltanc::Solver().solve(paper_scenario(4, 100, 100, sched::SchedulerKind::kBmux))
          .delay_ms;
  const double d16 =
      deltanc::Solver().solve(paper_scenario(16, 100, 100, sched::SchedulerKind::kBmux))
          .delay_ms;
  EXPECT_GT(d16 / d4, 3.5);   // superlinear-ish (H log H)
  EXPECT_LT(d16 / d4, 8.0);   // far from quadratic
}

TEST(ParamSearch, ValidatesScenario) {
  Scenario sc = paper_scenario(0, 100, 100, sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)deltanc::Solver().solve(sc), std::invalid_argument);
  sc.hops = 2;
  sc.epsilon = 0.0;
  EXPECT_THROW((void)deltanc::Solver().solve(sc), std::invalid_argument);
}

TEST(ParamSearch, ValidateCollectsEveryViolation) {
  Scenario sc = paper_scenario(0, 0, -1, sched::SchedulerKind::kFifo);
  sc.epsilon = 2.0;
  const diag::ValidationReport report = sc.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error_count(), 4u);  // hops, n_through, n_cross, epsilon
  const std::string msg = report.message();
  for (const char* field : {"hops", "n_through", "n_cross", "epsilon"}) {
    EXPECT_NE(msg.find(field), std::string::npos) << msg;
  }
  // And Solver::solve surfaces the same multi-field message.
  try {
    (void)deltanc::Solver().solve(sc);
    FAIL() << "accepted an invalid scenario";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("hops"), std::string::npos);
  }
}

TEST(ParamSearch, UnstableScenarioIsClassified) {
  // Overload is not an error: the solve succeeds with a +inf bound, and
  // the diagnostics channel says why.
  const Scenario sc = paper_scenario(3, 400, 400, sched::SchedulerKind::kBmux);
  const diag::ValidationReport report = sc.validate();
  EXPECT_TRUE(report.ok());        // well-formed...
  EXPECT_FALSE(report.stable());   // ...but overloaded
  const BoundResult r = deltanc::Solver().solve(sc);
  EXPECT_EQ(r.delay_ms, kInf);
  EXPECT_EQ(r.diagnostics.error, diag::SolveErrorKind::kUnstable);
  EXPECT_FALSE(r.diagnostics.message.empty());
}

TEST(ParamSearch, ConvergedSolveHasCleanDiagnostics) {
  // A healthy EDF solve: no error, no warnings, no recoveries recorded.
  const BoundResult r =
      deltanc::Solver().solve(paper_scenario(5, 150, 150, sched::SchedulerKind::kEdf));
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  EXPECT_TRUE(r.diagnostics.clean());
  EXPECT_EQ(r.stats.retries, 0);
  EXPECT_EQ(r.stats.fallbacks, 0);
}

TEST(ParamSearch, GpsBoundIsSelfConsistentAndPaysBurstsOnce) {
  Scenario sc = paper_scenario(5, 168, 168, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  const BoundResult r = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(r.delay_ms));
  EXPECT_TRUE(std::isnan(r.delta));  // no Delta coordinate by contract
  // Tuple self-consistency against the closed-form 1-D objective: the
  // guaranteed rate is the weight share of the link, gamma its slack over
  // the through aggregate's effective bandwidth at the returned s, sigma
  // the union-bound backlog for the target epsilon.
  const double rate = 0.5 * sc.capacity;
  ASSERT_GT(r.s, 0.0);
  EXPECT_DOUBLE_EQ(r.gamma,
                   rate - sc.n_through * sc.source.effective_bandwidth(r.s));
  const double sigma =
      std::log(1.0 / ((1.0 - std::exp(-r.s * r.gamma)) * sc.epsilon)) / r.s;
  EXPECT_DOUBLE_EQ(r.sigma, sigma);
  EXPECT_DOUBLE_EQ(r.delay_ms, sigma / rate);
  // Pay-bursts-once: the GPS leftover has zero latency, so the e2e bound
  // does not grow with the hop count (unlike every Delta-backed bound).
  Scenario longer = sc;
  longer.hops = 20;
  EXPECT_EQ(deltanc::Solver().solve(longer).delay_ms, r.delay_ms);
}

TEST(ParamSearch, DrrIsGpsPlusTheRoundRobinLatency) {
  // Equal quanta give DRR the same guaranteed rate as GPS(1,1); the only
  // difference is the deterministic one-round latency (sum Q - Q_0)/C
  // per hop, which shifts the bound by exactly H/C here.
  Scenario sc = paper_scenario(5, 168, 168, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  const BoundResult gps = deltanc::Solver().solve(sc);
  sc.scheduler = sched::SchedulerSpec::drr(1.0, 1.0);
  const BoundResult drr = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(gps.delay_ms));
  EXPECT_DOUBLE_EQ(drr.delay_ms,
                   sc.hops * (1.0 / sc.capacity) + gps.delay_ms);
}

TEST(ParamSearch, ScedEqualsGpsOnSymmetricLoads) {
  // Load-proportional sharing with N0 = Nc is the equal two-class split.
  Scenario sc = paper_scenario(4, 200, 200, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::sced();
  const BoundResult sced = deltanc::Solver().solve(sc);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  const BoundResult gps = deltanc::Solver().solve(sc);
  ASSERT_TRUE(std::isfinite(gps.delay_ms));
  EXPECT_DOUBLE_EQ(sced.delay_ms, gps.delay_ms);
}

TEST(ParamSearch, GpsIsolationSurvivesTotalOverload) {
  // Total utilization above 1, but the through class's guaranteed share
  // 0.75 C still exceeds its own load: GPS keeps a finite bound where
  // the aggregate-facing BMUX diverges.
  Scenario sc = paper_scenario(5, 310, 410, sched::SchedulerKind::kBmux);
  ASSERT_GE(sc.utilization(), 1.0);
  const BoundResult bmux = deltanc::Solver().solve(sc);
  EXPECT_EQ(bmux.delay_ms, kInf);
  sc.scheduler = sched::SchedulerSpec::gps(3.0, 1.0);
  ASSERT_LT(sc.n_through * sc.source.mean_rate(), 0.75 * sc.capacity);
  const BoundResult gps = deltanc::Solver().solve(sc);
  EXPECT_TRUE(std::isfinite(gps.delay_ms));
  EXPECT_TRUE(gps.diagnostics.ok());
}

TEST(ParamSearch, UnstableThroughClassIsClassifiedForCurveBacked) {
  // The through load alone exceeds the GPS(1,1) guarantee of half the
  // link: +inf with the same kUnstable classification as the Delta path.
  Scenario sc = paper_scenario(3, 400, 10, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  ASSERT_GT(sc.n_through * sc.source.mean_rate(), 0.5 * sc.capacity);
  const BoundResult r = deltanc::Solver().solve(sc);
  EXPECT_EQ(r.delay_ms, kInf);
  EXPECT_EQ(r.diagnostics.error, diag::SolveErrorKind::kUnstable);
  EXPECT_FALSE(r.diagnostics.message.empty());
}

TEST(ParamSearch, ValidateRejectsMalformedClassWeights) {
  // set_weights is the only way to smuggle a malformed weight list past
  // the factories (the codec uses it); validate() must name the field.
  Scenario sc = paper_scenario(3, 100, 100, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(1.0, 1.0);
  sched::ClassWeights bad;
  bad.count = 1;
  sc.scheduler.set_weights(bad);
  const diag::ValidationReport report = sc.validate();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.message().find("scheduler.weights"), std::string::npos)
      << report.message();
}

TEST(AdditiveBaseline, PerNodeDelaysGrowAlongThePath) {
  const PathParams p{100.0, 8, 20.0, 30.0, 0.5, 1.0, kInf};
  const auto per_node = additive_bmux_per_node(p, 0.5, 1e-9);
  ASSERT_EQ(per_node.size(), 8u);
  for (std::size_t h = 1; h < per_node.size(); ++h) {
    EXPECT_GT(per_node[h], per_node[h - 1]) << "h = " << h;
  }
}

TEST(AdditiveBaseline, SumOfPerNodeEqualsTotal) {
  const PathParams p{100.0, 5, 20.0, 30.0, 0.5, 1.0, kInf};
  const auto per_node = additive_bmux_per_node(p, 0.4, 1e-9);
  double sum = 0.0;
  for (double d : per_node) sum += d;
  EXPECT_NEAR(additive_bmux_delay(p, 0.4, 1e-9), sum, 1e-9);
}

TEST(AdditiveBaseline, MuchLooserThanNetworkServiceCurve) {
  // Fig. 4: adding per-node bounds is loose and gets relatively worse
  // with H.
  const Scenario sc5 = paper_scenario(5, 168, 168, sched::SchedulerKind::kBmux);
  const Scenario sc10 = paper_scenario(10, 168, 168, sched::SchedulerKind::kBmux);
  const double net5 = deltanc::Solver().solve(sc5).delay_ms;
  const double add5 = best_additive_bmux_bound(sc5).delay_ms;
  const double net10 = deltanc::Solver().solve(sc10).delay_ms;
  const double add10 = best_additive_bmux_bound(sc10).delay_ms;
  EXPECT_GT(add5, 1.5 * net5);
  EXPECT_GT(add10, 3.0 * net10);
  EXPECT_GT(add10 / add5, net10 / net5);  // relative gap widens
}

TEST(AdditiveBaseline, SuperlinearGrowth) {
  // O(H^3 log H)-style growth: doubling H should much more than double
  // the additive bound.
  const double a5 =
      best_additive_bmux_bound(paper_scenario(5, 168, 168, sched::SchedulerKind::kBmux))
          .delay_ms;
  const double a10 =
      best_additive_bmux_bound(paper_scenario(10, 168, 168, sched::SchedulerKind::kBmux))
          .delay_ms;
  EXPECT_GT(a10 / a5, 3.0);
}

TEST(AdditiveBaseline, Validation) {
  const PathParams p{100.0, 3, 20.0, 30.0, 0.5, 1.0, kInf};
  EXPECT_THROW((void)additive_bmux_delay(p, 0.0, 1e-9),
               std::invalid_argument);
  EXPECT_THROW((void)additive_bmux_delay(p, 0.5, 0.0), std::invalid_argument);
  // Unstable gamma: per-node envelope rate reaches the leftover rate.
  const PathParams tight{100.0, 3, 45.0, 45.0, 0.5, 1.0, kInf};
  EXPECT_EQ(additive_bmux_delay(tight, 4.0, 1e-9), kInf);
}

}  // namespace
}  // namespace deltanc::e2e
