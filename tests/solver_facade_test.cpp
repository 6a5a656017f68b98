// The deltanc::Solver facade must be a pure repackaging of the free
// functions it consolidates: bit-identical results against the PR 2
// hexfloat goldens and against the (deprecated) free entry points, with
// the SolveOptions knobs (scheduler override, fixed delta, retry
// policy) and the shared optimize() workspace behaving as documented.
#include "e2e/solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace deltanc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

e2e::Scenario fig2_scenario(int n_cross, sched::SchedulerKind sched) {
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = n_cross;
  sc.epsilon = 1e-6;
  sc.scheduler = sched;
  return sc;
}

e2e::PathParams path_params(double delta) {
  return e2e::PathParams{100.0, 4, 20.0, 30.0, 0.5, 1.0, delta};
}

TEST(SolverFacade, MatchesPinnedHexfloatGoldens) {
  // Two operating points of the PR 2 golden table
  // (tests/param_search_test.cpp): the facade must reproduce the exact
  // bits, not just close values.
  const e2e::BoundResult fifo =
      Solver().solve(fig2_scenario(67, sched::SchedulerKind::kFifo));
  EXPECT_EQ(fifo.delay_ms, 0x1.6126458d64984p+4);
  EXPECT_EQ(fifo.gamma, 0x1.8ceaed36017b9p-1);
  EXPECT_EQ(fifo.s, 0x1.7f822a740c65ap-4);
}

TEST(SolverFacade, SolveIsBitIdenticalToFreeFunction) {
  const struct {
    int n_cross;
    sched::SchedulerKind sched;
    e2e::Method method;
  } cases[] = {{67, sched::SchedulerKind::kFifo, e2e::Method::kExactOpt},
               {268, sched::SchedulerKind::kBmux, e2e::Method::kExactOpt},
               {538, sched::SchedulerKind::kSpHigh, e2e::Method::kPaperK},
               {168, sched::SchedulerKind::kEdf, e2e::Method::kExactOpt}};
  for (const auto& c : cases) {
    const e2e::Scenario sc = fig2_scenario(c.n_cross, c.sched);
    SolveOptions options;
    options.method = c.method;
    const e2e::BoundResult facade = Solver(options).solve(sc);
    const e2e::BoundResult direct = deltanc::Solver(c.method).solve(sc);
    EXPECT_EQ(facade.delay_ms, direct.delay_ms);
    EXPECT_EQ(facade.gamma, direct.gamma);
    EXPECT_EQ(facade.s, direct.s);
    EXPECT_EQ(facade.sigma, direct.sigma);
    EXPECT_EQ(facade.delta, direct.delta);
    EXPECT_EQ(facade.stats.optimize_evals, direct.stats.optimize_evals);
  }
}

TEST(SolverFacade, SchedulerOverrideEqualsEditedScenario) {
  const e2e::Scenario fifo = fig2_scenario(168, sched::SchedulerKind::kFifo);
  SolveOptions options;
  options.scheduler = sched::SchedulerKind::kEdf;
  const Solver solver(options);
  EXPECT_EQ(solver.effective_scenario(fifo).scheduler, sched::SchedulerKind::kEdf);

  e2e::Scenario edf = fifo;
  edf.scheduler = sched::SchedulerKind::kEdf;
  const e2e::BoundResult overridden = solver.solve(fifo);
  const e2e::BoundResult direct = Solver().solve(edf);
  EXPECT_EQ(overridden.delay_ms, direct.delay_ms);
  EXPECT_EQ(overridden.delta, direct.delta);
}

TEST(SolverFacade, FixedDeltaMatchesDeprecatedEntryPoint) {
  const e2e::Scenario sc = fig2_scenario(268, sched::SchedulerKind::kFifo);
  for (const double delta : {0.0, 5.0, -kInf, kInf}) {
    const e2e::BoundResult via_at = Solver().solve_at(sc, delta);
    SolveOptions options;
    options.delta = delta;
    const e2e::BoundResult via_options = Solver(options).solve(sc);
    const e2e::BoundResult direct =
        deltanc::Solver(e2e::Method::kExactOpt).solve_at(sc, delta);
    EXPECT_EQ(via_at.delay_ms, direct.delay_ms);
    EXPECT_EQ(via_options.delay_ms, direct.delay_ms);
    EXPECT_EQ(via_at.gamma, direct.gamma);
    EXPECT_EQ(via_at.s, direct.s);
  }
}

TEST(SolverFacade, RepeatedOptimizeCallsMatchAFreshSolver) {
  // optimize() reuses the Solver's workspace across calls.  Whatever a
  // previous call left in it -- a longer or shorter path, another Delta,
  // another gamma -- a repeated call must return exactly what a fresh
  // Solver's first call returns: delay, X and every theta_h.
  for (const e2e::Method method :
       {e2e::Method::kExactOpt, e2e::Method::kPaperK}) {
    const Solver shared(method);
    for (int round = 0; round < 2; ++round) {
      for (const int hops : {4, 2, 9}) {
        for (const double delta : {2.0, 0.0, -kInf}) {
          e2e::PathParams p = path_params(delta);
          p.hops = hops;
          for (const double gamma : {0.5, 1.0, 2.0}) {
            const e2e::DelayResult again = shared.optimize(p, gamma, 40.0);
            const e2e::DelayResult first =
                Solver(method).optimize(p, gamma, 40.0);
            EXPECT_EQ(again.delay, first.delay);
            EXPECT_EQ(again.x, first.x);
            EXPECT_EQ(again.theta, first.theta);
          }
        }
      }
    }
  }
}

TEST(SolverFacade, RetryPolicyCapsEdfRestarts) {
  // Default (-1) runs the historical full damping schedule; 0 forbids
  // restarts entirely.  Whatever the scenario needed, the capped run
  // must never report more retries than allowed.
  const e2e::Scenario sc = fig2_scenario(268, sched::SchedulerKind::kEdf);
  SolveOptions none;
  none.max_edf_restarts = 0;
  const e2e::BoundResult capped = Solver(none).solve(sc);
  EXPECT_EQ(capped.stats.retries, 0);

  const e2e::BoundResult full = Solver().solve(sc);
  const e2e::BoundResult direct = deltanc::Solver().solve(sc);
  EXPECT_EQ(full.delay_ms, direct.delay_ms);
  EXPECT_EQ(full.stats.retries, direct.stats.retries);
}

TEST(SolverFacade, UnstableScenarioStillClassified) {
  const e2e::BoundResult r =
      Solver().solve(fig2_scenario(800, sched::SchedulerKind::kBmux));
  EXPECT_EQ(r.delay_ms, kInf);
  EXPECT_FALSE(r.diagnostics.ok());
}

// ----- delay profiles ----------------------------------------------------

const std::vector<double> kProfileGrid = {1e-3, 1e-5, 1e-7, 1e-9};

TEST(SolverProfile, ColdLevelsAreBitIdenticalToScalarSolves) {
  // The pinning contract: with warm_start == kCold (the default) every
  // profile level IS the scalar solve of the same scenario at that
  // epsilon -- identical bits, identical work counters.
  for (const sched::SchedulerKind sched :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf,
        sched::SchedulerKind::kSpHigh}) {
    const e2e::Scenario sc = fig2_scenario(168, sched);
    const e2e::DelayProfile profile =
        Solver().solve_profile(sc, kProfileGrid);
    ASSERT_EQ(profile.levels.size(), kProfileGrid.size());
    EXPECT_EQ(profile.stats.profile_levels,
              static_cast<std::int64_t>(kProfileGrid.size()));
    EXPECT_EQ(profile.stats.profile_chain_hits, 0);
    for (std::size_t i = 0; i < kProfileGrid.size(); ++i) {
      e2e::Scenario level = sc;
      level.epsilon = kProfileGrid[i];
      const e2e::BoundResult scalar = Solver().solve(level);
      EXPECT_EQ(profile.levels[i].delay_ms, scalar.delay_ms);
      EXPECT_EQ(profile.levels[i].gamma, scalar.gamma);
      EXPECT_EQ(profile.levels[i].s, scalar.s);
      EXPECT_EQ(profile.levels[i].sigma, scalar.sigma);
      EXPECT_EQ(profile.levels[i].delta, scalar.delta);
      EXPECT_EQ(profile.levels[i].stats.optimize_evals,
                scalar.stats.optimize_evals);
    }
  }
}

TEST(SolverProfile, WarmChainWithinToleranceAndCheaperThanCold) {
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  for (const sched::SchedulerKind sched :
       {sched::SchedulerKind::kFifo, sched::SchedulerKind::kEdf}) {
    const e2e::Scenario sc = fig2_scenario(168, sched);
    const e2e::DelayProfile cold = Solver().solve_profile(sc, kProfileGrid);
    const e2e::DelayProfile warm =
        Solver(warm_options).solve_profile(sc, kProfileGrid);
    ASSERT_EQ(warm.levels.size(), cold.levels.size());
    for (std::size_t i = 0; i < cold.levels.size(); ++i) {
      // Same tolerance the self-check battery enforces
      // (deltanc::kWarmStartRelTol in core/selfcheck.h).
      EXPECT_NEAR(warm.levels[i].delay_ms, cold.levels[i].delay_ms,
                  1e-4 * cold.levels[i].delay_ms);
    }
    // The chain must actually pay off: every post-seed level reuses
    // context, and the total search work shrinks.
    EXPECT_EQ(warm.stats.profile_chain_hits,
              static_cast<std::int64_t>(kProfileGrid.size()) - 1);
    EXPECT_LT(warm.stats.optimize_evals, cold.stats.optimize_evals);
    // d(epsilon) is non-increasing in epsilon under either policy.
    for (std::size_t i = 1; i < warm.levels.size(); ++i) {
      EXPECT_LE(warm.levels[i - 1].delay_ms, warm.levels[i].delay_ms);
      EXPECT_LE(cold.levels[i - 1].delay_ms, cold.levels[i].delay_ms);
    }
  }
}

TEST(SolverProfile, LevelsFollowCallerOrderNotSolveOrder) {
  // The warm chain visits levels in descending epsilon internally, but
  // the artifact reports them in the caller's order.
  const e2e::Scenario sc = fig2_scenario(67, sched::SchedulerKind::kFifo);
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const std::vector<double> shuffled = {1e-7, 1e-3, 1e-9, 1e-5};
  const e2e::DelayProfile p = Solver(warm_options).solve_profile(sc, shuffled);
  ASSERT_EQ(p.epsilons.size(), shuffled.size());
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    EXPECT_EQ(p.epsilons[i], shuffled[i]);
  }
  // Deeper epsilon -> larger delay, whatever the visit order was.
  EXPECT_LT(p.levels[1].delay_ms, p.levels[3].delay_ms);
  EXPECT_LT(p.levels[3].delay_ms, p.levels[0].delay_ms);
  EXPECT_LT(p.levels[0].delay_ms, p.levels[2].delay_ms);
}

TEST(SolverProfile, ValidatesTheEpsilonGrid) {
  const e2e::Scenario sc = fig2_scenario(67, sched::SchedulerKind::kFifo);
  EXPECT_THROW((void)Solver().solve_profile(sc, std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW((void)Solver().solve_profile(sc, std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)Solver().solve_profile(sc, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)Solver().solve_profile(sc, std::vector<double>{1e-3, -1e-6}),
      std::invalid_argument);
}

TEST(SolverProfile, CurveBackedSchedulerProfilesCarryNaNDelta) {
  e2e::Scenario sc = fig2_scenario(67, sched::SchedulerKind::kFifo);
  sc.scheduler = sched::SchedulerSpec::gps(2.0, 1.0);
  SolveOptions warm_options;
  warm_options.warm_start = e2e::WarmStart::kWarm;
  const e2e::DelayProfile p =
      Solver(warm_options).solve_profile(sc, kProfileGrid);
  for (const e2e::BoundResult& level : p.levels) {
    EXPECT_TRUE(std::isfinite(level.delay_ms));
    EXPECT_TRUE(std::isnan(level.delta));
  }
}

}  // namespace
}  // namespace deltanc
