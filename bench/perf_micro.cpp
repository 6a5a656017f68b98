// Microbenchmarks (google-benchmark) for the computational kernels:
// min-plus convolution, the Eq. (39) optimizers, the closed-form epsilon
// algebra, effective-bandwidth evaluation, and the simulator's slot rate.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "core/thread_pool.h"
#include "e2e/delay_bound.h"
#include "e2e/k_procedure.h"
#include "e2e/network_epsilon.h"
#include "e2e/param_search.h"
#include "e2e/scan_batch.h"
#include "e2e/solver.h"
#include "io/result_cache.h"
#include "nc/minplus_ops.h"
#include "sim/tandem.h"
#include "traffic/mmoo.h"

namespace {

using namespace deltanc;

void BM_MinplusConvRateLatency(benchmark::State& state) {
  const auto n = state.range(0);
  std::vector<nc::Curve> curves;
  for (std::int64_t i = 0; i < n; ++i) {
    curves.push_back(nc::Curve::rate_latency(100.0 - static_cast<double>(i),
                                             0.5 + 0.1 * static_cast<double>(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nc::minplus_conv(std::span<const nc::Curve>(curves)));
  }
}
BENCHMARK(BM_MinplusConvRateLatency)->Arg(2)->Arg(8)->Arg(32);

void BM_MinplusConvGatedCurves(benchmark::State& state) {
  const nc::Curve a = nc::Curve::affine(5.0, 3.0).gated(2.0);
  const nc::Curve b = nc::Curve::affine(2.0, 4.0).gated(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nc::minplus_conv(a, b));
  }
}
BENCHMARK(BM_MinplusConvGatedCurves);

void BM_ServiceDelayBound(benchmark::State& state) {
  const nc::Curve e = nc::Curve::leaky_bucket(2.0, 6.0);
  const nc::Curve s = nc::Curve::rate_latency(3.0, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nc::service_delay_bound(e, s));
  }
}
BENCHMARK(BM_ServiceDelayBound);

// The Eq. (39) optimizer across path lengths and Delta families.  Arg 1
// indexes kBenchDeltas: FIFO, an EDF-like negative Delta, BMUX (the
// convex cases the band search takes on long paths, e2e/delay_bound.h)
// and a non-convex Delta > 0, which always enumerates.
constexpr double kBenchDeltas[] = {0.0, -50.0,
                                   std::numeric_limits<double>::infinity(),
                                   5.0};

e2e::PathParams bench_path(std::int64_t hops, std::int64_t delta_index) {
  return e2e::PathParams{100.0, static_cast<int>(hops), 15.0, 35.0, 0.05,
                         1.0, kBenchDeltas[delta_index]};
}

void BM_OptimizeDelayExact(benchmark::State& state) {
  const e2e::PathParams p = bench_path(state.range(0), state.range(1));
  const double gamma = 0.4 * p.gamma_limit();
  const double sigma = e2e::sigma_for_epsilon(p, gamma, 1e-9);
  const Solver solver{};  // shared workspace: allocation-free inner loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(p, gamma, sigma));
  }
}
BENCHMARK(BM_OptimizeDelayExact)
    ->ArgsProduct({{2, 5, 8, 10, 30, 40, 100, 1000}, {0, 1, 2, 3}});

// The same calls through one search regardless of the dispatch: Arg 2
// is 0 for the full enumeration, 1 for the band search (convex Delta
// only).  The crossovers kBandSearchMinHops (finite Delta) and
// kBandSearchMinHopsUnbounded (Delta = +/-inf) sit where the two meet.
void BM_OptimizeDelaySearch(benchmark::State& state) {
  const e2e::PathParams p = bench_path(state.range(0), state.range(1));
  const double gamma = 0.4 * p.gamma_limit();
  const double sigma = e2e::sigma_for_epsilon(p, gamma, 1e-9);
  const bool band = state.range(2) != 0;
  e2e::SolveWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        band ? e2e::detail::optimize_delay_band(p, gamma, sigma, ws).delay
             : e2e::detail::optimize_delay_enumerate(p, gamma, sigma, ws)
                   .delay);
  }
}
BENCHMARK(BM_OptimizeDelaySearch)
    ->ArgsProduct({{2, 5, 8, 10, 12, 16, 20, 40, 1000}, {0, 1, 2}, {0, 1}});

// The 25-lane gamma scan of the parameter search at one s (Arg 1 indexes
// kBenchDeltas): Arg 2 = 0 runs the SoA kernel (full enumeration per
// lane, vectorized across lanes), 1 runs sigma(gamma) and the band
// search lane by lane.
void BM_GammaScan(benchmark::State& state) {
  const e2e::PathParams p = bench_path(state.range(0), state.range(1));
  const bool per_lane = state.range(2) != 0;
  const e2e::SigmaForEpsilon sigma_of(p, 1e-9);
  const double glim = p.gamma_limit();
  std::vector<double> gammas, delays(25);
  for (int i = 0; i <= 24; ++i) {
    gammas.push_back(1e-4 * glim +
                     (0.9999 - 1e-4) * glim * static_cast<double>(i) / 24);
  }
  e2e::GammaScanBatch batch;
  e2e::SolveWorkspace ws;
  for (auto _ : state) {
    if (per_lane) {
      for (std::size_t i = 0; i < gammas.size(); ++i) {
        delays[i] = e2e::detail::optimize_delay_band(p, gammas[i],
                                                     sigma_of(gammas[i]), ws)
                        .delay;
      }
    } else {
      e2e::detail::gamma_scan_exact_batch(p, sigma_of, gammas, delays, batch);
    }
    benchmark::DoNotOptimize(delays.data());
  }
}
BENCHMARK(BM_GammaScan)
    ->ArgsProduct({{2, 5, 8, 10, 12, 16, 20}, {0, 2}, {0, 1}});

void BM_KProcedure(benchmark::State& state) {
  const e2e::PathParams p{100.0, static_cast<int>(state.range(0)), 15.0,
                          35.0,  0.05, 1.0, -5.0};
  const double gamma = 0.4 * p.gamma_limit();
  const double sigma = e2e::sigma_for_epsilon(p, gamma, 1e-9);
  const Solver solver(e2e::Method::kPaperK);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimize(p, gamma, sigma));
  }
}
BENCHMARK(BM_KProcedure)->Arg(10)->Arg(30);

void BM_FullScenarioSolve(benchmark::State& state) {
  e2e::Scenario sc;
  sc.hops = static_cast<int>(state.range(0));
  sc.n_through = 100;
  sc.n_cross = 236;
  sc.scheduler = sched::SchedulerKind::kFifo;
  for (auto _ : state) {
    benchmark::DoNotOptimize(deltanc::Solver().solve(sc));
  }
}
BENCHMARK(BM_FullScenarioSolve)->Arg(2)->Arg(10)->Unit(benchmark::kMillisecond);

// The Fig. 2 (H = 5) sweep grid at a loose epsilon: 8 utilization points
// x 3 schedulers = 24 independent solves.  Arg(0) is the worker count;
// compare threads:1 against threads:N for the parallel speedup (the
// sweep is embarrassingly parallel, so throughput should scale almost
// linearly up to the core count).
void BM_SweepFig2Grid(benchmark::State& state) {
  e2e::Scenario base;
  base.hops = 5;
  base.n_through = 100;
  base.epsilon = 1e-6;
  SweepGrid grid(base);
  grid.cross_utilization_axis(SweepGrid::linspace(0.10, 0.80, 8))
      .scheduler_axis({sched::SchedulerKind::kEdf, sched::SchedulerKind::kFifo,
                       sched::SchedulerKind::kBmux});
  SweepOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  const SweepRunner runner(opts);
  e2e::SolveStats last_stats{};
  int threads = 0;
  for (auto _ : state) {
    SweepReport report = runner.run(grid);
    last_stats = report.stats;
    threads = report.threads;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(grid.size()));
  // The workers that ran: warm chaining runs one task per uc chain (3
  // here), so this can be fewer than the pool size asked for.
  state.counters["threads"] = static_cast<double>(threads);
  // Algorithmic-work counters (per grid point, not per second): a jump in
  // optimize_evals flags a search-strategy regression independent of the
  // machine; eb_evals stays low because of the per-solve memo.
  const double points = static_cast<double>(grid.size());
  state.counters["optimize_evals_per_point"] =
      static_cast<double>(last_stats.optimize_evals) / points;
  state.counters["eb_evals_per_point"] =
      static_cast<double>(last_stats.eb_evals) / points;
}
BENCHMARK(BM_SweepFig2Grid)
    ->Arg(1)
    ->Arg(static_cast<int>(ThreadPool::default_thread_count()))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The EDF fixed point on long paths: one warm 8-point uc chain (0.1 to
// 0.8, eps = 1e-9) at H = Arg(0), the per-hop-count slice of the
// sweep-longpath grid that the EDF iteration dominates.  The counters
// are per uc point: optimize_evals tracks the budget of each iterate,
// edf_iterations counts the cheap iterates plus the confirmation.
void BM_EdfFixedPoint(benchmark::State& state) {
  e2e::Scenario base;
  base.hops = static_cast<int>(state.range(0));
  base.n_through = 100;
  base.epsilon = 1e-9;
  SweepGrid grid(base);
  grid.cross_utilization_axis(SweepGrid::linspace(0.10, 0.80, 8))
      .scheduler_axis({sched::SchedulerKind::kEdf});
  SweepOptions opts;
  opts.threads = 1;
  const SweepRunner runner(opts);
  e2e::SolveStats last_stats{};
  for (auto _ : state) {
    SweepReport report = runner.run(grid);
    last_stats = report.stats;
    benchmark::DoNotOptimize(report);
  }
  const double points = static_cast<double>(grid.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(grid.size()));
  state.counters["optimize_evals_per_point"] =
      static_cast<double>(last_stats.optimize_evals) / points;
  state.counters["edf_iterations_per_point"] =
      static_cast<double>(last_stats.edf_iterations) / points;
}
BENCHMARK(BM_EdfFixedPoint)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The headline claim of the profile engine: one warm-chained 16-level
// d(epsilon) profile vs 16 independent cold scalar solves of the same
// scenario.  Arg(0) selects the mode (0 = cold scalars, 1 = warm
// profile); the ratio of the two real times is the chaining speedup
// (scripts/check.sh gates the counter-based equivalent at >= 3x).
void BM_ProfileVsScalar(benchmark::State& state) {
  const bool warm_profile = state.range(0) != 0;
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = 236;
  sc.scheduler = sched::SchedulerKind::kFifo;
  // 16 levels, log-spaced over [1e-9, 1e-3] -- the --ccdf default shape.
  std::vector<double> epsilons;
  for (int i = 0; i < 16; ++i) {
    epsilons.push_back(
        std::exp(std::log(1e-3) + (std::log(1e-9) - std::log(1e-3)) *
                                      static_cast<double>(i) / 15.0));
  }
  SolveOptions options;
  options.warm_start =
      warm_profile ? e2e::WarmStart::kWarm : e2e::WarmStart::kCold;
  const deltanc::Solver solver(options);
  e2e::SolveStats last_stats{};
  for (auto _ : state) {
    if (warm_profile) {
      e2e::DelayProfile profile = solver.solve_profile(sc, epsilons);
      last_stats = profile.stats;
      benchmark::DoNotOptimize(profile);
    } else {
      // The cold baseline solved the honest way: K independent scalar
      // solves (bit-identical to a kCold solve_profile by contract).
      last_stats = e2e::SolveStats{};
      for (double eps : epsilons) {
        e2e::Scenario level = sc;
        level.epsilon = eps;
        e2e::BoundResult r = solver.solve(level);
        last_stats += r.stats;
        benchmark::DoNotOptimize(r);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.counters["optimize_evals"] =
      static_cast<double>(last_stats.optimize_evals);
  state.counters["chain_hits"] =
      static_cast<double>(last_stats.profile_chain_hits);
}
BENCHMARK(BM_ProfileVsScalar)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ThreadPoolSubmitDrain(benchmark::State& state) {
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    std::atomic<int> sink{0};
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ThreadPoolSubmitDrain)->Arg(1)->Arg(4);

void BM_EffectiveBandwidth(benchmark::State& state) {
  const auto src = traffic::MmooSource::paper_source();
  double s = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.effective_bandwidth(s));
    s = s < 60.0 ? s * 1.01 : 0.001;
  }
}
BENCHMARK(BM_EffectiveBandwidth);

void BM_TandemSlots(benchmark::State& state) {
  sim::TandemConfig c;
  c.hops = 3;
  c.n_through = 250;
  c.n_cross = 250;
  c.slots = state.range(0);
  c.warmup_slots = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_tandem(c));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TandemSlots)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_JsonBoundResultRoundTrip(benchmark::State& state) {
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = 268;
  sc.epsilon = 1e-6;
  const e2e::BoundResult solved = deltanc::Solver().solve(sc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::decode_bound_result(
        io::json::Value::parse(io::encode_bound_result(solved).dump())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsonBoundResultRoundTrip);

void BM_ResultCacheHit(benchmark::State& state) {
  // Steady-state hit cost of a scalar request: file read + decode of its
  // one-level profile entry.  This is what bounds warm `--batch`
  // throughput.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "deltanc_bench_cache";
  std::filesystem::remove_all(dir);
  io::ResultCache cache(dir);
  e2e::Scenario sc;
  sc.hops = 5;
  sc.n_through = 100;
  sc.n_cross = 268;
  sc.epsilon = 1e-6;
  const SolveOptions options;
  const std::string key =
      io::cache_key(sc, std::span<const double>(&sc.epsilon, 1), options);
  cache.store(key, deltanc::Solver().solve(sc));
  e2e::BoundResult out;
  for (auto _ : state) {
    const auto found = cache.lookup(key, out);
    if (found != io::CacheLookup::kHit) state.SkipWithError("cache missed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ResultCacheHit);

}  // namespace

BENCHMARK_MAIN();
