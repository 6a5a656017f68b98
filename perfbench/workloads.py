"""Seeded input generators for the three benchmark workloads.

Each generator is a pure function of (seed, seconds) and returns the
workload's inputs as a plain-text spec, one record per line, which the
measurement harness (harness.cpp) reads.  The program under test only ever
sees what the harness builds from these records: scenarios, a sweep grid,
or wire request lines.

Inputs are stratified (every seed gets the same mix of path lengths and
schedulers, with seeded utilizations, order and popularity) so that run
to run spread comes from the program, not from a lucky draw of cheap or
expensive scenarios.
"""

import bisect
import itertools
import math
import random

WORKLOADS = ("sweep-longpath", "ccdf-profiles", "serve-mixed")

# sweep-longpath: hops x scheduler x 8 cross-utilization points, the
# uc axis innermost so warm chains run along it.
SWEEP_HOPS = (5, 10, 20, 40)
SWEEP_SCHEDULERS = ("edf", "fifo", "bmux")
SWEEP_UC_POINTS = 8
SWEEP_GRIDS = 12
SWEEP_EPSILON = 1e-9
SWEEP_COLD_SAMPLE = 6

# ccdf-profiles: warm 16-level d(eps) profiles over [1e-9, 1e-3].
CCDF_SCHEDULERS = ("fifo", "bmux", "edf", "gps")
CCDF_HOPS = tuple(range(2, 21))
CCDF_REPEATS = 6
CCDF_LEVELS = 16
CCDF_COLD_SAMPLE = 8

# serve-mixed: open-loop Poisson stream over a Zipf-popular population
# of short-path scalar scenarios, half of them pre-warmed on disk.
SERVE_RATE_RPS = 400.0
SERVE_LATENCY_LIMIT_MS = 50.0
SERVE_HOPS = tuple(range(2, 9))
SERVE_SCHEDULERS = ("fifo", "bmux", "edf", "gps", "delta")
SERVE_POPULATION = 2100
SERVE_ZIPF_S = 1.0
SERVE_PROFILE_EVERY = 30
SERVE_PROFILE_EPSILONS = (1e-9, 1e-7, 1e-5, 1e-3)


def log_grid(lo, hi, points):
    """`points` log-spaced values from lo to hi inclusive."""
    return [math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i /
                     (points - 1)) for i in range(points)]


def _rng(workload, seed):
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED or the interpreter build.
    return random.Random(f"{workload}:{seed}")


def sweep_spec(seed, seconds):
    del seconds  # the harness repeats the grid until the window closes
    rng = _rng("sweep-longpath", seed)
    step = 0.7 / (SWEEP_UC_POINTS - 1)
    lines = [
        f"epsilon {SWEEP_EPSILON!r}",
        "hops " + " ".join(str(h) for h in SWEEP_HOPS),
        "schedulers " + " ".join(SWEEP_SCHEDULERS),
    ]
    # Several grids, each with its own jitter on the uc points; the
    # harness cycles through them, so a run averages over grids instead
    # of resting on one draw.
    for _ in range(SWEEP_GRIDS):
        uc = [0.1 + step * i + rng.uniform(-0.005, 0.005)
              for i in range(SWEEP_UC_POINTS)]
        lines.append("uc " + " ".join(repr(round(min(0.8, max(0.1, u)), 6))
                                      for u in uc))
    points = len(SWEEP_HOPS) * len(SWEEP_SCHEDULERS) * SWEEP_UC_POINTS
    lines.append("check " + " ".join(
        str(i) for i in sorted(rng.sample(range(points), SWEEP_COLD_SAMPLE))))
    return "\n".join(lines) + "\n"


def ccdf_spec(seed, seconds):
    del seconds  # the harness cycles the list until the window closes
    rng = _rng("ccdf-profiles", seed)
    combos = [(h, s) for s in CCDF_SCHEDULERS for h in CCDF_HOPS]
    scenarios = []
    band = 0.7 / CCDF_REPEATS
    for r in range(CCDF_REPEATS):
        # One draw per utilization band, so every seed solves the same
        # mix of light and heavy loads.
        for h, s in combos:
            u = 0.1 + band * (r + rng.random())
            scenarios.append((h, round(u, 6), s))
    rng.shuffle(scenarios)
    lines = ["epsilons " + " ".join(repr(e) for e in
                                    log_grid(1e-9, 1e-3, CCDF_LEVELS))]
    lines += [f"scenario {h} {u!r} {s}" for h, u, s in scenarios]
    for i in rng.sample(range(len(scenarios)), CCDF_COLD_SAMPLE):
        lines.append(f"check {i} {rng.randrange(CCDF_LEVELS)}")
    return "\n".join(lines) + "\n"


def _zipf_cdf(n):
    """Cumulative Zipf weights 1 / (r + 1)^s over ranks 0..n-1."""
    out, total = [], 0.0
    for r in range(n):
        total += 1.0 / (r + 1) ** SERVE_ZIPF_S
        out.append(total)
    return out


def _scheduler_name(kind, rng):
    if kind == "delta":
        return f"delta:{round(rng.uniform(-10.0, 10.0), 3)!r}"
    return kind


def serve_spec(seed, seconds):
    rng = _rng("serve-mixed", seed)
    combos = [(h, s) for s in SERVE_SCHEDULERS for h in SERVE_HOPS]
    # Population member r has popularity rank r.  Ranks cycle through
    # the (hops, scheduler) combinations, so every seed puts the same
    # mix of cheap and expensive solves at each popularity; the seed
    # draws utilizations within bands, Delta offsets, which member of
    # each rank pair is pre-warmed, and the stream.
    population = []
    for r in range(SERVE_POPULATION):
        h, kind = combos[r % len(combos)]
        # Successive cycles step through six utilization bands.
        band = (r // len(combos)) % 6
        u = 0.1 + 0.1 * (band + rng.random())
        population.append((h, round(u, 6), _scheduler_name(kind, rng)))
    prewarm = [2 * k + rng.randrange(2) for k in range(SERVE_POPULATION // 2)]
    lines = [
        f"rate {SERVE_RATE_RPS!r}",
        f"limit_ms {SERVE_LATENCY_LIMIT_MS!r}",
        "profile_epsilons " + " ".join(repr(e)
                                       for e in SERVE_PROFILE_EPSILONS),
    ]
    lines += [f"population {h} {u!r} {s}" for h, u, s in population]
    lines.append("prewarm " + " ".join(str(i) for i in prewarm))
    # Zipf popularity: rank r has weight 1 / (r + 1)^s.  Every
    # SERVE_PROFILE_EVERY-th request is a profile request; those cycle
    # through the (hops, scheduler) combinations and pick the cycle by
    # Zipf, so each seed asks for the same mix of profile costs.
    ranks = _zipf_cdf(SERVE_POPULATION)
    cycles = _zipf_cdf(SERVE_POPULATION // len(combos))
    due_ms = 0.0
    horizon_ms = seconds * 1000.0
    profiles = 0
    for i in itertools.count():
        due_ms += rng.expovariate(SERVE_RATE_RPS / 1000.0)
        if due_ms >= horizon_ms:
            break
        profile = i % SERVE_PROFILE_EVERY == SERVE_PROFILE_EVERY // 2
        if profile:
            cycle = bisect.bisect_left(cycles, rng.random() * cycles[-1])
            pick = (min(cycle, len(cycles) - 1) * len(combos) +
                    profiles % len(combos))
            profiles += 1
        else:
            pick = min(bisect.bisect_left(ranks, rng.random() * ranks[-1]),
                       SERVE_POPULATION - 1)
        lines.append(f"request {round(due_ms, 6)!r} {pick} {int(profile)}")
    return "\n".join(lines) + "\n"


GENERATORS = {
    "sweep-longpath": sweep_spec,
    "ccdf-profiles": ccdf_spec,
    "serve-mixed": serve_spec,
}


def generate(workload, seed, seconds):
    return GENERATORS[workload](seed, seconds)
