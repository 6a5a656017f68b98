"""Turns the measurement harness's raw output into benchmark metrics.

End-to-end metrics (untraced runs) are the same three names on every
workload; what a "unit" is depends on the workload (UNIT).  Per-layer
metrics (traced runs) come from the harness's counters, its layer
replays and the spans it recorded.
"""

import math
import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# What one latency sample and one throughput unit is, per workload.
UNIT = {
    "sweep-longpath": "grid point, from its grid run's start to its result",
    "ccdf-profiles": "16-level warm d(eps) profile; throughput counts levels",
    "serve-mixed": "request, timed from its due time; throughput is goodput",
}

# The tail percentile of unit latency needs 1000 samples; the harness
# runs each workload until it has them.
TAIL_PERCENTILE = 99.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("traffic.eb_evals_per_solve", "count"),
    ("traffic.eb_call_us", "us"),
    ("e2e.optimize_evals_per_solve", "count"),
    ("e2e.theta_call_us", "us"),
    ("e2e.sigma_call_us", "us"),
    ("e2e.scan_ms_per_solve", "ms"),
    ("e2e.refine_ms_per_solve", "ms"),
    ("e2e.edf_iters_per_solve", "count"),
    ("e2e.batched_share", "ratio"),
    ("e2e.warm_hit_share", "ratio"),
    ("e2e.chain_hit_share", "ratio"),
    ("e2e.solve_ms_p50", "ms"),
    ("e2e.solve_ms_p99", "ms"),
    ("e2e.retries", "count"),
    ("e2e.fallbacks", "count"),
    ("core.threads_used", "count"),
    ("core.chains", "count"),
    ("core.parallel_eff", "ratio"),
    ("core.longest_chain_share", "ratio"),
    ("io.parse_us", "us"),
    ("io.lookup_hit_us", "us"),
    ("io.lookup_miss_us", "us"),
    ("io.store_us", "us"),
    ("io.encode_us", "us"),
    ("io.hit_share", "ratio"),
    ("io.stale", "count"),
    ("io.corrupt", "count"),
    ("io.store_failures", "count"),
    ("serve.inproc_p50_ms", "ms"),
    ("serve.inproc_p99_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.socket_us", "us"),
    ("serve.memory_hits", "count"),
    ("serve.disk_hits", "count"),
    ("serve.solved", "count"),
    ("serve.overloads", "count"),
    ("serve.timeouts", "count"),
    ("serve.dropped", "count"),
    ("load.late_p99_ms", "ms"),
    ("load.sent", "count"),
    ("load.answered", "count"),
    ("ledger.traffic_share", "ratio"),
    ("ledger.e2e_share", "ratio"),
    ("ledger.core_share", "ratio"),
    ("ledger.io_share", "ratio"),
    ("ledger.serve_share", "ratio"),
    ("ledger.load_share", "ratio"),
    ("ledger.other_share", "ratio"),
    ("ledger.untraced_share", "ratio"),
    ("ledger.over_attributed_share", "ratio"),
    ("trace.throughput_per_s", "1/s"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
)

class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def percentile(values, q):
    """The q-th percentile (nearest rank) of `values`.

    A percentile is only reported when at least ten samples lie beyond
    it; otherwise UnsupportedPercentile is raised.
    """
    data = sorted(v for v in values if v is not None and not math.isnan(v))
    n = len(data)
    beyond = n * (100.0 - q) / 100.0
    if n == 0 or beyond < 10.0 - 1e-9:
        raise UnsupportedPercentile(
            f"p{q:g} needs at least 10 samples beyond it; have {n} samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    return data[rank - 1]


def highest_supported(n, ladder=(50.0, 90.0, 99.0, 99.9)):
    """The highest percentile of `ladder` that n samples support."""
    best = None
    for q in ladder:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            best = q
    return best


def _median(values):
    data = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(data) if data else 0.0


def end_to_end(raw):
    """Metric name -> (value, unit, note) for an untraced run."""
    s, x = raw["scalars"], raw["samples"]
    values = {
        "setup_s": (_median(x["setup_s"]),
                    f"median of {len(x['setup_s'])} set-ups"),
        "throughput_per_s": (s["units_per_s"],
                             f"over a {s['window_s']:.3f} s window"),
        "peak_rss_mb": (s["peak_rss_kb"] / 1024.0, "peak RSS of the worker"),
    }
    return {name: (values[name][0], unit, values[name][1])
            for name, unit in END_TO_END}


def unit_latency(raw):
    """(p50, p99, n) of the per-unit latency samples, in ms: printed
    with every untraced run, not part of its metrics (see README)."""
    latency = raw["samples"]["latency_ms"]
    return (percentile(latency, 50.0), percentile(latency, TAIL_PERCENTILE),
            len(latency))


def self_times(spans):
    """Layer -> summed self time (ms): a span's duration minus the part
    of its interval that its child spans cover."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        start, end = sp["start_ms"], sp["end_ms"]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(sp["id"], []), key=lambda c: c["start_ms"]):
            lo, hi = max(c["start_ms"], cursor), min(c["end_ms"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        layer = sp["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + max(0.0, end - start - covered)
    return out


def _ratio(a, b):
    return a / b if b else 0.0


# Workloads whose traced run exercises the io, serve and load layers.
# The in-process workloads make no wire requests: their io.*, serve.* and
# load.* metrics are 0 (the layer did no work), and those layers are
# measured on serve-mixed.
SERVICE_WORKLOADS = ("serve-mixed",)
SERVICE_LAYERS = ("io.", "serve.", "load.")

# The serve-mixed ledger splits the requests around the median: those
# whose latency ranks between these quantiles.
MEDIAN_BAND = (0.4, 0.6)


def close_ledger(claimed):
    """Completes layer shares into an account that sums to 1.

    `untraced` is the remainder no layer claims.  When the claims exceed
    the whole (a replay priced a layer slower than the live run), the
    claims are scaled down to sum to 1, `untraced` is 0 and the excess
    is reported as `over_attributed`, so the account never shows a
    negative remainder.
    """
    shares = {k: max(0.0, v) for k, v in claimed.items()}
    total = sum(shares.values())
    if total > 1.0:
        shares = {k: v / total for k, v in shares.items()}
        shares["untraced"] = 0.0
        shares["over_attributed"] = total - 1.0
    else:
        shares["untraced"] = 1.0 - total
        shares["over_attributed"] = 0.0
    return shares


def _serve_claims(x):
    """Layer shares of the median request of serve-mixed.

    One population throughout: the live run's cache hits whose latency
    (due time to answer) ranks in MEDIAN_BAND; the median request is a
    hit.  Per request, `load` is the generator's lateness.  The rest of
    the request is split with per-call prices replayed on the same
    stream: `io` is parse + encode, `serve` is the median in-process
    service time of a hit (SolveService submit to sink) minus io.  What
    is left, the socket hop into the server process and its connection
    thread, where the harness records no spans, is untraced.  Shares are
    sums over the band, so they add up.
    """
    io_ms = (_median(x["replay.parse_us"]) +
             _median(x["replay.encode_us"])) / 1000.0
    inproc_hit = _median([ms for ms, hit in zip(x["replay.inproc_ms"],
                                                x["replay.inproc_hit"])
                          if hit == 1.0 and ms is not None])
    rows = sorted((c, late) for c, late, hit in zip(
        x["load.client_ms"], x["load.late_ms"], x["load.hit"])
        if hit == 1.0 and c is not None and late is not None)
    lo, hi = (round(q * len(rows)) for q in MEDIAN_BAND)
    band = rows[lo:max(hi, lo + 1)]
    if not band:
        raise ValueError("serve-mixed ledger: no cache hits")
    total = sum(c for c, _ in band)
    return {
        "load": sum(late for _, late in band) / total,
        "io": io_ms * len(band) / total,
        "serve": (inproc_hit - io_ms) * len(band) / total,
    }


def ledger(workload, raw, spans):
    """Layer shares accounting for the traced window (in-process
    workloads) or for the median request's latency (serve-mixed); see
    close_ledger for the untraced remainder."""
    s, x = raw["scalars"], raw["samples"]
    claims = dict.fromkeys(("traffic", "e2e", "core", "io", "serve", "load",
                            "other"), 0.0)
    if workload == "serve-mixed":
        claims.update(_serve_claims(x))
    else:
        eb_us = _median(x["replay.eb_us"])
        sched_us = _median(x["replay.sched_us"])
        window = next(sp for sp in spans if sp["name"] == "bench.window")
        window_ms = window["end_ms"] - window["start_ms"]
        threads = s["core.threads_used"]
        busy = s["busy_ms"] / threads
        traffic = s["stats.eb_evals"] * eb_us / 1000.0 / threads
        other = s["level_solves"] * sched_us / 1000.0 / threads
        claims["traffic"] = traffic / window_ms
        claims["other"] = other / window_ms
        claims["e2e"] = (busy - traffic - other) / window_ms
        if workload == "sweep-longpath":
            runs = sum(sp["end_ms"] - sp["start_ms"] for sp in spans
                       if sp["name"] == "core.run")
            claims["core"] = (runs - busy) / window_ms
    return close_ledger(claims)


def _service_layers(s, x):
    """The io, serve and load metrics of serve-mixed."""
    inproc = x["replay.inproc_ms"]
    hits = [ms for ms, h in zip(inproc, x["replay.inproc_hit"])
            if h == 1.0 and ms is not None]
    diffs = [c - i for c, i in zip(x["replay.client_ms"], inproc)
             if c is not None and i is not None]
    lookups = sum(s.get(f"cache.{k}", 0.0)
                  for k in ("hits", "misses", "stale", "corrupt"))
    return {
        "io.parse_us": _median(x["replay.parse_us"]),
        "io.lookup_hit_us": _median(x["replay.lookup_hit_us"]),
        "io.lookup_miss_us": _median(x["replay.lookup_miss_us"]),
        "io.store_us": _median(x["replay.store_us"]),
        "io.encode_us": _median(x["replay.encode_us"]),
        "io.hit_share": _ratio(s.get("cache.hits", 0.0), lookups),
        "io.stale": s.get("cache.stale", 0.0),
        "io.corrupt": s.get("cache.corrupt", 0.0),
        "io.store_failures": s.get("cache.store_failures", 0.0),
        "serve.inproc_p50_ms": percentile(inproc, 50.0),
        "serve.inproc_p99_ms": percentile(inproc, 99.0),
        "serve.queue_wait_p99_ms": (percentile(hits, 99.0) -
                                    percentile(hits, 50.0)),
        "serve.socket_us": (_median(diffs) - _median(x["load.late_ms"])) *
                           1000.0,
        "serve.memory_hits": s.get("serve.memory_hits", 0.0),
        "serve.disk_hits": (s.get("serve.served", 0.0) -
                            s.get("serve.memory_hits", 0.0)),
        "serve.solved": s.get("serve.solved", 0.0),
        "serve.overloads": s.get("serve.overloads", 0.0),
        "serve.timeouts": s.get("serve.timeouts", 0.0),
        "serve.dropped": s.get("serve.dropped", 0.0),
        "load.late_p99_ms": percentile(x["load.late_ms"], 99.0),
        "load.sent": s["load.sent"],
        "load.answered": s["load.answered"],
    }


def per_layer(workload, raw, spans):
    """Metric name -> (value, unit) for a traced run."""
    s, x = raw["scalars"], raw["samples"]
    solves = s["level_solves"]
    # Tracing overhead: spans recorded live inside the window times what
    # recording one costs, as a share of the window.  (load.request
    # spans are added after the stream ends.)
    root = next(sp for sp in spans if sp["name"] == "bench.window")
    live = sum(1 for sp in spans
               if sp["parent"] == root["id"] and sp["name"] != "load.request")
    overhead = (live * s["trace.span_cost_us"] / 1000.0 /
                (root["end_ms"] - root["start_ms"]))
    values = {
        "traffic.eb_evals_per_solve": _ratio(s["stats.eb_evals"], solves),
        "traffic.eb_call_us": _median(x["replay.eb_us"]),
        "e2e.optimize_evals_per_solve": _ratio(s["stats.optimize_evals"],
                                               solves),
        "e2e.theta_call_us": _median(x["replay.theta_us"]),
        "e2e.sigma_call_us": _median(x["replay.sigma_us"]),
        "e2e.scan_ms_per_solve": _ratio(s["stats.scan_ms"], solves),
        "e2e.refine_ms_per_solve": _ratio(s["stats.refine_ms"], solves),
        "e2e.edf_iters_per_solve": _ratio(s["stats.edf_iterations"], solves),
        "e2e.batched_share": _ratio(s["stats.batched_evals"],
                                    s["stats.optimize_evals"]),
        "e2e.warm_hit_share": _ratio(s["stats.warm_start_hits"], solves),
        "e2e.chain_hit_share": _ratio(s["stats.chain_hits"],
                                      s["chain_successors"]),
        "e2e.solve_ms_p50": percentile(x["solve_ms"], 50.0),
        "e2e.solve_ms_p99": percentile(x["solve_ms"], 99.0),
        "e2e.retries": s["stats.retries"],
        "e2e.fallbacks": s["stats.fallbacks"],
        "core.threads_used": s["core.threads_used"],
        "core.chains": s["core.chains"],
        "core.parallel_eff": _ratio(s["busy_ms"], s["parallel_wall_ms"] *
                                    s["core.threads_used"]),
        "core.longest_chain_share": s["core.longest_chain_share"],
        "trace.throughput_per_s": s["units_per_s"],
        "trace.latency_p50_ms": percentile(x["latency_ms"], 50.0),
        "trace.overhead_share": overhead,
        "trace.spans": s["trace.spans"],
    }
    if workload in SERVICE_WORKLOADS:
        values.update(_service_layers(s, x))
    else:
        values.update((name, 0.0) for name, _ in PER_LAYER
                      if name.startswith(SERVICE_LAYERS))
    for layer, share in ledger(workload, raw, spans).items():
        values[f"ledger.{layer}_share"] = share
    return {name: (values[name], unit) for name, unit in PER_LAYER}
