#!/usr/bin/env bash
# Full verification: configure, build (warnings-as-errors), run the test
# suite, re-run it under ThreadSanitizer (the sweep engine is concurrent;
# races must fail loudly) and under ASan+UBSan (memory and UB bugs in the
# numeric hot path), run every bench binary (several enforce invariants
# via their exit codes), smoke-test the examples and the CLI (including
# the parallel sweep mode and the --selfcheck invariant battery), and
# verify the multi-violation scenario validation.
set -euo pipefail
cd "$(dirname "$0")/.."

# No -G here: an existing build/ reuses its cached generator (the seed
# tree is Unix Makefiles; forcing Ninja onto it is a hard CMake error).
cmake -B build
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

# --- Deprecation-shim gate ------------------------------------------------
# The PR 4 transitional shims (best_delay_bound*, the non-workspace
# optimize_delay/k_procedure_delay wrappers, e2e/deprecation.h) are
# retired: no code directory may spell them again.  docs/ is exempt --
# API.md's migration table documents the removed names on purpose.
shim_hits=$(grep -rn --include='*.cpp' --include='*.h' -E \
  '(^|[^A-Za-z0-9_])(best_delay_bound|DELTANC_DEPRECATED)|deprecation\.h' \
  src tools tests bench examples || true)
if [ -n "$shim_hits" ]; then
  echo "FAIL: retired deprecation shims referenced in code:"
  echo "$shim_hits"; exit 1
fi
echo "deprecation shim gate: OK"

# --- Public-header hygiene ------------------------------------------------
# Every header under include/deltanc/ must compile standalone (no hidden
# include-order dependencies): users are told to include them directly.
for h in include/deltanc/*.h; do
  echo "#include \"${h#include/}\"" | c++ -std=c++20 -fsyntax-only \
    -Wall -Wextra -Werror -I include -I src -x c++ -
done
echo "public-header hygiene: OK"

# --- ThreadSanitizer pass -------------------------------------------------
# Race-checks the concurrency layer (core/thread_pool.h, core/sweep.cpp)
# on every run.  Gated on libtsan being installed; TSAN_OPTIONS makes any
# report fatal so ctest sees the failure.
if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - \
     -o /tmp/deltanc_tsan_probe 2>/dev/null; then
  rm -f /tmp/deltanc_tsan_probe
  cmake -B build-tsan -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure
else
  echo "WARNING: ThreadSanitizer unavailable (no libtsan?); skipping race check" >&2
fi

# --- Address + UndefinedBehavior Sanitizer pass ---------------------------
# Memory- and UB-checks the whole suite (the solver leans on aggressive
# floating-point reasoning; out-of-domain arithmetic must fail loudly).
# Gated on sanitizer availability like the TSan pass above.
if echo 'int main(){return 0;}' | c++ -fsanitize=address,undefined -x c++ - \
     -o /tmp/deltanc_asan_probe 2>/dev/null; then
  rm -f /tmp/deltanc_asan_probe
  cmake -B build-asan -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure
else
  echo "WARNING: ASan/UBSan unavailable; skipping memory/UB check" >&2
fi

for b in build/bench/*; do
  # serve_load is a load-generator client, not a self-contained bench:
  # it needs a live --serve socket and exits 2 without one.  It is
  # exercised end-to-end by scripts/check_serve.sh (the serve_e2e test).
  if [ "$(basename "$b")" = "serve_load" ]; then continue; fi
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $b ====="
    "$b"
  fi
done

for e in build/examples/*; do
  if [ -f "$e" ] && [ -x "$e" ]; then
    echo "===== $e ====="
    "$e" > /dev/null
  fi
done
./build/tools/deltanc_cli --hops 2 > /dev/null
./build/tools/deltanc_cli --epsilon 1e-6 \
  --sweep uc=0.2:0.6:3 --sweep scheduler=fifo,edf --csv > /dev/null

# --- Stream discipline: machine modes keep stdout pure --------------------
# --csv stdout must be nothing but the CSV (header + one row per point);
# --batch / --emit-batch stdout must be nothing but JSONL (each line must
# survive the CLI's own strict linter).
csv_out=$(mktemp)
./build/tools/deltanc_cli --epsilon 1e-6 \
  --sweep uc=0.2:0.6:3 --csv > "$csv_out" 2>/dev/null
if [ "$(wc -l < "$csv_out")" -ne 4 ]; then
  echo "FAIL: --csv stdout not pure CSV (want 1 header + 3 rows):"
  cat "$csv_out"; exit 1
fi
awk -F, 'NR == 1 && NF < 5 { print "FAIL: csv header looks wrong"; exit 1 }' \
  "$csv_out"
rm -f "$csv_out"

emit_out=$(mktemp)
./build/tools/deltanc_cli --epsilon 1e-6 --sweep uc=0.2:0.6:3 \
  --emit-batch > "$emit_out" 2>/dev/null
./build/tools/deltanc_cli --lint-jsonl "$emit_out" 2>/dev/null
batch_out=$(mktemp)
./build/tools/deltanc_cli --batch "$emit_out" > "$batch_out" 2>/dev/null
./build/tools/deltanc_cli --lint-jsonl "$batch_out" 2>/dev/null
rm -f "$emit_out" "$batch_out"
echo "stream discipline: OK"

# --- Scheduler identity gates ---------------------------------------------
# The canonical scheduler name strings are spelled ONLY in the
# sched/scheduler_spec.{h,cpp} registry: any other src/ or tools/ code
# (comments excepted) hard-coding them bypasses the single source of
# truth and will drift from the parser/codec/CLI vocabulary.
name_hits=$(grep -rn --include='*.cpp' --include='*.h' -E '"(fifo|bmux|sp-high|gps|drr|sced)"' \
  src tools include bench examples \
  | grep -v 'sched/scheduler_spec\.' | grep -vE ':[0-9]+: *//' || true)
if [ -n "$name_hits" ]; then
  echo "FAIL: scheduler name literals outside the registry:"
  echo "$name_hits"; exit 1
fi
echo "scheduler name registry gate: OK"

# The continuous Delta axis must pin to the named schedulers at its
# endpoints -- delay(delta=0) bit-identical to the fifo column,
# delay(delta=inf) to bmux -- and the curve must be non-decreasing in
# Delta (more precedence for cross traffic never helps the through
# class).  --warm-start cold: this gate compares CSV delay strings
# byte-for-byte, so both sweeps must run the bit-exact cold path (warm
# chaining is only guaranteed to agree within kWarmStartRelTol).
delta_csv=$(mktemp); sched_csv=$(mktemp)
./build/tools/deltanc_cli --hops 5 --epsilon 1e-6 --warm-start cold \
  --sweep delta=0,1,5,inf --csv > "$delta_csv" 2>/dev/null
./build/tools/deltanc_cli --hops 5 --epsilon 1e-6 --warm-start cold \
  --sweep scheduler=fifo,bmux --csv > "$sched_csv" 2>/dev/null
awk -F, '
  NR == FNR { if (FNR > 1) named[FNR - 2] = $8; next }
  FNR > 1 { d[FNR - 2] = $8; n = FNR - 1 }
  END {
    if (n < 2 || length(named) != 2) { print "FAIL: delta smoke produced no rows"; exit 1 }
    if (d[0] != named[0]) { print "FAIL: delta=0 delay " d[0] " != fifo " named[0]; exit 1 }
    if (d[n - 1] != named[1]) { print "FAIL: delta=inf delay " d[n - 1] " != bmux " named[1]; exit 1 }
    for (i = 1; i < n; ++i) if (d[i] + 0 < d[i - 1] + 0) {
      print "FAIL: delta curve not monotone at step " i; exit 1
    }
  }' "$sched_csv" "$delta_csv"
rm -f "$delta_csv" "$sched_csv"
echo "delta axis endpoint gate: OK"

# --- Batch service + persistent cache guard -------------------------------
# Fig. 2 grid cold vs warm: >= 95% cache hits and >= 5x internal speedup
# on the second run, bit-identical responses (scripts/check_batch.sh).
./scripts/check_batch.sh ./build/tools/deltanc_cli

# Invariant self-check over the full Fig. 2-4 operating grids: scheduler
# ordering, monotonicity in H/U/eps, exact-vs-paper-K agreement,
# finiteness.  Exit code 1 on any violated invariant.
./build/tools/deltanc_cli --selfcheck

# Curve-backed scheduler battery (GPS/DRR/SCED): share/quantum
# monotonicity, GPS(1,1) below the per-hop SP-high analysis, GPS below
# DRR at the same split, sced == gps on symmetric loads, GPS isolation
# (finite bound at total overload while BMUX diverges), and the
# simulation cross-check (slot-level quantiles under the bounds).  Every
# curve-backed spelling must select the battery and exit 0 -- drr and
# sced once had no simulation lowering and threw here.
./build/tools/deltanc_cli --scheduler gps:1,1 --selfcheck
./build/tools/deltanc_cli --scheduler drr:1,1 --selfcheck > /dev/null
./build/tools/deltanc_cli --scheduler sced --selfcheck > /dev/null

# A curve-backed spec must ride the sweep/CSV stack like any other
# scheduler name, including weight lists whose commas overlap the value
# separator (maximal-munch list parsing).
./build/tools/deltanc_cli --hops 5 --epsilon 1e-6 \
  --sweep 'scheduler=fifo,gps:1,1,drr:2,1,sced' --csv > /dev/null

# A deliberately invalid scenario must be rejected with exit code 2 and a
# message naming every bad field (multi-violation validation).
set +e
./build/tools/deltanc_cli --capacity -5 --hops 0 2>/tmp/deltanc_invalid_err
invalid_rc=$?
set -e
if [ "$invalid_rc" -ne 2 ]; then
  echo "FAIL: invalid scenario exited $invalid_rc (want 2)"; exit 1
fi
grep -q "capacity" /tmp/deltanc_invalid_err
grep -q "hops" /tmp/deltanc_invalid_err
rm -f /tmp/deltanc_invalid_err

# Numeric flags use the strict locale-independent grammar: the lenient
# strtod path silently read "--capacity 0x50" as 80 -- it must be a
# usage error (exit 2) now, as must a whitespace-padded weight.
set +e
./build/tools/deltanc_cli --capacity 0x50 2>/dev/null
hex_rc=$?
./build/tools/deltanc_cli --scheduler 'gps: 2,1' 2>/dev/null
ws_rc=$?
set -e
if [ "$hex_rc" -ne 2 ] || [ "$ws_rc" -ne 2 ]; then
  echo "FAIL: lenient numeric parse accepted (hex rc=$hex_rc, ws rc=$ws_rc, want 2)"
  exit 1
fi
# Integer flags take whole numbers only: "--hops 2.9" once quietly solved
# H = 2, and "--hops 1e12" was an undefined float-to-int conversion.
set +e
./build/tools/deltanc_cli --hops 2.9 2>/dev/null
frac_rc=$?
./build/tools/deltanc_cli --hops 1e12 2>/dev/null
huge_rc=$?
set -e
if [ "$frac_rc" -ne 2 ] || [ "$huge_rc" -ne 2 ]; then
  echo "FAIL: non-integer --hops accepted (2.9 rc=$frac_rc, 1e12 rc=$huge_rc, want 2)"
  exit 1
fi
# --sweep axes follow the same rules: "hops=2.9,3" once solved H = 3
# twice, and a value the grid rejects (hops=0, uc=-1, delta=nan,
# capacity=0) once escaped as an uncaught exception (rc 134).
for axis in hops=2.9,3 hops=0 hops=1e12 hops=2:3:3 uc=-1 delta=nan capacity=0; do
  set +e
  ./build/tools/deltanc_cli --sweep "$axis" --csv >/dev/null 2>&1
  axis_rc=$?
  set -e
  if [ "$axis_rc" -ne 2 ]; then
    echo "FAIL: --sweep $axis exited $axis_rc (want usage error 2)"; exit 1
  fi
done
echo "strict numeric grammar gate: OK"

# --- Solver instrumentation guards ----------------------------------------
# Smoke the Fig. 2 sweep benchmark against a recorded wall-clock
# baseline: the PR 8 tree measured 212-214 ms/iteration on the 1-core
# CI container; the warm-start + SIMD redesign brought it to 45-47 ms
# (EXPERIMENTS.md "Sweep throughput").  The 130 ms ceiling leaves ~3x
# machine-variance headroom while still tripping on any regression back
# toward the cold-scan cost.  Then re-run the same grid via the CLI
# with --stats and fail on eval-count regressions: a collapse of the
# eb(s) memo (eb_evals creeping toward one per optimizer evaluation), a
# blow-up of the nested search, a diverging EDF fixed point, or the
# warm-chaining / batched-scan machinery silently disabling itself.
sweep_ms=$(./build/bench/perf_micro \
  --benchmark_filter='BM_SweepFig2Grid/1' --benchmark_min_time=0.2 \
  --benchmark_format=json 2>/dev/null \
  | awk '/"real_time"/ { gsub(/[",]/, ""); print $2 + 0; exit }')
echo "BM_SweepFig2Grid/1: ${sweep_ms} ms (baseline ceiling 130 ms)"
awk -v t="$sweep_ms" 'BEGIN {
  if (t + 0 <= 0 || t + 0 > 130) {
    print "FAIL: BM_SweepFig2Grid/1 regressed (" t " ms, ceiling 130 ms)"
    exit 1
  }
}'
stats_line=$(./build/tools/deltanc_cli --hops 5 --epsilon 1e-6 \
  --sweep uc=0.1:0.8:8 --sweep scheduler=fifo,bmux,edf --stats --csv \
  2>&1 >/dev/null | grep '^stats:')
echo "$stats_line"
echo "$stats_line" | awk '{
  for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
  if (v["optimize_evals"] <= 0) {
    print "FAIL: no stats reported"; exit 1
  }
  if (v["eb_evals"] * 10 > v["optimize_evals"]) {
    print "FAIL: eb memoization regressed (eb_evals=" v["eb_evals"] \
          ", optimize_evals=" v["optimize_evals"] ")"; exit 1
  }
  if (v["optimize_evals"] > 1200000) {
    print "FAIL: solver eval count regressed (optimize_evals=" \
          v["optimize_evals"] ", budget 1200000)"; exit 1
  }
  if (v["edf_converged"] != "yes") {
    print "FAIL: EDF fixed point did not converge"; exit 1
  }
  # Warm chaining is the default sweep mode: every non-seed point along a
  # chain should report a warm-start hit (24 points in 3 chains of 8 ->
  # 21), and the batched SoA scan must be doing the coarse-scan work.
  if (v["warm_start_hits"] + 0 < 1) {
    print "FAIL: warm-start chaining inactive (warm_start_hits=" \
          v["warm_start_hits"] ")"; exit 1
  }
  if (v["batched_evals"] + 0 < 1) {
    print "FAIL: batched Chernoff scan inactive (batched_evals=" \
          v["batched_evals"] ")"; exit 1
  }
}'
# --- Long-path gate ------------------------------------------------------
# The band search answers FIFO's convex Eq. (39) in O(H) per call instead
# of the breakpoint enumeration's O(H^2), bit for bit.  An H = 1000 FIFO
# solve must print the enumeration-only solver's CSV row byte for byte
# (its %.17g fields pinned below) within a 15 s wall ceiling: the
# enumeration took 46 s on a 4 x 2.1 GHz machine, the band search 0.13 s.
long_want='0,1000,fifo,100,100,29.729729729729758,1.0000000000000001e-09,11342.877153656951,0.002220517101118093,0.079438654340001247,565787.52703709202,0'
long_t0=$(date +%s%N)
long_row=$(timeout 60 ./build/tools/deltanc_cli --hops 1000 --scheduler fifo \
  --csv 2>/dev/null | tail -n +2)
long_ms=$(( ($(date +%s%N) - long_t0) / 1000000 ))
if ! cmp -s <(echo "$long_want") <(echo "$long_row"); then
  echo "FAIL: H=1000 fifo row moved:"
  echo "  want: $long_want"
  echo "  got:  $long_row"; exit 1
fi
if [ "$long_ms" -gt 15000 ]; then
  echo "FAIL: H=1000 fifo solve took ${long_ms} ms (ceiling 15000 ms)"; exit 1
fi
echo "long-path gate: OK (H=1000 fifo row byte-identical, ${long_ms} ms)"

# --- EDF fixed-point cost gate --------------------------------------------
# The H = 10 EDF uc chain set the wall time of the long-path grid: every
# fixed-point iterate used to be a full-budget (s, gamma) search, 260 832
# theta evaluations for the 8 points.  Far-from-root iterates now run at
# the kLocal budget and only a full-budget confirmation is accepted
# (104 392 evaluations).  The 160 000 budget trips on any return toward
# full-budget iterates; the chain must still converge.
edf_stats=$(./build/tools/deltanc_cli --hops 10 --scheduler edf \
  --epsilon 1e-9 --sweep uc=0.1:0.8:8 --stats --csv 2>&1 >/dev/null \
  | grep '^stats:')
echo "$edf_stats"
echo "$edf_stats" | awk '{
  for (i = 2; i <= NF; ++i) { split($i, kv, "="); v[kv[1]] = kv[2] }
  if (v["edf_converged"] != "yes") {
    print "FAIL: H=10 EDF chain did not converge"; exit 1
  }
  if (v["optimize_evals"] + 0 <= 0 || v["optimize_evals"] + 0 > 160000) {
    print "FAIL: EDF fixed-point eval count regressed (optimize_evals=" \
          v["optimize_evals"] ", budget 160000)"; exit 1
  }
}'
echo "EDF fixed-point gate: OK"

# --- Delay-profile gates --------------------------------------------------
# The d(eps) profile refactor retired the one-off delay_ccdf_bound
# series helper: Solver::solve_profile is the only spelling of the CCDF
# artifact.  No code directory may reintroduce the old name (docs/ is
# exempt -- the API migration notes mention it on purpose).
ccdf_hits=$(grep -rn --include='*.cpp' --include='*.h' 'delay_ccdf_bound' \
  src tools include tests bench examples || true)
if [ -n "$ccdf_hits" ]; then
  echo "FAIL: retired delay_ccdf_bound referenced in code:"
  echo "$ccdf_hits"; exit 1
fi
echo "delay_ccdf_bound retirement gate: OK"

# Results are pure answers: the per-result cache-outcome counters, the
# outcome stamping that filled them, the cache-corruption warning kinds
# and the legacy cache-key probe chain are retired -- provenance lives
# only in the response's "cache" tag and CacheStats, and each schema's
# entries live in their own v<N>/ epoch directory.  One answer type: a
# scalar request is a one-level profile, so the two key functions, the
# profile-only store/serve twins and the solve-through helpers are
# retired too (perfbench/ is not searched: it is frozen with the
# benchmark and keeps to the names the cache still exports).
provenance_hits=$(grep -rnE \
  'legacy_v[0-9]_solve_cache_key|cache_hits|cache_misses|cache_stale|apply_cache_outcome|kCorruptCache|kCacheStoreFailed|solve_cache_key|profile_cache_key|try_store_profile|solve_through|solve_profile_through|handle_profile|profile_memory' \
  src tools include bench examples tests || true)
if [ -n "$provenance_hits" ]; then
  echo "FAIL: retired cache provenance / legacy-key / twin-path code referenced:"
  echo "$provenance_hits"; exit 1
fi
echo "pure-answer gate: OK"

# One solver path per job: the runtime scalar/SIMD switch, the batched
# eb(s) path and the optional Solver workspace are retired.  The gamma
# scan kernel is selected from its input alone, and its bit identity is
# tested directly (tests/band_search_test.cpp, GammaScanKernelMatches*).
switch_hits=$(grep -rnE \
  'DELTANC_SIMD|reuse_workspace|effective_bandwidth_batch|simd_enabled|use_simd' \
  src tools include bench examples tests || true)
if [ -n "$switch_hits" ]; then
  echo "FAIL: retired solver switches referenced in code:"
  echo "$switch_hits"; exit 1
fi
echo "one-path gate: OK"

# Profile CSV is machine output: two identical runs (default warm
# chaining included) must be byte-identical.
prof_a=$(mktemp); prof_b=$(mktemp)
./build/tools/deltanc_cli --sweep hops=2,5 --sweep scheduler=fifo,edf \
  --ccdf 1e-6:1e-3:3 --csv > "$prof_a" 2>/dev/null
./build/tools/deltanc_cli --sweep hops=2,5 --sweep scheduler=fifo,edf \
  --ccdf 1e-6:1e-3:3 --csv > "$prof_b" 2>/dev/null
if ! cmp -s "$prof_a" "$prof_b"; then
  echo "FAIL: --ccdf profile CSV is not deterministic:"
  diff "$prof_a" "$prof_b" | head -5; exit 1
fi
if [ "$(wc -l < "$prof_a")" -ne 13 ]; then
  echo "FAIL: profile CSV row count (want 1 header + 4 points x 3 levels):"
  cat "$prof_a"; exit 1
fi
rm -f "$prof_a" "$prof_b"
echo "profile CSV determinism gate: OK"

# The pinning contract, end to end through the CLI: every level of a
# cold profile must be byte-identical to an independent scalar solve at
# that level's epsilon.  Epsilons ride the %.17g CSV round trip, so
# feeding the printed field back through --epsilon reconstructs the
# exact double; the scalar --csv row shares the profile-CSV shape, so
# the gate is a literal string compare per level.
ccdf_rows=$(mktemp)
./build/tools/deltanc_cli --hops 5 --uc 0.7 --warm-start cold \
  --ccdf 1e-9:1e-3:4 2>/dev/null | tail -n +2 > "$ccdf_rows"
while IFS= read -r row; do
  eps=$(echo "$row" | awk -F, '{ print $7 }')
  scalar_row=$(./build/tools/deltanc_cli --hops 5 --uc 0.7 \
    --epsilon "$eps" --csv 2>/dev/null | tail -n +2)
  if [ "$row" != "$scalar_row" ]; then
    echo "FAIL: cold profile level not pinned to the scalar solve at eps=$eps:"
    echo "  profile: $row"
    echo "  scalar:  $scalar_row"; exit 1
  fi
done < "$ccdf_rows"
rm -f "$ccdf_rows"
echo "profile pinning gate: OK (4 levels byte-identical to scalar solves)"

# Profile requests ride the batch protocol and the persistent cache:
# --emit-batch --ccdf emits profile requests (strict-lint clean), a
# second run answers every one from cache bit-identically, and
# doctoring every stored entry to the previous wire schema classifies
# ALL of them stale -- zero hits, zero wrong answers, full re-solve.
# The schema is read from the binary's own --emit-batch output, so a
# schema bump needs no edit here.  The "cache"
# tag is the only provenance on a response, so each run must equal the
# cold run with its "miss" tags rewritten to the expected outcome.
prof_dir=$(mktemp -d)
./build/tools/deltanc_cli --hops 3 --sweep uc=0.2:0.6:3 \
  --ccdf 1e-6:1e-3:3 --emit-batch > "$prof_dir/req.jsonl" 2>/dev/null
./build/tools/deltanc_cli --lint-jsonl "$prof_dir/req.jsonl" 2>/dev/null
schema=$(head -1 "$prof_dir/req.jsonl" | grep -o '"schema":[0-9]*' | cut -d: -f2)
prev_schema=$((schema - 1))
grep -q '"epsilons":\[' "$prof_dir/req.jsonl" || {
  echo "FAIL: --emit-batch --ccdf did not emit profile requests"; exit 1
}
./build/tools/deltanc_cli --batch "$prof_dir/req.jsonl" \
  --cache-dir "$prof_dir/cache" > "$prof_dir/cold.jsonl" 2>/dev/null
./build/tools/deltanc_cli --lint-jsonl "$prof_dir/cold.jsonl" 2>/dev/null
./build/tools/deltanc_cli --batch "$prof_dir/req.jsonl" \
  --cache-dir "$prof_dir/cache" > "$prof_dir/warm.jsonl" 2> "$prof_dir/warm.err"
grep -q 'hits=3 misses=0 stale=0' "$prof_dir/warm.err" || {
  echo "FAIL: warm profile batch missed the cache:"
  cat "$prof_dir/warm.err"; exit 1
}
cold_as() {  # cold_as <tag>: the cold responses with "miss" read as <tag>
  sed "s/\"cache\":\"miss\"/\"cache\":\"$1\"/" "$prof_dir/cold.jsonl"
}
if ! cmp -s <(cold_as hit) "$prof_dir/warm.jsonl"; then
  echo "FAIL: cached profile responses differ from solved ones"; exit 1
fi
find "$prof_dir/cache" -type f -name '*.json' \
  -exec sed -i "s/\"schema\":$schema/\"schema\":$prev_schema/" {} +
./build/tools/deltanc_cli --batch "$prof_dir/req.jsonl" \
  --cache-dir "$prof_dir/cache" > "$prof_dir/stale.jsonl" 2> "$prof_dir/stale.err"
grep -q 'hits=0 misses=0 stale=3' "$prof_dir/stale.err" || {
  echo "FAIL: schema-$prev_schema entries were not all classified stale:"
  cat "$prof_dir/stale.err"; exit 1
}
if ! cmp -s <(cold_as stale) "$prof_dir/stale.jsonl"; then
  echo "FAIL: stale-migration re-solve changed the answers"; exit 1
fi
# Flat-layout migration: the (re-solved, fully valid) entries moved to
# the pre-epoch flat layout are never opened -- all misses, zero hits,
# counted as foreign -- and the re-solves are bit-identical.
mv "$prof_dir/cache/v$schema"/*.json "$prof_dir/cache/"
./build/tools/deltanc_cli --batch "$prof_dir/req.jsonl" \
  --cache-dir "$prof_dir/cache" > "$prof_dir/flat.jsonl" 2> "$prof_dir/flat.err"
grep -q 'hits=0 misses=3 stale=0 .*foreign=3$' "$prof_dir/flat.err" || {
  echo "FAIL: flat-layout entries were opened or not counted foreign:"
  cat "$prof_dir/flat.err"; exit 1
}
if ! cmp -s "$prof_dir/cold.jsonl" "$prof_dir/flat.jsonl"; then
  echo "FAIL: flat-layout migration re-solve changed the answers"; exit 1
fi
rm -rf "$prof_dir"
echo "profile batch + schema/layout-migration gate: OK"

# The warm descending-eps chain must actually pay for itself: on a
# 16-level profile it measured 3.8x fewer optimizer evaluations than 16
# cold solves (EXPERIMENTS.md "Profile engine cost"); gate at 3x.  The
# same stderr line must carry live profile counters -- every level
# counted, every post-seed level a chain hit.
cold_stats=$(./build/tools/deltanc_cli --hops 5 --n0 100 --nc 236 \
  --ccdf 1e-9:1e-3:16 --warm-start cold --stats 2>&1 >/dev/null \
  | grep '^stats:')
warm_stats=$(./build/tools/deltanc_cli --hops 5 --n0 100 --nc 236 \
  --ccdf 1e-9:1e-3:16 --warm-start warm --stats 2>&1 >/dev/null \
  | grep '^stats:')
echo "profile cold: $cold_stats"
echo "profile warm: $warm_stats"
awk -v cold="$cold_stats" -v warm="$warm_stats" 'BEGIN {
  split(cold, cf, " "); for (i in cf) { split(cf[i], kv, "="); c[kv[1]] = kv[2] }
  split(warm, wf, " "); for (i in wf) { split(wf[i], kv, "="); w[kv[1]] = kv[2] }
  if (c["profile_levels"] + 0 != 16 || w["profile_levels"] + 0 != 16) {
    print "FAIL: profile_levels counter not live (cold=" c["profile_levels"] \
          ", warm=" w["profile_levels"] ")"; exit 1
  }
  if (c["profile_chain_hits"] + 0 != 0) {
    print "FAIL: cold profile reported chain hits (" c["profile_chain_hits"] ")"
    exit 1
  }
  if (w["profile_chain_hits"] + 0 != 15) {
    print "FAIL: warm chain hits " w["profile_chain_hits"] " (want 15/15)"
    exit 1
  }
  ratio = (c["optimize_evals"] + 0) / (w["optimize_evals"] + 1e-9)
  if (ratio < 3) {
    printf "FAIL: warm profile only %.2fx cheaper than cold (want >= 3x)\n", ratio
    exit 1
  }
  printf "profile warm-chain gate: OK (%.2fx fewer optimizer evals, 15/15 chain hits)\n", ratio
}'

echo "ALL CHECKS PASSED"
