#!/usr/bin/env bash
# End-to-end guard for the persistent solve service (`deltanc_cli
# --serve`).  Two phases:
#
#  1. Fault phase: warm a cache with one-shot --batch, corrupt one
#     entry on disk, then boot the server on a copy of that cache under
#     a deterministic fault plan (worker crash on its 2nd request +
#     2 s delay on the last id with a 400 ms deadline).  Replay the
#     same requests through serve_load and assert
#       * every request is answered exactly once,
#       * the delayed request gets a classified kind=timeout error,
#       * every surviving response is bit-identical to the one-shot
#         --batch run on the twin cache, "cache" tag included (the
#         injected kill fires before the worker touches the cache, so
#         both runs see the same outcomes),
#       * SIGHUP reloads the warm layer, SIGTERM drains with rc 0,
#       * the stderr narration shows the injected faults were hit
#         (timeout, worker loss, requeue, respawn, corrupt recovery).
#
#  2. Load phase: a clean server, >= 100k mixed cold/warm requests via
#     serve_load (plus the truncated-final-line probe), asserting warm
#     throughput >= 5x cold and a clean drain.
#
# Registered as the `serve_e2e` ctest.
#
# usage: check_serve.sh [deltanc_cli] [serve_load]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="${1:-$ROOT/build/tools/deltanc_cli}"
LOAD="${2:-$ROOT/build/bench/serve_load}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_socket() {  # wait_for_socket <path>
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  echo "FAIL: server never bound $1"; exit 1
}

sort_by_id() {  # sort_by_id <file> -- stable numeric sort on the id field
  awk 'match($0, /"id":[0-9]+/) {
         print substr($0, RSTART + 5, RLENGTH - 5) "\t" $0
       }' "$1" | sort -n | cut -f2-
}

# ---------------------------------------------------------------- phase 1
# The Fig. 2-style operating grid, hops 3 (24 requests, ids 0..23).
"$CLI" --hops 3 --epsilon 1e-6 \
  --sweep uc=0.1:0.8:8 --sweep scheduler=fifo,bmux,edf \
  --emit-batch > "$WORK/requests.jsonl" 2>/dev/null
requests=$(wc -l < "$WORK/requests.jsonl")
if [ "$requests" -ne 24 ]; then
  echo "FAIL: emit-batch produced $requests requests (want 24)"; exit 1
fi
timeout_id=23

# Warm a cache, corrupt one entry, and twin the directory so server and
# golden batch run see the same disk state.
"$CLI" --batch "$WORK/requests.jsonl" --cache-dir "$WORK/cache" \
  > /dev/null 2> /dev/null
victim=$(find "$WORK/cache" -type f -name '*.json' | sort | head -1)
if [ -z "$victim" ]; then
  echo "FAIL: cold batch run left no cache entries to corrupt"; exit 1
fi
printf 'NOT JSON {{{' > "$victim"
cp -a "$WORK/cache" "$WORK/cache_golden"

golden_rc=0
"$CLI" --batch "$WORK/requests.jsonl" --cache-dir "$WORK/cache_golden" \
  > "$WORK/golden.jsonl" 2> "$WORK/golden.err" || golden_rc=$?
if [ "$golden_rc" -ne 3 ]; then
  echo "FAIL: golden batch run rc=$golden_rc (want 3: corrupt recovery)"
  exit 1
fi

SOCK="$WORK/serve.sock"
"$CLI" --serve "$SOCK" --serve-workers 2 --cache-dir "$WORK/cache" \
  --deadline-ms 400 --fault-plan "kill:0:2;delay:${timeout_id}:2000" \
  2> "$WORK/serve.err" &
SERVER_PID=$!
wait_for_socket "$SOCK"

load_rc=0
"$LOAD" --socket "$SOCK" --input "$WORK/requests.jsonl" \
  --output "$WORK/serve.jsonl" --window 8 \
  > "$WORK/replay.out" 2>&1 || load_rc=$?
# rc 3 == every request answered, some with classified errors (the
# injected timeout).  Anything else is a real failure.
if [ "$load_rc" -ne 3 ]; then
  echo "FAIL: replay serve_load rc=$load_rc (want 3: classified errors only)"
  cat "$WORK/replay.out"; exit 1
fi
grep -q "requests=$requests answered=$requests " "$WORK/replay.out" || {
  echo "FAIL: not every request was answered exactly once:"
  cat "$WORK/replay.out"; exit 1
}

# SIGHUP drops the warm layer and reopens the caches.
kill -HUP "$SERVER_PID"
for _ in $(seq 1 50); do
  grep -q "serve: reloaded" "$WORK/serve.err" && break
  sleep 0.1
done
grep -q "serve: reloaded" "$WORK/serve.err" || {
  echo "FAIL: SIGHUP did not trigger a cache reload"; exit 1
}

# Clean drain on SIGTERM (the parked zombie from the delayed request
# makes this wait out the remaining injected delay -- still rc 0).
kill -TERM "$SERVER_PID"
server_rc=0
wait "$SERVER_PID" || server_rc=$?
SERVER_PID=""
if [ "$server_rc" -ne 0 ]; then
  echo "FAIL: server exit rc=$server_rc (want 0: clean drain)"
  cat "$WORK/serve.err"; exit 1
fi

# The delayed request must carry a classified timeout, not a silent
# drop or an unclassified error.
sort_by_id "$WORK/serve.jsonl" > "$WORK/serve.sorted"
timeout_line=$(awk -v id="\"id\":$timeout_id," 'index($0, id)' \
  "$WORK/serve.sorted")
case "$timeout_line" in
  *'"ok":false'*'"kind":"timeout"'*) ;;
  *) echo "FAIL: id $timeout_id response is not a classified timeout:"
     echo "  $timeout_line"; exit 1 ;;
esac

# Every surviving response is bit-identical to the one-shot batch run.
sort_by_id "$WORK/golden.jsonl" > "$WORK/golden.sorted"
exclude_timeout() {
  awk -v id="\"id\":$timeout_id," '!index($0, id)' "$1"
}
exclude_timeout "$WORK/serve.sorted" > "$WORK/serve.survivors"
exclude_timeout "$WORK/golden.sorted" > "$WORK/golden.survivors"
if ! cmp -s "$WORK/serve.survivors" "$WORK/golden.survivors"; then
  echo "FAIL: serve responses differ from one-shot --batch:"
  diff "$WORK/golden.survivors" "$WORK/serve.survivors" | head -10
  exit 1
fi
echo "serve_e2e: $((requests - 1)) surviving responses bit-identical to --batch"

# The narration must show every injected fault was actually exercised.
stat_field() {  # stat_field <prefix> <key>
  grep "^$1" "$WORK/serve.err" | tr ' ' '\n' | sed -n "s/^$2=//p" | head -1
}
timeouts=$(stat_field "serve: timeouts" timeouts)
losses=$(stat_field "serve: timeouts" worker_losses)
requeues=$(stat_field "serve: timeouts" requeues)
respawns=$(stat_field "serve: timeouts" respawns)
corrupt=$(stat_field "cache: dir" corrupt)
awk -v t="$timeouts" -v l="$losses" -v q="$requeues" -v r="$respawns" \
    -v c="$corrupt" 'BEGIN {
  if (t != 1)  { printf "FAIL: timeouts=%d (want 1)\n", t; exit 1 }
  if (l < 1)   { printf "FAIL: worker_losses=%d (want >= 1)\n", l; exit 1 }
  if (q < 1)   { printf "FAIL: requeues=%d (want >= 1)\n", q; exit 1 }
  if (r < 1)   { printf "FAIL: respawns=%d (want >= 1)\n", r; exit 1 }
  if (c < 1)   { printf "FAIL: corrupt=%d (want >= 1)\n", c; exit 1 }
  printf "serve_e2e: faults exercised (timeouts=%d losses=%d requeues=%d respawns=%d corrupt=%d)\n",
         t, l, q, r, c
}'

# ---------------------------------------------------------------- phase 2
SOCK2="$WORK/load.sock"
"$CLI" --serve "$SOCK2" --serve-workers 4 --cache-dir "$WORK/load_cache" \
  2> "$WORK/load_serve.err" &
SERVER_PID=$!
wait_for_socket "$SOCK2"

# A second instance must refuse to steal the live server's socket (it
# probes with a connect before unlinking); the incumbent keeps serving.
second_rc=0
"$CLI" --serve "$SOCK2" --serve-workers 1 2> "$WORK/second.err" \
  || second_rc=$?
if [ "$second_rc" -eq 0 ]; then
  echo "FAIL: second --serve instance on a live socket exited rc 0"; exit 1
fi
grep -q "refusing to replace" "$WORK/second.err" || {
  echo "FAIL: second instance did not refuse the live socket:"
  cat "$WORK/second.err"; exit 1
}
echo "serve_e2e: second instance refused the live socket (rc=$second_rc)"

# --hangup-probe: a connection that dies without reading its responses
# must not wedge the drain below (the historical failure mode: EPIPE in
# the response writer leaked the outstanding count and SIGTERM hung).
bench_rc=0
"$LOAD" --socket "$SOCK2" --requests 100000 --unique 64 --window 64 \
  --truncate-probe --hangup-probe > "$WORK/load.out" 2>&1 || bench_rc=$?
if [ "$bench_rc" -ne 0 ]; then
  echo "FAIL: load bench rc=$bench_rc:"; cat "$WORK/load.out"; exit 1
fi
cat "$WORK/load.out"

ratio=$(grep -o 'warm_cold_ratio=[0-9.]*' "$WORK/load.out" | cut -d= -f2)
awk -v ratio="${ratio:-0}" 'BEGIN {
  if (ratio < 5) {
    printf "FAIL: warm/cold throughput ratio %.1f (want >= 5)\n", ratio
    exit 1
  }
  printf "serve_e2e: warm throughput %.1fx cold\n", ratio
}'

kill -TERM "$SERVER_PID"
server_rc=0
wait "$SERVER_PID" || server_rc=$?
SERVER_PID=""
if [ "$server_rc" -ne 0 ]; then
  echo "FAIL: load server exit rc=$server_rc (want 0: clean drain)"
  cat "$WORK/load_serve.err"; exit 1
fi
echo "serve_e2e: clean SIGTERM drains on both servers"
