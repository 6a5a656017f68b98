#!/usr/bin/env bash
# End-to-end guard for the batch service + persistent result cache:
# emit the Fig. 2 sweep grid as a JSONL request file, run it cold and
# then warm against a fresh cache directory, and assert
#   * both stdouts are pure JSONL (every line parses via --lint-jsonl),
#   * the warm run answers >= 95% of requests from the cache,
#   * the warm run's internal wall clock is >= 5x faster than the cold
#     one (internal wall_ms, so process startup does not blur the ratio),
#   * every warm response is byte-identical to its cold one with the
#     cold "cache":"miss" tag read as the expected "hit" (bit-exact
#     result round-trip through the cache, and every tag asserted).
# Registered as the `batch_e2e` ctest.
#
# usage: check_batch.sh [deltanc_cli]
set -euo pipefail

CLI="${1:-$(cd "$(dirname "$0")/.." && pwd)/build/tools/deltanc_cli}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# The Fig. 2 operating grid (hops 5, eps 1e-6, Uc x scheduler).
"$CLI" --hops 5 --epsilon 1e-6 \
  --sweep uc=0.1:0.8:8 --sweep scheduler=fifo,bmux,edf \
  --emit-batch > "$WORK/requests.jsonl" 2>/dev/null
requests=$(wc -l < "$WORK/requests.jsonl")
if [ "$requests" -lt 24 ]; then
  echo "FAIL: emit-batch produced $requests requests (want 24)"; exit 1
fi
"$CLI" --lint-jsonl "$WORK/requests.jsonl" 2>/dev/null

cold_err="$WORK/cold.err"
warm_err="$WORK/warm.err"
"$CLI" --batch "$WORK/requests.jsonl" --cache-dir "$WORK/cache" \
  > "$WORK/cold.jsonl" 2> "$cold_err"
"$CLI" --batch "$WORK/requests.jsonl" --cache-dir "$WORK/cache" \
  > "$WORK/warm.jsonl" 2> "$warm_err"

# stdout purity: every response line must survive the strict linter.
"$CLI" --lint-jsonl "$WORK/cold.jsonl" 2>/dev/null
"$CLI" --lint-jsonl "$WORK/warm.jsonl" 2>/dev/null

summary_field() {  # summary_field <file> <key>
  grep '^batch:' "$1" | tr ' ' '\n' | sed -n "s/^$2=//p"
}

cold_ms=$(summary_field "$cold_err" wall_ms)
warm_ms=$(summary_field "$warm_err" wall_ms)
warm_cached=$(summary_field "$warm_err" cached)

awk -v req="$requests" -v cached="$warm_cached" \
    -v cold="$cold_ms" -v warm="$warm_ms" 'BEGIN {
  if (cached < 0.95 * req) {
    printf "FAIL: warm run cached %d/%d (< 95%%)\n", cached, req; exit 1
  }
  if (warm * 5 > cold) {
    printf "FAIL: warm run %.3f ms vs cold %.3f ms (< 5x speedup)\n",
           warm, cold; exit 1
  }
  printf "batch_e2e: %d/%d cached, %.1fx speedup (%.1f ms -> %.2f ms)\n",
         cached, req, cold / warm, cold, warm
}'

# Results served from the cache must be bit-identical to the solved
# ones.  The "cache" tag is the only provenance on a response, so the
# warm run must be exactly the cold run with every miss turned into a
# hit -- a stricter compare than stripping the tag.
sed 's/"cache":"miss"/"cache":"hit"/' "$WORK/cold.jsonl" > "$WORK/expected.jsonl"
if ! cmp -s "$WORK/expected.jsonl" "$WORK/warm.jsonl"; then
  echo "FAIL: warm responses differ from cold ones beyond the cache tag"
  diff "$WORK/expected.jsonl" "$WORK/warm.jsonl" | head -5
  exit 1
fi
echo "batch_e2e: cold/warm responses bit-identical"
