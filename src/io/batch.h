// JSONL batch solve service -- the engine behind `deltanc_cli --batch`.
//
// Input: one JSON request object per line:
//   {"schema": N, "scenario": {...}, "options": {...}, "id": <any>}
//   {"schema": N, "scenario": {...}, "epsilons": [...], ...}
// "options" (see io::decode_solve_options) and "id" are optional; blank
// lines are skipped.  Every request is a delay profile: a line with a
// non-empty "epsilons" array asks for that d(epsilon) grid, a line
// without one for the one-level grid [scenario.epsilon].  Output: one
// JSON response per request, streamed in *input order*:
//   {"schema": N, "id": <echoed>, "ok": true,  "cache": "hit"|"miss"|
//    "stale"|"corrupt", "result": {...}}            -- line without
//     (the "cache" field appears only when a         "epsilons": the
//      ResultCache is attached)                      single level
//   {"schema": N, "id": <echoed>, "ok": true,  ["cache"], "profile":
//    {...}}                                         -- line with "epsilons"
//   {"schema": N, "id": <echoed>, "ok": false, "error": "..."}
//                                                    -- unparseable line
// Which of the first two shapes a line gets is decided at encoding
// (make_answer_response) and nowhere else.
//
// Caching: with a ResultCache attached, every request is looked up
// first; hits are answered without solving, and every solved profile is
// stored back.  A scalar line and a one-level profile line of the same
// scenario share one key and one entry.  A stale entry (other library
// version) and a corrupt entry (unreadable bytes) both re-solve and
// overwrite.  The response's "cache" tag is the only record of how an
// answer was obtained: the "result" / "profile" payload is
// byte-identical whichever way it came.
//
// Parallelism: cache misses are grouped by solve options and each group
// is fanned out over a thread pool claiming requests from a shared
// cursor, while responses stay deterministically ordered.
#pragma once

#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "io/result_cache.h"

namespace deltanc {
class Solver;  // e2e/solver.h
}

namespace deltanc::io {

struct BatchOptions {
  /// Worker count for the solve fan-out; 0 = DELTANC_THREADS env or
  /// hardware_concurrency() (ThreadPool::default_thread_count()).
  int threads = 0;
  /// Method used when a request carries no "options" object.
  e2e::Method default_method = e2e::Method::kExactOpt;
  /// Optional persistent cache; nullptr = solve everything.
  ResultCache* cache = nullptr;
  /// Called after each solved (not cached) point, with (done, total)
  /// over the miss set; serialized, `done` strictly increasing.
  std::function<void(std::size_t done, std::size_t total)> progress;
};

/// Totals of one run_batch call.
struct BatchSummary {
  std::int64_t requests = 0;      ///< non-blank input lines
  std::int64_t responses = 0;     ///< response lines written (== requests)
  std::int64_t parse_errors = 0;  ///< lines answered with ok=false
  std::int64_t solved = 0;        ///< answered by running the solver
  std::int64_t cached = 0;        ///< answered from the cache
  std::int64_t failed = 0;        ///< solver threw (response ok=true,
                                  ///<   result carries the +inf bound)
  /// The output stream went bad mid-emission (e.g. the consumer of a
  /// `--batch | head` pipe hung up); remaining responses were not
  /// written.  The CLI turns this into a classified exit code instead
  /// of dying on SIGPIPE.
  bool output_failed = false;
  double wall_ms = 0.0;           ///< end-to-end wall clock
  e2e::SolveStats stats{};        ///< solver work of this run's solves
                                  ///<   (cache hits add nothing; a line
                                  ///<   without "epsilons" adds its
                                  ///<   level's stats, so profile_levels
                                  ///<   counts profile lines only)
  CacheStats cache_stats{};       ///< cache traffic of this run
};

/// Reads JSONL requests from `in`, writes JSONL responses to `out`
/// (nothing else -- `out` stays machine-parseable), returns the totals.
/// A final line without a trailing newline is a request like any other.
BatchSummary run_batch(std::istream& in, std::ostream& out,
                       const BatchOptions& options = {});

// ----- pieces shared with the persistent solve service (src/serve) -------
// The serve workers must answer with responses *byte-identical* to
// run_batch's (scripts/check_serve.sh compares them with cmp), so the
// request grammar and the response layout live here once and are
// consumed by both paths.

/// One parsed request line: the effective scenario (scheduler override
/// folded in), canonical options, its epsilon levels, and the cache key
/// they hash to.
struct ParsedRequestLine {
  json::Value id;          ///< echoed verbatim (null when absent)
  e2e::Scenario scenario;  ///< effective (scheduler override folded in)
  SolveOptions options;    ///< canonical (io::canonicalize_request)
  /// The levels to solve: the line's "epsilons" grid (validated at
  /// parse time, each level in (0, 1)), or [scenario.epsilon] for a
  /// line without one (left to the solve's scenario validation, so an
  /// out-of-range epsilon is a classified answer, not a parse error).
  std::vector<double> epsilons;
  bool carried_epsilons = false;  ///< the line had an "epsilons" array
  std::string key;  ///< io::cache_key(scenario, epsilons, options)

  /// True when the answer goes out under "profile" (the line carried
  /// "epsilons"); false for the single-level "result" shape.
  [[nodiscard]] bool is_profile() const noexcept { return carried_epsilons; }
};

/// Parses one JSONL request line ({"schema", "scenario", "options"?,
/// "id"?}).  @throws on malformed JSON / wrong schema / undecodable
/// payloads; when the document carried a readable "id", the exception
/// is PartialRequestError so error responses can still echo it.
[[nodiscard]] ParsedRequestLine parse_request_line(
    const std::string& line, e2e::Method default_method);

/// A request that failed to parse *after* its "id" was read: carries
/// the id so the error response can echo it.
struct PartialRequestError : std::runtime_error {
  PartialRequestError(const std::string& what, json::Value id_in)
      : std::runtime_error(what), id(std::move(id_in)) {}
  json::Value id;
};

/// Stable wire name of a lookup outcome ("hit"/"miss"/"stale"/"corrupt").
[[nodiscard]] const char* cache_lookup_name(CacheLookup outcome);

/// Outcome of solving one request (solve_profile_request).
struct ProfileAnswer {
  bool ok = true;     ///< false when the scenario failed to validate or
                      ///< the solve threw
  std::string error;  ///< the failure message when !ok
  e2e::DelayProfile profile;  ///< on failure: every level is the
                              ///< classified +inf bound
};

/// Solves one request's levels with SweepRunner's classification
/// discipline (validate first -> kInvalidScenario naming every bad
/// field; a throwing solve -> kNumericalDomain).  It is the one solve
/// step of run_batch and the serve workers, so both paths answer
/// byte-identically.  Failures still produce a full K-level profile of
/// classified +inf bounds, so every answer is ok=true with per-level
/// diagnostics.  A cold level is bit-identical to Solver::solve of the
/// scenario at that epsilon.
[[nodiscard]] ProfileAnswer solve_profile_request(
    const deltanc::Solver& solver, const e2e::Scenario& sc,
    std::span<const double> epsilons);

/// The answer response of a parsed request: make_ok_profile_response
/// when the line carried "epsilons", else make_ok_response of the single
/// level.  The only place the two wire shapes part.
[[nodiscard]] json::Value make_answer_response(const ParsedRequestLine& line,
                                               bool with_cache_tag,
                                               CacheLookup outcome,
                                               const e2e::DelayProfile& answer);

/// The single-level response document ({"schema", "id", "ok": true,
/// ["cache"], "result"}); `with_cache_tag` mirrors "a ResultCache is
/// attached".
[[nodiscard]] json::Value make_ok_response(const json::Value& id,
                                           bool with_cache_tag,
                                           CacheLookup outcome,
                                           const e2e::BoundResult& result);

/// The profile response document ({"schema", "id", "ok": true,
/// ["cache"], "profile"}) -- same layout discipline as make_ok_response
/// with the payload under "profile".
[[nodiscard]] json::Value make_ok_profile_response(
    const json::Value& id, bool with_cache_tag, CacheLookup outcome,
    const e2e::DelayProfile& profile);

/// The error response document ({"schema", "id", "ok": false, "error",
/// ["kind"]}); `kind` (diag::solve_error_name) is emitted by the serve
/// layer for classified service failures (timeout/overload/worker-lost)
/// and omitted (kNone) for plain parse errors, matching run_batch.
[[nodiscard]] json::Value make_error_response(
    const json::Value& id, const std::string& error,
    diag::SolveErrorKind kind = diag::SolveErrorKind::kNone);

}  // namespace deltanc::io
