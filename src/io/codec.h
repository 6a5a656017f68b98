// Schema-versioned JSON codec for the library's value types: scenarios,
// sweep grids, solve results (with their stats and diagnostics), and
// whole sweep reports round-trip through io::json::Value losslessly --
// doubles bit-exactly (including +/-inf and NaN), enums by their stable
// string names.
//
// Versioning: every top-level document (scenario file, grid file, report
// file, cache entry, batch request/response) carries a "schema" field
// equal to kSchemaVersion.  Decoders reject documents with a different
// schema (SchemaError); nested values (a scenario inside a report) carry
// no redundant schema field.  The persistent cache additionally keeps
// each schema's entries in their own `v<schema>/` directory, so a bump
// never even opens an older entry (io/result_cache.h).
//
// Canonicalization: encoders emit fields in a fixed documented order and
// the compact dump() is byte-stable for a given input, so cache_key() --
// the compact dump of (scenario, solve options, epsilon levels) -- is a
// canonical content hash input.
//
// Answers, not provenance: an encoded BoundResult / DelayProfile is a
// pure function of the solve's inputs.  How an answer was obtained (the
// cache outcome, wall-clock timings) is recorded beside it by the layers
// above -- the response's "cache" tag, CacheStats -- never inside it.
#pragma once

#include <span>

#include "core/sweep.h"
#include "e2e/solver.h"
#include "io/json.h"

namespace deltanc::io {

/// Version of the wire format produced by the encoders below.  Bump on
/// any change that alters the meaning or layout of encoded documents;
/// cached results from other schema versions are re-solved.
/// History: 1 = scheduler as bare kind name + top-level scenario "edf"
/// object; 2 = scheduler as a full SchedulerSpec object {kind, delta,
/// edf} (the "edf" factors moved inside it); 3 = scheduler object gains
/// the "params" class-weight array (curve-backed kinds gps/drr/sced);
/// 4 = solve options gain "warm_start"; 5 = cache keys gain a "kind"
/// discriminator ("solve" / "profile") and delay-profile documents
/// (epsilons, levels, stats with the profile_* counters) join the wire
/// format; 6 = stats lose their provenance fields (the per-result
/// cache-outcome counters and the scan/refine wall-clock timings) and
/// cache entries move under a per-schema `v6/` directory; 7 = one answer
/// type: a scalar request is a one-level profile, so cache keys lose the
/// "kind" discriminator (every key names its epsilon levels) and every
/// cache entry holds a delay profile.
inline constexpr int kSchemaVersion = 7;

/// A structurally valid JSON document that does not decode as the
/// requested type (missing/mistyped fields, unknown enum names, bad
/// schema).  SchemaError is the "wrong schema version" special case.
struct CodecError : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct SchemaError : CodecError {
  using CodecError::CodecError;
};

// ----- doubles (bit-exact, non-finite-safe) ------------------------------

/// Finite doubles encode as JSON numbers (17 significant digits: parses
/// back to the identical bits); +/-inf and NaN encode as the strings
/// "inf" / "-inf" / "nan".
[[nodiscard]] json::Value encode_double(double v);
/// Accepts numbers plus the non-finite strings above; also accepts any
/// strtod-parseable string (e.g. C99 hexfloat "0x1.6p+4") so hand-written
/// documents can pin exact bits.  @throws CodecError otherwise.
[[nodiscard]] double decode_double(const json::Value& v);

// ----- value types -------------------------------------------------------

// Field orders (canonical):
//   Scenario:   capacity, hops, source{peak_kb, p11, p22}, n_through,
//               n_cross, epsilon,
//               scheduler{kind, delta, edf{own_factor, cross_factor}}
//   SolveStats: optimize_evals, eb_evals, sigma_evals, edf_iterations,
//               edf_converged, retries, fallbacks, batched_evals,
//               warm_start_hits, brackets_reused, profile_levels,
//               profile_chain_hits (deterministic solver work only: the
//               scan_ms / refine_ms timings stay in process)
//   Diagnostics: error, message, warnings[{kind, message}]
//   BoundResult: delay_ms, gamma, s, sigma, delta, stats, diagnostics
//   SweepPoint:  scenario, bound, solve_ms, ok, error
// Decoders tolerate *absent* optional fields (stats/diagnostics default)
// but reject mistyped or unknown-enum values.

[[nodiscard]] json::Value encode_scenario(const e2e::Scenario& sc);
[[nodiscard]] e2e::Scenario decode_scenario(const json::Value& v);

[[nodiscard]] json::Value encode_solve_stats(const e2e::SolveStats& stats);
[[nodiscard]] e2e::SolveStats decode_solve_stats(const json::Value& v);

[[nodiscard]] json::Value encode_diagnostics(const diag::Diagnostics& d);
[[nodiscard]] diag::Diagnostics decode_diagnostics(const json::Value& v);

[[nodiscard]] json::Value encode_bound_result(const e2e::BoundResult& r);
[[nodiscard]] e2e::BoundResult decode_bound_result(const json::Value& v);

/// Delay profile d(epsilon): canonical fields "epsilons" (array of
/// bit-exact doubles), "levels" (array of BoundResult objects, same
/// length, levels[i] solves epsilons[i]) and "stats" (the aggregate,
/// including profile_levels / profile_chain_hits).  The decoder rejects
/// mismatched epsilons/levels lengths.
[[nodiscard]] json::Value encode_delay_profile(const e2e::DelayProfile& p);
[[nodiscard]] e2e::DelayProfile decode_delay_profile(const json::Value& v);

[[nodiscard]] json::Value encode_sweep_point(const SweepPoint& p);
[[nodiscard]] SweepPoint decode_sweep_point(const json::Value& v);

/// Top-level document ("schema", "threads", "wall_ms", "solve_ms",
/// "stats", "points").
[[nodiscard]] json::Value encode_sweep_report(const SweepReport& report);
[[nodiscard]] SweepReport decode_sweep_report(const json::Value& v);

/// Top-level document ("schema", "base", "axes": [{name, values}]).
/// Axis values are the raw ones given to the *_axis calls (utilization
/// axes keep their fractions), so decoding replays the same calls on the
/// same base and reproduces every grid point bit-for-bit.
[[nodiscard]] json::Value encode_sweep_grid(const SweepGrid& grid);
[[nodiscard]] SweepGrid decode_sweep_grid(const json::Value& v);

// ----- solve options and the cache key -----------------------------------

/// Canonical fields: method, scheduler (or null), delta (or null),
/// max_edf_restarts, warm_start.
[[nodiscard]] json::Value encode_solve_options(const SolveOptions& options);
[[nodiscard]] SolveOptions decode_solve_options(const json::Value& v);

/// Folds away what cannot change a request's answer: the scheduler
/// override moves into the scenario ("FIFO scenario overridden to EDF"
/// and "EDF scenario" solve identically), and a request of `levels` == 1
/// solves cold -- warm_start only changes how levels after the first
/// reuse the chain, so a scalar request and a one-level profile are the
/// same cold solve.
void canonicalize_request(e2e::Scenario& sc, SolveOptions& options,
                          std::size_t levels);

/// The canonical cache key for "this scenario's delay profile over these
/// epsilon levels under these options": the compact dump of
/// {"scenario", "options", "epsilons"} after canonicalize_request, with
/// the scenario's own epsilon pinned to the first level (a profile
/// solves the levels, never the scenario's epsilon, so two requests
/// differing only there share the entry).  A scalar request is the
/// one-level profile [scenario.epsilon].  Two requests get the same key
/// iff the codec cannot distinguish their inputs; epsilons keep their
/// order (the levels are positional).  The schema version is not part
/// of the key: it names the cache's epoch directory instead.
[[nodiscard]] std::string cache_key(const e2e::Scenario& sc,
                                    std::span<const double> epsilons,
                                    const SolveOptions& options);

// ----- helpers shared by the cache / batch layers ------------------------

/// @throws SchemaError unless v is an object whose "schema" equals
/// kSchemaVersion.
void require_schema(const json::Value& v);

/// Scheduler identity <-> JSON.  Encodes the full spec as an object
/// {"kind": "<name>", "delta": <double>, "edf": {"own_factor",
/// "cross_factor"}, "params": [<w>, ...]}; every field is always emitted
/// so the compact dump is byte-stable.  The decoder also accepts the
/// canonical name strings ("fifo", ..., "delta:<value>", "gps:1,2") for
/// hand-written documents and the schema-1/2 object forms (absent
/// "params" means the default equal two-class split).  An unknown kind
/// name throws SchemaError -- a newer producer's registry, not
/// corruption -- so the cache classifies such entries as stale.
[[nodiscard]] json::Value encode_scheduler(const sched::SchedulerSpec& s);
[[nodiscard]] sched::SchedulerSpec decode_scheduler(const json::Value& v);

[[nodiscard]] json::Value encode_method(e2e::Method m);
[[nodiscard]] e2e::Method decode_method(const json::Value& v);

}  // namespace deltanc::io
