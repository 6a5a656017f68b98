// Structured solver diagnostics: every solve is classifiable instead of
// failing through ad-hoc exception strings or silently-accepted flags.
//
// Three pieces, shared by the whole stack:
//   * SolveErrorKind -- the closed taxonomy of ways a solve can go wrong
//     (malformed input, unstable load, fixed point stalled, numerics left
//     their domain), carried in e2e::BoundResult::diagnostics and
//     aggregated per kind by SweepReport::counts_by_kind().
//   * Diagnostics -- the per-solve channel: at most one fatal error plus
//     any number of warnings (a warning means the result is usable but a
//     recovery or concession happened, e.g. an EDF fixed point that ran
//     out of iterations).
//   * ValidationReport -- scenario validation that collects *all*
//     violations in one pass (Scenario::validate()), so error messages
//     name every bad field instead of the first one found.
//
// Everything needed by the solver layer (src/e2e) is defined inline so
// this header creates no link-time dependency on deltanc_core; only the
// aggregation/rendering helpers live in diagnostics.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace deltanc::diag {

/// Closed classification of solve failures and concessions.
enum class SolveErrorKind {
  kNone = 0,          ///< no classification (healthy solve)
  kInvalidScenario,   ///< malformed input (caught by validation)
  kUnstable,          ///< offered load >= capacity; bound is +inf by theory
  kNoConvergence,     ///< an iteration (EDF fixed point) exhausted its budget
  kNumericalDomain,   ///< numerics left their domain (overflow, empty bracket)
  // Service-level kinds (src/serve): ways a *request* can fail even
  // though the solver itself is healthy.
  kTimeout,           ///< a per-request deadline expired before the answer
  kOverload,          ///< rejected by backpressure (bounded queue was full)
  kWorkerLost,        ///< the worker died mid-request; retries exhausted
};

/// Number of distinct SolveErrorKind values (for per-kind count arrays).
inline constexpr std::size_t kSolveErrorKinds = 8;

/// Stable machine-friendly name ("invalid-scenario", "unstable", ...).
[[nodiscard]] constexpr const char* solve_error_name(SolveErrorKind kind) {
  switch (kind) {
    case SolveErrorKind::kNone:
      return "none";
    case SolveErrorKind::kInvalidScenario:
      return "invalid-scenario";
    case SolveErrorKind::kUnstable:
      return "unstable";
    case SolveErrorKind::kNoConvergence:
      return "no-convergence";
    case SolveErrorKind::kNumericalDomain:
      return "numerical-domain";
    case SolveErrorKind::kTimeout:
      return "timeout";
    case SolveErrorKind::kOverload:
      return "overload";
    case SolveErrorKind::kWorkerLost:
      return "worker-lost";
  }
  return "?";
}

/// Inverse of solve_error_name; returns false on unknown names.  Used by
/// the JSON codec (src/io/codec.h) to decode persisted diagnostics.
[[nodiscard]] constexpr bool solve_error_from_name(std::string_view name,
                                                   SolveErrorKind& out) {
  for (std::size_t i = 0; i < kSolveErrorKinds; ++i) {
    const auto kind = static_cast<SolveErrorKind>(i);
    if (name == solve_error_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

/// One non-fatal diagnostic attached to an otherwise usable result.
struct Warning {
  SolveErrorKind kind = SolveErrorKind::kNone;
  std::string message;
};

/// Per-solve diagnostics channel, carried in e2e::BoundResult.
struct Diagnostics {
  SolveErrorKind error = SolveErrorKind::kNone;  ///< fatal classification
  std::string message;                           ///< human detail for `error`
  std::vector<Warning> warnings;                 ///< non-fatal concessions

  /// No fatal error (warnings may still be present).
  [[nodiscard]] bool ok() const noexcept {
    return error == SolveErrorKind::kNone;
  }
  /// No fatal error and no warnings.
  [[nodiscard]] bool clean() const noexcept { return ok() && warnings.empty(); }

  void fail(SolveErrorKind kind, std::string detail) {
    error = kind;
    message = std::move(detail);
  }
  void warn(SolveErrorKind kind, std::string detail) {
    warnings.push_back(Warning{kind, std::move(detail)});
  }
};

/// One violated constraint of a scenario: which field, what is wrong.
struct Violation {
  SolveErrorKind kind = SolveErrorKind::kInvalidScenario;
  std::string field;    ///< "capacity", "hops", "epsilon", ...
  std::string message;  ///< "must be > 0 (got -3)"
};

/// Result of Scenario::validate(): every violation, not just the first.
/// kInvalidScenario / kNumericalDomain entries make the scenario
/// unsolvable (ok() == false); kUnstable entries mark a well-formed but
/// overloaded scenario whose bound is +inf (ok() stays true so the solver
/// can still classify it).
class ValidationReport {
 public:
  void add(SolveErrorKind kind, std::string field, std::string message) {
    violations_.push_back(
        Violation{kind, std::move(field), std::move(message)});
  }

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }

  /// Count of violations that make the scenario unsolvable.
  [[nodiscard]] std::size_t error_count() const noexcept {
    std::size_t n = 0;
    for (const Violation& v : violations_) {
      n += (v.kind != SolveErrorKind::kUnstable) ? 1 : 0;
    }
    return n;
  }

  /// True when the scenario is well-formed (it may still be unstable).
  [[nodiscard]] bool ok() const noexcept { return error_count() == 0; }
  /// True when no kUnstable violation was recorded.
  [[nodiscard]] bool stable() const noexcept {
    for (const Violation& v : violations_) {
      if (v.kind == SolveErrorKind::kUnstable) return false;
    }
    return true;
  }

  /// All violations joined as "field: message; field: message; ...".
  [[nodiscard]] std::string message() const {
    std::string out;
    for (const Violation& v : violations_) {
      if (!out.empty()) out += "; ";
      out += v.field;
      out += ": ";
      out += v.message;
    }
    return out;
  }

  /// @throws std::invalid_argument naming every unsolvable violation in
  /// one message ("who: field: msg; field: msg").  No-op when ok().
  void throw_if_invalid(const char* who) const {
    if (ok()) return;
    std::string out;
    for (const Violation& v : violations_) {
      if (v.kind == SolveErrorKind::kUnstable) continue;
      if (!out.empty()) out += "; ";
      out += v.field;
      out += ": ";
      out += v.message;
    }
    throw std::invalid_argument(std::string(who) + ": " + out);
  }

 private:
  std::vector<Violation> violations_;
};

/// Per-kind tallies of errors and warnings across a sweep -- the
/// aggregation behind SweepReport::counts_by_kind().
struct ErrorCounts {
  std::array<std::size_t, kSolveErrorKinds> errors{};
  std::array<std::size_t, kSolveErrorKinds> warnings{};

  /// Tallies one solve's diagnostics (its error kind and every warning).
  void record(const Diagnostics& d);
  void record_error(SolveErrorKind kind);

  [[nodiscard]] std::size_t total_errors() const noexcept;
  [[nodiscard]] std::size_t total_warnings() const noexcept;

  /// Nonzero kinds as "unstable=2 no-convergence(warn)=1"; "" when clean.
  [[nodiscard]] std::string summary() const;

  ErrorCounts& operator+=(const ErrorCounts& other) noexcept;
};

}  // namespace deltanc::diag
