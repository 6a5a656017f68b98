// Memoized effective-bandwidth evaluation for the parameter search.
//
// The nested search of e2e/param_search re-evaluates eb(s) many times at
// the *same* s values: every gamma evaluation inside best_over_gamma uses
// the PathParams built from one s, and the EDF fixed point revisits the
// same coarse-scan s grid on every iteration.  eb(s) itself costs an
// exp/log/sqrt chain per call, so caching exact-key repeats removes the
// bulk of the traffic-model work without perturbing any value: a hit
// returns the identical double that the miss computed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "traffic/mmoo.h"

namespace deltanc::traffic {

/// Exact-match memo over MmooSource::effective_bandwidth.  Keys are the
/// raw double s values (no rounding, no tolerance), so memoized results
/// are bit-identical to direct evaluation.  Not thread-safe; intended as
/// a per-search scratch object.
class EffectiveBandwidthMemo {
 public:
  explicit EffectiveBandwidthMemo(const MmooSource& source)
      : source_(source) {}

  /// eb(s), from the cache when s has been seen before.
  /// @throws std::invalid_argument unless s > 0 (as effective_bandwidth).
  double operator()(double s);

  /// Number of cache misses == distinct s values actually evaluated.
  [[nodiscard]] std::int64_t misses() const noexcept { return misses_; }
  /// Number of cache hits (evaluations saved).
  [[nodiscard]] std::int64_t hits() const noexcept { return hits_; }

  /// The memoized (s, eb(s)) pairs, sorted by s.  Exposed so a warm-start
  /// state can carry the memo across solves of scenarios that share a
  /// source (the values depend only on the source, so re-adopting them is
  /// bit-exact).
  [[nodiscard]] const std::vector<std::pair<double, double>>& entries()
      const noexcept {
    return entries_;
  }

  /// Seeds the memo from a previously exported entries() snapshot.  The
  /// caller asserts the snapshot was produced for an identical source;
  /// adopted pairs behave exactly like locally computed ones (hits on
  /// adopted keys return the identical double a miss would compute).
  void adopt(std::vector<std::pair<double, double>> entries) {
    entries_ = std::move(entries);
  }

 private:
  // A sorted vector beats a hash map at the sizes seen here (tens to a
  // few hundred distinct keys): lookups are a branch-light binary search
  // and the storage is two contiguous allocations.
  static constexpr std::size_t kMaxEntries = 4096;

  const MmooSource& source_;
  std::vector<std::pair<double, double>> entries_;  ///< sorted by s
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace deltanc::traffic
