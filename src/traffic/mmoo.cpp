#include "traffic/mmoo.h"

#include <cmath>
#include <stdexcept>

namespace deltanc::traffic {

MmooSource::MmooSource(double peak_kb, double p11, double p22)
    : peak_(peak_kb), p11_(p11), p22_(p22) {
  if (!(peak_kb > 0.0) || !std::isfinite(peak_kb)) {
    throw std::invalid_argument("MmooSource: peak must be > 0");
  }
  if (!(p11 > 0.0 && p11 < 1.0) || !(p22 > 0.0 && p22 < 1.0)) {
    throw std::invalid_argument("MmooSource: p11, p22 must lie in (0,1)");
  }
  if ((1.0 - p11) + (1.0 - p22) > 1.0 + 1e-12) {
    throw std::invalid_argument(
        "MmooSource: requires p12 + p21 <= 1 (paper's assumption)");
  }
}

MmooSource MmooSource::paper_source() {
  return MmooSource(1.5, 0.989, 0.9);
}

double MmooSource::stationary_on() const noexcept {
  const double p12 = 1.0 - p11_;
  const double p21 = 1.0 - p22_;
  return p12 / (p12 + p21);
}

double MmooSource::mean_rate() const noexcept {
  return peak_ * stationary_on();
}

double MmooSource::effective_bandwidth(double s) const {
  if (!(s > 0.0) || !std::isfinite(s)) {
    throw std::invalid_argument("effective_bandwidth: s must be > 0 finite");
  }
  // Spectral radius of [[p11, p12 e^{sP}], [p21, p22 e^{sP}]]; computed in
  // log space to stay stable for large s (e^{sP} can overflow).
  //   lambda = (b + sqrt(b^2 - 4 c e)) / 2,  b = p11 + p22 e,  c = p11+p22-1,
  // with e = e^{sP}.  Factor out e: b = e (p22 + p11/e) so for large s we
  // evaluate lambda/e and add sP back in log space.
  const double sp = s * peak_;
  const double c = p11_ + p22_ - 1.0;
  if (sp < 30.0) {
    const double e = std::exp(sp);
    const double b = p11_ + p22_ * e;
    const double disc = b * b - 4.0 * c * e;
    const double lambda = 0.5 * (b + std::sqrt(disc));
    return std::log(lambda) / s;
  }
  // lambda / e = (b/e + sqrt((b/e)^2 - 4 c / e)) / 2 with b/e = p22 + p11 e^{-sp}.
  const double inv_e = std::exp(-sp);
  const double b_over_e = p22_ + p11_ * inv_e;
  const double disc = b_over_e * b_over_e - 4.0 * c * inv_e;
  const double lambda_over_e = 0.5 * (b_over_e + std::sqrt(disc));
  return (sp + std::log(lambda_over_e)) / s;
}

EbbTraffic MmooSource::aggregate_ebb(int n, double s) const {
  if (n < 1) {
    throw std::invalid_argument("aggregate_ebb: need at least one flow");
  }
  return EbbTraffic(1.0, static_cast<double>(n) * effective_bandwidth(s), s);
}

}  // namespace deltanc::traffic
