#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace vns::util {

void Summary::add(double value) noexcept {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void Summary::merge(const Summary& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double Summary::variance() const noexcept {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double Summary::stddev() const noexcept { return std::sqrt(variance()); }

double quantile(std::span<const double> samples, double q) {
  std::vector<double> copy(samples.begin(), samples.end());
  return Percentiles{std::move(copy)}.quantile(q);
}

Percentiles::Percentiles(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Percentiles::quantile(double q) const {
  if (sorted_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double position = q * static_cast<double>(sorted_.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  if (lower + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lower] * (1.0 - fraction) + sorted_[lower + 1] * fraction;
}

double Percentiles::fraction_at_most(double threshold) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), threshold);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

std::vector<CurvePoint> empirical_cdf(std::vector<double> samples) {
  std::vector<CurvePoint> curve;
  if (samples.empty()) return curve;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Emit one point per distinct value, at the highest rank of that value.
    if (i + 1 < samples.size() && samples[i + 1] == samples[i]) continue;
    curve.push_back({samples[i], static_cast<double>(i + 1) / n});
  }
  return curve;
}

std::vector<CurvePoint> empirical_ccdf(std::vector<double> samples) {
  auto curve = empirical_cdf(std::move(samples));
  for (auto& point : curve) point.y = 1.0 - point.y;
  return curve;
}

std::vector<CurvePoint> thin_curve(std::span<const CurvePoint> curve, std::size_t max_points) {
  std::vector<CurvePoint> thinned;
  if (curve.empty() || max_points == 0) return thinned;
  if (curve.size() <= max_points) {
    thinned.assign(curve.begin(), curve.end());
    return thinned;
  }
  thinned.reserve(max_points);
  for (std::size_t i = 0; i < max_points; ++i) {
    const auto index = i * (curve.size() - 1) / (max_points - 1);
    thinned.push_back(curve[index]);
  }
  return thinned;
}

}  // namespace vns::util
