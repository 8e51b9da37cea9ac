// Descriptive statistics used throughout the measurement harness:
// running summaries, percentiles and empirical CDF/CCDF curves (the paper's
// figures 3, 6, 9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vns::util {

/// Incremental summary (Welford) — numerically stable mean/variance plus
/// min/max, without storing the samples.
class Summary {
 public:
  void add(double value) noexcept;
  void merge(const Summary& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Quantile of a sample set with linear interpolation (type-7, the R/NumPy
/// default). `q` in [0,1]. Sorts a copy; prefer Percentiles for repeated use.
[[nodiscard]] double quantile(std::span<const double> samples, double q);

/// Sorted-sample wrapper answering many quantile/fraction queries cheaply.
class Percentiles {
 public:
  explicit Percentiles(std::vector<double> samples);

  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] std::size_t count() const noexcept { return sorted_.size(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Fraction of samples <= threshold: the empirical CDF at `threshold`.
  [[nodiscard]] double fraction_at_most(double threshold) const noexcept;
  /// Fraction of samples > threshold: the empirical CCDF at `threshold`.
  [[nodiscard]] double fraction_above(double threshold) const noexcept {
    return 1.0 - fraction_at_most(threshold);
  }
  [[nodiscard]] const std::vector<double>& sorted() const noexcept { return sorted_; }

 private:
  std::vector<double> sorted_;
};

/// One (x, y) point on an empirical distribution curve.
struct CurvePoint {
  double x = 0.0;
  double y = 0.0;
};

/// Empirical CDF evaluated at each distinct sample value.
[[nodiscard]] std::vector<CurvePoint> empirical_cdf(std::vector<double> samples);

/// Empirical CCDF (P[X > x]) evaluated at each distinct sample value.
[[nodiscard]] std::vector<CurvePoint> empirical_ccdf(std::vector<double> samples);

/// Downsamples a curve to at most `max_points` for compact printing,
/// always keeping the first and last points.
[[nodiscard]] std::vector<CurvePoint> thin_curve(std::span<const CurvePoint> curve,
                                                 std::size_t max_points);

}  // namespace vns::util
