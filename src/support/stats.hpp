// Streaming and batch descriptive statistics for experiment aggregation.
#pragma once

#include <cstddef>
#include <vector>

namespace bm {

/// Welford-style streaming accumulator: mean, variance, min, max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;   ///< sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch percentile (linear interpolation); q in [0,1]. Copies and sorts.
double percentile(std::vector<double> values, double q);

/// Pearson correlation of two equal-length series; 0 if degenerate.
double correlation(const std::vector<double>& xs,
                   const std::vector<double>& ys);

}  // namespace bm
