// Streaming and sample-based statistics used by metric collection and the
// trace generators.
#pragma once

#include <cstddef>
#include <vector>

namespace vidur {

/// Welford streaming statistics: O(1) memory mean / variance / extrema.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  ///< population variance; 0 when count < 2
  double stddev() const;
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains every sample; supports exact quantiles. Use it for per-request
/// series (one sample per request); per-token latencies go to
/// LatencyDistribution, whose memory is bounded by the distinct values.
class SampleSeries {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double sum() const;
  double min() const;
  double max() const;
  double stddev() const;

  /// Exact quantile with linear interpolation, q in [0, 1].
  /// Requires a non-empty series. Sorts a copy of the samples per call;
  /// Summary::of sorts once for all its quantiles.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }
  void merge(const SampleSeries& other);

 private:
  std::vector<double> samples_;  ///< insertion order (fixes sum's order)
};

/// Exact run-length multiset of latency samples: each distinct value with
/// its multiplicity, so memory follows the number of distinct values, not
/// the number of samples. Inter-token gaps repeat heavily (every decode
/// request of an iteration emits at the same batch end), which is what makes
/// this compact. count, min, max and quantile() equal SampleSeries's on the
/// same samples bit for bit (same ranks, same interpolation); mean and
/// stddev are summed over the runs in ascending value order, so they do not
/// depend on insertion or merge order.
class LatencyDistribution {
 public:
  void add(double x) { add(x, 1); }
  /// Add every sample of `other` (a different distribution).
  void merge(const LatencyDistribution& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  double stddev() const;  ///< population stddev; 0 when count < 2
  double min() const;     ///< +inf when empty
  double max() const;     ///< -inf when empty
  /// Exact quantile, as SampleSeries::quantile. Requires a non-empty set.
  double quantile(double q) const;
  /// Distinct values held.
  std::size_t num_runs() const { return distinct_; }

 private:
  struct Run {
    double value;
    std::size_t count;  ///< 0 marks an empty hash slot
  };
  void add(double x, std::size_t n);
  void grow();
  /// The runs in ascending value order (cached until the next add).
  const std::vector<Run>& sorted() const;
  /// Value of the `rank`-th smallest sample (0-based).
  double value_at(std::size_t rank) const;

  // Open-addressing hash table keyed on the value's bit pattern: adds are
  // O(1) and equal samples always share one slot.
  std::vector<Run> slots_;
  std::size_t distinct_ = 0;
  std::size_t count_ = 0;
  mutable std::vector<Run> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Compact summary of a series, convenient for reports and CSV rows.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  static Summary of(const SampleSeries& s);
  static Summary of(const LatencyDistribution& d);
};

}  // namespace vidur
