#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace vidur {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  return count_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double RunningStats::max() const {
  return count_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ = (n1 * mean_ + n2 * other.mean_) / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double SampleSeries::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double SampleSeries::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleSeries::min() const {
  if (samples_.empty()) return std::numeric_limits<double>::infinity();
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSeries::max() const {
  if (samples_.empty()) return -std::numeric_limits<double>::infinity();
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSeries::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

void SampleSeries::merge(const SampleSeries& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

namespace {

/// Exact quantile of ascending, non-empty `sorted`, linearly interpolated.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  VIDUR_CHECK(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> sorted_copy(const std::vector<double>& samples) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

template <class Series, class Quantile>
Summary summarize(const Series& s, const Quantile& quantile) {
  Summary out;
  out.count = s.count();
  if (s.empty()) return out;
  out.mean = s.mean();
  out.stddev = s.stddev();
  out.min = s.min();
  out.p50 = quantile(0.50);
  out.p90 = quantile(0.90);
  out.p95 = quantile(0.95);
  out.p99 = quantile(0.99);
  out.max = s.max();
  return out;
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Home slot of `x` in a table of `capacity` (a power of two) slots.
std::size_t home_slot(double x, std::size_t capacity) {
  return static_cast<std::size_t>((bits_of(x) * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - std::countr_zero(capacity)));
}

}  // namespace

double SampleSeries::quantile(double q) const {
  VIDUR_CHECK_MSG(!samples_.empty(), "quantile of an empty series");
  return sorted_quantile(sorted_copy(samples_), q);
}

void LatencyDistribution::add(double x, std::size_t n) {
  if (slots_.empty()) slots_.assign(64, Run{0.0, 0});
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home_slot(x, slots_.size());; i = (i + 1) & mask) {
    Run& slot = slots_[i];
    if (slot.count == 0) {
      slot = Run{x, n};
      if (++distinct_ * 2 > slots_.size()) grow();
      break;
    }
    if (bits_of(slot.value) == bits_of(x)) {
      slot.count += n;
      break;
    }
  }
  count_ += n;
  sorted_valid_ = false;
}

void LatencyDistribution::grow() {
  std::vector<Run> old(slots_.size() * 2, Run{0.0, 0});
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Run& run : old) {
    if (run.count == 0) continue;
    std::size_t i = home_slot(run.value, slots_.size());
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = run;
  }
}

void LatencyDistribution::merge(const LatencyDistribution& other) {
  VIDUR_CHECK_MSG(&other != this, "a distribution cannot merge itself");
  for (const Run& run : other.slots_)
    if (run.count != 0) add(run.value, run.count);
}

const std::vector<LatencyDistribution::Run>& LatencyDistribution::sorted()
    const {
  if (!sorted_valid_) {
    sorted_.clear();
    sorted_.reserve(distinct_);
    for (const Run& run : slots_)
      if (run.count != 0) sorted_.push_back(run);
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Run& a, const Run& b) { return a.value < b.value; });
    sorted_valid_ = true;
  }
  return sorted_;
}

double LatencyDistribution::mean() const {
  if (count_ == 0) return 0.0;
  double sum = 0.0;
  for (const Run& r : sorted()) sum += r.value * static_cast<double>(r.count);
  return sum / static_cast<double>(count_);
}

double LatencyDistribution::stddev() const {
  if (count_ < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (const Run& r : sorted())
    acc += static_cast<double>(r.count) * (r.value - m) * (r.value - m);
  return std::sqrt(acc / static_cast<double>(count_));
}

double LatencyDistribution::min() const {
  if (count_ == 0) return std::numeric_limits<double>::infinity();
  return sorted().front().value;
}

double LatencyDistribution::max() const {
  if (count_ == 0) return -std::numeric_limits<double>::infinity();
  return sorted().back().value;
}

double LatencyDistribution::value_at(std::size_t rank) const {
  for (const Run& r : sorted()) {
    if (rank < r.count) return r.value;
    rank -= r.count;
  }
  VIDUR_CHECK_MSG(false, "rank " << rank << " beyond the distribution");
  return 0.0;
}

double LatencyDistribution::quantile(double q) const {
  VIDUR_CHECK_MSG(count_ > 0, "quantile of an empty distribution");
  VIDUR_CHECK(q >= 0.0 && q <= 1.0);
  if (count_ == 1) return sorted().front().value;
  // SampleSeries::quantile's ranks and interpolation, term for term.
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  return value_at(lo) * (1.0 - frac) + value_at(hi) * frac;
}

Summary Summary::of(const SampleSeries& s) {
  // One sorted copy serves every quantile and is freed on return.
  const std::vector<double> sorted = sorted_copy(s.samples());
  return summarize(s, [&](double q) { return sorted_quantile(sorted, q); });
}

Summary Summary::of(const LatencyDistribution& d) {
  return summarize(d, [&](double q) { return d.quantile(q); });
}

}  // namespace vidur
