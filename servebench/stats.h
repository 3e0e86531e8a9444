#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

// Percentile math for the serving benchmark. Client-side percentiles come
// from the recorded samples themselves (Samples), never from the serving
// stack's power-of-two LatencyHistogram, whose bucket edges can be off by
// 2x. Span durations, which are too many to keep, go into a log-linear
// histogram whose reported values are within 0.4% of a recorded sample.
// A run reports the median of its per-slice values (SliceMedian).

namespace servebench {

// A percentile read together with the evidence behind it: how many samples
// it was computed from and how many lie strictly above it.
struct Percentile {
  double value = 0.0;
  uint64_t count = 0;
  uint64_t beyond = 0;
};

// 1-based nearest rank of quantile q over n samples: ceil(q * n), clamped
// to [1, n].
inline uint64_t NearestRank(double q, uint64_t n) {
  const double target = q * static_cast<double>(n);
  uint64_t rank = static_cast<uint64_t>(target);
  if (static_cast<double>(rank) < target) {
    ++rank;
  }
  return std::clamp<uint64_t>(rank, 1, n);
}

// Exact nearest-rank percentiles over every recorded sample.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }

  // The smallest sample x such that at least ceil(q * n) samples are <= x
  // (q in (0, 1]); zero when empty.
  Percentile At(double q) {
    Percentile p;
    p.count = values_.size();
    if (values_.empty()) {
      return p;
    }
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const uint64_t rank = NearestRank(q, values_.size());
    p.value = values_[rank - 1];
    p.beyond = static_cast<uint64_t>(
        values_.end() -
        std::upper_bound(values_.begin(), values_.end(), p.value));
    return p;
  }

  // Drops every sample and the memory that held them.
  void Clear() {
    std::vector<double>().swap(values_);
    sorted_ = true;
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

// Log-linear histogram over non-negative integers (nanoseconds). Values
// below 2^kSubBits get their own bucket; above that every power of two is
// split into 2^kSubBits equal sub-buckets, so a bucket is at most 1/128 of
// its lower edge wide and its midpoint is within 0.4% of any sample in it.
class LogLinearHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  static size_t Index(uint64_t v) {
    if (v < kSub) {
      return static_cast<size_t>(v);
    }
    const int exponent = 63 - std::countl_zero(v);  // >= kSubBits.
    const int shift = exponent - kSubBits;
    const uint64_t sub = (v >> shift) - kSub;
    return static_cast<size_t>(kSub + static_cast<uint64_t>(shift) * kSub +
                               sub);
  }
  static uint64_t Lower(size_t index) {
    if (index < kSub) {
      return index;
    }
    const uint64_t group = (index - kSub) / kSub;
    const uint64_t sub = (index - kSub) % kSub;
    return (kSub + sub) << group;
  }
  static uint64_t Width(size_t index) {
    return index < kSub ? 1 : uint64_t{1} << ((index - kSub) / kSub);
  }

  void Add(uint64_t v) {
    const size_t index = Index(v);
    if (index >= counts_.size()) {
      counts_.resize(index + 1, 0);
    }
    ++counts_[index];
    ++count_;
    sum_ += static_cast<double>(v);
  }

  void Merge(const LogLinearHistogram& other) {
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  // Nearest-rank percentile reported at the midpoint of its bucket;
  // `beyond` counts the samples in higher buckets.
  Percentile At(double q) const {
    Percentile p;
    p.count = count_;
    if (count_ == 0) {
      return p;
    }
    const uint64_t rank = NearestRank(q, count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        p.value = static_cast<double>(Lower(i)) +
                  static_cast<double>(Width(i) - 1) / 2.0;
        p.beyond = count_ - seen;
        return p;
      }
    }
    return p;
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

// A run's end-to-end figure from its per-slice figures: the median slice.
// Each slice is a short, independent sample of the SUT at one point of the
// run, so a stall of the host spoils only the minority of slices it hits,
// while a change to the SUT that moves most slices (whether from the first
// slice on or only once state has grown) moves the median.
inline double SliceMedian(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The same for a latency percentile computed exactly within each slice: the
// median slice's percentile (the lower median for an even count), with that
// slice's sample count and samples beyond it as the evidence.
inline Percentile SliceMedian(std::vector<Percentile> per_slice) {
  if (per_slice.empty()) {
    return Percentile();
  }
  std::sort(per_slice.begin(), per_slice.end(),
            [](const Percentile& a, const Percentile& b) {
              return a.value < b.value;
            });
  return per_slice[(per_slice.size() - 1) / 2];
}

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
