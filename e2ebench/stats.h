#ifndef XCRYPT_E2EBENCH_STATS_H_
#define XCRYPT_E2EBENCH_STATS_H_

// Arithmetic helpers of the end-to-end benchmark, kept free of xcrypt
// types so stats_test.cc can check them without hosting anything: the
// percentile rule, the host-steal filter, the per-query layer residual,
// and the one-line JSON result the benchmark prints last.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace xcrypt {
namespace e2ebench {

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; below that it is one or two outliers, not a tail.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank quantile: the ceil(q*n)-th smallest sample (q in (0, 1]).
/// 0 for an empty sample.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Samples lying strictly beyond the nearest-rank q-quantile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// True when the q-quantile of n samples has kMinTailSamples beyond it.
inline bool TailSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinTailSamples;
}

/// Median of a sample (mean of the two middle values for an even count);
/// 0 for an empty sample.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// The host-steal filter. On a shared VM the hypervisor hands this
/// machine's vCPUs to other guests in bursts; while it does, every layer
/// runs slower for reasons outside xcrypt. A sampler reads the host's CPU
/// counters every kStealWindowSeconds, and each window's steal share is
/// the CPU time stolen from this machine over the CPU time it wanted
/// (busy plus stolen), which does not depend on how busy the benchmark
/// kept it. An operation's exposure is the largest share among the
/// windows it ran in. Each timing keeps the operations (or repetitions)
/// whose exposure is at most the kQuietQuantile-quantile of all of theirs,
/// and a rate counts only the windows whose share is at most that
/// quantile of the windows' shares. Ties are kept, so on a host that stole
/// nothing, nothing is dropped.
inline constexpr double kStealWindowSeconds = 0.1;
inline constexpr double kQuietQuantile = 0.25;

/// Steal share of one interval: stolen / (busy + stolen) CPU time, 0 when
/// the machine wanted no CPU time at all.
inline double StealShare(double stolen, double busy) {
  return busy + stolen > 0 ? stolen / (busy + stolen) : 0.0;
}

/// The values whose exposure is at most the kQuietQuantile-quantile of
/// the exposures, one exposure per value (all values if the sizes differ).
inline std::vector<double> QuietSubset(const std::vector<double>& values,
                                       const std::vector<double>& exposures) {
  if (values.size() != exposures.size()) return values;
  const double threshold = Quantile(exposures, kQuietQuantile);
  std::vector<double> kept;
  for (size_t i = 0; i < values.size(); ++i) {
    if (exposures[i] <= threshold) kept.push_back(values[i]);
  }
  return kept;
}

/// One phase's sampling windows: window j spans [bounds[j], bounds[j+1])
/// seconds, so bounds has one entry more than shares. Without windows
/// (or with mismatched ones) nothing is filtered.
class QuietWindows {
 public:
  QuietWindows() = default;
  QuietWindows(std::vector<double> bounds, std::vector<double> shares)
      : bounds_(std::move(bounds)), shares_(std::move(shares)) {
    if (shares_.empty() || bounds_.size() != shares_.size() + 1) {
      bounds_.clear();
      shares_.clear();
      return;
    }
    threshold_ = Quantile(shares_, kQuietQuantile);
  }

  /// Largest steal share among the windows [start_s, end_s] touches.
  double Exposure(double start_s, double end_s) const {
    double worst = 0.0;
    if (shares_.empty()) return worst;
    for (size_t j = WindowOf(start_s); j <= WindowOf(end_s); ++j) {
      worst = std::max(worst, shares_[j]);
    }
    return worst;
  }

  /// Whether the window holding time t is quiet.
  bool Quiet(double t) const {
    return shares_.empty() || shares_[WindowOf(t)] <= threshold_;
  }

  /// Total length of the quiet windows (`phase_s` without windows).
  double QuietSeconds(double phase_s) const {
    if (shares_.empty()) return phase_s;
    double total = 0.0;
    for (size_t j = 0; j < shares_.size(); ++j) {
      if (shares_[j] <= threshold_) total += bounds_[j + 1] - bounds_[j];
    }
    return total;
  }

  /// The quiet ones (QuietSubset) of the durations, in µs, of operations
  /// that ended at ends[i] seconds.
  std::vector<double> QuietValues(const std::vector<double>& values_us,
                                  const std::vector<double>& ends) const {
    if (values_us.size() != ends.size()) return values_us;
    std::vector<double> exposures;
    for (size_t i = 0; i < values_us.size(); ++i) {
      exposures.push_back(Exposure(ends[i] - values_us[i] / 1e6, ends[i]));
    }
    return QuietSubset(values_us, exposures);
  }

  double threshold() const { return threshold_; }
  size_t windows() const { return shares_.size(); }
  size_t quiet_windows() const {
    return static_cast<size_t>(
        std::count_if(shares_.begin(), shares_.end(),
                      [this](double share) { return share <= threshold_; }));
  }

 private:
  /// Index of the window holding time t; times outside the sampled span
  /// clamp to the first or last window.
  size_t WindowOf(double t) const {
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), t);
    const size_t after = static_cast<size_t>(it - bounds_.begin());
    return std::clamp<size_t>(after, 1, shares_.size()) - 1;
  }

  std::vector<double> bounds_;
  std::vector<double> shares_;
  double threshold_ = 0.0;
};

/// What a traced query's wall time is not explained by: wall minus the
/// summed layer times. Exact by construction — the layers are disjoint
/// child spans of the wall span, so the residual is the benchmark's own
/// glue between calls plus timer reads, and never a hidden layer.
inline double Residual(double wall_us, const std::vector<double>& layers_us) {
  double sum = 0.0;
  for (const double us : layers_us) sum += us;
  return wall_us - sum;
}

/// Renders a measured number with every significant digit (%.17g round
/// trips a double); non-finite values render as 0 so the line stays JSON.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Quotes a string for JSON (the benchmark's names and units are plain
/// ASCII; control characters are escaped anyway).
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line:
/// {"correct": b, "attempted": n, "failed": n, "metrics": {name: {"value": x,
/// "unit": u}, ...}} — metrics in insertion order.
inline std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace e2ebench
}  // namespace xcrypt

#endif  // XCRYPT_E2EBENCH_STATS_H_
