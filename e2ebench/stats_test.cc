// Self-test of the benchmark's helpers (stats.h): the percentile rule,
// the host-steal filter, the residual arithmetic, and the result line.
// Exits non-zero if any check failed; its last stdout line is a sample
// result line, which `run.py --selftest` parses with the same validator
// it applies to real runs.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "e2ebench/stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using namespace xcrypt::e2ebench;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestQuantile() {
  CHECK(Quantile({}, 0.5) == 0.0);
  CHECK(Quantile({7.0}, 0.5) == 7.0);
  CHECK(Quantile({7.0}, 0.99) == 7.0);
  CHECK(Quantile(OneTo(100), 0.5) == 50.0);
  CHECK(Quantile(OneTo(100), 0.99) == 99.0);
  CHECK(Quantile(OneTo(100), 1.0) == 100.0);
  CHECK(Quantile(OneTo(1000), 0.99) == 990.0);
  CHECK(Quantile(OneTo(5), 0.5) == 3.0);
}

void TestTailRule() {
  // p99 needs 1000 samples: exactly 10 lie beyond rank 990.
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(TailSupported(1000, 0.99));
  CHECK(SamplesBeyond(999, 0.99) == 9);
  CHECK(!TailSupported(999, 0.99));
  CHECK(TailSupported(200, 0.95));
  CHECK(!TailSupported(199, 0.95));
  CHECK(SamplesBeyond(0, 0.99) == 0);
  CHECK(SamplesBeyond(5, 1.0) == 0);
  CHECK(kMinTailSamples == 10);
}

void TestMedian() {
  CHECK(Median({}) == 0.0);
  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestStealFilter() {
  CHECK(StealShare(0.0, 0.0) == 0.0);
  CHECK(StealShare(1.0, 3.0) == 0.25);
  // The quietest quarter, ties at the threshold kept.
  CHECK((QuietSubset({10, 20, 30, 40, 50}, {0.3, 0.0, 0.2, 0.0, 0.1}) ==
         std::vector<double>{20, 40}));
  CHECK((QuietSubset({10, 20, 30}, {0.0, 0.0, 0.0}) ==
         std::vector<double>{10, 20, 30}));
  CHECK((QuietSubset({10, 20, 30}, {}) == std::vector<double>{10, 20, 30}));
  CHECK(QuietSubset({}, {}).empty());

  const QuietWindows quiet({0, 1, 2, 3, 4}, {0.0, 0.5, 0.1, 0.0});
  CHECK(quiet.windows() == 4);
  CHECK(quiet.quiet_windows() == 2);
  CHECK(quiet.threshold() == 0.0);
  CHECK(quiet.Quiet(0.5));
  CHECK(!quiet.Quiet(1.0));
  CHECK(quiet.Quiet(-1.0));  // before the first sample: window 0
  CHECK(quiet.Quiet(9.0));   // after the last: window 3
  CHECK(quiet.Exposure(0.2, 0.8) == 0.0);
  CHECK(quiet.Exposure(0.9, 2.1) == 0.5);  // the worst window it touches
  CHECK(quiet.Exposure(2.5, 3.5) == 0.1);
  CHECK(quiet.QuietSeconds(4.0) == 2.0);
  // Durations in µs ending at times in s; exposures 0, 0.5, 0, 0.1, so
  // the quarter quantile is 0.
  CHECK((quiet.QuietValues({100, 200, 300, 400}, {0.5, 1.5, 3.5, 3.0}) ==
         std::vector<double>{100, 300}));
  // A host that stole nothing keeps every window and every operation.
  const QuietWindows calm({0, 1, 2}, {0.0, 0.0});
  CHECK(calm.quiet_windows() == 2);
  CHECK(calm.QuietSeconds(2.0) == 2.0);
  CHECK(calm.QuietValues({5, 6, 7}, {0.5, 1.5, 1.9}).size() == 3);
  // No windows (or mismatched ones): nothing is filtered.
  CHECK(QuietWindows().Quiet(1.0));
  CHECK(QuietWindows().QuietSeconds(7.0) == 7.0);
  CHECK(QuietWindows().QuietValues({1, 2}, {0.1, 0.2}).size() == 2);
  CHECK(QuietWindows({0, 1}, {0.1, 0.2}).windows() == 0);

  // A burst of steal over most of a run slows what runs in it; the
  // pooled p50 follows the burst, the p50 of the quiet operations and the
  // rate over the quiet windows do not.
  std::vector<double> bounds, shares, values, ends;
  for (int j = 0; j <= 100; ++j) bounds.push_back(j / 10.0);
  for (int j = 0; j < 100; ++j) {
    shares.push_back(j >= 30 && j < 90 ? 0.3 + j / 1000.0 : 0.0);
  }
  size_t quiet_ops = 0;
  const QuietWindows burst(bounds, shares);
  for (int i = 0; i < 1000; ++i) {
    const int window = i / 10;
    ends.push_back(window / 10.0 + 0.05);
    values.push_back((shares[window] > 0 ? 3000.0 : 1000.0) + i % 7);
    if (burst.Quiet(ends.back())) ++quiet_ops;
  }
  CHECK(Quantile(values, 0.5) >= 3000.0);
  CHECK(Quantile(burst.QuietValues(values, ends), 0.5) < 1007.0);
  CHECK(burst.quiet_windows() == 40);
  CHECK(std::fabs(quiet_ops / burst.QuietSeconds(10.0) - 100.0) < 1e-6);
}

void TestResidual() {
  CHECK(Residual(100.0, {10.0, 20.0, 30.0}) == 40.0);
  CHECK(Residual(5.0, {}) == 5.0);
  // Wall time below the layer sum (clock jitter) shows as a negative
  // residual instead of being clamped away.
  CHECK(Residual(10.0, {6.0, 6.0}) == -2.0);
  // Layers plus residual reproduce the wall time to rounding, also for
  // sums over many queries (the per-layer report divides sums by a count).
  const std::vector<double> layers = {123.456, 0.789, 4567.25, 89.0001};
  const double wall = 4800.125;
  double sum = Residual(wall, layers);
  for (const double l : layers) sum += l;
  CHECK(std::fabs(sum - wall) < 1e-9);
  CHECK(std::fabs(Residual(wall / 7, {layers[0] / 7, layers[2] / 7}) -
                  (wall - layers[0] - layers[2]) / 7) < 1e-9);
}

void TestJson() {
  CHECK(JsonNumber(0.0) == "0");
  CHECK(JsonNumber(NAN) == "0");
  CHECK(JsonNumber(INFINITY) == "0");
  CHECK(std::strtod(JsonNumber(0.1).c_str(), nullptr) == 0.1);
  CHECK(std::strtod(JsonNumber(1.0 / 3).c_str(), nullptr) == 1.0 / 3);
  CHECK(JsonString("a\"b\\c") == "\"a\\\"b\\\\c\"");
  CHECK(JsonString("x\ny") == "\"x\\u000ay\"");
  CHECK(ResultJson(true, 3, 0, {}) ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
        "\"metrics\": {}}");
}

}  // namespace

int main() {
  TestQuantile();
  TestTailRule();
  TestMedian();
  TestStealFilter();
  TestResidual();
  TestJson();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  std::printf("%s\n",
              ResultJson(true, 1234, 0,
                         {{"query_p50_ms", 1.0 / 3, "ms"},
                          {"setup_s", 0.8127000000000001, "s"},
                          {"odd\"name", NAN, "1/s"}})
                  .c_str());
  return 0;
}
