// The one timing discipline for the gated in-tree benches (bench_table1,
// bench_hotpath, bench_audit, bench_lint and bench_fleet's sweep).
//
// sample(arms) makes one untimed warm-up call per arm, then runs rounds. A
// round calls every arm once, starting one arm later than the round before
// (round r runs arms r, r+1, ..., r-1 mod k), so no arm always goes first
// and a drift in machine state lands on every arm alike. Each arm's per-call
// ns/op and each per-round ratio to arm 0 feed a 95 % distribution-free
// confidence interval for the median, taken from order statistics: no
// normality assumption and no outlier rule. Sampling stops once every
// interval is narrow enough, or at the rep cap.
//
// An arm's run() returns the seconds it timed, so an arm can keep untimed
// setup and teardown out of its reading; timed() builds the common arm whose
// whole call is timed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace overhaul::bench {

// Stop once every interval's half-width is within this share of its median.
// The gates in tools/bench_baseline.json sit 1.6x from the recorded median,
// so a reading this tight resolves against its limit unless its median has
// itself moved by about half.
inline constexpr double kTargetHalfWidth = 0.05;

// The fewest rounds whose [min, max] covers the median with >= 95 %
// (1 - 2 * 2^-6 = 96.9 %); no narrower interval exists before it.
inline constexpr std::size_t kMinRounds = 6;

// Rep cap: bounds a bench's wall time on a machine whose noise never
// settles. At 30 rounds the interval is the 10th to 21st order statistic.
inline constexpr std::size_t kMaxRounds = 30;

inline double time_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// A median with its 95 % confidence interval [lo, hi] over n readings.
struct Estimate {
  double median = 0;
  double lo = 0;
  double hi = 0;
  std::size_t n = 0;

  // The same interval for 1/x (order statistics map through a monotone
  // function): turns a time ratio into a speedup.
  [[nodiscard]] Estimate inverse() const {
    return {1.0 / median, 1.0 / hi, 1.0 / lo, n};
  }
  [[nodiscard]] bool tight() const {
    return n >= kMinRounds &&
           (hi - lo) / 2 <= kTargetHalfWidth * std::fabs(median);
  }
};

// The interval is [x(k), x(n+1-k)] with k the largest rank such that
// P(Binomial(n, 1/2) < k) <= 2.5 %. Below kMinRounds no rank qualifies and
// the interval is [min, max].
inline Estimate median_ci(std::vector<double> v) {
  Estimate e;
  e.n = v.size();
  if (v.empty()) return e;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  e.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  std::size_t k = 1;
  double pmf = std::ldexp(1.0, -static_cast<int>(n));  // P(X = k - 1)
  double cdf = pmf;                                     // P(X <= k - 1)
  while (k < (n + 1) / 2) {
    const double next = pmf * static_cast<double>(n - k + 1) /
                        static_cast<double>(k);  // P(X = k)
    if (cdf + next > 0.025) break;
    pmf = next;
    cdf += next;
    ++k;
  }
  e.lo = v[k - 1];
  e.hi = v[n - k];
  return e;
}

struct Arm {
  double ops = 1;               // operations per call: estimates are per op
  std::function<double()> run;  // one call; returns the seconds it timed
};

// An arm whose every call is timed whole.
inline Arm timed(double ops, std::function<void()> fn) {
  return {ops, [fn = std::move(fn)] { return time_seconds(fn); }};
}

struct Sample {
  std::vector<Estimate> ns_per_op;  // per arm
  std::vector<Estimate> ratio;      // per arm: per-round ns/op over arm 0's
};

inline Sample sample(const std::vector<Arm>& arms) {
  const std::size_t k = arms.size();
  for (const Arm& arm : arms) (void)arm.run();
  std::vector<std::vector<double>> ns(k);
  std::vector<std::vector<double>> ratio(k);
  std::vector<double> round(k);
  Sample s;
  for (std::size_t r = 0; r < kMaxRounds; ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t a = (r + i) % k;
      round[a] = arms[a].run() / arms[a].ops * 1e9;
    }
    s = {};
    bool tight = true;
    for (std::size_t a = 0; a < k; ++a) {
      ns[a].push_back(round[a]);
      ratio[a].push_back(round[a] / round[0]);
      s.ns_per_op.push_back(median_ci(ns[a]));
      s.ratio.push_back(median_ci(ratio[a]));
      tight = tight && s.ns_per_op[a].tight() && s.ratio[a].tight();
    }
    if (tight) break;
  }
  return s;
}

}  // namespace overhaul::bench
