// Shared plumbing for the perfbench workloads: host wall-clock timing,
// exact-sample percentiles, a log-linear latency histogram, real memory
// readings from /proc/self/status, and the per-run result ledger.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// All reported times are host wall-clock; the simulation's virtual
// sim::Clock only drives policy (δ, visibility threshold, boot stagger).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Percentile of exact samples (nearest-rank on the sorted copy). The
// caller decides whether a high percentile is supported by enough samples;
// see tail_supported().
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

// A p-th percentile is only reported when at least ten samples lie beyond
// it: n * (1 - q) >= 10.
inline bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

// Log-linear histogram over non-negative integer nanoseconds: exact below
// 2^kSubBits, then 2^kSubBits sub-buckets per power of two, so every bucket
// is narrower than 1/64 of the values it holds (finer than anything it
// measures, unlike util::Histogram's fixed 100 ns bins).
class LogHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  LogHistogram() : counts_(kBuckets, 0) {}

  void add(std::int64_t v) {
    ++counts_[bucket_of(v < 0 ? 0 : static_cast<std::uint64_t>(v))];
    ++n_;
  }
  void merge(const LogHistogram& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }
  // Lower edge of the bucket holding the nearest-rank q-quantile, plus half
  // the bucket width (the bucket's midpoint).
  [[nodiscard]] double percentile(double q) const;

 private:
  static int bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    const int sub = static_cast<int>((v >> shift) & (kSub - 1));
    return (shift + 1) * kSub + sub;
  }
  static double lower_edge(int b, double* width);

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

// A uniform fixed-size sample of a stream of values (reservoir sampling):
// percentiles come from exact values while the benchmark's own memory stays
// bounded however many samples a run produces. Deterministic per seed.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : cap_(capacity), state_(seed | 1) {
    kept_.reserve(capacity);
  }
  void add(double v) {
    ++seen_;
    if (kept_.size() < cap_) {
      kept_.push_back(v);
      return;
    }
    // xorshift64: cheap, and good enough to pick a slot uniformly.
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const std::uint64_t slot = state_ % seen_;
    if (slot < cap_) kept_[slot] = v;
  }
  [[nodiscard]] const std::vector<double>& samples() const { return kept_; }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

 private:
  std::size_t cap_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::vector<double> kept_;
};

// VmHWM / VmRSS from /proc/self/status, in MiB (0 if unreadable).
double proc_status_mb(const char* key);

// One reported number. `n` is the sample count behind a percentile (0 for
// counts, ratios and totals); `detail` is free text for the ledger line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t n = 0;
  std::string detail;
  // False for a metric printed in the ledger but left out of the result
  // line, because BENCHMARK.json does not declare it (see README.md).
  bool in_result = true;
};

// What one workload run hands back to main().
struct RunResult {
  std::vector<Metric> end_to_end;  // untraced run
  std::vector<Metric> per_layer;   // traced run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Invariants beyond per-op verdicts (forged input minted nothing, the
  // decision total matches the checks issued, ...). Any false entry makes
  // the run incorrect even when no single op failed.
  std::vector<std::pair<std::string, bool>> invariants;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workload;
};

// Attempted/failed operation counts of one run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Ledger helpers shared by the workloads. A latency metric carries its
// sample count; the p99 companion is only produced when tail_supported().
// Samples are already in `unit`.
void add_latency(std::vector<Metric>& out, const std::string& p50_name,
                 const std::string& p99_name,
                 const std::vector<double>& samples, const std::string& unit,
                 bool p99_in_result = true);


}  // namespace perfbench
