#include "common.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double LogHistogram::lower_edge(int b, double* width) {
  if (b < kSub) {
    *width = 1.0;
    return b;
  }
  const int shift = b / kSub - 1;
  const int sub = b % kSub;
  const double base = std::ldexp(1.0, shift + kSubBits);
  *width = std::ldexp(1.0, shift);
  return base + sub * *width;
}

double LogHistogram::percentile(double q) const {
  if (n_ == 0) return 0.0;
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n_)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      double width = 0;
      const double lo = lower_edge(b, &width);
      return b < kSub ? lo : lo + width / 2;
    }
  }
  return 0.0;
}

double proc_status_mb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0;
  const std::size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      kb = std::strtod(line + klen + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

void add_latency(std::vector<Metric>& out, const std::string& p50_name,
                 const std::string& p99_name,
                 const std::vector<double>& samples, const std::string& unit,
                 bool p99_in_result) {
  const std::size_t n = samples.size();
  char detail[96];
  std::snprintf(detail, sizeof(detail), "p90=%.6g p95=%.6g",
                percentile(samples, 0.90), percentile(samples, 0.95));
  out.push_back({p50_name, percentile(samples, 0.50), unit, n, detail});
  if (!p99_name.empty() && tail_supported(n, 0.99))
    out.push_back(
        {p99_name, percentile(samples, 0.99), unit, n, "", p99_in_result});
}

}  // namespace perfbench
