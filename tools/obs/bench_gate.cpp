// bench_gate: the one gate over the in-tree benches' BENCH_*.json reports.
//
// tools/bench_baseline.json carries a stamp {build_type, sanitize,
// hardware_lanes} and one entry {file, key, better, limit} per gated
// quantity. Each report key is a sampled bench::Estimate {median, lo, hi, n}
// (a median with its 95 % interval, bench/sampler.h) or a bare number (one
// reading: its interval is the point). The one verdict rule:
//   PASS        the whole interval lies on the good side of the limit
//   FAIL        the whole interval lies on the bad side
//   UNRESOLVED  the interval straddles the limit
// A report whose stamp differs from the baseline's is refused: numbers from
// another build type, sanitizer set or lane count say nothing about this
// one.
//
// --update rewrites the limits from the reports' medians and only ever
// tightens them: a lower-is-better limit becomes min(limit, 1.6 x median), a
// higher-is-better one max(limit, median / 1.6).
//
// Usage: bench_gate --baseline=PATH [--update] BENCH_*.json...
// Exit 0 iff every entry PASSes (or, with --update, the baseline was
// rewritten); 1 on FAIL, UNRESOLVED, or a missing file or key; 2 on a usage
// error, invalid JSON or a stamp mismatch.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "obs/json.h"

namespace {

namespace bj = overhaul::bench_json;

// Limits sit this far from the median they were recorded at.
constexpr double kMargin = 1.6;

struct Gate {
  std::string file;
  std::string key;
  std::string better;  // "lower" or "higher"
  double limit = 0;
};

bool read_validated(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_gate: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  std::string error;
  if (!overhaul::obs::json::validate(*out, &error)) {
    std::fprintf(stderr, "bench_gate: %s: invalid JSON: %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

const char* verdict(const Gate& g, const bj::Reading& r) {
  const bool lower = g.better == "lower";
  const bool good = lower ? r.hi <= g.limit : r.lo >= g.limit;
  const bool bad = lower ? r.lo > g.limit : r.hi < g.limit;
  return good ? "PASS" : bad ? "FAIL" : "UNRESOLVED";
}

}  // namespace

int main(int argc, char** argv) {
  bool update = false;
  std::string baseline_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--update") == 0) {
      update = true;
    } else if (argv[i][0] == '-') {
      baseline_path.clear();
      break;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (baseline_path.empty() || files.empty()) {
    std::fprintf(stderr,
                 "usage: bench_gate --baseline=PATH [--update] "
                 "BENCH_*.json...\n");
    return 2;
  }

  std::string text;
  if (!read_validated(baseline_path, &text)) return 2;
  std::map<std::string, std::string> baseline = bj::members(text);
  const std::string stamp = baseline["stamp"];
  std::vector<Gate> gates;
  for (const auto& [unused, raw] : bj::split(baseline["gates"])) {
    std::map<std::string, std::string> m = bj::members(raw);
    Gate g{bj::unquote(m["file"]), bj::unquote(m["key"]),
           bj::unquote(m["better"]), std::strtod(m["limit"].c_str(), nullptr)};
    if (g.file.empty() || g.key.empty() ||
        (g.better != "lower" && g.better != "higher")) {
      std::fprintf(stderr, "bench_gate: malformed baseline entry: %s\n",
                   raw.c_str());
      return 2;
    }
    gates.push_back(std::move(g));
  }
  if (stamp.empty() || gates.empty()) {
    std::fprintf(stderr, "bench_gate: %s needs a stamp and a gates array\n",
                 baseline_path.c_str());
    return 2;
  }

  std::map<std::string, std::map<std::string, std::string>> reports;
  for (const std::string& path : files) {
    if (!read_validated(path, &text)) return 2;
    std::map<std::string, std::string> m = bj::members(text);
    if (bj::members(m["stamp"]) != bj::members(stamp)) {
      std::fprintf(stderr,
                   "bench_gate: refusing to compare %s: its stamp %s differs "
                   "from the baseline stamp %s\n",
                   path.c_str(),
                   m["stamp"].empty() ? "(none)" : m["stamp"].c_str(),
                   stamp.c_str());
      return 2;
    }
    reports[basename_of(path)] = std::move(m);
  }

  std::printf("bench_gate: %zu gates from %s, stamp %s\n", gates.size(),
              baseline_path.c_str(), stamp.c_str());
  int rc = 0;
  for (Gate& g : gates) {
    const auto report = reports.find(g.file);
    if (report == reports.end()) {
      std::fprintf(stderr, "bench_gate: %s: no report %s given\n",
                   g.key.c_str(), g.file.c_str());
      rc = 1;
      continue;
    }
    const auto value = report->second.find(g.key);
    if (value == report->second.end()) {
      std::fprintf(stderr, "bench_gate: %s has no key %s\n", g.file.c_str(),
                   g.key.c_str());
      rc = 1;
      continue;
    }
    const bj::Reading r = bj::reading(value->second);
    const char* v = verdict(g, r);
    std::printf("  %-22s %-30s %10.4g [%.4g, %.4g] n=%-3.0f %s %-9.4g %s",
                g.file.c_str(), g.key.c_str(), r.median, r.lo, r.hi, r.n,
                g.better == "lower" ? "<=" : ">=", g.limit, v);
    if (update) {
      const double old = g.limit;
      g.limit = g.better == "lower" ? std::min(old, kMargin * r.median)
                                    : std::max(old, r.median / kMargin);
      std::printf(" -> limit %.4g", g.limit);
    } else if (std::strcmp(v, "PASS") != 0) {
      rc = 1;
    }
    std::printf("\n");
  }
  if (!update || rc != 0) return rc;

  std::string out = "{\"stamp\":" + stamp + ",\"gates\":[\n";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    out += "{\"file\":\"" + g.file + "\",\"key\":\"" + g.key +
           "\",\"better\":\"" + g.better + "\",\"limit\":" + number(g.limit) +
           "}" + (i + 1 < gates.size() ? ",\n" : "\n");
  }
  out += "]}\n";
  std::ofstream file(baseline_path, std::ios::binary);
  if (!file.write(out.data(), static_cast<std::streamsize>(out.size()))) {
    std::fprintf(stderr, "bench_gate: cannot rewrite %s\n",
                 baseline_path.c_str());
    return 1;
  }
  std::printf("rewrote %s\n", baseline_path.c_str());
  return 0;
}
