// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <table1_mix|desktop_session|fleet_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints a configuration stamp, one ledger line per metric (with sample
// counts and percentile detail), and as the last line one JSON object with
// exactly the keys correct, attempted, failed and metrics. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones and writes a
// Chrome trace_event file of the recorded spans into .bench_out/.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "obs/json.h"
#include "sim/parallel.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <table1_mix|desktop_session|"
               "fleet_mixed> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

// Worker lanes every workload runs on (fleet_mixed's engine included);
// part of the configuration stamp.
constexpr int kLanes = 1;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
      have_trace = std::strcmp(val, "0") == 0 || opt.trace;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_trace || opt.seconds <= 0) return usage();

  RunResult (*run)(const RunOptions&) = nullptr;
  if (opt.workload == "table1_mix") run = run_table1_mix;
  if (opt.workload == "desktop_session") run = run_desktop_session;
  if (opt.workload == "fleet_mixed") run = run_fleet_mixed;
  if (run == nullptr) return usage();

  // Configuration stamp: results whose config_id differs are not
  // comparable (different build, compiler, machine width or lane count).
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int hw_lanes = overhaul::sim::ParallelExecutor::hardware_lanes();
  const std::string identity =
      std::string(PERFBENCH_BUILD_TYPE) + "|" + __VERSION__ + "|" +
      std::to_string(nproc) + "|" + std::to_string(hw_lanes) + "|" +
      std::to_string(kLanes);
  char idbuf[32];
  std::snprintf(idbuf, sizeof(idbuf), "%016llx",
                static_cast<unsigned long long>(fnv1a(identity)));
  std::string stamp = "{\"build_type\":" +
                      overhaul::obs::json::quote(PERFBENCH_BUILD_TYPE) +
                      ",\"compiler\":" + overhaul::obs::json::quote(__VERSION__) +
                      ",\"nproc\":" + std::to_string(nproc) +
                      ",\"hardware_lanes\":" + std::to_string(hw_lanes) +
                      ",\"lanes\":" + std::to_string(kLanes) +
                      ",\"seed\":" + std::to_string(opt.seed) +
                      ",\"workload\":" + overhaul::obs::json::quote(opt.workload) +
                      ",\"seconds\":" + num(opt.seconds) +
                      ",\"trace\":" + (opt.trace ? "1" : "0") +
                      ",\"config_id\":\"" + idbuf + "\"}";
  std::printf("config %s\n", stamp.c_str());

  const std::string out_dir = ".bench_out";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  const RunResult res = run(opt);

  bool correct = res.failed == 0 && res.attempted > 0;
  for (const auto& [name, ok] : res.invariants) {
    std::printf("invariant %s %s\n", name.c_str(), ok ? "ok" : "VIOLATED");
    correct = correct && ok;
  }
  const double share =
      res.attempted > 0
          ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
          : 1.0;
  std::printf("metric failed_op_share = %s share attempted=%llu failed=%llu\n",
              num(share).c_str(),
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));

  if (opt.trace) {
    // The whole self-time ledger, every span kind (not only those that
    // back a per-layer metric), so the attribution can be audited.
    const std::vector<KindStats> st = merged_stats();
    std::size_t kept = 0;
    std::uint64_t dropped = 0;
    for (const ThreadBuf* b : all_bufs()) {
      kept += b->records.size();
      dropped += b->records_dropped;
    }
    std::printf("spans exported=%zu beyond_cap=%llu (statistics cover all)\n",
                kept, static_cast<unsigned long long>(dropped));
    std::int64_t total = 0;
    for (const KindStats& k : st) total += k.self_ns;
    for (int k = 0; k < kKindCount; ++k) {
      if (st[k].count == 0) continue;
      std::printf("self %-24s share=%.4f n=%llu p50_ns=%.0f\n",
                  kind_name(static_cast<Kind>(k)),
                  total > 0 ? static_cast<double>(st[k].self_ns) /
                                  static_cast<double>(total)
                            : 0.0,
                  static_cast<unsigned long long>(st[k].count),
                  st[k].hist.percentile(0.5));
    }
  }

  const std::vector<Metric>& metrics =
      opt.trace ? res.per_layer : res.end_to_end;
  std::string mjson = "{";
  std::string report = "{\"config\":" + stamp + ",\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("metric %s = %s %s n=%llu %s\n", m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.n), m.detail.c_str());
    if (i > 0) report += ",";
    if (m.in_result) {
      if (mjson.size() > 1) mjson += ",";
      mjson += overhaul::obs::json::quote(m.name) + ":{\"value\":" +
               num(m.value) + ",\"unit\":" + overhaul::obs::json::quote(m.unit) +
               "}";
    }
    report += "{\"name\":" + overhaul::obs::json::quote(m.name) +
              ",\"value\":" + num(m.value) +
              ",\"unit\":" + overhaul::obs::json::quote(m.unit) +
              ",\"n\":" + std::to_string(m.n) +
              ",\"detail\":" + overhaul::obs::json::quote(m.detail) + "}";
  }
  mjson += "}";
  report += "],\"failed_op_share\":" + num(share) +
            ",\"attempted\":" + std::to_string(res.attempted) +
            ",\"failed\":" + std::to_string(res.failed) + "}";

  const std::string tag = out_dir + "/" + opt.workload + "_seed" +
                          std::to_string(opt.seed) + "_trace" +
                          (opt.trace ? "1" : "0");
  std::string error;
  if (!overhaul::obs::json::validate(report, &error)) {
    std::fprintf(stderr, "perfbench: report JSON invalid: %s\n", error.c_str());
    return 3;
  }
  if (std::FILE* f = std::fopen((tag + ".json").c_str(), "w"); f != nullptr) {
    std::fputs(report.c_str(), f);
    std::fclose(f);
  }
  if (opt.trace) {
    const std::string path = tag + ".trace.json";
    if (!write_chrome_trace(path, &error)) {
      std::fprintf(stderr, "perfbench: trace export failed: %s\n",
                   error.c_str());
      return 3;
    }
    std::printf("trace %s\n", path.c_str());
  }

  const std::string line =
      std::string("{\"correct\":") + (correct ? "true" : "false") +
      ",\"attempted\":" + std::to_string(res.attempted) +
      ",\"failed\":" + std::to_string(res.failed) + ",\"metrics\":" + mjson +
      "}";
  if (!overhaul::obs::json::validate(line, &error)) {
    std::fprintf(stderr, "perfbench: result JSON invalid: %s\n", error.c_str());
    return 3;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
