// bench_lint: overhaul-lint full-tree analysis, cold vs warm.
//
// The analyzer went whole-program in PR 5 (call graph + reachability/taint
// rules over every file under src/), which only stays viable as a tier-1
// ctest check if the incremental cache keeps the steady-state cost near the
// cost of hashing the tree. This bench times a cold run (empty cache: every
// file tokenized, extracted, and serialized) against a warm run (every FileIR
// served from the cache) over the real src/ tree, as interleaved arms of one
// bench::sample. bench_gate holds cache_speedup (cold over warm) against
// tools/bench_baseline.json: if it sinks, the cache has rotted into
// decoration and `lint.tree` is paying full parse cost on every build.
//
// Usage: bench_lint   (writes BENCH_lint.json; exits 1 only when a warm run
// reparsed a file). It takes no options: the sampler decides how many rounds
// run.
#include <algorithm>
#include <cstdio>

#include "bench_report.h"
#include "lint.h"
#include "rules_flow.h"
#include "sampler.h"

namespace {

using overhaul::bench::time_seconds;
using overhaul::lint::TreeOptions;
using overhaul::lint::TreeResult;

}  // namespace

int main() {
  const char* cache_path = "BENCH_lint_cache.txt";

  std::string error;
  const auto config =
      overhaul::lint::load_rules_file(OVERHAUL_LINT_RULES, &error);
  if (!config.has_value()) {
    std::fprintf(stderr, "bench_lint: %s\n", error.c_str());
    return 2;
  }
  const auto baseline =
      overhaul::lint::load_baseline_file(OVERHAUL_LINT_BASELINE, &error);
  if (!baseline.has_value()) {
    std::fprintf(stderr, "bench_lint: %s\n", error.c_str());
    return 2;
  }

  TreeOptions opts;
  opts.roots = {OVERHAUL_LINT_SRC_ROOT};
  opts.config = *config;
  opts.rules_hash = 1;  // any constant: cold runs delete the cache anyway
  opts.cache_path = cache_path;
  opts.baseline = *baseline;

  // A cold call deletes the cache and writes it afresh, so a warm call
  // finds a full cache whichever arm ran before it. The sampler's warm-up
  // calls run warm before cold; the first warm one may reparse and is not
  // counted.
  TreeResult last;
  std::size_t cold_reparsed = 0;
  std::size_t warm_reparsed = 0;
  int warm_calls = 0;
  const overhaul::bench::Sample s = overhaul::bench::sample({
      {1, [&] {
         const double sec =
             time_seconds([&] { last = overhaul::lint::run_tree(opts); });
         if (warm_calls++ > 0)
           warm_reparsed = std::max(warm_reparsed, last.stats.reparsed);
         return sec;
       }},
      {1, [&] {
         std::remove(cache_path);
         const double sec =
             time_seconds([&] { last = overhaul::lint::run_tree(opts); });
         cold_reparsed = last.stats.reparsed;
         return sec;
       }},
  });
  std::remove(cache_path);
  const double warm_ms = s.ns_per_op[0].median / 1e6;
  const double cold_ms = s.ns_per_op[1].median / 1e6;
  const overhaul::bench::Estimate& speedup = s.ratio[1];

  std::printf("bench_lint: full-tree analysis over %s (median of %zu "
              "interleaved rounds)\n",
              OVERHAUL_LINT_SRC_ROOT, speedup.n);
  std::printf("%-16s %8.2f ms   (%zu files reparsed)\n", "cold", cold_ms,
              cold_reparsed);
  std::printf("%-16s %8.2f ms   (at most %zu files reparsed)\n", "warm",
              warm_ms, warm_reparsed);
  std::printf("%zu files, %zu functions, %zu call edges, %zu findings\n",
              last.stats.files, last.stats.functions, last.stats.call_edges,
              last.findings.size());
  std::printf("\ncache speedup: %.2fx [%.2f, %.2f]\n", speedup.median,
              speedup.lo, speedup.hi);

  overhaul::bench::JsonReport report("lint");
  report.add("files", last.stats.files);
  report.add("functions", last.stats.functions);
  report.add("call_edges", last.stats.call_edges);
  report.add("findings", last.findings.size());
  report.add("cold_ns", s.ns_per_op[1]);
  report.add("warm_ns", s.ns_per_op[0]);
  report.add("warm_reparsed", warm_reparsed);
  report.add("cache_speedup", speedup);
  (void)report.write("BENCH_lint.json");

  // A warm run that reparses anything means the cache is broken outright.
  if (warm_reparsed != 0) {
    std::fprintf(stderr,
                 "bench_lint: FAIL — warm run reparsed %zu files (want 0)\n",
                 warm_reparsed);
    return 1;
  }
  return 0;
}
