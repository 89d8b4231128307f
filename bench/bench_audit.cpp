// Binary-vs-text audit append microbenchmark (DESIGN.md §16).
//
// Replays the same decision stream into the frozen text log
// (`bench::TextAuditLog` in text_audit_log.h: an AuditRecord with two heap
// std::strings per append, the path every mediated decision used to pay)
// and into the binary `audit::Sink` (two warm intern lookups + one 64-byte
// ring store). Both rings run full — the fleet's steady state — so the text
// path pays its per-append allocate/free churn and the binary path its
// masked overwrite.
//
// The gate is the ratio: binary append must be >= 3x faster than the text
// path (enforced in optimized builds; advisory otherwise). Absolute ns/op
// are machine-dependent; the ratio is the reproduced quantity. The report
// also records the memory side: live bytes held by the binary ring vs the
// text-equivalent footprint of the same records.
//
// Usage: bench_audit [--quick]   (writes BENCH_audit.json; exit 1 on gate
// fail)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string_view>

#include "audit/sink.h"
#include "bench_report.h"
#include "text_audit_log.h"
#include "util/audit_log.h"

using namespace overhaul;

namespace {

int g_append_iters = 4'000'000;
int g_reps = 5;

// Ring capacity for both sides: small enough that the steady-state
// (ring-full) regime dominates, large enough to defeat trivial caching.
constexpr std::size_t kRingCapacity = 1u << 14;

// A realistic decision mix: a handful of distinct apps and resources, the
// shape §V-D reports (few comms, logged millions of times).
constexpr std::string_view kComms[] = {
    "videoconf", "browser", "screenshot", "recorder",
    "passwdmgr", "spyware", "terminal",   "launcher",
};
constexpr std::string_view kDetails[] = {
    "/dev/v4l/by-id/usb-integrated-cam-video-index0",
    "/dev/snd/by-id/usb-mic-array-00",
    "selection:CLIPBOARD:targets=UTF8_STRING",
    "screen:root-window:1920x1080+0+0",
};

double time_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

double best_ns_per_op(int ops, const std::function<void()>& fn) {
  double best = 1e99;
  fn();  // warmup: fills the ring, interns every string
  for (int rep = 0; rep < g_reps; ++rep)
    best = std::min(best, time_seconds(fn));
  return best / ops * 1e9;
}

// The text path exactly as PermissionMonitor::check used to build it: a
// fresh AuditRecord whose comm/detail are copied into heap strings.
double run_text(bench::TextAuditLog* log) {
  return best_ns_per_op(g_append_iters, [&] {
    for (int i = 0; i < g_append_iters; ++i) {
      util::AuditRecord rec;
      rec.time_ns = static_cast<std::int64_t>(i) * 1'000;
      rec.pid = 100 + (i & 7);
      rec.comm = kComms[i & 7];
      rec.op = static_cast<util::Op>(i % static_cast<int>(util::kOpCount));
      rec.decision = (i & 1) != 0 ? util::Decision::kGrant
                                  : util::Decision::kDeny;
      rec.interaction_age_ns = (i & 1023) * 1'000;
      rec.detail = kDetails[i & 3];
      log->append(std::move(rec));
    }
  });
}

double run_binary(audit::Sink* sink) {
  return best_ns_per_op(g_append_iters, [&] {
    for (int i = 0; i < g_append_iters; ++i) {
      sink->append_decision(
          static_cast<std::int64_t>(i) * 1'000, 100 + (i & 7), kComms[i & 7],
          static_cast<util::Op>(i % static_cast<int>(util::kOpCount)),
          (i & 1) != 0 ? util::Decision::kGrant : util::Decision::kDeny,
          (i & 1023) * 1'000, kDetails[i & 3]);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (quick) {
    // /20 keeps quick sub-second but leaves the ring-full steady state
    // dominant (200k appends vs a 16k ring) so the gated ratio stays stable.
    g_append_iters /= 20;
    g_reps = 3;
    std::printf("(--quick: iteration counts divided by 20, 3 repetitions)\n");
  }

  std::printf("Audit append: text log vs binary ring (best of %d reps, "
              "ring capacity %zu)\n\n",
              g_reps, kRingCapacity);

  bench::TextAuditLog text_log;
  text_log.set_capacity(kRingCapacity);
  const double text_ns = run_text(&text_log);

  audit::Sink sink(kRingCapacity);
  const double bin_ns = run_binary(&sink);

  const double speedup = bin_ns > 0 ? text_ns / bin_ns : 0;
  const double mem_bin = static_cast<double>(sink.memory_bytes());
  const std::size_t text_bytes = bench::text_equiv_bytes(sink.ring());
  const double mem_text = static_cast<double>(text_bytes);
  const double mem_ratio = mem_bin > 0 ? mem_text / mem_bin : 0;

  std::printf("%-16s %10.1f ns/op   (AuditRecord + 2 heap strings, "
              "push/pop churn)\n",
              "text-append", text_ns);
  std::printf("%-16s %10.1f ns/op   (2 warm interns + 64-byte ring store)\n",
              "binary-append", bin_ns);
  std::printf("%-16s %10zu bytes  (records + intern payload)\n",
              "binary-memory", sink.memory_bytes());
  std::printf("%-16s %10zu bytes  (same records as text-log entries)\n",
              "text-memory", text_bytes);
  std::printf("\nbinary append speedup: %.2fx (gate: >= 3x)\n", speedup);

  bench::JsonReport report("audit");
  report.add_raw("quick", quick ? "true" : "false");
  report.add("reps", g_reps);
  report.add("ring_capacity", kRingCapacity);
  report.add("append_iters", g_append_iters);
  report.add("text_append_ns_per_op", text_ns);
  report.add("binary_append_ns_per_op", bin_ns);
  report.add("binary_speedup", speedup);
  report.add("binary_memory_bytes", sink.memory_bytes());
  report.add("text_equiv_memory_bytes", text_bytes);
  report.add("memory_ratio", mem_ratio);
  (void)report.write("BENCH_audit.json");

  // Sanity in every build: both sides saw the same stream and the ring
  // obeyed its bound.
  if (sink.size() != kRingCapacity ||
      sink.total_appended() != text_log.total_appended()) {
    std::fprintf(stderr,
                 "bench_audit: GATE FAILED — stream mismatch (binary saw "
                 "%llu appends, text %llu)\n",
                 static_cast<unsigned long long>(sink.total_appended()),
                 static_cast<unsigned long long>(text_log.total_appended()));
    return 1;
  }
#ifdef NDEBUG
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "bench_audit: GATE FAILED — binary append only %.2fx faster "
                 "than the text path (want >= 3x)\n",
                 speedup);
    return 1;
  }
#else
  std::printf("(unoptimized build: speedup gate advisory, not enforced)\n");
#endif
  return 0;
}
