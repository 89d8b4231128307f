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
// The two paths are interleaved arms of one bench::sample; the reproduced
// quantity is the per-round ratio binary_speedup (text ns/op over binary),
// which bench_gate holds against tools/bench_baseline.json. Absolute ns/op
// are machine-dependent. The report also records the memory side: live
// bytes held by the binary ring vs the text-equivalent footprint of the same
// records.
//
// Usage: bench_audit [--quick]   (writes BENCH_audit.json; exits 1 only when
// the two paths saw different streams)
#include <cstdio>
#include <cstring>
#include <string_view>

#include "audit/sink.h"
#include "bench_report.h"
#include "sampler.h"
#include "text_audit_log.h"
#include "util/audit_log.h"

using namespace overhaul;

namespace {

int g_append_iters = 4'000'000;

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

// The text path exactly as PermissionMonitor::check used to build it: a
// fresh AuditRecord whose comm/detail are copied into heap strings.
void text_appends(bench::TextAuditLog* log) {
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
}

void binary_appends(audit::Sink* sink) {
  for (int i = 0; i < g_append_iters; ++i) {
    sink->append_decision(
        static_cast<std::int64_t>(i) * 1'000, 100 + (i & 7), kComms[i & 7],
        static_cast<util::Op>(i % static_cast<int>(util::kOpCount)),
        (i & 1) != 0 ? util::Decision::kGrant : util::Decision::kDeny,
        (i & 1023) * 1'000, kDetails[i & 3]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (quick) {
    // /20 keeps quick short but leaves the ring-full steady state dominant
    // (200k appends vs a 16k ring) so the gated ratio stays stable.
    g_append_iters /= 20;
    std::printf("(--quick: iteration counts divided by 20)\n");
  }

  bench::TextAuditLog text_log;
  text_log.set_capacity(kRingCapacity);
  audit::Sink sink(kRingCapacity);
  // The warm-up call fills both rings and interns every string.
  const double ops = g_append_iters;
  const bench::Sample s = bench::sample({
      bench::timed(ops, [&] { binary_appends(&sink); }),
      bench::timed(ops, [&] { text_appends(&text_log); }),
  });
  const bench::Estimate& bin_ns = s.ns_per_op[0];
  const bench::Estimate& text_ns = s.ns_per_op[1];
  const bench::Estimate& speedup = s.ratio[1];

  std::printf("Audit append: text log vs binary ring (median of %zu "
              "interleaved rounds, ring capacity %zu)\n\n",
              speedup.n, kRingCapacity);
  const double mem_bin = static_cast<double>(sink.memory_bytes());
  const std::size_t text_bytes = bench::text_equiv_bytes(sink.ring());
  const double mem_text = static_cast<double>(text_bytes);
  const double mem_ratio = mem_bin > 0 ? mem_text / mem_bin : 0;

  std::printf("%-16s %10.1f ns/op   (AuditRecord + 2 heap strings, "
              "push/pop churn)\n",
              "text-append", text_ns.median);
  std::printf("%-16s %10.1f ns/op   (2 warm interns + 64-byte ring store)\n",
              "binary-append", bin_ns.median);
  std::printf("%-16s %10zu bytes  (records + intern payload)\n",
              "binary-memory", sink.memory_bytes());
  std::printf("%-16s %10zu bytes  (same records as text-log entries)\n",
              "text-memory", text_bytes);
  std::printf("\nbinary append speedup: %.2fx [%.2f, %.2f]\n", speedup.median,
              speedup.lo, speedup.hi);

  bench::JsonReport report("audit");
  report.add_raw("quick", quick ? "true" : "false");
  report.add("ring_capacity", kRingCapacity);
  report.add("append_iters", g_append_iters);
  report.add("text_append_ns_per_op", text_ns);
  report.add("binary_append_ns_per_op", bin_ns);
  report.add("binary_speedup", speedup);
  report.add("binary_memory_bytes", sink.memory_bytes());
  report.add("text_equiv_memory_bytes", text_bytes);
  report.add("memory_ratio", mem_ratio);
  (void)report.write("BENCH_audit.json");

  // Both sides saw the same stream and the ring obeyed its bound.
  if (sink.size() != kRingCapacity ||
      sink.total_appended() != text_log.total_appended()) {
    std::fprintf(stderr,
                 "bench_audit: FAIL — stream mismatch (binary saw "
                 "%llu appends, text %llu)\n",
                 static_cast<unsigned long long>(sink.total_appended()),
                 static_cast<unsigned long long>(text_log.total_appended()));
    return 1;
  }
  return 0;
}
