// Mediation fast-path microbenchmark (DESIGN.md §10): ns/op for the
// operations the zero-allocation work targets —
//   lookup           — pid → TaskStruct* through the slab's dense index
//   check            — PermissionMonitor::check, grant path, audit/trace off
//   alerted-check    — the same mic check on a wired X11 system in enforce
//                      mode, so every call also raises a V_{A,op} overlay
//                      alert (netlink request → server handler → overlay)
//   notify           — send_interaction with coalescing disabled (one kernel
//                      crossing per event)
//   coalesced-notify — send_interaction with coalescing on (10 ms skew, 1 ms
//                      event spacing → ~10 events per crossing)
//
// Every path is timed by bench::sample. The headline is coalesce_speedup,
// the per-round ratio of the notify arm to the coalesced-notify arm: the
// coalescing stage must make a same-pid notification burst ~3× cheaper per
// event than the per-event crossing path. bench_gate holds it and the ns/op
// figures against tools/bench_baseline.json; the bench itself only warns.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_report.h"
#include "core/system.h"
#include "kern/kernel.h"
#include "kern/netlink.h"
#include "kern/permission_monitor.h"
#include "kern/process_table.h"
#include "sampler.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

// --quick (check.sh --bench) divides the loops by 20; each call still runs
// long enough (>= 0.2 ms) for the clock to resolve it.
int g_lookup_iters = 4'000'000;
int g_check_iters = 2'000'000;
int g_alerted_iters = 1'000'000;
int g_notify_iters = 1'000'000;

volatile std::uint64_t g_sink = 0;

using bench::Estimate;
using bench::timed;

// --- lookup ------------------------------------------------------------------

// Returns {lookup, handle-get} ns/op, interleaved.
std::vector<Estimate> run_lookup() {
  sim::Clock clock;
  kern::ProcessTable table;
  std::vector<kern::Pid> pids;
  std::vector<kern::TaskHandle> handles;
  for (int i = 0; i < 1'023; ++i) pids.push_back(table.fork(1).value());
  for (auto pid : pids) handles.push_back(table.handle_of(pid));

  // Pre-shuffled access order so the branch predictor sees realistic chaos
  // but the timed loop does no RNG work.
  util::Rng rng(42);
  std::vector<std::uint32_t> order(8192);
  for (auto& o : order)
    o = static_cast<std::uint32_t>(rng.next_below(pids.size()));

  const auto lookups = [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < g_lookup_iters; ++i) {
      const auto* t = table.lookup_live(pids[order[i & 8191]]);
      acc += static_cast<std::uint64_t>(t->pid);
    }
    g_sink = g_sink + acc;
  };
  const auto handle_gets = [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < g_lookup_iters; ++i) {
      const auto* t = table.get_live(handles[order[i & 8191]]);
      acc += static_cast<std::uint64_t>(t->pid);
    }
    g_sink = g_sink + acc;
  };
  return bench::sample({timed(g_lookup_iters, lookups),
                        timed(g_lookup_iters, handle_gets)})
      .ns_per_op;
}

// --- check -------------------------------------------------------------------

Estimate run_check() {
  sim::Clock clock;
  kern::ProcessTable table;
  audit::Sink audit;
  kern::PermissionMonitor monitor(table, clock, audit);
  monitor.set_audit_enabled(false);  // Table-I bench config: no log, no trace
  const kern::Pid app = table.fork(1).value();
  clock.advance(sim::Duration::seconds(1));
  if (!monitor.record_interaction(app, clock.now())) return {};
  const sim::Timestamp ts = clock.now();

  const auto checks = [&] {
    std::uint64_t grants = 0;
    for (int i = 0; i < g_check_iters; ++i) {
      grants += monitor.check(app, util::Op::kMicrophone, ts, "/dev/mic0") ==
                        util::Decision::kGrant
                    ? 1u
                    : 0u;
    }
    g_sink = g_sink + grants;
  };
  return bench::sample({timed(g_check_iters, checks)}).ns_per_op[0];
}

// --- alerted check ------------------------------------------------------------
//
// The overlay is acknowledged every 1024 checks, so its history stays
// bounded and the timed loop reuses its storage.

Estimate run_alerted_check() {
  core::OverhaulConfig cfg;
  cfg.trace = false;
  cfg.audit = false;
  core::OverhaulSystem sys(cfg);
  auto app = sys.launch_gui_app("/usr/bin/rec", "rec");
  if (!app.is_ok()) return {};
  sys.input().click(10, 10);  // inside the app's window: a fresh interaction
  const kern::Pid pid = app.value().pid;
  const sim::Timestamp ts = sys.clock().now();
  auto& monitor = sys.kernel().monitor();
  auto& overlay = sys.display().alert_overlay();

  std::uint64_t alerts = 0;
  std::uint64_t calls = 0;
  const auto alerted_checks = [&] {
    std::uint64_t grants = 0;
    for (int i = 0; i < g_alerted_iters; ++i) {
      grants += monitor.check(pid, util::Op::kMicrophone, ts,
                              "/dev/snd/mic0") == util::Decision::kGrant
                    ? 1u
                    : 0u;
      if ((i & 1023) == 1023) {
        alerts += overlay.shown_count();
        overlay.clear_history();
      }
    }
    alerts += overlay.shown_count();
    overlay.clear_history();
    g_sink = g_sink + grants;
    ++calls;
  };
  const Estimate ns =
      bench::sample({timed(g_alerted_iters, alerted_checks)}).ns_per_op[0];
  // Sanity: every timed check was a grant that raised an alert.
  const auto expected = static_cast<std::uint64_t>(g_alerted_iters) * calls;
  if (alerts != expected) {
    std::fprintf(stderr, "warning: %llu alerts for %llu alerted checks\n",
                 static_cast<unsigned long long>(alerts),
                 static_cast<unsigned long long>(expected));
  }
  return ns;
}

// --- notify / coalesced-notify ----------------------------------------------
//
// Same workload both times: a same-pid burst with 1 ms spacing (mouse-motion
// cadence). With coalescing off every event is a kernel crossing; with the
// 10 ms skew window ~10 events collapse into one.

// One kernel per arm, so each keeps its own clock and channel.
struct NotifyRig {
  sim::Clock clock;
  kern::Kernel kernel;
  std::shared_ptr<kern::NetlinkChannel> channel;
  kern::Pid app = kern::kNoPid;

  explicit NotifyRig(bool coalesce) : kernel(clock, config(coalesce)) {
    const kern::Pid xorg =
        kernel.sys_spawn(1, "/usr/lib/xorg/Xorg", "Xorg").value();
    channel = kernel.netlink().connect(xorg).value();
    app = kernel.sys_spawn(1, "/usr/bin/app", "app").value();
  }
  static kern::KernelConfig config(bool coalesce) {
    kern::KernelConfig cfg;
    cfg.audit = false;
    cfg.netlink_coalesce = coalesce;
    cfg.netlink_coalesce_skew = sim::Duration::millis(10);
    return cfg;
  }
  void burst() {
    for (int i = 0; i < g_notify_iters; ++i) {
      clock.advance(sim::Duration::millis(1));
      (void)channel->send_interaction({app, clock.now()});
    }
  }
};

// Arm 0 coalesces, arm 1 crosses per event: ratio[1] is the speedup.
bench::Sample run_notify() {
  NotifyRig coalesced(true);
  NotifyRig per_event(false);
  bench::Sample s =
      bench::sample({timed(g_notify_iters, [&] { coalesced.burst(); }),
                     timed(g_notify_iters, [&] { per_event.burst(); })});
  // Sanity: the coalescing run actually merged (≥80% of events absorbed).
  const auto& st = coalesced.channel->stats();
  if (st.interactions_merged * 5 < st.interactions_sent * 4) {
    std::fprintf(stderr,
                 "warning: coalescing merged only %llu of %llu events\n",
                 static_cast<unsigned long long>(st.interactions_merged),
                 static_cast<unsigned long long>(st.interactions_sent));
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  if (quick) {
    g_lookup_iters /= 20;
    g_check_iters /= 20;
    g_alerted_iters /= 20;
    g_notify_iters /= 20;
    std::printf("(--quick: iteration counts divided by 20)\n");
  }

  const std::vector<Estimate> lookup = run_lookup();
  const Estimate check = run_check();
  const Estimate alerted = run_alerted_check();
  const bench::Sample notify = run_notify();
  const Estimate& coalesced = notify.ns_per_op[0];
  const Estimate& per_event = notify.ns_per_op[1];
  const Estimate& speedup = notify.ratio[1];

  std::printf("Mediation fast path (median ns/op [95%% CI], rounds)\n\n");
  const auto row = [](const char* name, const Estimate& e, const char* what) {
    std::printf("%-18s %8.1f [%.1f, %.1f] n=%-2zu  (%s)\n", name, e.median,
                e.lo, e.hi, e.n, what);
  };
  row("lookup", lookup[0], "pid -> task, 1023-task slab");
  row("handle-get", lookup[1], "generation-checked TaskHandle");
  row("check", check, "grant path, audit/trace off");
  row("alerted-check", alerted, "enforce mode, overlay alert raised");
  row("notify", per_event, "every event crosses");
  row("coalesced-notify", coalesced, "10 ms skew, 1 ms spacing");
  std::printf("\ncoalescing speedup: %.2fx [%.2f, %.2f] per event\n",
              speedup.median, speedup.lo, speedup.hi);

  bench::JsonReport report("hotpath");
  report.add_raw("quick", quick ? "true" : "false");
  report.add("lookup_ns_per_op", lookup[0]);
  report.add("handle_get_ns_per_op", lookup[1]);
  report.add("check_ns_per_op", check);
  report.add("alerted_check_ns_per_op", alerted);
  report.add("notify_ns_per_op", per_event);
  report.add("coalesced_notify_ns_per_op", coalesced);
  report.add("coalesce_speedup", speedup);
  (void)report.write("BENCH_hotpath.json");
  return 0;
}
