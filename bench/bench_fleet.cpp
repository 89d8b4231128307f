// Fleet-scale benchmark: boot 1k+ full per-seat kernel stacks in one
// process and drive them from the fleet harness (DESIGN.md §14).
//
// Shape:
//   1. staggered boot storm (one seat per virtual millisecond) with one GUI
//      session launched on each seat as it comes up, timed wall-clock;
//   2. a seeded interaction mix — hardware clicks, permission decisions
//      inside and outside δ, cross-shard P2 sends/receives over a ring of
//      XShardLinks — stepped through the harness's rotated round-robin,
//      with every per-shard step timed into a latency histogram;
//   3. BENCH_fleet.json: aggregate decisions/sec and notifications/sec,
//      cross-shard send count, the peak-RSS proxy (process-table slabs +
//      audit rings + drawn display pixels) next to the real VmHWM/VmRSS
//      from /proc/self/status, and per-shard step latency p50/p99.
//      peak_rss_bytes_per_seat (VmHWM over the booted seats) is the memory
//      key the trajectory gate diffs, so the --quick shape and the full
//      fleet are gated on the same per-seat figure.
//
// The default run (1024 shards, mixed backends) is the ROADMAP's
// "thousands of concurrent desktops in one address space" demonstrator and
// hard-fails if fewer than 1000 sessions are live after the storm.
// --quick (128 shards, 8 rounds) is the check.sh smoke shape.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.h"
#include "fleet/harness.h"
#include "sim/parallel.h"
#include "text_audit_log.h"
#include "util/histogram.h"
#include "util/rng.h"

using namespace overhaul;

namespace {

// A "<key>: <n> kB" line of /proc/self/status, in bytes (0 if unreadable).
std::uint64_t proc_status_bytes(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t klen = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      kb = std::strtoull(line + klen + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Options {
  int shards = 1024;
  int rounds = 32;
  int threads = 1;
  fleet::BackendMix mix = fleet::BackendMix::kMixed;
  std::uint64_t seed = 1;
  bool quick = false;
};

// --- worker-scaling sweep ----------------------------------------------------
// Fresh fleet per thread count, identical deterministic workload: every seat
// runs a self-re-arming beat inside its own scheduler issuing 16 permission
// checks (plus periodic clicks and cross-shard ring traffic) per quantum, so
// stepping the fleet IS the decision workload and decisions/sec measures the
// engine, not the driver loop. The determinism contract doubles as the
// sweep's self-check: every point must produce the identical decision total.
struct SweepBeat {
  fleet::FleetHarness* f = nullptr;
  fleet::ShardId id = 0;
  kern::Pid pid = kern::kNoPid;
  fleet::XShardLink* link = nullptr;
  int side = 0;
  int ticks_left = 0;
  int tick = 0;

  void arm() {
    f->shard(id).system().scheduler().after(sim::Duration::millis(10),
                                            [this] { run(); });
  }

  void run() {
    auto& shard = f->shard(id);
    if (tick % 3 == 0) shard.system().input().click(60, 60);
    for (int c = 0; c < 16; ++c)
      (void)shard.kernel().monitor().check_now(
          pid, c % 2 == 0 ? util::Op::kMicrophone : util::Op::kScreenCapture,
          "sweep");
    if (link != nullptr) {
      if (tick % 2 == 0)
        (void)link->send(side, "beat");
      else
        (void)link->receive(side);
    }
    ++tick;
    if (--ticks_left > 0) arm();
  }
};

struct SweepPoint {
  int threads = 0;
  double wall_s = 0;
  std::uint64_t decisions = 0;
  double decisions_per_sec = 0;
};

SweepPoint run_sweep_point(int threads, int shards, int quanta,
                           std::uint64_t seed, fleet::BackendMix mix) {
  fleet::FleetConfig fc;
  fc.shards = shards;
  fc.mix = mix;
  fc.seed = seed;
  fc.threads = threads;
  // Pure-throughput posture: no tracing, no audit ring — the sweep compares
  // the engine against itself, not against the RSS story of the main phases.
  fc.base.trace = false;
  fc.base.audit = false;
  fleet::FleetHarness f(fc);
  f.boot_fleet();
  for (fleet::ShardId id = 0; id < f.shard_count(); ++id)
    (void)f.shard(id).launch_session("/usr/bin/seat-app", "seat-app");
  f.advance(sim::Duration::millis(600));
  for (fleet::ShardId id = 0; id + 1 < f.shard_count(); id += 2)
    f.connect_xshard(id, f.shard(id).session_pids()[0], id + 1,
                     f.shard(id + 1).session_pids()[0]);
  std::vector<SweepBeat> beats(static_cast<std::size_t>(f.shard_count()));
  for (fleet::ShardId id = 0; id < f.shard_count(); ++id) {
    SweepBeat& b = beats[static_cast<std::size_t>(id)];
    b.f = &f;
    b.id = id;
    b.pid = f.shard(id).session_pids()[0];
    if (static_cast<std::size_t>(id / 2) < f.link_count()) {
      b.link = &f.link(static_cast<std::size_t>(id / 2));
      b.side = id % 2;
    }
    b.ticks_left = quanta;
    b.arm();
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int q = 0; q < quanta + 2; ++q) f.step();
  SweepPoint p;
  p.threads = f.threads();
  p.wall_s = seconds_since(t0);
  p.decisions = f.aggregate_counter("monitor.decisions.granted") +
                f.aggregate_counter("monitor.decisions.denied");
  p.decisions_per_sec = p.decisions / p.wall_s;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
      opt.shards = 128;
      opt.rounds = 8;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      opt.shards = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opt.threads = std::atoi(arg + 10);
      if (opt.threads < 1) {
        std::fprintf(stderr, "bench_fleet: --threads must be >= 1\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = static_cast<std::uint64_t>(std::atoll(arg + 7));
    } else if (std::strcmp(arg, "--backend=x11") == 0) {
      opt.mix = fleet::BackendMix::kX11;
    } else if (std::strcmp(arg, "--backend=wl") == 0 ||
               std::strcmp(arg, "--backend=wayland") == 0) {
      opt.mix = fleet::BackendMix::kWayland;
    } else if (std::strcmp(arg, "--backend=mixed") == 0) {
      opt.mix = fleet::BackendMix::kMixed;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fleet [--quick] [--shards=N] [--threads=N] "
                   "[--seed=N] [--backend=x11|wl|mixed]\n");
      return 2;
    }
  }
  if (opt.shards < 2) {
    std::fprintf(stderr, "bench_fleet: need at least 2 shards\n");
    return 2;
  }

  fleet::FleetConfig fc;
  fc.shards = opt.shards;
  fc.mix = opt.mix;
  fc.seed = opt.seed;
  fc.threads = opt.threads;
  // Benchmark posture, as in bench_table1: counters stay on (relaxed atomic
  // adds), the allocating observability goes off. Audit rings stay ON here —
  // they are part of the per-seat RSS story this bench exists to measure —
  // but bounded so a long mix cannot grow without limit.
  fc.base.trace = false;
  fc.base.audit = true;

  std::printf("fleet bench: %d shards (%s), seed %llu, %d mix rounds, "
              "%d worker lane%s\n",
              opt.shards, fleet::backend_mix_name(opt.mix),
              static_cast<unsigned long long>(opt.seed), opt.rounds,
              opt.threads, opt.threads == 1 ? "" : "s");

  fleet::FleetHarness f(fc);

  // --- phase 1: boot storm ---------------------------------------------------
  const auto boot_start = std::chrono::steady_clock::now();
  f.schedule_boot_storm(opt.shards, fc.boot_stagger);
  while (f.shard_count() < opt.shards) f.step();
  int sessions = 0;
  for (fleet::ShardId id = 0; id < f.shard_count(); ++id) {
    auto& shard = f.shard(id);
    shard.kernel().audit().set_capacity(1024);
    if (shard.launch_session("/usr/bin/seat-app", "seat-app").is_ok())
      ++sessions;
  }
  // Let every surface cross the visibility threshold via fleet time.
  f.advance(sim::Duration::millis(600));
  // Cross-shard ring: seat k talks to seat k+1.
  for (fleet::ShardId id = 0; id + 1 < f.shard_count(); id += 2) {
    f.connect_xshard(id, f.shard(id).session_pids()[0], id + 1,
                     f.shard(id + 1).session_pids()[0]);
  }
  const double boot_s = seconds_since(boot_start);
  std::printf("booted %d shards / %d sessions / %zu links in %.3f s "
              "(%.0f boots/s)\n",
              f.shard_count(), sessions, f.link_count(), boot_s,
              f.shard_count() / boot_s);

  if (!opt.quick && sessions < 1000) {
    std::fprintf(stderr,
                 "bench_fleet: FAIL — only %d concurrent sessions "
                 "(acceptance floor is 1000)\n",
                 sessions);
    return 1;
  }

  // --- phase 2: scripted interaction mix -------------------------------------
  // Per round: click into 1/8 of the seats, decide for 1/4 (some fresh, some
  // stale — the dt draw straddles δ), pump every cross-shard link once in a
  // seeded direction, and step the whole fleet with per-shard step timing.
  util::Rng rng(opt.seed * 7919 + 1);
  // Serial runs time every per-shard step (100 ns bins up to 50 µs; slower
  // steps clamp into the top bin). Parallel runs cannot time individual
  // shards from the coordinator, so they time whole engine quanta instead —
  // wider bins, and the JSON labels which shape the percentiles describe.
  util::Histogram step_ns(0, opt.threads == 1 ? 5e4 : 5e7, 500);
  std::uint64_t checks = 0;
  const auto run_start = std::chrono::steady_clock::now();
  for (int round = 0; round < opt.rounds; ++round) {
    const int n = f.shard_count();
    for (int i = 0; i < n / 8; ++i) {
      const auto id = static_cast<fleet::ShardId>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      f.shard(id).system().input().click(50, 50);
    }
    for (int i = 0; i < n / 4; ++i) {
      const auto id = static_cast<fleet::ShardId>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      auto& shard = f.shard(id);
      (void)shard.kernel().monitor().check_now(
          shard.session_pids()[0],
          rng.next_below(2) == 0 ? util::Op::kMicrophone
                                 : util::Op::kScreenCapture,
          "fleet-mix");
      ++checks;
    }
    for (std::size_t l = 0; l < f.link_count(); ++l) {
      // Round-robin over the ring: one send + the matching receive.
      const int side = static_cast<int>(rng.next_below(2));
      auto& link = f.link(l);
      (void)link.send(side, "beat");
      (void)link.receive(1 - side);
    }
    // Advance 100 ms of fleet time per round. Serial: manual per-shard loop
    // with per-step timing (immediate link delivery — the pre-engine shape).
    // Parallel: the engine quantum, timed whole.
    for (int q = 0; q < 10; ++q) {
      if (opt.threads == 1) {
        f.begin_step();
        for (const fleet::ShardId id : f.step_order()) {
          const auto t0 = std::chrono::steady_clock::now();
          f.step_shard(id);
          step_ns.add(seconds_since(t0) * 1e9);
        }
      } else {
        const auto t0 = std::chrono::steady_clock::now();
        f.step();
        step_ns.add(seconds_since(t0) * 1e9);
      }
    }
  }
  const double run_s = seconds_since(run_start);

  // --- phase 3: rollups ------------------------------------------------------
  const std::uint64_t granted = f.aggregate_counter("monitor.decisions.granted");
  const std::uint64_t denied = f.aggregate_counter("monitor.decisions.denied");
  const std::uint64_t decisions = granted + denied;
  const std::uint64_t notifications =
      f.aggregate_counter("monitor.notifications");
  const std::uint64_t xshard_sends =
      f.aggregate_counter("ipc.xshard.send_stamps");
  const std::size_t rss_proxy = f.rss_proxy_bytes();
  // Real memory next to the proxy, read before the sweep builds its fleets.
  const std::uint64_t peak_rss = proc_status_bytes("VmHWM");
  const std::uint64_t rss = proc_status_bytes("VmRSS");
  const std::uint64_t peak_rss_per_seat =
      peak_rss / static_cast<std::uint64_t>(f.shard_count());
  // Audit-memory delta: bytes the binary rings actually hold vs what the
  // same live records would cost as text-log entries (AuditRecord + two
  // heap strings each) — the per-seat RSS saving DESIGN.md §16 claims.
  std::size_t audit_bytes_binary = 0;
  std::size_t audit_bytes_text_equiv = 0;
  for (fleet::ShardId id = 0; id < f.shard_count(); ++id) {
    const auto& sink = f.shard(id).kernel().audit();
    audit_bytes_binary += sink.memory_bytes();
    audit_bytes_text_equiv += bench::text_equiv_bytes(sink.ring());
  }

  std::printf("mix: %.3f s wall for %llu steps — %llu decisions (%.0f/s), "
              "%llu notifications (%.0f/s), %llu xshard sends\n",
              run_s, static_cast<unsigned long long>(f.steps_taken()),
              static_cast<unsigned long long>(decisions), decisions / run_s,
              static_cast<unsigned long long>(notifications),
              notifications / run_s,
              static_cast<unsigned long long>(xshard_sends));
  std::printf("%s latency: p50 %.0f ns, p99 %.0f ns (n=%llu)\n",
              opt.threads == 1 ? "per-shard step" : "per-quantum",
              step_ns.percentile(50), step_ns.percentile(99),
              static_cast<unsigned long long>(step_ns.count()));
  std::printf("RSS proxy (slab chunks + audit rings + drawn pixels): %.2f MiB "
              "across %d live shards\n",
              rss_proxy / (1024.0 * 1024.0), f.live_count());
  std::printf("real memory: peak RSS %.2f MiB (%.1f KiB/seat), RSS %.2f MiB "
              "(%.1f KiB/seat)\n",
              peak_rss / (1024.0 * 1024.0), peak_rss_per_seat / 1024.0,
              rss / (1024.0 * 1024.0), rss / 1024.0 / f.live_count());
  std::printf("audit rings: %.2f MiB binary vs %.2f MiB text-equivalent "
              "(%.2fx)\n",
              audit_bytes_binary / (1024.0 * 1024.0),
              audit_bytes_text_equiv / (1024.0 * 1024.0),
              audit_bytes_binary > 0
                  ? static_cast<double>(audit_bytes_text_equiv) /
                        static_cast<double>(audit_bytes_binary)
                  : 0.0);

  if (decisions != checks) {
    std::fprintf(stderr,
                 "bench_fleet: FAIL — rollup saw %llu decisions but the "
                 "script issued %llu checks\n",
                 static_cast<unsigned long long>(decisions),
                 static_cast<unsigned long long>(checks));
    return 1;
  }

  // --- phase 4: worker-scaling sweep -----------------------------------------
  // 1/2/4/8 lanes over an identical beat-driven fleet. Two gates ride on it:
  // every point must produce the identical decision total (the determinism
  // contract, cheap to hold here), and on machines with >= 4 hardware lanes
  // the 4-worker point must clear 2x the serial decisions/sec.
  const int sweep_shards = opt.quick ? 64 : 256;
  const int sweep_quanta = opt.quick ? 40 : 160;
  const int hw_lanes = sim::ParallelExecutor::hardware_lanes();
  std::printf("scaling sweep: %d shards x %d quanta, hardware lanes %d\n",
              sweep_shards, sweep_quanta, hw_lanes);
  std::vector<SweepPoint> sweep;
  for (const int t : {1, 2, 4, 8}) {
    sweep.push_back(
        run_sweep_point(t, sweep_shards, sweep_quanta, opt.seed, opt.mix));
    const SweepPoint& p = sweep.back();
    std::printf("  threads=%d: %.3f s, %llu decisions, %.0f/s (%.2fx)\n",
                p.threads, p.wall_s,
                static_cast<unsigned long long>(p.decisions),
                p.decisions_per_sec,
                p.decisions_per_sec / sweep.front().decisions_per_sec);
  }
  for (const SweepPoint& p : sweep) {
    if (p.decisions != sweep.front().decisions) {
      std::fprintf(stderr,
                   "bench_fleet: FAIL — sweep point threads=%d produced "
                   "%llu decisions, serial produced %llu (determinism "
                   "violation)\n",
                   p.threads, static_cast<unsigned long long>(p.decisions),
                   static_cast<unsigned long long>(sweep.front().decisions));
      return 1;
    }
  }
  const double speedup2 = sweep[1].decisions_per_sec / sweep[0].decisions_per_sec;
  const double speedup4 = sweep[2].decisions_per_sec / sweep[0].decisions_per_sec;
  const double speedup8 = sweep[3].decisions_per_sec / sweep[0].decisions_per_sec;
  std::string sweep_gate;
  if (hw_lanes >= 4) {
    if (speedup4 < 2.0) {
      std::fprintf(stderr,
                   "bench_fleet: FAIL — 4-worker speedup %.2fx is below the "
                   "2x floor on a %d-lane machine\n",
                   speedup4, hw_lanes);
      return 1;
    }
    sweep_gate = "pass";
  } else {
    sweep_gate = "skipped: hardware lanes < 4";
    std::printf("  speedup floor skipped (%d hardware lane%s; the 2x-at-4-"
                "workers gate arms on >= 4)\n",
                hw_lanes, hw_lanes == 1 ? "" : "s");
  }

  bench::JsonReport report("fleet");
  report.add_raw("quick", opt.quick ? "true" : "false");
  report.add("shards", opt.shards);
  report.add("backend", fleet::backend_mix_name(opt.mix));
  report.add("seed", static_cast<std::uint64_t>(opt.seed));
  report.add("rounds", opt.rounds);
  report.add("threads", opt.threads);
  report.add("hardware_threads", hw_lanes);
  report.add("sessions", sessions);
  report.add("links", static_cast<std::uint64_t>(f.link_count()));
  report.add("boot_s", boot_s);
  report.add("boots_per_sec", f.shard_count() / boot_s);
  report.add("run_s", run_s);
  report.add("fleet_steps", f.steps_taken());
  report.add("decisions", decisions);
  report.add("decisions_per_sec", decisions / run_s);
  report.add("notifications", notifications);
  report.add("notifications_per_sec", notifications / run_s);
  report.add("xshard_sends", xshard_sends);
  report.add("xshard_recv_adoptions",
             f.aggregate_counter("ipc.xshard.recv_adoptions"));
  report.add("rss_proxy_bytes", static_cast<std::uint64_t>(rss_proxy));
  report.add("peak_rss_bytes", peak_rss);
  report.add("peak_rss_bytes_per_seat", peak_rss_per_seat);
  report.add("rss_bytes", rss);
  report.add("audit_bytes_binary",
             static_cast<std::uint64_t>(audit_bytes_binary));
  report.add("audit_bytes_text_equiv",
             static_cast<std::uint64_t>(audit_bytes_text_equiv));
  report.add("audit_mem_ratio",
             audit_bytes_binary > 0
                 ? static_cast<double>(audit_bytes_text_equiv) /
                       static_cast<double>(audit_bytes_binary)
                 : 0.0);
  report.add("step_timing", opt.threads == 1 ? "per_shard" : "per_quantum");
  report.add("step_p50_ns", step_ns.percentile(50));
  report.add("step_p99_ns", step_ns.percentile(99));
  report.add("sweep_shards", sweep_shards);
  report.add("sweep_quanta", sweep_quanta);
  std::string sweep_json = "[";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    if (i > 0) sweep_json += ",";
    sweep_json += "{\"threads\":" + std::to_string(p.threads) +
                  ",\"wall_s\":" + bench::JsonReport::number(p.wall_s) +
                  ",\"decisions\":" + std::to_string(p.decisions) +
                  ",\"decisions_per_sec\":" +
                  bench::JsonReport::number(p.decisions_per_sec) + "}";
  }
  sweep_json += "]";
  report.add_raw("sweep", sweep_json);
  report.add("sweep_speedup_2", speedup2);
  report.add("sweep_speedup_4", speedup4);
  report.add("sweep_speedup_8", speedup8);
  report.add("sweep_gate", sweep_gate);
  if (!report.write("BENCH_fleet.json")) return 1;
  return 0;
}
