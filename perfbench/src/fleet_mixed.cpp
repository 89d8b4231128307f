// fleet_mixed: 256 seats with mixed X11/Wayland backends stepped by the
// parallel engine on one lane, in bench_fleet's beat shape: every seat runs a beat each 10 ms
// quantum that clicks (every third beat while its user is active), issues
// 16 permission checks and pumps its cross-shard link (send on even beats,
// receive on odd ones). Audit is on, with a bounded ring per seat.
//
// An unmodified (baseline) fleet with the same seed and the same beat
// script runs beside it; quanta are paired, order alternating, for
// overhead_ratio. On the baseline fleet the checks still run (they are the
// workload's op) but no input is ever reported to the monitor and no stamp
// crosses the links, so every check is a deny.
//
// Every beat of a quantum fires at the same fleet instant on every seat
// (boot-storm epochs cancel: a beat armed at local time L fires at local
// L + 10 ms·(t+1), i.e. fleet time F0 + 10 ms·(t+1)), so the oracle runs on
// a tick grid: δ = 200 ticks, a click at tick t stamps t, a send on tick t
// is delivered at that quantum's barrier and adopted by the receive on
// tick t+1, which affects checks from tick t+2 on.
#include <memory>
#include <string>
#include <vector>

#include "fleet/harness.h"
#include "spans.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace overhaul;

namespace {

constexpr int kSeats = 256;
// One lane. On a shared 4-vCPU VM a 2-lane fleet's throughput halved
// whenever the host took CPU from either lane (the quantum barrier waits for
// the slower one): its ops_per_s spread across ten seeds reached 0.39, past
// any bound a gate may use. One lane still runs every quantum through
// sim::ParallelExecutor (inline) and the deferred xshard delivery.
constexpr int kLanes = 1;
constexpr int kChecksPerBeat = 16;
constexpr int kDeltaTicks = 200;  // δ = 2 s at 10 ms per beat
constexpr int kMaxTicks = 40'000;
constexpr std::size_t kAuditCapacity = 1024;

// Per-seat click schedule and per-fleet expected verdicts, tick by tick.
struct Script {
  std::vector<std::vector<std::uint8_t>> click;   // [seat][tick]
  std::vector<std::vector<std::uint8_t>> grant;   // [seat][tick], Overhaul
};

Script make_script(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 37);
  Script s;
  s.click.assign(kSeats, std::vector<std::uint8_t>(kMaxTicks, 0));
  s.grant.assign(kSeats, std::vector<std::uint8_t>(kMaxTicks, 0));
  // Active stretches (a click every third beat) alternate with idle ones
  // that straddle δ, so checks see grants, expiries and P2 extensions.
  for (int seat = 0; seat < kSeats; ++seat) {
    int t = static_cast<int>(rng.next_below(100));
    while (t < kMaxTicks) {
      const int active = 30 + static_cast<int>(rng.next_below(300));
      for (int i = 0; i < active && t + i < kMaxTicks; i += 3)
        s.click[seat][t + i] = 1;
      t += active + 50 + static_cast<int>(rng.next_below(400));
    }
  }
  constexpr int kNever = -1'000'000;
  for (int a = 0; a + 1 < kSeats; a += 2) {
    int ts[2] = {kNever, kNever};
    int chan[2] = {kNever, kNever};  // stamp delivered towards side i
    int pending[2] = {kNever, kNever};
    for (int t = 0; t < kMaxTicks; ++t) {
      for (int side = 0; side < 2; ++side) {
        const int seat = a + side;
        if (s.click[seat][t]) ts[side] = t;
        s.grant[seat][t] = ts[side] != kNever && t - ts[side] < kDeltaTicks;
      }
      if (t % 2 == 0) {
        // Both sides send; the barrier delivers at the end of the quantum.
        pending[1] = ts[0];
        pending[0] = ts[1];
        for (int i = 0; i < 2; ++i) chan[i] = std::max(chan[i], pending[i]);
      } else {
        for (int i = 0; i < 2; ++i) ts[i] = std::max(ts[i], chan[i]);
      }
    }
  }
  return s;
}

struct Beat;

struct Fleet {
  std::unique_ptr<fleet::FleetHarness> f;
  std::vector<std::unique_ptr<Beat>> beats;
  bool overhaul = false;
  const Script* script = nullptr;
};

// One seat's self-re-arming beat. Runs on whichever lane steps the seat;
// a seat's beat object is only touched by one lane per quantum, and the
// quantum barrier orders successive quanta.
struct Beat {
  Fleet* fleet = nullptr;
  fleet::ShardId id = 0;
  kern::Pid pid = kern::kNoPid;
  fleet::XShardLink* link = nullptr;
  int side = 0;
  int tick = 0;
  bool wl = false;
  bool sample_grants = false;
  std::uint64_t checks = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t link_errors = 0;
  double alerts = 0;

  void arm() {
    fleet->f->shard(id).system().scheduler().after(sim::Duration::millis(10),
                                                   [this] { run(); });
  }

  void run() {
    ThreadBuf& tb = local_buf();
    const bool traced = tracing();
    const std::int64_t b0 = traced ? now_ns() : 0;
    {
      Span beat(Kind::kFleetBeat);
      tb.ctx = (static_cast<std::uint64_t>(id) << 32) |
               static_cast<std::uint32_t>(tick);
      auto& shard = fleet->f->shard(id);
      const bool clicked = fleet->script->click[id][tick] != 0;
      const std::int64_t t0 = now_ns();
      if (clicked) {
        Span sp(wl ? Kind::kWlInput : Kind::kX11Input);
        shard.system().input().click(60, 60);
      }
      const bool expect =
          fleet->overhaul && fleet->script->grant[id][tick] != 0;
      auto& monitor = shard.kernel().monitor();
      for (int c = 0; c < kChecksPerBeat; ++c) {
        util::Decision d;
        {
          Span sp(Kind::kKernCheck);
          d = monitor.check_now(pid,
                                c % 2 == 0 ? util::Op::kMicrophone
                                           : util::Op::kScreenCapture,
                                "fleet");
        }
        if (c == 0 && clicked && sample_grants && d == util::Decision::kGrant)
          tb.samples.push_back((now_ns() - t0) / 1e3);
        ++checks;
        if ((d == util::Decision::kGrant) != expect) ++mismatches;
      }
      if (tick % 2 == 0) {
        Span sp(Kind::kFleetXshardSend);
        if (!link->send(side, "beat").is_ok()) ++link_errors;
      } else {
        Span sp(Kind::kFleetXshardRecv);
        if (!link->receive(side).is_ok()) ++link_errors;
      }
    }
    // The seat's operator acknowledges its alert overlay now and then, so
    // the overlay history (one entry per mic/screen decision) stays bounded.
    if ((tick + id) % 61 == 0) {
      auto& overlay = fleet->f->shard(id).system().display().alert_overlay();
      alerts += static_cast<double>(overlay.shown_count());
      overlay.clear_history();
    }
    if (traced) tb.beat_ns += now_ns() - b0;
    ++tick;
    if (tick < kMaxTicks - 1) arm();
  }
};

bool boot_fleet(Fleet& fl, bool overhaul, std::uint64_t seed,
                const Script& script, LayerCounts* lc) {
  fleet::FleetConfig fc;
  fc.shards = kSeats;
  fc.mix = fleet::BackendMix::kMixed;
  fc.seed = seed;
  fc.threads = kLanes;
  fc.base = overhaul ? core::OverhaulConfig{} : core::OverhaulConfig::baseline();
  fc.base.trace = false;
  fc.base.audit = true;
  fl.overhaul = overhaul;
  fl.script = &script;
  fl.f = std::make_unique<fleet::FleetHarness>(fc);
  auto& f = *fl.f;
  const std::int64_t t0 = now_ns();
  f.schedule_boot_storm(kSeats, fc.boot_stagger);
  while (f.shard_count() < kSeats) f.step();
  if (lc != nullptr)
    lc->fleet_boot_seat_us = (now_ns() - t0) / 1e3 / kSeats;
  for (fleet::ShardId id = 0; id < f.shard_count(); ++id) {
    f.shard(id).kernel().audit().set_capacity(kAuditCapacity);
    const std::int64_t t = now_ns();
    if (!f.shard(id).launch_session("/usr/bin/seat-app", "seat-app").is_ok())
      return false;
    if (lc != nullptr) lc->launch_app_us.push_back((now_ns() - t) / 1e3);
  }
  f.advance(sim::Duration::millis(600));
  for (fleet::ShardId id = 0; id + 1 < f.shard_count(); id += 2)
    f.connect_xshard(id, f.shard(id).session_pids()[0], id + 1,
                     f.shard(id + 1).session_pids()[0]);
  fl.beats.clear();
  for (fleet::ShardId id = 0; id < f.shard_count(); ++id) {
    auto b = std::make_unique<Beat>();
    b->fleet = &fl;
    b->id = id;
    b->pid = f.shard(id).session_pids()[0];
    b->link = &f.link(static_cast<std::size_t>(id / 2));
    b->side = id % 2;
    b->wl = f.shard(id).backend() == core::DisplayBackendKind::kWayland;
    b->sample_grants = overhaul;
    fl.beats.push_back(std::move(b));
  }
  return true;
}

}  // namespace

RunResult run_fleet_mixed(const RunOptions& opt) {
  RunResult res;
  LayerCounts lc;
  const Script script = make_script(opt.seed);

  Fleet over, base;
  std::vector<double> setup_ns;
  constexpr int kSetupReps = 3;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    over = Fleet{};
    base = Fleet{};
    const bool first = rep == 0;
    const double hwm0 = proc_status_mb("VmHWM");
    const std::int64_t t0 = now_ns();
    bool ok = boot_fleet(over, true, opt.seed, script, first ? &lc : nullptr);
    const double hwm1 = proc_status_mb("VmHWM");
    ok = ok && boot_fleet(base, false, opt.seed, script, nullptr);
    setup_ns.push_back(static_cast<double>(now_ns() - t0));
    if (first) lc.fleet_rss_per_seat_kb = (hwm1 - hwm0) * 1024.0 / kSeats;
    if (!ok) {
      res.invariants.push_back({"setup", false});
      return res;
    }
  }
  lc.boot_us.push_back(lc.fleet_boot_seat_us);
  lc.fleet_rss_proxy_mb =
      static_cast<double>(over.f->rss_proxy_bytes()) / (1024.0 * 1024.0);

  for (Fleet* fl : {&over, &base})
    for (auto& b : fl->beats) b->arm();

  std::vector<double> busy_share, imbalance, coordinator_us;
  std::vector<std::int64_t> beat_prev;
  const PairedRun run = run_pairs(
      opt, kMaxTicks - 2,
      [&](std::uint64_t, bool traced) {
        std::vector<ThreadBuf*> bufs;
        if (traced) {
          bufs = all_bufs();
          beat_prev.resize(bufs.size());
          for (std::size_t i = 0; i < bufs.size(); ++i)
            beat_prev[i] = bufs[i]->beat_ns;
        }
        const std::int64_t t0 = now_ns();
        {
          Span sp(Kind::kSimQuantum);
          over.f->step();
        }
        const std::int64_t o = now_ns() - t0;
        if (traced) {
          // Lane busy time: beat time each thread accumulated this quantum.
          bufs = all_bufs();
          std::int64_t sum = 0, max = 0;
          int lanes = 0;
          for (std::size_t i = 0; i < bufs.size(); ++i) {
            const std::int64_t prev = i < beat_prev.size() ? beat_prev[i] : 0;
            const std::int64_t busy = bufs[i]->beat_ns - prev;
            if (busy <= 0) continue;
            sum += busy;
            max = std::max(max, busy);
            ++lanes;
          }
          if (lanes > 0 && o > 0) {
            busy_share.push_back(static_cast<double>(sum) /
                                 (static_cast<double>(kLanes) * o));
            imbalance.push_back(static_cast<double>(max) /
                                (static_cast<double>(sum) / lanes));
            coordinator_us.push_back(static_cast<double>(o - max) / 1e3);
          }
        }
        return std::make_pair(double{kSeats * kChecksPerBeat}, o);
      },
      [&](std::uint64_t) { return time_ns([&] { base.f->step(); }); });

  // Every check is one decision on the fleet that issued it; every verdict
  // matches the oracle; no link op failed.
  for (Fleet* fl : {&over, &base}) {
    std::uint64_t checks = 0, mismatches = 0, link_errors = 0;
    for (auto& b : fl->beats) {
      checks += b->checks;
      mismatches += b->mismatches;
      link_errors += b->link_errors;
    }
    const std::uint64_t decisions =
        fl->f->aggregate_counter("monitor.decisions.granted") +
        fl->f->aggregate_counter("monitor.decisions.denied");
    const std::string tag = fl->overhaul ? "overhaul" : "baseline";
    res.invariants.push_back(
        {tag + "_decisions_equal_checks", decisions == checks});
    res.attempted += checks + checks / kChecksPerBeat;  // checks + link ops
    res.failed += mismatches + link_errors;
  }

  if (opt.trace) {
    for (fleet::ShardId id = 0; id < over.f->shard_count(); ++id)
      add_system_counts(over.f->shard(id).system(), lc);
    for (auto& b : over.beats) lc.alerts += b->alerts;
    lc.lane_busy_share = median(busy_share);
    lc.lane_imbalance = median(imbalance);
    lc.coordinator_us = median(coordinator_us);
    res.per_layer = layer_metrics(lc, run.tw);
    return res;
  }
  std::vector<double> grant;
  for (ThreadBuf* tb : all_bufs())
    grant.insert(grant.end(), tb->samples.begin(), tb->samples.end());
  res.end_to_end = end_to_end_metrics(
      run, grant, setup_ns, "permission decisions on the Overhaul fleet");
  return res;
}

}  // namespace perfbench
