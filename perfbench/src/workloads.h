// The three workloads. Each builds its systems (timed as setup_s, several
// times, median reported), generates its seeded op script before the timed
// section, runs a closed loop for --seconds and checks every verdict
// against the Oracle. With --trace 1 the loop alternates traced and
// untraced units and returns the per-layer ledger instead of the
// end-to-end metrics.
#pragma once

#include <utility>

#include "common.h"
#include "core/system.h"
#include "ledger.h"
#include "spans.h"

namespace perfbench {

RunResult run_table1_mix(const RunOptions& opt);
RunResult run_desktop_session(const RunOptions& opt);
RunResult run_fleet_mixed(const RunOptions& opt);

// Obs-registry and layer-API counts of one booted system, added into `c`.
void add_system_counts(overhaul::core::OverhaulSystem& sys, LayerCounts& c);

// The closed loop every workload runs: Overhaul/baseline unit pairs, fed
// the same script, until opt.seconds pass or max_units pairs ran. Which side
// runs first alternates every two pairs. With --trace 1, tracing is on for
// the Overhaul unit of two pairs out of every four, independently of the
// order, so traced and untraced units interleave. over(i, traced) runs
// Overhaul unit i and returns {ops, host ns}; base(i) runs baseline unit i
// and returns its host ns.
template <typename Over, typename Base>
PairedRun run_pairs(const RunOptions& opt, std::uint64_t max_units,
                    Over&& over, Base&& base) {
  PairedRun r;
  ThreadBuf& main_buf = local_buf();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::uint64_t i = 0; i < max_units && now_ns() < deadline; ++i) {
    const bool over_first = (i / 2) % 2 == 0;
    const bool traced = opt.trace && (i / 4) % 2 == 0;
    std::pair<double, std::int64_t> o{0, 0};
    const auto run_over = [&] {
      const std::int64_t attributed0 = attributed_self_ns(main_buf);
      g_tracing.store(traced, std::memory_order_relaxed);
      main_buf.ctx = i;
      o = over(i, traced);
      g_tracing.store(false, std::memory_order_relaxed);
      if (traced) {
        r.tw.traced_wall_ns += o.second;
        r.tw.attributed_ns += attributed_self_ns(main_buf) - attributed0;
      }
    };
    if (over_first) run_over();
    const std::int64_t b = base(i);
    if (!over_first) run_over();
    r.over_ns.push_back(static_cast<double>(o.second));
    r.base_ns.push_back(static_cast<double>(b));
    r.over_ops.push_back(o.first);
    (traced ? r.tw.traced_unit_ns : r.tw.untraced_unit_ns)
        .push_back(static_cast<double>(o.second));
  }
  return r;
}

// Host-time of a callable, in ns.
template <typename Fn>
std::int64_t time_ns(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

}  // namespace perfbench
