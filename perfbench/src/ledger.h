// The δ-policy oracle every workload checks its verdicts against, and the
// per-layer ledger built from a traced run.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "spans.h"

namespace perfbench {

// Expected verdicts, computed from the script alone (input times, forks,
// IPC sends/receives), never from the system's own state. The rule: a
// process may use a sensitive resource iff it, or a P1 (fork) or P2 (IPC)
// ancestor of it, received hardware input less than δ before the
// operation. Forged input never counts, so the script never reports it.
// On a baseline (Overhaul off) system nothing is mediated: every mediated
// operation succeeds, and a direct monitor query sees no interactions.
class Oracle {
 public:
  static constexpr std::int64_t kNever = INT64_MIN;

  Oracle(bool overhaul, std::int64_t delta_ns)
      : overhaul_(overhaul), delta_ns_(delta_ns) {}

  void input(int pid, std::int64_t t) { bump(slot(pid), t); }
  void fork(int parent, int child) { slot(child) = get(parent); }
  void exit(int pid) { slot(pid) = kNever; }
  // P2: a send stamps the channel with the sender's timestamp if fresher;
  // a receive adopts the channel's stamp if fresher.
  void send(std::uint64_t channel, int sender) {
    bump(chan_[channel], get(sender));
  }
  void recv(std::uint64_t channel, int receiver) {
    bump(slot(receiver), get_chan(channel));
  }
  void close_channel(std::uint64_t channel) { chan_.erase(channel); }

  // Verdict of an operation the kernel or display server mediates.
  [[nodiscard]] bool mediated(int pid, std::int64_t t) const {
    return !overhaul_ || fresh(pid, t);
  }
  // Verdict of a direct PermissionMonitor query.
  [[nodiscard]] bool direct(int pid, std::int64_t t) const {
    return overhaul_ && fresh(pid, t);
  }

 private:
  static void bump(std::int64_t& slot, std::int64_t t) {
    if (t > slot) slot = t;
  }
  // Pids are small non-negative integers: a dense table indexed by pid.
  std::int64_t& slot(int pid) {
    const auto i = static_cast<std::size_t>(pid);
    if (i >= ts_.size()) ts_.resize(i + 1, kNever);
    return ts_[i];
  }
  [[nodiscard]] std::int64_t get(int pid) const {
    const auto i = static_cast<std::size_t>(pid);
    return i < ts_.size() ? ts_[i] : kNever;
  }
  [[nodiscard]] std::int64_t get_chan(std::uint64_t c) const {
    const auto it = chan_.find(c);
    return it == chan_.end() ? kNever : it->second;
  }
  [[nodiscard]] bool fresh(int pid, std::int64_t t) const {
    const std::int64_t ts = get(pid);
    if (ts == kNever) return false;
    const std::int64_t age = t - ts;
    return age >= 0 && age < delta_ns_;
  }

  bool overhaul_;
  std::int64_t delta_ns_;
  std::vector<std::int64_t> ts_;
  std::unordered_map<std::uint64_t, std::int64_t> chan_;
};

// Counts and ratios the workloads read from the obs MetricsRegistry or a
// layer's own API; zero where the workload does not exercise the layer.
struct LayerCounts {
  std::vector<double> boot_us;        // OverhaulSystem ctor (or one seat)
  std::vector<double> launch_app_us;  // launch_gui_app
  double x11_forged_minted = 0;
  double wl_forged_minted = 0;
  double granted = 0;
  double denied = 0;
  double netlink_notifications = 0;
  double netlink_merged = 0;
  double input_notifications_sent = 0;
  double ipc_adoptions = 0;
  double shm_faults = 0;
  double alerts = 0;
  double audit_appends = 0;
  double audit_ring_bytes = 0;
  double fleet_boot_seat_us = 0;
  double fleet_rss_per_seat_kb = 0;
  double fleet_rss_proxy_mb = 0;
  double lane_busy_share = 0;
  double lane_imbalance = 0;
  double coordinator_us = 0;
};

// Traced-run bookkeeping: wall time of traced loop units, the self time
// the loop thread attributed to spans inside them, and the per-unit medians
// of alternating traced and untraced units.
struct TraceWall {
  std::int64_t traced_wall_ns = 0;
  std::int64_t attributed_ns = 0;
  std::vector<double> traced_unit_ns;
  std::vector<double> untraced_unit_ns;
};

// What the paired closed loop (run_pairs in workloads.h) measured: per
// pair, the Overhaul unit's host ns and ops and the baseline unit's host ns.
struct PairedRun {
  std::vector<double> over_ns, base_ns, over_ops;
  TraceWall tw;
};

// The end-to-end metrics of an untraced run, in a fixed order: ops_per_s
// (`ops_what` says what an op is), overhead_ratio, grant_p50/p99_us from
// `grant_us`, quantum_p50_us (quantum_p99_us only in the ledger), setup_s
// from the repeated set-up times, and peak_rss_mb.
std::vector<Metric> end_to_end_metrics(const PairedRun& run,
                                       const std::vector<double>& grant_us,
                                       const std::vector<double>& setup_ns,
                                       const std::string& ops_what);

// Every per-layer metric named in BENCHMARK.json, in a fixed order.
std::vector<Metric> layer_metrics(const LayerCounts& c, const TraceWall& w);


}  // namespace perfbench
