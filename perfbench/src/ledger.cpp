#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

std::int64_t total_self_ns(const std::vector<KindStats>& st) {
  std::int64_t total = 0;
  for (const KindStats& s : st) total += s.self_ns;
  return total;
}

// A timed layer: p50 of the span's host duration, with its sample count,
// its share of all recorded self time (every thread, every kind) and, when
// ten samples lie beyond it, p99.
Metric timed(const std::vector<KindStats>& st, const char* name, Kind kind,
             double per_unit_ns, const char* unit) {
  const KindStats& s = st[static_cast<int>(kind)];
  Metric m{name, s.hist.percentile(0.50) / per_unit_ns, unit, s.count, ""};
  const std::int64_t total = total_self_ns(st);
  const double share =
      total > 0 ? static_cast<double>(s.self_ns) / static_cast<double>(total)
                : 0.0;
  m.detail = "self_share=" + fmt("%.4f", share);
  if (tail_supported(s.count, 0.99))
    m.detail += " p99=" + fmt("%.4g", s.hist.percentile(0.99) / per_unit_ns);
  return m;
}

Metric count(const char* name, double v, const char* unit = "count") {
  return Metric{name, v, unit, 0, ""};
}

// Groups consecutive loop units into windows of at least `window_ns` and
// returns the median of per-window rates (ops per second): robust to a
// scheduling hiccup in one window. The window count and rate quartiles go
// to `detail`.
double windowed_rate(const std::vector<double>& unit_ops,
                     const std::vector<double>& unit_ns, double window_ns,
                     std::string* detail) {
  std::vector<double> rates;
  double ops = 0, ns = 0;
  for (std::size_t i = 0; i < unit_ns.size(); ++i) {
    ops += unit_ops[i];
    ns += unit_ns[i];
    if (ns >= window_ns) {
      rates.push_back(ops / (ns / 1e9));
      ops = ns = 0;
    }
  }
  if (rates.empty() && ns > 0) rates.push_back(ops / (ns / 1e9));
  if (detail != nullptr)
    *detail += " windows=" + std::to_string(rates.size()) +
               " q1=" + fmt("%.6g", percentile(rates, 0.25)) +
               " q3=" + fmt("%.6g", percentile(rates, 0.75));
  return median(rates);
}

// Median over pairs of (Overhaul unit time ÷ baseline unit time), with the
// pair quartiles and a 95 % interval of the median recorded in `detail`.
double pair_ratio(const std::vector<double>& over_ns,
                  const std::vector<double>& base_ns, std::string* detail) {
  std::vector<double> r;
  for (std::size_t i = 0; i < over_ns.size() && i < base_ns.size(); ++i)
    if (base_ns[i] > 0) r.push_back(over_ns[i] / base_ns[i]);
  if (detail != nullptr && !r.empty()) {
    // Distribution-free 95 % interval of the median: order statistics
    // n/2 -/+ 1.96 sqrt(n)/2 of the sorted pair ratios.
    std::vector<double> s = r;
    std::sort(s.begin(), s.end());
    const double n = static_cast<double>(s.size());
    const double half = 1.96 * std::sqrt(n) / 2.0;
    const auto at = [&](double rank) {
      const double c = std::clamp(rank, 0.0, n - 1.0);
      return s[static_cast<std::size_t>(c)];
    };
    *detail = "pairs=" + std::to_string(s.size()) +
              " q1=" + fmt("%.4f", percentile(r, 0.25)) +
              " q3=" + fmt("%.4f", percentile(r, 0.75)) +
              " ci95=[" + fmt("%.4f", at(std::floor(n / 2 - half))) + "," +
              fmt("%.4f", at(std::ceil(n / 2 + half))) + "]";
  }
  return median(r);
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const PairedRun& run,
                                       const std::vector<double>& grant_us,
                                       const std::vector<double>& setup_ns,
                                       const std::string& ops_what) {
  std::vector<Metric> e;
  std::string rate_detail = ops_what + ";";
  const double rate =
      windowed_rate(run.over_ops, run.over_ns, 0.2e9, &rate_detail);
  e.push_back({"ops_per_s", rate, "1/s", run.over_ns.size(), rate_detail});
  std::string ratio_detail;
  const double ratio = pair_ratio(run.over_ns, run.base_ns, &ratio_detail);
  e.push_back(
      {"overhead_ratio", ratio, "ratio", run.over_ns.size(), ratio_detail});
  add_latency(e, "grant_p50_us", "grant_p99_us", grant_us, "us");
  std::vector<double> quantum_us;
  for (double v : run.over_ns) quantum_us.push_back(v / 1e3);
  // quantum_p99_us is printed but not in the result line: see README.md.
  add_latency(e, "quantum_p50_us", "quantum_p99_us", quantum_us, "us", false);
  e.push_back({"setup_s", median(setup_ns) / 1e9, "s", setup_ns.size(), ""});
  e.push_back({"peak_rss_mb", proc_status_mb("VmHWM"), "MB", 0,
               "VmRSS=" + fmt("%.1f", proc_status_mb("VmRSS"))});
  return e;
}

std::vector<Metric> layer_metrics(const LayerCounts& c, const TraceWall& w) {
  const std::vector<KindStats> st = merged_stats();
  std::vector<Metric> out;
  const auto setup = [&](const char* name, const std::vector<double>& v) {
    Metric m{name, percentile(v, 0.5), "us", v.size(), ""};
    out.push_back(m);
  };
  setup("core.boot_us", c.boot_us);
  setup("core.launch_app_us", c.launch_app_us);
  out.push_back(timed(st, "x11.input_ns", Kind::kX11Input, 1, "ns"));
  out.push_back(timed(st, "wl.input_ns", Kind::kWlInput, 1, "ns"));
  out.push_back(timed(st, "x11.paste_ns", Kind::kX11Paste, 1, "ns"));
  out.push_back(timed(st, "wl.receive_ns", Kind::kWlReceive, 1, "ns"));
  out.push_back(timed(st, "x11.get_image_ns", Kind::kX11GetImage, 1, "ns"));
  out.push_back(
      timed(st, "wl.screencopy_ns", Kind::kWlScreencopy, 1, "ns"));
  out.push_back(count("x11.forged_minted", c.x11_forged_minted));
  out.push_back(count("wl.forged_minted", c.wl_forged_minted));
  out.push_back(
      timed(st, "kern.open_device_ns", Kind::kKernOpenDevice, 1, "ns"));
  out.push_back(
      timed(st, "kern.open_denied_ns", Kind::kKernOpenDenied, 1, "ns"));
  out.push_back(
      timed(st, "kern.monitor.check_ns", Kind::kKernCheck, 1, "ns"));
  out.push_back(count("kern.monitor.granted", c.granted));
  out.push_back(count("kern.monitor.denied", c.denied));
  out.push_back(count("kern.netlink.notifications", c.netlink_notifications));
  out.push_back(count("kern.netlink.merge_ratio",
                      c.input_notifications_sent > 0
                          ? c.netlink_merged / c.input_notifications_sent
                          : 0.0,
                      "ratio"));
  out.push_back(
      timed(st, "kern.ipc.pipe_hop_ns", Kind::kKernIpcPipe, 1, "ns"));
  out.push_back(
      timed(st, "kern.ipc.socket_hop_ns", Kind::kKernIpcSocket, 1, "ns"));
  out.push_back(timed(st, "kern.ipc.pty_hop_ns", Kind::kKernIpcPty, 1, "ns"));
  out.push_back(timed(st, "kern.ipc.posix_mq_hop_ns", Kind::kKernIpcPosixMq,
                      1, "ns"));
  out.push_back(timed(st, "kern.ipc.sysv_mq_hop_ns", Kind::kKernIpcSysvMq, 1,
                      "ns"));
  out.push_back(count("kern.ipc.adoptions", c.ipc_adoptions));
  // table1_mix times shm writes in spans of 50 (kShmBatch there).
  out.push_back(timed(st, "kern.shm.write_ns", Kind::kKernShmWrite, 50, "ns"));
  out.push_back(count("kern.shm.faults", c.shm_faults));
  out.push_back(timed(st, "kern.fs.create_ns", Kind::kKernFsCreate, 1, "ns"));
  out.push_back(count("display.alerts", c.alerts));
  out.push_back(count("audit.appends", c.audit_appends));
  out.push_back(
      count("audit.ring_mb", c.audit_ring_bytes / (1024.0 * 1024.0), "MB"));
  out.push_back(
      timed(st, "audit.readback_us", Kind::kAuditReadback, 1e3, "us"));
  out.push_back(
      timed(st, "obs.metrics_read_us", Kind::kObsMetricsRead, 1e3, "us"));
  out.push_back(count("fleet.boot_seat_us", c.fleet_boot_seat_us, "us"));
  out.push_back(count("fleet.rss_per_seat_kb", c.fleet_rss_per_seat_kb, "kB"));
  out.push_back(count("fleet.rss_proxy_mb", c.fleet_rss_proxy_mb, "MB"));
  out.push_back(timed(st, "fleet.beat_ns", Kind::kFleetBeat, 1, "ns"));
  out.push_back(
      timed(st, "fleet.xshard_send_ns", Kind::kFleetXshardSend, 1, "ns"));
  out.push_back(
      timed(st, "fleet.xshard_recv_ns", Kind::kFleetXshardRecv, 1, "ns"));
  out.push_back(count("sim.lane_busy_share", c.lane_busy_share, "share"));
  out.push_back(count("sim.lane_imbalance", c.lane_imbalance, "ratio"));
  out.push_back(count("sim.coordinator_us", c.coordinator_us, "us"));
  out.push_back(count(
      "bench.unattributed_share",
      w.traced_wall_ns > 0
          ? 1.0 - static_cast<double>(w.attributed_ns) /
                      static_cast<double>(w.traced_wall_ns)
          : 0.0,
      "share"));
  const double untraced = median(w.untraced_unit_ns);
  out.push_back(count("bench.trace_overhead",
                      untraced > 0 ? median(w.traced_unit_ns) / untraced : 0.0,
                      "ratio"));
  out.back().n = w.traced_unit_ns.size();
  return out;
}

}  // namespace perfbench
