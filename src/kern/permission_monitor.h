// PermissionMonitor: the paper's core contribution (§III-B, §IV-B).
//
// Lives in the kernel. Receives *interaction notifications* (pid +
// timestamp) from the display manager over the authenticated netlink
// channel, stores the latest timestamp in the target task_struct, and
// answers *permission queries* by correlating the privileged operation's
// timestamp with the stored interaction timestamp under a configurable
// temporal-proximity threshold δ (paper default: 2 s — "less than 1 second
// could lead to falsely revoked permissions, but 2 seconds is sufficient").
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "audit/sink.h"
#include "kern/process_table.h"
#include "obs/obs.h"
#include "sim/clock.h"
#include "util/annotations.h"
#include "util/audit_log.h"

namespace overhaul::kern {

// Operating mode:
//  kEnforce     – normal Overhaul operation.
//  kGrantAlways – exercise the full decision path but always grant. This is
//                 the paper's Table-I evaluation configuration ("we
//                 temporarily modified OVERHAUL's permission monitor to grant
//                 access ... in order to exercise the entire execution path").
enum class MonitorMode : std::uint8_t { kEnforce, kGrantAlways };

// Which grant rule correlates input with privileged operations:
//  kInputDriven – the paper's model: any authentic interaction with the app
//                 within δ unlocks any resource for it (black-box).
//  kAcg         – the Roesner et al. [27] comparison model: only a click on
//                 an op-specific access-control gadget grants, and only that
//                 op (white-box; requires modified applications).
enum class GrantPolicy : std::uint8_t { kInputDriven, kAcg };

class PermissionMonitor {
 public:
  PermissionMonitor(ProcessTable& processes, sim::Clock& clock,
                    audit::Sink& audit)
      : processes_(processes), clock_(clock), audit_(audit) {}

  // --- configuration -------------------------------------------------------
  void set_mode(MonitorMode mode) noexcept { mode_ = mode; }
  [[nodiscard]] MonitorMode mode() const noexcept { return mode_; }

  void set_threshold(sim::Duration delta) noexcept { delta_ = delta; }
  [[nodiscard]] sim::Duration threshold() const noexcept { return delta_; }

  void set_grant_policy(GrantPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] GrantPolicy grant_policy() const noexcept { return policy_; }

  // Ptrace hardening (§IV-B "Processes isolation and introspection"): while
  // a process is being traced, all of its Overhaul permissions are revoked.
  // Toggleable by the superuser (proc node in the paper).
  void set_ptrace_protect(bool on) noexcept { ptrace_protect_ = on; }
  [[nodiscard]] bool ptrace_protect() const noexcept { return ptrace_protect_; }

  // Audit can be silenced for tight benchmark loops.
  void set_audit_enabled(bool on) noexcept { audit_enabled_ = on; }

  // Pre-resolves the monitor's metric handles (`monitor.decisions.*`,
  // `monitor.notifications`, `monitor.queries`) and enables decision spans
  // in the tracer. Null detaches; every hot-path hook then short-circuits.
  void attach_obs(obs::Observability* obs);

  // --- interaction notifications (N_{A,t}) ---------------------------------
  // Record that process `pid` received an authentic hardware input at `ts`.
  // Only ever moves the stored timestamp forward. Returns false if the pid
  // does not name a live task.
  bool record_interaction(Pid pid, sim::Timestamp ts);

  // ACG mode: record that the user clicked an op-specific gadget of `pid`.
  bool record_acg_grant(Pid pid, util::Op op, sim::Timestamp ts);

  // --- permission queries (Q_{A,t} → R_{A,t}) -------------------------------
  // Decide whether `pid` may perform `op` at `op_time`. `detail` is free-form
  // context for the audit log (device path, selection atom...). Borrowed as a
  // string_view: with audit and tracing off the check path never copies it —
  // part of the zero-allocation fast-path contract (DESIGN.md §10).
  util::Decision check(Pid pid, util::Op op, sim::Timestamp op_time,
                       std::string_view detail);

  // Convenience: check at the current virtual time.
  util::Decision check_now(Pid pid, util::Op op, std::string_view detail) {
    return check(pid, op, clock_.now(), detail);
  }

  // --- coalescing barrier ----------------------------------------------------
  // Before deciding, the monitor must see every interaction notification the
  // display manager has produced so far; the kernel wires this hook to
  // NetlinkHub::flush_coalesced() so buffered notifications are delivered
  // first. This is what makes coalescing decision-equivalent even for checks
  // that do not arrive over netlink (sys_open device mediation).
  using FlushFn = std::function<void()>;
  void set_pre_check_flush(FlushFn fn) { flush_fn_ = std::move(fn); }

  // --- trusted output hook (V_{A,op}) ---------------------------------------
  // The kernel requests visual alerts through this callback; the Overhaul
  // system wires it to the display manager's overlay (§III-B step 6). Alerts
  // fire for hardware/screen operations (grants *and* blocked attempts) but
  // not for clipboard ops — the paper suppresses those for usability (§V-C).
  using AlertRequestFn =
      std::function<void(Pid, util::Op, util::Decision)>;
  void set_alert_request_handler(AlertRequestFn fn) { alert_fn_ = std::move(fn); }

  // --- prompt mode (optional, §IV-A) ----------------------------------------
  // When installed, a would-be denial for a hardware/screen op (other than a
  // ptrace-hardening denial) is deferred to the user through an unforgeable
  // prompt instead. The handler returns the user's decision synchronously.
  // The paper implements this mode to demonstrate the primitives but argues
  // against deploying it (prompt fatigue, §VI).
  using PromptFn = std::function<util::Decision(Pid, util::Op)>;
  void set_prompt_handler(PromptFn fn) { prompt_fn_ = std::move(fn); }

  // --- statistics ------------------------------------------------------------
  struct Stats {
    std::uint64_t notifications = 0;
    std::uint64_t queries = 0;
    std::uint64_t grants = 0;
    std::uint64_t denials = 0;
    std::uint64_t ptrace_denials = 0;
    std::uint64_t prompted = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] static bool op_wants_alert(util::Op op) noexcept {
    return op == util::Op::kMicrophone || op == util::Op::kCamera ||
           op == util::Op::kScreenCapture || op == util::Op::kDeviceOther;
  }

  // obs hooks (out of line so the mediation analyzer can anchor on them —
  // tools/lint/overhaul_lint.rules treats a missing call as a finding).
  void note_decision(util::Decision decision, bool ptrace_denied,
                     bool prompted);
  void note_notification();
  // Coalescing barrier, likewise anchored by the analyzer: check() must
  // drain pending interaction notifications before deciding.
  void flush_coalesced_inputs();

  ProcessTable& processes_;
  sim::Clock& clock_;
  audit::Sink& audit_;

  // The monitor is per-shard state in the parallel sim (one monitor per
  // kernel instance); nothing here is touched across shards.
  OVERHAUL_SHARD_LOCAL MonitorMode mode_ = MonitorMode::kEnforce;
  OVERHAUL_SHARD_LOCAL GrantPolicy policy_ = GrantPolicy::kInputDriven;
  OVERHAUL_SHARD_LOCAL sim::Duration delta_ = sim::Duration::seconds(2);
  OVERHAUL_SHARD_LOCAL bool ptrace_protect_ = true;
  OVERHAUL_SHARD_LOCAL bool audit_enabled_ = true;

  OVERHAUL_SHARD_LOCAL AlertRequestFn alert_fn_;
  OVERHAUL_SHARD_LOCAL PromptFn prompt_fn_;
  OVERHAUL_SHARD_LOCAL FlushFn flush_fn_;
  OVERHAUL_SHARD_LOCAL Stats stats_;

  OVERHAUL_SHARD_LOCAL obs::Observability* obs_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_granted_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_denied_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_ptrace_denied_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_prompted_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_notifications_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_queries_ = nullptr;
  OVERHAUL_SHARD_LOCAL util::Histogram* h_grant_age_ms_ = nullptr;
};

}  // namespace overhaul::kern
