// Netlink: the authenticated kernel ↔ userspace channel (§IV-B).
//
// The paper uses Linux netlink for the secure communication channel between
// the kernel permission monitor and the X server, and solves authentication
// by *introspection*: "it examines the virtual memory maps to check whether
// the process it is communicating with is indeed the X server ... whether
// the executable code mapped into the process is loaded from the well-known,
// and superuser-owned, filesystem path". We reproduce that: connect() checks
// the peer task's exe path against an authorized set AND verifies the binary
// at that path is root-owned in the VFS.
//
// Three message families flow over the channel:
//   userspace → kernel : interaction notifications N_{A,t}
//   userspace → kernel : permission queries Q_{A,t} (synchronous reply R)
//   userspace → kernel : device-map updates (trusted udev helper only)
//   kernel → userspace : visual alert requests V_{A,op}
//
// Interaction notifications are *coalesced* (DESIGN.md §10): the permission
// monitor only ever reads the freshest N_{A,t} per pid, so a burst of
// mouse-motion/keystroke notifications inside a small skew window collapses
// into one kernel crossing. The first notification after an idle period
// crosses immediately (leading edge — single clicks stay synchronous);
// followers for the same pid merge into a per-channel pending buffer that
// flushes on pid change, on any permission query or ACG grant, or once the
// configured max-skew has elapsed. Decision equivalence with coalescing off
// is guaranteed by the flush-before-decide barrier
// (PermissionMonitor::set_pre_check_flush → NetlinkHub::flush_coalesced).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kern/devices.h"
#include "kern/process_table.h"
#include "kern/task.h"
#include "kern/vfs.h"
#include "obs/obs.h"
#include "sim/clock.h"
#include "util/annotations.h"
#include "util/audit_log.h"
#include "util/status.h"

namespace overhaul::kern {

// Channel roles determine which message families a peer may send.
enum class NetlinkRole : std::uint8_t { kDisplayManager, kDeviceHelper };

struct InteractionNotification {
  Pid pid = kNoPid;       // process that received the authentic input
  sim::Timestamp ts;      // when the input arrived
};

// ACG comparison mode: a click on an op-specific access-control gadget.
struct AcgGrantNotification {
  Pid pid = kNoPid;
  util::Op op = util::Op::kDeviceOther;
  sim::Timestamp ts;
};

struct PermissionQuery {
  Pid pid = kNoPid;       // process requesting the privileged operation
  util::Op op = util::Op::kDeviceOther;
  sim::Timestamp op_time; // timestamp issued together with the query
  std::string detail;
};

struct PermissionReply {
  util::Decision decision = util::Decision::kDeny;
};

struct DeviceMapUpdate {
  bool add = true;        // add/refresh vs remove
  std::string path;       // current /dev path
  DeviceId device = kNoDevice;
};

// Delivery is synchronous (request_alert returns once every display manager
// has shown the alert), so `comm` borrows the TaskStruct's name rather than
// copying it; a handler that keeps the request must copy the comm itself.
struct AlertRequest {
  Pid pid = kNoPid;
  std::string_view comm;  // resolved by the kernel for display purposes
  util::Op op = util::Op::kDeviceOther;
  util::Decision decision = util::Decision::kDeny;
};

// Per-channel coalescing knobs; channels copy the hub defaults at connect
// time and benches/tests may override per channel.
struct CoalesceConfig {
  bool enabled = true;
  sim::Duration max_skew = sim::Duration::millis(10);
};

class NetlinkHub;

// One authenticated endpoint held by a userspace process. Must not outlive
// the hub that minted it (the destructor unregisters from the hub).
class NetlinkChannel {
 public:
  NetlinkChannel(NetlinkHub& hub, Pid peer, TaskHandle peer_handle,
                 NetlinkRole role)
      : hub_(hub), peer_(peer), peer_handle_(peer_handle), role_(role) {}
  ~NetlinkChannel();

  NetlinkChannel(const NetlinkChannel&) = delete;
  NetlinkChannel& operator=(const NetlinkChannel&) = delete;

  [[nodiscard]] Pid peer() const noexcept { return peer_; }
  [[nodiscard]] NetlinkRole role() const noexcept { return role_; }

  // Display-manager messages.
  //
  // send_interaction's merge case is the hottest operation on the channel
  // (input-device cadence), so it stays fully inline: three compares and
  // three increments, no kernel crossing, no atomics — the hub's merge
  // counter is published in a batch at the next crossing (discard_pending).
  // Only display-manager channels can ever have a pending buffer, so the
  // role check is subsumed by `has_pending_`.
  util::Status send_interaction(const InteractionNotification& note) {
    if (has_pending_ && pending_.pid == note.pid &&
        note.ts - last_delivery_ < coalesce_.max_skew) {
      if (note.ts > pending_.ts) pending_.ts = note.ts;
      ++stats_.interactions_merged;
      ++unpublished_merges_;
      ++stats_.interactions_sent;
      return util::Status::ok();
    }
    return send_interaction_slow(note);
  }
  util::Status send_acg_grant(const AcgGrantNotification& note);
  util::Result<PermissionReply> query_permission(const PermissionQuery& query);

  // Deliver the pending coalesced notification (if any) to the kernel now.
  // Called by the hub on the monitor's pre-check barrier, and internally on
  // every flush trigger.
  util::Status flush_interactions();
  [[nodiscard]] bool has_pending_interaction() const noexcept {
    return has_pending_;
  }

  // Coalescing overrides (defaults are copied from the hub at connect()).
  void set_coalescing(CoalesceConfig config);
  [[nodiscard]] const CoalesceConfig& coalescing() const noexcept {
    return coalesce_;
  }

  // Device-helper messages.
  util::Status send_device_update(const DeviceMapUpdate& update);

  // Kernel → userspace alert delivery.
  void set_alert_handler(std::function<void(const AlertRequest&)> fn) {
    alert_fn_ = std::move(fn);
  }
  void deliver_alert(const AlertRequest& alert) {
    if (alert_fn_) alert_fn_(alert);
  }

  struct Stats {
    std::uint64_t interactions_sent = 0;    // accepted by the channel
    std::uint64_t interactions_merged = 0;  // absorbed into the pending slot
    std::uint64_t interactions_delivered = 0;  // actual kernel crossings
    std::uint64_t queries_sent = 0;
    std::uint64_t device_updates_sent = 0;
    std::uint64_t alerts_received = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  friend class NetlinkHub;

  // The kernel-side endpoint of a dead process is closed: every kernel
  // crossing re-checks peer liveness — one generation-checked slab load via
  // the handle cached at connect time, no pid translation.
  util::Status check_peer_alive() const;

  // Everything send_interaction's inline merge case does not cover: role
  // enforcement, leading-edge delivery, buffer start, flush triggers.
  util::Status send_interaction_slow(const InteractionNotification& note);

  // The actual kernel crossing for one interaction notification.
  util::Status deliver_interaction(const InteractionNotification& note);
  // Buffer-or-cross according to the coalescing rules in the header comment.
  util::Status coalesce_interaction(const InteractionNotification& note);
  // Forget the pending notification without delivering (dead peer teardown).
  void discard_pending() noexcept;

  NetlinkHub& hub_;
  OVERHAUL_SHARD_LOCAL Pid peer_;
  OVERHAUL_SHARD_LOCAL TaskHandle peer_handle_;
  OVERHAUL_SHARD_LOCAL NetlinkRole role_;
  OVERHAUL_SHARD_LOCAL std::function<void(const AlertRequest&)> alert_fn_;
  OVERHAUL_SHARD_LOCAL Stats stats_;

  OVERHAUL_SHARD_LOCAL CoalesceConfig coalesce_;
  // The coalescing buffer is the one piece of channel state mutated from
  // outside the owner's send path (the hub's flush barrier and dead-peer
  // pruning reach it), so writes are confined to the send_interaction
  // call tree — everything else must go through the flush/discard members
  // that tree contains.
  OVERHAUL_SHARED(send_interaction) bool has_pending_ = false;
  OVERHAUL_SHARED(send_interaction) InteractionNotification pending_;
  OVERHAUL_SHARED(send_interaction)
  sim::Timestamp last_delivery_ = sim::Timestamp::never();
  // Merges not yet added to the hub's netlink.coalesce.merged counter;
  // published (one batched add) whenever the pending buffer resolves.
  OVERHAUL_SHARED(send_interaction) std::uint64_t unpublished_merges_ = 0;
};

// Kernel-side multiplexer. The Kernel facade installs the message handlers;
// the hub enforces authentication and per-role routing.
class NetlinkHub {
 public:
  NetlinkHub(ProcessTable& processes, Vfs& vfs)
      : processes_(processes), vfs_(vfs) {}

  // Declare an executable path as an authorized peer for `role`. The binary
  // must exist in the VFS and be owned by root at connect() time.
  void authorize(std::string exe_path, NetlinkRole role) {
    authorized_[std::move(exe_path)] = role;
  }

  // Authenticate `pid` and hand it a channel. Fails with kNotAuthenticated
  // when the peer's executable is not an authorized, root-owned binary.
  util::Result<std::shared_ptr<NetlinkChannel>> connect(Pid pid);

  // Kernel → display manager(s): request a visual alert. Walks the live
  // channel registry directly — no weak_ptr locking; dead-peer channels are
  // pruned eagerly by drop_dead_channels() on process exit.
  void request_alert(const AlertRequest& alert);

  // Default coalescing configuration handed to newly connected channels.
  void set_coalescing(CoalesceConfig config) noexcept { coalesce_ = config; }
  [[nodiscard]] const CoalesceConfig& coalescing() const noexcept {
    return coalesce_;
  }

  // Deliver every channel's pending coalesced notification. O(1) when
  // nothing is pending anywhere — this runs on every permission check.
  void flush_coalesced();
  [[nodiscard]] std::size_t pending_coalesced() const noexcept {
    return pending_coalesced_;
  }

  // Handler installation (Kernel facade).
  using InteractionHandler =
      std::function<util::Status(const InteractionNotification&)>;
  using AcgGrantHandler =
      std::function<util::Status(const AcgGrantNotification&)>;
  using QueryHandler =
      std::function<util::Result<PermissionReply>(const PermissionQuery&)>;
  using DeviceUpdateHandler = std::function<util::Status(const DeviceMapUpdate&)>;

  void set_interaction_handler(InteractionHandler fn) {
    on_interaction_ = std::move(fn);
  }
  void set_acg_grant_handler(AcgGrantHandler fn) {
    on_acg_grant_ = std::move(fn);
  }
  void set_query_handler(QueryHandler fn) { on_query_ = std::move(fn); }
  void set_device_update_handler(DeviceUpdateHandler fn) {
    on_device_update_ = std::move(fn);
  }

  // Channel registry bookkeeping: a channel whose peer died is removed from
  // the registry (its pending coalesced notification is discarded — the
  // subject no longer exists). The channel object itself stays with its
  // owner; every send on it keeps failing the liveness check.
  void drop_dead_channels();

  // Pre-resolves the hub's metric handles (`netlink.channel.*` for the
  // authentication/liveness outcomes, `netlink.msg.*` per message family,
  // `netlink.coalesce.*` for the coalescing stage). Channels record through
  // the hub, so attaching once covers all of them.
  void attach_obs(obs::Observability* obs);

 private:
  friend class NetlinkChannel;

  void unregister(NetlinkChannel* channel);

  ProcessTable& processes_;
  Vfs& vfs_;
  OVERHAUL_SHARD_LOCAL std::map<std::string, NetlinkRole> authorized_;
  // Raw pointers: registration in connect(), removal in ~NetlinkChannel or
  // drop_dead_channels(), whichever comes first. The registry is the rendez-
  // vous point between channel owners and the kernel, so mutation is pinned
  // to exactly those three members.
  OVERHAUL_SHARED(connect|unregister|drop_dead_channels)
  std::vector<NetlinkChannel*> channels_;
  OVERHAUL_SHARD_LOCAL CoalesceConfig coalesce_;
  // Written from the channel side of the seam (buffer start / resolve).
  OVERHAUL_SHARED(NetlinkChannel::coalesce_interaction|NetlinkChannel::discard_pending)
  std::size_t pending_coalesced_ = 0;

  OVERHAUL_SHARD_LOCAL obs::Counter* c_connects_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_auth_failures_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_broken_rejects_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_interactions_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_acg_grants_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_queries_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_device_updates_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_alerts_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_coalesce_merged_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_coalesce_flushed_ = nullptr;

  OVERHAUL_SHARD_LOCAL InteractionHandler on_interaction_;
  OVERHAUL_SHARD_LOCAL AcgGrantHandler on_acg_grant_;
  OVERHAUL_SHARD_LOCAL QueryHandler on_query_;
  OVERHAUL_SHARD_LOCAL DeviceUpdateHandler on_device_update_;
};

}  // namespace overhaul::kern
