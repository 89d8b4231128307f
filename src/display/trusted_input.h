// TrustedInput: the trusted input path (§IV-A), written once for both
// display backends. Each backend holds one instance, as it holds its
// AlertOverlay, and calls it for the shared steps: connecting the
// authenticated netlink channel (and routing its alerts to the overlay),
// the clickjacking rule with notify-or-suppress, the input counters and
// trace, and the permission query. Target resolution, provenance tags,
// ACG hit-testing, serials and event queueing stay in the backends
// (DESIGN.md §11).
//
// mint_interaction() is the one place an interaction is minted; the lint's
// R6 rule holds its callers to the two backends' deliver_input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>

#include "display/alert.h"
#include "kern/kernel.h"
#include "util/annotations.h"

namespace overhaul::display {

// `overhaul_enabled = false` gives the unmodified server for benchmark
// baselines: no channel, no notifications, every query granted.
struct ServerConfig {
  bool overhaul_enabled = true;
  // Clickjacking visibility threshold: a window must have been continuously
  // visible at least this long before events on it count as interaction.
  // (The paper uses "a predefined time threshold" without quoting a value;
  // 500 ms is our default and the ablation bench sweeps it.)
  sim::Duration visibility_threshold = sim::Duration::millis(500);
  int screen_width = 1024;
  int screen_height = 768;
};

// Only keys and clicks are input: other events (an X11 SendEvent of a
// selection event, say) are neither counted as synthetic input nor traced.
enum class InputKind : std::uint8_t { kKey, kClick, kOther };

// One event the backend has resolved to its receiver.
struct InputEvent {
  InputKind kind = InputKind::kOther;
  bool hardware = true;  // false: SendEvent or XTEST (X11 only)
  kern::Pid receiver_pid = kern::kNoPid;
  std::uint32_t target = 0;  // window (X11) or surface (Wayland) id
  std::uint32_t serial = 0;  // wl_seat serial; 0 on X11
  bool mapped = false;
  bool see_through = false;  // X11 transparent, Wayland input-only
  sim::Duration visible_for;
  // ACG comparison mode (X11): the gadget under a hardware click, granted
  // with the notification when the click counts.
  std::optional<util::Op> acg_op;
};

// Kept small: the trace holds up to kInputTraceCapacity of these per seat.
struct InputTraceEntry {
  sim::Timestamp time;
  kern::Pid receiver_pid = kern::kNoPid;
  std::uint32_t target = 0;
  std::uint32_t serial = 0;
  InputKind kind = InputKind::kClick;
  bool hardware = true;
  bool produced_notification = false;
  bool clickjack_suppressed = false;
};
static_assert(sizeof(InputTraceEntry) <= 24);

inline constexpr std::size_t kInputTraceCapacity = 10'000;

struct InputStats {
  std::uint64_t hardware_events = 0;
  std::uint64_t synthetic_events = 0;
  std::uint64_t interaction_notifications = 0;
  std::uint64_t clickjack_suppressed = 0;  // hardware events w/o notification
};

class TrustedInput {
 public:
  // Registers the `<metric_prefix>.input.*` counters ("x11" or "wl").
  TrustedInput(kern::Kernel& kernel, AlertOverlay& alerts,
               const ServerConfig& config, std::string_view metric_prefix);
  TrustedInput(const TrustedInput&) = delete;
  TrustedInput& operator=(const TrustedInput&) = delete;

  // Connects the channel as `server_pid` when Overhaul is enabled.
  void connect(kern::Pid server_pid);

  // The visibility rule, then notify or suppress (hardware events only),
  // then the counters and the trace. Returns whether a notification went
  // out.
  bool mint_interaction(const InputEvent& event);

  // Asks the permission monitor about `op` for `pid`; kNoPid (an unknown
  // client) is denied.
  util::Decision query_monitor(kern::Pid pid, util::Op op,
                               std::string_view detail);

  [[nodiscard]] const InputStats& stats() const noexcept { return stats_; }
  // The newest kInputTraceCapacity keys and clicks, oldest first. Not
  // preallocated: a seat pays only for the clicks it has seen.
  [[nodiscard]] const std::deque<InputTraceEntry>& trace() const noexcept {
    return trace_;
  }

 private:
  kern::Kernel& kernel_;
  AlertOverlay& alerts_;
  // One instance per display server, so per simulated seat.
  OVERHAUL_SHARD_LOCAL bool enabled_;
  OVERHAUL_SHARD_LOCAL sim::Duration threshold_;
  OVERHAUL_SHARD_LOCAL std::shared_ptr<kern::NetlinkChannel> channel_;
  OVERHAUL_SHARD_LOCAL InputStats stats_;
  OVERHAUL_SHARD_LOCAL std::deque<InputTraceEntry> trace_;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_hw_events_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_synthetic_events_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_notifications_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_clickjack_ = nullptr;
};

}  // namespace overhaul::display
