// XServer: the display manager with Overhaul's enhancements (§IV-A).
//
// Responsibilities reproduced from the paper:
//  * Trusted input path — distinguish hardware input from SendEvent
//    (synthetic wire flag) and XTEST (provenance tag) injections; only
//    hardware events generate interaction notifications.
//  * Clickjacking defense — notifications only for clients whose receiving
//    window is a valid, non-transparent mapped window that has stayed
//    visible longer than a threshold.
//  * Kernel liaison — connect the authenticated netlink channel at server
//    initialization; send N_{A,t}, issue Q_{A,t}, receive V_{A,op}.
//  * Trusted output — the AlertOverlay rendered above all client windows.
//  * Resource interposition — SelectionManager (clipboard) and
//    ScreenResources (display contents) call back into ask_monitor().
//
// `XServerConfig::overhaul_enabled = false` gives the unmodified X server
// for benchmark baselines: no provenance filtering, no notifications, no
// permission queries.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/display_backend.h"
#include "kern/kernel.h"
#include "util/annotations.h"
#include "x11/acg.h"
#include "x11/alert.h"
#include "x11/client.h"
#include "x11/prompt.h"
#include "x11/screen.h"
#include "x11/selection.h"
#include "x11/window.h"
#include "x11/wire.h"

namespace overhaul::x11 {

inline constexpr const char* kXorgExe = "/usr/lib/xorg/Xorg";

struct XServerConfig {
  bool overhaul_enabled = true;
  // Clickjacking visibility threshold: a window must have been continuously
  // visible at least this long before events on it count as interaction.
  // (The paper uses "a predefined time threshold" without quoting a value;
  // 500 ms is our default and the ablation bench sweeps it.)
  sim::Duration visibility_threshold = sim::Duration::millis(500);
  int screen_width = 1024;
  int screen_height = 768;
};

class XServer final : public core::DisplayBackend {
 public:
  // Spawns the Xorg process (as a child of init) and, when Overhaul is
  // enabled, connects the authenticated netlink channel.
  XServer(kern::Kernel& kernel, XServerConfig config = {});

  XServer(const XServer&) = delete;
  XServer& operator=(const XServer&) = delete;

  [[nodiscard]] kern::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const XServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool overhaul_enabled() const noexcept {
    return config_.overhaul_enabled;
  }
  [[nodiscard]] kern::Pid pid() const noexcept { return pid_; }
  [[nodiscard]] sim::Clock& clock() noexcept { return kernel_.clock(); }
  // The kernel-wide observability bundle; the server and its sub-managers
  // (selections, screen) record request spans and drop counters into it.
  [[nodiscard]] obs::Observability& obs() noexcept { return kernel_.obs(); }

  // --- client connections -----------------------------------------------------
  // The pid is the kernel-verified socket peer; clients cannot forge it.
  util::Result<ClientId> connect_client(kern::Pid pid);
  util::Status disconnect_client(ClientId id);
  [[nodiscard]] XClient* client(ClientId id);
  [[nodiscard]] XClient* client_of_pid(kern::Pid pid);

  // --- window management ---------------------------------------------------------
  util::Result<WindowId> create_window(ClientId client, Rect rect);
  util::Status map_window(ClientId client, WindowId window);
  util::Status unmap_window(ClientId client, WindowId window);
  util::Status raise_window(ClientId client, WindowId window);
  util::Status set_transparent(ClientId client, WindowId window, bool on);
  // ConfigureWindow: move and/or resize. Restarts the visibility clock on a
  // mapped window (clickjacking hardening; see Window::move_to).
  util::Status configure_window(ClientId client, WindowId window, Rect rect);
  [[nodiscard]] Window* window(WindowId id);
  [[nodiscard]] const std::vector<WindowId>& stacking_order() const noexcept {
    return stacking_;  // bottom → top; the alert overlay sits above all of it
  }

  // Topmost mapped window containing the point, or nullptr.
  [[nodiscard]] Window* window_at(int x, int y);

  // --- event selection (XSelectInput) -----------------------------------------
  // Replaces any previous mask this client held for the window. Any client
  // may select on any window (core X semantics).
  util::Status select_input(ClientId client, WindowId window,
                            std::uint32_t mask);
  // Clients currently selecting `mask` bits on `window`.
  [[nodiscard]] std::vector<ClientId> clients_selecting(
      WindowId window, std::uint32_t mask) const;

  // --- input path -------------------------------------------------------------------
  // Hardware events (from the input driver). Button press: delivered to the
  // topmost window at (x,y); sets keyboard focus. Key press: delivered to
  // the focus window.
  void hardware_button_press(int x, int y, int button = 1) override;
  void hardware_key_press(int keycode) override;

  // Core-protocol SendEvent: the event is delivered with the synthetic flag
  // set; it is also the vehicle for protocol attacks, so it is policed (see
  // selection manager integration).
  util::Status send_event(ClientId sender, WindowId target, XEvent event);

  // XTEST extension: fake input that is *not* flagged on the wire; the
  // modified server tags its provenance instead.
  util::Status xtest_fake_button(ClientId sender, int x, int y);
  util::Status xtest_fake_key(ClientId sender, int keycode);

  void set_focus(WindowId window) noexcept { focus_ = window; }
  [[nodiscard]] WindowId focus() const noexcept { return focus_; }

  // --- input grabs (XGrabKeyboard / XGrabPointer) -----------------------------
  // A grab redirects ALL input of that class to the grabbing window — the
  // classic keylogger vector. Grabbed input still goes through the trusted
  // input path: interaction notifications for the grabber obey the same
  // visibility rules, so an invisible grab window harvests keystroke data
  // but can never mint Overhaul permissions from them.
  util::Status grab_keyboard(ClientId client, WindowId window);
  util::Status ungrab_keyboard(ClientId client);
  util::Status grab_pointer(ClientId client, WindowId window);
  util::Status ungrab_pointer(ClientId client);
  [[nodiscard]] WindowId keyboard_grab() const noexcept {
    return keyboard_grab_;
  }
  [[nodiscard]] WindowId pointer_grab() const noexcept {
    return pointer_grab_;
  }

  // --- Overhaul liaison ------------------------------------------------------------
  // Ask the kernel permission monitor about `op` for the process behind
  // `client`. Grant-by-default when Overhaul is disabled (baseline).
  util::Decision ask_monitor(ClientId client, util::Op op,
                             std::string_view detail) override;

  // --- core::DisplayBackend seam ---------------------------------------------
  // Thin adapters onto the native request handlers; the wl compositor
  // implements the same seam, which is what lets core::OverhaulSystem and
  // the scripted apps run unmodified on either backend.
  [[nodiscard]] core::DisplayBackendKind backend_kind() const noexcept override {
    return core::DisplayBackendKind::kX11;
  }
  [[nodiscard]] kern::Pid server_pid() const noexcept override { return pid_; }
  util::Result<std::uint32_t> attach_client(kern::Pid pid) override {
    return connect_client(pid);
  }
  util::Result<std::uint32_t> open_surface(std::uint32_t client,
                                           display::Rect rect) override {
    return create_window(client, rect);
  }
  util::Status show_surface(std::uint32_t client,
                            std::uint32_t surface) override {
    return map_window(client, surface);
  }
  util::Result<display::Rect> surface_rect(std::uint32_t surface) override {
    Window* win = window(surface);
    if (win == nullptr)
      return util::Status(util::Code::kBadWindow, "no such window");
    return win->rect();
  }
  [[nodiscard]] std::size_t pixel_bytes() const noexcept override;
  display::AlertOverlay& alert_overlay() noexcept override { return alerts_; }

  // --- sub-managers -------------------------------------------------------------------
  [[nodiscard]] SelectionManager& selections() noexcept { return selections_; }
  [[nodiscard]] ScreenResources& screen() noexcept { return screen_; }
  [[nodiscard]] AlertOverlay& alerts() noexcept { return alerts_; }
  [[nodiscard]] PromptManager& prompts() noexcept { return prompts_; }
  [[nodiscard]] AcgManager& acg() noexcept { return acg_; }
  [[nodiscard]] AtomRegistry& atoms() noexcept { return atoms_; }

  struct Stats {
    std::uint64_t hardware_events = 0;
    std::uint64_t synthetic_events = 0;
    std::uint64_t interaction_notifications = 0;
    std::uint64_t clickjack_suppressed = 0;  // hardware events w/o notification
    std::uint64_t blocked_send_events = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  // --- input trace -------------------------------------------------------------
  // Bounded record of every delivered input event: what arrived, from which
  // source, who received it, and whether it produced an interaction
  // notification. Feeds the core::Timeline explainability view.
  struct InputTraceEntry {
    sim::Timestamp time;
    EventType type = EventType::kKeyPress;
    Provenance provenance = Provenance::kHardware;
    kern::Pid receiver_pid = kern::kNoPid;
    WindowId window = kNoWindow;
    bool produced_notification = false;
    bool clickjack_suppressed = false;
  };
  static constexpr std::size_t kInputTraceCapacity = 10'000;
  [[nodiscard]] const std::deque<InputTraceEntry>& input_trace() const {
    return input_trace_;
  }

 private:
  friend class SelectionManager;
  friend class ScreenResources;

  // Deliver an input event to the owner of `win`, generating an interaction
  // notification when the trusted-input checks pass.
  void deliver_input(XEvent event, Window& win);

  // Emit a StructureNotify-family event to every client selecting it.
  void emit_structure_notify(WindowId window, EventType type);

  // The clickjacking rule (§IV-A).
  [[nodiscard]] bool passes_visibility_check(const Window& win) const;

  kern::Kernel& kernel_;
  // Display-server state is confined to its shard: one backend instance per
  // simulated seat, never shared across sim partitions.
  OVERHAUL_SHARD_LOCAL XServerConfig config_;
  OVERHAUL_SHARD_LOCAL kern::Pid pid_ = kern::kNoPid;
  OVERHAUL_SHARD_LOCAL std::shared_ptr<kern::NetlinkChannel> channel_;

  OVERHAUL_SHARD_LOCAL std::map<ClientId, std::unique_ptr<XClient>> clients_;
  OVERHAUL_SHARD_LOCAL std::map<WindowId, std::unique_ptr<Window>> windows_;
  OVERHAUL_SHARD_LOCAL std::vector<WindowId> stacking_;  // bottom → top
  OVERHAUL_SHARD_LOCAL ClientId next_client_ = 1;
  OVERHAUL_SHARD_LOCAL WindowId next_window_ = 2;  // 1 is the root window
  OVERHAUL_SHARD_LOCAL WindowId focus_ = kNoWindow;
  OVERHAUL_SHARD_LOCAL WindowId keyboard_grab_ = kNoWindow;
  OVERHAUL_SHARD_LOCAL WindowId pointer_grab_ = kNoWindow;
  OVERHAUL_SHARD_LOCAL std::map<std::pair<ClientId, WindowId>, std::uint32_t>
      event_masks_;

  OVERHAUL_SHARD_LOCAL AlertOverlay alerts_;
  OVERHAUL_SHARD_LOCAL SelectionManager selections_;
  OVERHAUL_SHARD_LOCAL ScreenResources screen_;
  OVERHAUL_SHARD_LOCAL PromptManager prompts_{*this};
  OVERHAUL_SHARD_LOCAL AcgManager acg_{*this};
  OVERHAUL_SHARD_LOCAL AtomRegistry atoms_;
  OVERHAUL_SHARD_LOCAL Stats stats_;
  OVERHAUL_SHARD_LOCAL std::deque<InputTraceEntry> input_trace_;

  // Pre-resolved obs handles (trusted-input path + SendEvent policing).
  OVERHAUL_SHARD_LOCAL obs::Counter* c_hw_events_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_synthetic_events_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_notifications_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_clickjack_ = nullptr;
  OVERHAUL_SHARD_LOCAL obs::Counter* c_send_event_drops_ = nullptr;
};

}  // namespace overhaul::x11
