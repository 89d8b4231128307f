// DisplayBackend: the backend-neutral seam between the core system / app
// models and a concrete display server.
//
// Overhaul's mechanism (§IV-A) is display-server-cooperative but not
// X11-specific: any compositor that (a) forwards authentic-input
// notifications over the authenticated netlink channel, (b) routes
// clipboard/capture requests through the kernel permission monitor, and
// (c) hosts the trusted alert overlay reproduces the paper's policy. This
// interface captures exactly those three responsibilities plus the minimal
// surface lifecycle the scripted apps need, so x11::XServer and
// wl::WlCompositor are interchangeable behind core::OverhaulSystem — which
// is what makes the cross-backend differential oracle
// (tests/integration/backend_diff_test.cpp) possible.
//
// Vocabulary mapping:
//            seam              X11                 Wayland
//   attach_client        connect_client       WlCompositor::connect_client
//   open_surface         create_window        create_surface (xdg_toplevel)
//   show_surface         map_window           map_surface (configure+commit)
//   hardware_*_press     trusted input path   wl_seat serial-minting path
//   ask_monitor          ask_monitor          ask_monitor
//   alert_overlay        overlay window       layer-shell overlay surface
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "display/alert.h"
#include "display/types.h"
#include "kern/task.h"
#include "util/audit_log.h"
#include "util/status.h"

namespace overhaul::core {

enum class DisplayBackendKind : std::uint8_t { kX11, kWayland };

[[nodiscard]] constexpr std::string_view display_backend_name(
    DisplayBackendKind kind) noexcept {
  return kind == DisplayBackendKind::kX11 ? "x11" : "wayland";
}

class DisplayBackend {
 public:
  virtual ~DisplayBackend() = default;

  [[nodiscard]] virtual DisplayBackendKind backend_kind() const noexcept = 0;
  // The display server's own process (the authenticated netlink peer).
  [[nodiscard]] virtual kern::Pid server_pid() const noexcept = 0;

  // --- trusted input path ----------------------------------------------------
  // Only the HardwareInputDriver below reaches these; everything a client
  // can reach (SendEvent/XTEST on X11, serial-carrying requests on Wayland)
  // is tagged or validated so it can never mint interaction records.
  virtual void hardware_button_press(int x, int y, int button) = 0;
  virtual void hardware_key_press(int keycode) = 0;

  // --- client + surface lifecycle -------------------------------------------
  // The pid is the kernel-verified socket peer; clients cannot forge it.
  virtual util::Result<std::uint32_t> attach_client(kern::Pid pid) = 0;
  virtual util::Result<std::uint32_t> open_surface(std::uint32_t client,
                                                   display::Rect rect) = 0;
  virtual util::Status show_surface(std::uint32_t client,
                                    std::uint32_t surface) = 0;
  virtual util::Result<display::Rect> surface_rect(std::uint32_t surface) = 0;
  // Heap bytes held by drawn (materialised) surface pixels; 0 while every
  // surface is still a solid fill (display/pixel_store.h).
  [[nodiscard]] virtual std::size_t pixel_bytes() const noexcept = 0;

  // --- monitor query hook ----------------------------------------------------
  // Ask the kernel permission monitor about `op` for the process behind
  // `client`. Grant-by-default when Overhaul is disabled (baseline).
  virtual util::Decision ask_monitor(std::uint32_t client, util::Op op,
                                     std::string_view detail) = 0;

  // --- trusted output --------------------------------------------------------
  virtual display::AlertOverlay& alert_overlay() noexcept = 0;
};

// HardwareInputDriver: the device-driver side of the trusted input path.
//
// In the paper's model, "user inputs that originate from hardware attached
// to the system should be considered authentic" (§IV-A). This driver is the
// only source of hardware-provenance events — simulated applications have
// no handle to it; scenario harnesses (the "user") do. It drives whichever
// backend the system booted.
class HardwareInputDriver {
 public:
  explicit HardwareInputDriver(DisplayBackend& backend) : backend_(backend) {}

  // A physical mouse click at screen coordinates.
  void click(int x, int y, int button = 1) {
    backend_.hardware_button_press(x, y, button);
  }

  // A physical key press delivered to the focused window.
  void key(int keycode) { backend_.hardware_key_press(keycode); }

  // Convenience for common chords used in scenarios.
  static constexpr int kKeyCtrlC = 1001;  // copy chord
  static constexpr int kKeyCtrlV = 1002;  // paste chord
  static constexpr int kKeyEnter = 1003;
  static constexpr int kKeyPrintScreen = 1004;

  void press_copy_chord() { key(kKeyCtrlC); }
  void press_paste_chord() { key(kKeyCtrlV); }
  void press_enter() { key(kKeyEnter); }

 private:
  DisplayBackend& backend_;
};

}  // namespace overhaul::core
