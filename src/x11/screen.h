// ScreenResources: display-content interposition (§IV-A "Display contents").
//
// Four request families can exfiltrate pixels:
//  * GetImage / XShmGetImage — designed for capture; always mediated when
//    the source is the root window or another client's window.
//  * CopyArea / CopyPlane — general-purpose copies; "regularly used by X
//    clients for various other purposes", so Overhaul first inspects the
//    owners of the source and destination buffers: same-owner copies pass
//    untouched, cross-client copies are mediated like captures.
#pragma once

#include <cstdint>

#include "display/types.h"
#include "kern/ipc/shared_memory.h"
#include "util/status.h"
#include "x11/window.h"

namespace overhaul::x11 {

class XServer;

// Capture results are shared with the Wayland backend (src/display/types.h)
// so the differential tests can compare images across backends directly.
using Image = display::Image;

class ScreenResources {
 public:
  explicit ScreenResources(XServer& server) : server_(server) {}

  // Core-protocol GetImage on any window. kRootWindow returns the composited
  // screen: every mapped window rendered in stacking order over the root
  // background — what a real screenshot contains (and what the §V-D malware
  // was after: "screenshots of bank account information").
  util::Result<Image> get_image(ClientId client, WindowId window);

  // The composited full screen (no mediation — internal to the server).
  [[nodiscard]] Image composite_screen() const;

  // MIT-SHM XShmGetImage: same mediation, but the pixels land in a shared
  // memory segment the client supplied — which routes the transfer through
  // the kernel's page-fault interposition as well. Returns bytes written.
  util::Result<std::size_t> xshm_get_image(ClientId client, WindowId window,
                                           kern::ShmMapping& dst);

  // CopyArea: copy pixels from src to dst. Same-owner copies are untouched;
  // cross-client (or root-sourced) copies are mediated.
  util::Status copy_area(ClientId client, WindowId src, WindowId dst);

  // CopyPlane: single-bitplane variant; identical mediation rules.
  util::Status copy_plane(ClientId client, WindowId src, WindowId dst,
                          unsigned plane);

  struct Stats {
    std::uint64_t captures_granted = 0;
    std::uint64_t captures_denied = 0;
    std::uint64_t same_owner_copies = 0;  // CopyArea fast path, no query
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  // Shared mediation: does `client` get pixel access to `window`?
  util::Status authorize_capture(ClientId client, WindowId window);

  XServer& server_;
  Stats stats_;
};

}  // namespace overhaul::x11
