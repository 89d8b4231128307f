// Window model: geometry, stacking, visibility clock, pixel contents.
//
// Carries what the trusted input path needs for its clickjacking defense
// (§IV-A: "OVERHAUL only generates interaction notifications if the X client
// receiving the event has a valid mapped window that has stayed visible
// above a predefined time threshold") and what the screen-capture mediation
// needs (window ownership, pixel contents for GetImage/CopyArea).
#pragma once

#include <cstdint>
#include <string>

#include "display/pixel_store.h"
#include "display/types.h"
#include "sim/clock.h"

namespace overhaul::x11 {

using WindowId = std::uint32_t;
using ClientId = std::uint32_t;

inline constexpr WindowId kNoWindow = 0;
inline constexpr WindowId kRootWindow = 1;
inline constexpr ClientId kServerClient = 0;  // the server itself

// Geometry is shared with the Wayland backend (src/display/types.h).
using Rect = display::Rect;

class Window {
 public:
  Window(WindowId id, ClientId owner, Rect rect)
      : id_(id), owner_(owner), rect_(rect), pixels_(rect.width, rect.height) {}

  [[nodiscard]] WindowId id() const noexcept { return id_; }
  [[nodiscard]] ClientId owner() const noexcept { return owner_; }
  [[nodiscard]] const Rect& rect() const noexcept { return rect_; }

  // ConfigureWindow support. Moving a mapped window restarts the visibility
  // clock: otherwise an attacker could map a window far off in a corner,
  // age it past the threshold, then teleport it under the user's pointer
  // right before a click — the same harvest the map-time clock defends
  // against. (A hardening beyond the paper's text; see DESIGN.md §5.)
  void move_to(int x, int y, sim::Timestamp now) noexcept {
    if (mapped_ && (x != rect_.x || y != rect_.y)) mapped_at_ = now;
    rect_.x = x;
    rect_.y = y;
  }
  // Resizing resets the pixels (like a fresh backing store) and also
  // restarts the clock when mapped.
  void resize(int width, int height, sim::Timestamp now) noexcept {
    rect_.width = width;
    rect_.height = height;
    pixels_.resize(width, height);
    if (mapped_) mapped_at_ = now;
  }

  // --- map state & visibility clock ----------------------------------------
  [[nodiscard]] bool mapped() const noexcept { return mapped_; }
  void map(sim::Timestamp now) noexcept {
    mapped_ = true;
    mapped_at_ = now;  // visibility clock restarts on every map
  }
  void unmap() noexcept { mapped_ = false; }
  [[nodiscard]] sim::Timestamp mapped_at() const noexcept { return mapped_at_; }

  // How long the window has been continuously visible.
  [[nodiscard]] sim::Duration visible_for(sim::Timestamp now) const noexcept {
    if (!mapped_) return sim::Duration{0};
    return now - mapped_at_;
  }

  // --- clickjacking surface -------------------------------------------------
  // Transparent (input-only style) windows can receive events but are never
  // *visible*, so they can never satisfy the visibility threshold.
  [[nodiscard]] bool transparent() const noexcept { return transparent_; }
  void set_transparent(bool t) noexcept { transparent_ = t; }

  // --- pixel contents (solid until drawn; see display/pixel_store.h) ---------
  [[nodiscard]] display::PixelStore& pixels() noexcept { return pixels_; }
  [[nodiscard]] const display::PixelStore& pixels() const noexcept {
    return pixels_;
  }
  void fill(std::uint32_t argb) noexcept { pixels_.fill(argb); }

 private:
  WindowId id_;
  ClientId owner_;
  Rect rect_;
  bool mapped_ = false;
  bool transparent_ = false;
  sim::Timestamp mapped_at_ = sim::Timestamp::never();
  display::PixelStore pixels_;
};

}  // namespace overhaul::x11
