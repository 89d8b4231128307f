// PixelStore: the ARGB32 contents of one window or surface, shared by both
// display backends (x11::Window, wl::WlSurface).
//
// A store is in one of two states:
//  * solid — every pixel holds one value and no buffer exists. A new store
//    is solid black; fill() and resize() return it to this state. A seat
//    whose windows are never drawn (the X11 root, every scripted session
//    app) pays nothing for its pixels.
//  * materialised — a w×h buffer holds the pixels. The first write that is
//    not a whole-store fill (mutable_data(), copy_from() onto part of the
//    store) allocates it and seeds it with the solid value.
//
// Reads never allocate and never mutate: operator[] and read_row() answer
// from the buffer or the solid value. That keeps const access free of hidden
// writes, so the parallel lanes may read any store they can see.
//
// Captures always hand out a full, independent w×h display::Image (see
// capture() and blit() below), so the pixel work a capture does — the
// baseline cost in Table I's Screen Capture row — is the same whatever state
// the store is in, and the bytes are those an eager buffer would hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "display/types.h"

namespace overhaul::display {

class PixelStore {
 public:
  PixelStore(int width, int height) noexcept : width_(width), height_(height) {}

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  [[nodiscard]] bool materialized() const noexcept { return !buf_.empty(); }
  // The value every pixel holds while the store is solid.
  [[nodiscard]] std::uint32_t solid_value() const noexcept { return solid_; }
  // Heap bytes held for pixels: 0 while solid.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return buf_.capacity() * sizeof(std::uint32_t);
  }

  // --- reads (never allocate) ------------------------------------------------
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const noexcept {
    return buf_.empty() ? solid_ : buf_[i];
  }
  // Copy `n` pixels of row `y`, starting at column `x0`, to `out`.
  void read_row(int y, int x0, int n, std::uint32_t* out) const noexcept;

  // --- writes ----------------------------------------------------------------
  // Every pixel becomes `argb`; any buffer is released.
  void fill(std::uint32_t argb) noexcept;
  // New geometry, contents reset to solid black (a fresh backing store).
  void resize(int width, int height) noexcept;
  // Row-major w×h pixels for direct drawing; materialises the store.
  [[nodiscard]] std::uint32_t* mutable_data();
  // CopyArea (mask = all bits) / CopyPlane (mask = one bit): replace the
  // `mask` bits of the top-left rectangle both stores cover with `src`'s.
  // A solid source that covers this whole store keeps it solid.
  void copy_from(const PixelStore& src, std::uint32_t mask = ~0u);

 private:
  friend Image capture(const PixelStore& src);

  int width_;
  int height_;
  std::uint32_t solid_ = 0;
  std::vector<std::uint32_t> buf_;  // empty while solid
};

// A full, independent w×h copy of `src`: what a capture of one window
// returns.
[[nodiscard]] Image capture(const PixelStore& src);

// Paint `src` with its top-left corner at (x, y) over `dst`, clipped to
// `dst`'s bounds: one step of compositing a screen bottom → top.
void blit(const PixelStore& src, int x, int y, Image& dst);

}  // namespace overhaul::display
