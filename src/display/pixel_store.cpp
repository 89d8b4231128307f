#include "display/pixel_store.h"

#include <algorithm>
#include <cstring>

namespace overhaul::display {

namespace {

std::size_t offset(int width, int x, int y) noexcept {
  return static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
         static_cast<std::size_t>(x);
}

// Write `n` copies of `argb` to `out`. A plain std::fill_n over uint32_t
// stays scalar at -O2, at about half the speed of memcpy; memset and memcpy
// are vectorised. Each memcpy doubles the filled run, capped so its source
// stays in L1.
void fill_pixels(std::uint32_t* out, std::size_t n, std::uint32_t argb) noexcept {
  if (argb == 0) {
    std::memset(out, 0, n * sizeof(std::uint32_t));
    return;
  }
  constexpr std::size_t kSeed = 16;
  constexpr std::size_t kMaxRun = 1024;
  std::size_t done = std::min(n, kSeed);
  std::fill_n(out, done, argb);
  while (done < n) {
    const std::size_t run = std::min({done, n - done, kMaxRun});
    std::memcpy(out + done, out, run * sizeof(std::uint32_t));
    done += run;
  }
}

}  // namespace

void PixelStore::read_row(int y, int x0, int n,
                          std::uint32_t* out) const noexcept {
  if (buf_.empty()) {
    fill_pixels(out, static_cast<std::size_t>(n), solid_);
    return;
  }
  std::memcpy(out, buf_.data() + offset(width_, x0, y),
              static_cast<std::size_t>(n) * sizeof(std::uint32_t));
}

void PixelStore::fill(std::uint32_t argb) noexcept {
  solid_ = argb;
  std::vector<std::uint32_t>().swap(buf_);
}

void PixelStore::resize(int width, int height) noexcept {
  width_ = width;
  height_ = height;
  fill(0);
}

std::uint32_t* PixelStore::mutable_data() {
  if (buf_.empty() && size() > 0) {
    buf_.resize(size());
    if (solid_ != 0) fill_pixels(buf_.data(), buf_.size(), solid_);
  }
  return buf_.data();
}

void PixelStore::copy_from(const PixelStore& src, std::uint32_t mask) {
  if (&src == this) return;  // (d & ~mask) | (d & mask) == d
  const int w = std::min(width_, src.width_);
  const int h = std::min(height_, src.height_);
  if (w <= 0 || h <= 0) return;
  const bool covers = w == width_ && h == height_;
  if (covers && !src.materialized() && (mask == ~0u || !materialized())) {
    fill((solid_ & ~mask) | (src.solid_ & mask));
    return;
  }
  std::uint32_t* dst = mutable_data();
  std::vector<std::uint32_t> row(mask == ~0u ? 0 : static_cast<std::size_t>(w));
  for (int y = 0; y < h; ++y) {
    std::uint32_t* out = dst + offset(width_, 0, y);
    if (mask == ~0u) {
      src.read_row(y, 0, w, out);
      continue;
    }
    src.read_row(y, 0, w, row.data());
    for (int x = 0; x < w; ++x)
      out[x] = (out[x] & ~mask) | (row[static_cast<std::size_t>(x)] & mask);
  }
}

Image capture(const PixelStore& src) {
  Image img;
  img.width = src.width_;
  img.height = src.height_;
  if (!src.buf_.empty()) {
    img.pixels = src.buf_;
    return img;
  }
  img.pixels.resize(src.size());
  if (src.solid_ != 0) fill_pixels(img.pixels.data(), src.size(), src.solid_);
  return img;
}

void blit(const PixelStore& src, int x, int y, Image& dst) {
  const int x0 = std::max(0, x);
  const int x1 = std::min(dst.width, x + src.width());
  if (x1 <= x0) return;
  const int y1 = std::min(dst.height, y + src.height());
  for (int row = std::max(0, y); row < y1; ++row)
    src.read_row(row - y, x0 - x, x1 - x0,
                 dst.pixels.data() + offset(dst.width, x0, row));
}

}  // namespace overhaul::display
