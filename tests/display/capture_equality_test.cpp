// Eager-vs-lazy capture equality: every capture path (X11 GetImage and
// XShmGetImage of the root and of single windows, Wayland screencopy of the
// output and of single surfaces) must return exactly the bytes an eager
// per-window ARGB32 buffer would have produced.
//
// The test keeps its own eager shadow of every window — a plain w×h vector
// updated alongside each fill or draw — and composites the reference screen
// with the clip-and-copy loop the backends used before display::PixelStore.
// The scene mixes solid windows, partly drawn ones, overlaps, and a window
// hanging off the screen edge. A CopyArea regression for stores of
// different widths rides along.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/system.h"
#include "display/pixel_store.h"
#include "wl/compositor.h"
#include "x11/server.h"

namespace overhaul {
namespace {

using core::DisplayBackendKind;
using display::Image;
using display::Rect;

struct Eager {
  Rect rect;
  std::vector<std::uint32_t> pixels;
};

class CaptureEquality : public ::testing::TestWithParam<DisplayBackendKind> {
 protected:
  static core::OverhaulConfig config_for(DisplayBackendKind kind) {
    core::OverhaulConfig cfg;
    cfg.display_backend = kind;
    return cfg;
  }

  bool x11() const { return GetParam() == DisplayBackendKind::kX11; }

  display::PixelStore& store(std::uint32_t id) {
    return x11() ? sys_.xserver().window(id)->pixels()
                 : sys_.compositor().surface(id)->pixels();
  }

  core::OverhaulSystem::AppHandle app(const std::string& name, Rect r) {
    auto a = sys_.launch_gui_app("/usr/bin/" + name, name, r).value();
    shadow_[a.window] = Eager{
        r, std::vector<std::uint32_t>(static_cast<std::size_t>(r.width) *
                                          static_cast<std::size_t>(r.height),
                                      0u)};
    return a;
  }

  void fill(std::uint32_t id, std::uint32_t argb) {
    store(id).fill(argb);
    std::fill(shadow_[id].pixels.begin(), shadow_[id].pixels.end(), argb);
  }

  // Draw a rectangle of distinct values inside a window.
  void draw(std::uint32_t id, Rect area) {
    std::uint32_t* px = store(id).mutable_data();
    Eager& e = shadow_[id];
    for (int y = area.y; y < area.y + area.height; ++y)
      for (int x = area.x; x < area.x + area.width; ++x) {
        const std::size_t i =
            static_cast<std::size_t>(y) * static_cast<std::size_t>(e.rect.width) +
            static_cast<std::size_t>(x);
        px[i] = e.pixels[i] = 0xFF000000u | static_cast<std::uint32_t>(
                                                (y << 12) ^ (x * 7) ^ id);
      }
  }

  void click_into(const core::OverhaulSystem::AppHandle& a) {
    if (x11()) (void)sys_.xserver().raise_window(a.client, a.window);
    const Rect r = sys_.display().surface_rect(a.window).value();
    sys_.input().click(r.x + r.width / 2, r.y + r.height / 2);
  }

  // The pre-PixelStore compositor: background, then every mapped window
  // bottom → top, each row clipped to the screen and memcpy'd.
  Image eager_composite() {
    Image img;
    img.width = sys_.config().screen_width;
    img.height = sys_.config().screen_height;
    img.pixels.assign(static_cast<std::size_t>(img.width) *
                          static_cast<std::size_t>(img.height),
                      0u);
    if (x11()) img.pixels = shadow_.at(x11::kRootWindow).pixels;
    const std::vector<std::uint32_t>& order =
        x11() ? sys_.xserver().stacking_order()
              : sys_.compositor().stacking_order();
    for (const std::uint32_t id : order) {
      if (x11() && id == x11::kRootWindow) continue;
      const Eager& e = shadow_.at(id);
      const Rect& r = e.rect;
      for (int y = std::max(0, r.y); y < std::min(img.height, r.y + r.height);
           ++y) {
        const int x0 = std::max(0, r.x);
        const int x1 = std::min(img.width, r.x + r.width);
        if (x1 <= x0) continue;
        std::memcpy(img.pixels.data() +
                        static_cast<std::size_t>(y) *
                            static_cast<std::size_t>(img.width) +
                        static_cast<std::size_t>(x0),
                    e.pixels.data() +
                        static_cast<std::size_t>(y - r.y) *
                            static_cast<std::size_t>(r.width) +
                        static_cast<std::size_t>(x0 - r.x),
                    static_cast<std::size_t>(x1 - x0) * sizeof(std::uint32_t));
      }
    }
    return img;
  }

  Image capture_screen(std::uint32_t client) {
    return x11() ? sys_.xserver()
                       .screen()
                       .get_image(client, x11::kRootWindow)
                       .value()
                 : sys_.compositor().screencopy().capture_output(client).value();
  }

  Image capture_window(std::uint32_t client, std::uint32_t id) {
    return x11() ? sys_.xserver().screen().get_image(client, id).value()
                 : sys_.compositor()
                       .screencopy()
                       .capture_surface(client, id)
                       .value();
  }

  // Solid, partly drawn, overlapping and off-edge windows. Returns the
  // capturing app, whose click authorises every capture that follows.
  core::OverhaulSystem::AppHandle build_scene() {
    if (x11()) {
      shadow_[x11::kRootWindow] = Eager{
          Rect{0, 0, sys_.config().screen_width, sys_.config().screen_height},
          std::vector<std::uint32_t>(
              static_cast<std::size_t>(sys_.config().screen_width) *
                  static_cast<std::size_t>(sys_.config().screen_height),
              0u)};
      fill(x11::kRootWindow, 0xFF202020u);
    }
    const auto solid = app("solid", Rect{100, 100, 200, 150});
    fill(solid.window, 0xFF112233u);
    const auto drawn = app("drawn", Rect{250, 180, 300, 200});
    fill(drawn.window, 0xFF445566u);
    draw(drawn.window, Rect{10, 20, 120, 40});
    const auto edge = app("edge", Rect{900, 700, 300, 200});
    draw(edge.window, Rect{50, 10, 100, 50});
    const auto blank = app("blank", Rect{600, 50, 80, 60});  // never drawn
    (void)blank;
    const auto shot = app("shot", Rect{150, 150, 160, 120});  // overlaps two
    draw(shot.window, Rect{0, 0, 160, 5});
    click_into(shot);
    return shot;
  }

  core::OverhaulSystem sys_{config_for(GetParam())};
  std::map<std::uint32_t, Eager> shadow_;
};

TEST_P(CaptureEquality, ScreenCaptureMatchesEagerComposite) {
  const auto shot = build_scene();
  const Image expected = eager_composite();
  const Image got = capture_screen(shot.client);
  EXPECT_EQ(got.width, expected.width);
  EXPECT_EQ(got.height, expected.height);
  EXPECT_TRUE(got.pixels == expected.pixels);
}

TEST_P(CaptureEquality, WindowCapturesMatchEagerBuffers) {
  const auto shot = build_scene();
  for (const auto& [id, eager] : shadow_) {
    if (x11() && id == x11::kRootWindow) continue;
    const Image got = capture_window(shot.client, id);
    EXPECT_EQ(got.width, eager.rect.width) << "window " << id;
    EXPECT_EQ(got.height, eager.rect.height) << "window " << id;
    EXPECT_TRUE(got.pixels == eager.pixels) << "window " << id;
  }
}

TEST_P(CaptureEquality, CapturesNeverMaterialiseSolidWindows) {
  const auto shot = build_scene();
  const std::size_t drawn_bytes = sys_.display().pixel_bytes();
  EXPECT_GT(drawn_bytes, 0u);
  (void)capture_screen(shot.client);
  for (const auto& [id, eager] : shadow_)
    (void)capture_window(shot.client, id);
  EXPECT_EQ(sys_.display().pixel_bytes(), drawn_bytes);
}

// XShm and CopyArea exist only on the X11 backend.
class X11CaptureEquality : public CaptureEquality {};

TEST_P(X11CaptureEquality, XShmMatchesEagerBytes) {
  const auto shot = build_scene();
  auto& k = sys_.kernel();
  const Image expected = eager_composite();
  const std::size_t bytes = expected.pixels.size() * sizeof(std::uint32_t);
  auto seg = k.posix_shms().open("/eager-shm", true, bytes).value();
  auto map = k.sys_mmap_shared(shot.pid, seg).value();

  ASSERT_EQ(sys_.xserver()
                .screen()
                .xshm_get_image(shot.client, x11::kRootWindow, *map)
                .value(),
            bytes);
  EXPECT_EQ(std::memcmp(seg->data(), expected.pixels.data(), bytes), 0);

  for (const auto& [id, eager] : shadow_) {
    if (id == x11::kRootWindow) continue;
    const std::size_t n = eager.pixels.size() * sizeof(std::uint32_t);
    ASSERT_EQ(sys_.xserver().screen().xshm_get_image(shot.client, id, *map)
                  .value(),
              n);
    EXPECT_EQ(std::memcmp(seg->data(), eager.pixels.data(), n), 0)
        << "window " << id;
  }
}

// Regression: CopyArea from a wider window used to copy pixels linearly, so
// the tail of source row 0 landed at the start of destination row 1.
TEST_P(X11CaptureEquality, CopyAreaFromAWiderWindowKeepsRows) {
  const auto painter = app("painter", Rect{0, 0, 100, 100});
  x11::XServer& x = sys_.xserver();
  const x11::WindowId narrow =
      x.create_window(painter.client, Rect{500, 0, 64, 64}).value();
  draw(painter.window, Rect{0, 0, 100, 100});
  ASSERT_TRUE(x.screen().copy_area(painter.client, painter.window, narrow)
                  .is_ok());
  const display::PixelStore& src = x.window(painter.window)->pixels();
  const display::PixelStore& dst = x.window(narrow)->pixels();
  EXPECT_EQ(dst[1 * 64 + 0], src[1 * 100 + 0]);  // pixel (0, 1)
  EXPECT_EQ(dst[63 * 64 + 63], src[63 * 100 + 63]);
}

std::string backend_label(
    const ::testing::TestParamInfo<DisplayBackendKind>& info) {
  return std::string(core::display_backend_name(info.param));
}

INSTANTIATE_TEST_SUITE_P(Backends, CaptureEquality,
                         ::testing::Values(DisplayBackendKind::kX11,
                                           DisplayBackendKind::kWayland),
                         backend_label);
INSTANTIATE_TEST_SUITE_P(Backends, X11CaptureEquality,
                         ::testing::Values(DisplayBackendKind::kX11),
                         backend_label);

}  // namespace
}  // namespace overhaul
