// display::PixelStore unit battery: the solid/materialised state machine,
// allocation-free reads and fills, CopyArea/CopyPlane rectangle semantics
// (including the row-shear regression for stores of different widths), and
// the capture/blit helpers both backends composite with.
#include "display/pixel_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace overhaul::display {
namespace {

// Pixel (x, y) of a store, read through the allocation-free path.
std::uint32_t at(const PixelStore& s, int x, int y) {
  return s[static_cast<std::size_t>(y) * static_cast<std::size_t>(s.width()) +
           static_cast<std::size_t>(x)];
}

// Give every pixel a value unique to its coordinates.
void draw_coordinates(PixelStore& s) {
  std::uint32_t* px = s.mutable_data();
  for (int y = 0; y < s.height(); ++y)
    for (int x = 0; x < s.width(); ++x)
      px[static_cast<std::size_t>(y) * static_cast<std::size_t>(s.width()) +
         static_cast<std::size_t>(x)] =
          static_cast<std::uint32_t>(y * 1000 + x);
}

TEST(PixelStore, SolidBlackUntilWritten) {
  const PixelStore s(16, 8);
  EXPECT_EQ(s.size(), 128u);
  EXPECT_FALSE(s.materialized());
  EXPECT_EQ(s.memory_bytes(), 0u);
  EXPECT_EQ(s.solid_value(), 0u);
  EXPECT_EQ(s[127], 0u);
  std::vector<std::uint32_t> row(16, 0xDEADBEEFu);
  s.read_row(7, 0, 16, row.data());
  EXPECT_EQ(row, std::vector<std::uint32_t>(16, 0u));
}

TEST(PixelStore, FillOnSolidStoreAllocatesNothing) {
  PixelStore s(1024, 768);
  s.fill(0xFF00FF00u);
  EXPECT_FALSE(s.materialized());
  EXPECT_EQ(s.memory_bytes(), 0u);
  EXPECT_EQ(s.solid_value(), 0xFF00FF00u);
  EXPECT_EQ(at(s, 1023, 767), 0xFF00FF00u);
  std::vector<std::uint32_t> row(4);
  s.read_row(300, 500, 4, row.data());
  EXPECT_EQ(row, std::vector<std::uint32_t>(4, 0xFF00FF00u));
}

TEST(PixelStore, FirstWriteMaterialisesTheSolidValue) {
  PixelStore s(16, 8);
  s.fill(0xFFABCDEFu);
  std::uint32_t* px = s.mutable_data();
  EXPECT_TRUE(s.materialized());
  EXPECT_GE(s.memory_bytes(), 128u * sizeof(std::uint32_t));
  for (std::size_t i = 0; i < s.size(); ++i)
    ASSERT_EQ(px[i], 0xFFABCDEFu) << "pixel " << i;
  px[3] = 7u;
  EXPECT_EQ(s[3], 7u);
  EXPECT_EQ(s[4], 0xFFABCDEFu);
  // A second write reuses the buffer rather than reseeding it.
  EXPECT_EQ(s.mutable_data()[3], 7u);
}

TEST(PixelStore, ResizeResetsToUnallocatedBlack) {
  PixelStore s(16, 8);
  s.fill(0xFF112233u);
  s.mutable_data()[0] = 1u;
  s.resize(40, 30);
  EXPECT_EQ(s.width(), 40);
  EXPECT_EQ(s.height(), 30);
  EXPECT_EQ(s.size(), 1200u);
  EXPECT_FALSE(s.materialized());
  EXPECT_EQ(s.memory_bytes(), 0u);
  EXPECT_EQ(s.solid_value(), 0u);
  EXPECT_EQ(s[0], 0u);
}

TEST(PixelStore, FillReleasesADrawnBuffer) {
  PixelStore s(16, 8);
  s.mutable_data()[5] = 9u;
  ASSERT_TRUE(s.materialized());
  s.fill(0xFF445566u);
  EXPECT_FALSE(s.materialized());
  EXPECT_EQ(s.memory_bytes(), 0u);
  EXPECT_EQ(s[5], 0xFF445566u);
}

TEST(PixelStore, ReadRowMatchesIndexingWhenDrawn) {
  PixelStore s(10, 5);
  draw_coordinates(s);
  std::vector<std::uint32_t> row(4);
  s.read_row(3, 2, 4, row.data());
  EXPECT_EQ(row, (std::vector<std::uint32_t>{3002, 3003, 3004, 3005}));
}

TEST(PixelStore, SolidCopyCoveringTheDestinationStaysSolid) {
  PixelStore src(100, 100);
  src.fill(0xFFCC0011u);
  PixelStore dst(64, 64);
  dst.copy_from(src);
  EXPECT_FALSE(dst.materialized());
  EXPECT_EQ(dst.solid_value(), 0xFFCC0011u);
  // A whole-store copy also drops a drawn destination back to solid.
  PixelStore drawn(64, 64);
  drawn.mutable_data()[0] = 5u;
  drawn.copy_from(src);
  EXPECT_FALSE(drawn.materialized());
  EXPECT_EQ(at(drawn, 0, 0), 0xFFCC0011u);
}

TEST(PixelStore, PartialCopyMaterialisesOnlyTheOverlap) {
  PixelStore src(32, 32);
  src.fill(0xAAu);
  PixelStore dst(64, 48);
  dst.fill(0x11u);
  dst.copy_from(src);
  EXPECT_TRUE(dst.materialized());
  EXPECT_EQ(at(dst, 0, 0), 0xAAu);
  EXPECT_EQ(at(dst, 31, 31), 0xAAu);
  EXPECT_EQ(at(dst, 32, 0), 0x11u);
  EXPECT_EQ(at(dst, 0, 32), 0x11u);
}

// Regression: CopyArea between stores of different widths used to copy
// min(src.size, dst.size) pixels linearly, so source row 0's tail landed
// in destination row 1.
TEST(PixelStore, CopyBetweenDifferentWidthsDoesNotShearRows) {
  PixelStore src(100, 100);
  draw_coordinates(src);
  PixelStore dst(64, 64);
  dst.copy_from(src);
  EXPECT_EQ(at(dst, 0, 1), at(src, 0, 1));
  EXPECT_EQ(at(dst, 0, 1), 1000u);
  EXPECT_EQ(at(dst, 63, 1), 1063u);
  EXPECT_EQ(at(dst, 63, 63), 63063u);
}

TEST(PixelStore, CopyPlaneSolidToSolidStaysSolid) {
  PixelStore src(8, 8);
  src.fill(0xFFFFFFFFu);
  PixelStore dst(8, 8);
  dst.fill(0xF0u);
  dst.copy_from(src, 1u << 0);
  EXPECT_FALSE(dst.materialized());
  EXPECT_EQ(dst.solid_value(), 0xF1u);
}

TEST(PixelStore, CopyPlaneKeepsTheOtherBitsOfADrawnDestination) {
  PixelStore src(8, 8);
  src.fill(0x1u);
  PixelStore dst(8, 8);
  draw_coordinates(dst);
  dst.copy_from(src, 1u << 0);
  EXPECT_TRUE(dst.materialized());
  EXPECT_EQ(at(dst, 2, 3), 3002u | 1u);
  EXPECT_EQ(at(dst, 3, 3), 3003u);
}

TEST(PixelStore, SelfCopyIsANoOp) {
  PixelStore s(8, 8);
  s.fill(0x42u);
  s.copy_from(s);
  s.copy_from(s, 1u << 5);
  EXPECT_FALSE(s.materialized());
  EXPECT_EQ(s.solid_value(), 0x42u);
}

TEST(PixelStore, CaptureIsAFullIndependentImage) {
  PixelStore s(6, 4);
  s.fill(0x77u);
  const Image solid = capture(s);
  EXPECT_EQ(solid.width, 6);
  EXPECT_EQ(solid.height, 4);
  EXPECT_EQ(solid.pixels, std::vector<std::uint32_t>(24, 0x77u));
  EXPECT_FALSE(s.materialized());  // capturing never allocates the store

  draw_coordinates(s);
  Image drawn = capture(s);
  ASSERT_EQ(drawn.pixels.size(), 24u);
  EXPECT_EQ(drawn.pixels[1 * 6 + 5], 1005u);
  drawn.pixels[0] = 99u;
  EXPECT_EQ(s[0], 0u);  // the image does not alias the store
}

TEST(PixelStore, BlitClipsToTheDestination) {
  Image screen;
  screen.width = 10;
  screen.height = 10;
  screen.pixels.assign(100, 0u);
  PixelStore s(4, 4);
  draw_coordinates(s);
  blit(s, -2, 8, screen);  // only columns 2..3 of rows 0..1 land on screen
  EXPECT_EQ(screen.pixels[8 * 10 + 0], 2u);
  EXPECT_EQ(screen.pixels[8 * 10 + 1], 3u);
  EXPECT_EQ(screen.pixels[9 * 10 + 0], 1002u);
  EXPECT_EQ(screen.pixels[9 * 10 + 1], 1003u);
  std::size_t painted = 0;
  for (const std::uint32_t p : screen.pixels) painted += p != 0u ? 1 : 0;
  EXPECT_EQ(painted, 4u);

  blit(s, 20, 0, screen);  // fully off-screen: nothing to do
  blit(s, 0, -4, screen);
  EXPECT_EQ(screen.pixels[0], 0u);
}

}  // namespace
}  // namespace overhaul::display
