// display::TrustedInput: the one trusted input path behind both backends.
//
// The first group drives a standalone seam on a booted system's kernel,
// connected as the display server, to pin the rule itself: the visibility
// threshold edge, see-through targets, synthetic input, and what enters the
// trace. The second group checks the trace bound through each backend.
#include "display/trusted_input.h"

#include <gtest/gtest.h>

#include "core/system.h"

namespace overhaul {
namespace {

using core::DisplayBackendKind;
using display::InputEvent;
using display::InputKind;
using display::kInputTraceCapacity;

class TrustedInputTest : public ::testing::Test {
 protected:
  TrustedInputTest() { seam_.connect(sys_.display().server_pid()); }

  // A hardware click on a mapped window of `pid`, visible for `age`.
  static InputEvent click(kern::Pid pid, sim::Duration age) {
    InputEvent ev;
    ev.kind = InputKind::kClick;
    ev.receiver_pid = pid;
    ev.target = 7;
    ev.mapped = true;
    ev.visible_for = age;
    return ev;
  }

  kern::Pid app_pid() {
    return sys_.launch_daemon("/usr/bin/app", "app").value();
  }

  core::OverhaulSystem sys_;
  display::ServerConfig config_;
  display::AlertOverlay overlay_{sys_.clock()};
  display::TrustedInput seam_{sys_.kernel(), overlay_, config_, "seam"};
};

TEST_F(TrustedInputTest, NotifiesFromTheThresholdOn) {
  const kern::Pid pid = app_pid();
  const sim::Duration threshold = config_.visibility_threshold;
  EXPECT_FALSE(seam_.mint_interaction(
      click(pid, threshold - sim::Duration::nanos(1))));
  EXPECT_TRUE(seam_.mint_interaction(click(pid, threshold)));
  EXPECT_EQ(seam_.stats().hardware_events, 2u);
  EXPECT_EQ(seam_.stats().interaction_notifications, 1u);
  EXPECT_EQ(seam_.stats().clickjack_suppressed, 1u);
  EXPECT_EQ(sys_.obs().metrics.counter_value("seam.input.notifications"), 1u);
  EXPECT_EQ(
      sys_.obs().metrics.counter_value("seam.input.clickjack_suppressed"), 1u);
}

TEST_F(TrustedInputTest, SeeThroughAndUnmappedTargetsAreSuppressed) {
  const kern::Pid pid = app_pid();
  InputEvent see_through = click(pid, sim::Duration::seconds(10));
  see_through.see_through = true;
  InputEvent unmapped = click(pid, sim::Duration::seconds(10));
  unmapped.mapped = false;
  EXPECT_FALSE(seam_.mint_interaction(see_through));
  EXPECT_FALSE(seam_.mint_interaction(unmapped));
  EXPECT_EQ(seam_.stats().clickjack_suppressed, 2u);
  ASSERT_EQ(seam_.trace().size(), 2u);
  EXPECT_TRUE(seam_.trace()[0].clickjack_suppressed);
  EXPECT_TRUE(seam_.trace()[1].clickjack_suppressed);
}

TEST_F(TrustedInputTest, SyntheticInputIsTracedButNeverNotified) {
  const kern::Pid pid = app_pid();
  InputEvent forged = click(pid, sim::Duration::seconds(10));
  forged.hardware = false;
  EXPECT_FALSE(seam_.mint_interaction(forged));
  EXPECT_EQ(seam_.stats().synthetic_events, 1u);
  EXPECT_EQ(seam_.stats().hardware_events, 0u);
  EXPECT_EQ(seam_.stats().clickjack_suppressed, 0u);
  ASSERT_EQ(seam_.trace().size(), 1u);
  EXPECT_FALSE(seam_.trace()[0].hardware);
  EXPECT_FALSE(seam_.trace()[0].produced_notification);
  EXPECT_TRUE(sys_.kernel().processes().lookup(pid)->interaction_ts.is_never());
}

TEST_F(TrustedInputTest, OnlyKeysAndClicksEnterTheTrace) {
  const kern::Pid pid = app_pid();
  InputEvent other = click(pid, sim::Duration::seconds(10));
  other.kind = InputKind::kOther;
  other.hardware = false;
  (void)seam_.mint_interaction(other);
  EXPECT_EQ(seam_.stats().synthetic_events, 0u);  // protocol traffic, not input
  EXPECT_TRUE(seam_.trace().empty());

  InputEvent key = click(pid, sim::Duration::seconds(10));
  key.kind = InputKind::kKey;
  key.serial = 42;
  EXPECT_TRUE(seam_.mint_interaction(key));
  ASSERT_EQ(seam_.trace().size(), 1u);
  const display::InputTraceEntry& t = seam_.trace()[0];
  EXPECT_EQ(t.kind, InputKind::kKey);
  EXPECT_EQ(t.receiver_pid, pid);
  EXPECT_EQ(t.target, 7u);
  EXPECT_EQ(t.serial, 42u);
  EXPECT_EQ(t.time.ns, sys_.clock().now().ns);
  EXPECT_TRUE(t.produced_notification);
}

TEST_F(TrustedInputTest, QueryForAnUnknownClientIsDenied) {
  EXPECT_EQ(seam_.query_monitor(kern::kNoPid, util::Op::kCopy, "x"),
            util::Decision::kDeny);
}

TEST(TrustedInputBaselineTest, DisabledSeamGrantsAndNeverNotifies) {
  core::OverhaulSystem sys(core::OverhaulConfig::baseline());
  display::ServerConfig config;
  config.overhaul_enabled = false;
  display::AlertOverlay overlay(sys.clock());
  display::TrustedInput seam(sys.kernel(), overlay, config, "seam");
  seam.connect(sys.display().server_pid());

  InputEvent ev;
  ev.kind = InputKind::kClick;
  ev.receiver_pid = sys.launch_daemon("/usr/bin/app", "app").value();
  ev.mapped = true;
  ev.visible_for = sim::Duration::seconds(10);
  EXPECT_FALSE(seam.mint_interaction(ev));
  EXPECT_EQ(seam.stats().hardware_events, 1u);
  EXPECT_EQ(seam.stats().clickjack_suppressed, 0u);
  EXPECT_EQ(seam.query_monitor(kern::kNoPid, util::Op::kCopy, "x"),
            util::Decision::kGrant);
}

// --- the trace bound, through each backend ---------------------------------

class InputTraceBound : public ::testing::TestWithParam<DisplayBackendKind> {};

TEST_P(InputTraceBound, KeepsTheNewestEntriesOldestFirst) {
  core::OverhaulConfig cfg;
  cfg.display_backend = GetParam();
  core::OverhaulSystem sys(cfg);
  auto app = sys.launch_gui_app("/usr/bin/app", "app").value();

  constexpr std::size_t kClicks = kInputTraceCapacity + 5;
  const sim::Timestamp start = sys.clock().now();
  for (std::size_t i = 0; i < kClicks; ++i) {
    sys.input().click(10, 10);
    sys.advance(sim::Duration::millis(1));
  }

  const auto& trace = sys.display().input_trace();
  ASSERT_EQ(trace.size(), kInputTraceCapacity);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    // Entry i is click i + 5: the five oldest were dropped.
    ASSERT_EQ(trace[i].time.ns,
              (start + sim::Duration::millis(static_cast<std::int64_t>(i + 5)))
                  .ns)
        << "entry " << i;
    ASSERT_EQ(trace[i].receiver_pid, app.pid);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, InputTraceBound,
    ::testing::Values(DisplayBackendKind::kX11, DisplayBackendKind::kWayland),
    [](const auto& info) {
      return std::string(core::display_backend_name(info.param));
    });

}  // namespace
}  // namespace overhaul
