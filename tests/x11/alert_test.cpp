// Trusted output path tests (§IV-A "Trusted output", Fig. 5).
#include "display/alert.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.h"

namespace overhaul::x11 {
namespace {

using display::Alert;
using display::AlertOverlay;
using util::Decision;
using util::Op;

TEST(AlertOverlay, ShowsAndExpires) {
  sim::Clock clock;
  AlertOverlay overlay(clock);
  overlay.set_shared_secret("cat");
  overlay.set_display_duration(sim::Duration::seconds(4));
  overlay.show(42, "spyd", Op::kCamera, Decision::kDeny);
  EXPECT_EQ(overlay.active(clock.now()).size(), 1u);
  clock.advance(sim::Duration::seconds(3));
  EXPECT_EQ(overlay.active(clock.now()).size(), 1u);
  clock.advance(sim::Duration::seconds(2));
  EXPECT_TRUE(overlay.active(clock.now()).empty());
  EXPECT_EQ(overlay.shown_count(), 1u);  // history retained
}

TEST(AlertOverlay, TextNamesProcessAndResource) {
  sim::Clock clock;
  AlertOverlay overlay(clock);
  const std::string denied =
      overlay.text(overlay.show(1, "spyd", Op::kCamera, Decision::kDeny));
  EXPECT_NE(denied.find("spyd"), std::string::npos);
  EXPECT_NE(denied.find("camera"), std::string::npos);
  EXPECT_NE(denied.find("Blocked"), std::string::npos);
  const std::string granted = overlay.text(
      overlay.show(2, "skype", Op::kMicrophone, Decision::kGrant));
  EXPECT_EQ(granted.find("Blocked"), std::string::npos);
  EXPECT_NE(granted.find("microphone"), std::string::npos);

  // The message is rendered on read, byte for byte what the overlay used
  // to store per alert.
  const auto text = [&](Op op, Decision d) {
    return overlay.text(overlay.show(3, "app", op, d));
  };
  EXPECT_EQ(text(Op::kMicrophone, Decision::kGrant),
            "app is recording from the microphone");
  EXPECT_EQ(text(Op::kCamera, Decision::kGrant), "app is using the camera");
  EXPECT_EQ(text(Op::kScreenCapture, Decision::kGrant),
            "app is capturing the screen");
  EXPECT_EQ(text(Op::kDeviceOther, Decision::kGrant),
            "app is accessing a protected device");
  EXPECT_EQ(text(Op::kCopy, Decision::kGrant), "app copied to the clipboard");
  EXPECT_EQ(text(Op::kPaste, Decision::kGrant),
            "app pasted from the clipboard");
  EXPECT_EQ(text(Op::kMicrophone, Decision::kDeny),
            "Blocked: app tried and is recording from the microphone");
  EXPECT_EQ(text(Op::kPaste, Decision::kDeny),
            "Blocked: app tried and pasted from the clipboard");
}

TEST(AlertOverlay, RepeatedCommsShareOneId) {
  sim::Clock clock;
  AlertOverlay overlay(clock);
  overlay.set_shared_secret("cat");
  const Alert a = overlay.show(9, "spyd", Op::kCamera, Decision::kDeny);
  EXPECT_EQ(overlay.comm(a), "spyd");
  EXPECT_EQ(a.pid, 9);
  EXPECT_EQ(a.op, Op::kCamera);
  EXPECT_EQ(a.decision, Decision::kDeny);
  const Alert b = overlay.show(10, "spyd", Op::kCamera, Decision::kGrant);
  EXPECT_EQ(a.comm_id, b.comm_id);
  EXPECT_EQ(a.secret_id, b.secret_id);
}

TEST(AlertOverlay, AuthenticityRequiresSecret) {
  sim::Clock clock;
  AlertOverlay overlay(clock);
  overlay.set_shared_secret("visual-secret:tabby-cat");
  const Alert& real = overlay.show(1, "app", Op::kMicrophone, Decision::kGrant);
  EXPECT_TRUE(overlay.is_authentic(real));

  // A forged alert (painted by a client window) has no secret.
  Alert forged = real;
  forged.secret_id = 0;  // attacker cannot know the secret
  EXPECT_FALSE(overlay.is_authentic(forged));
  // Nor does stamping it with the wrong secret: one that is not in the
  // overlay's table at all, or a string the table holds that is not the
  // secret (the comm it interned for the genuine alert).
  forged.secret_id = real.secret_id + 100;
  EXPECT_FALSE(overlay.is_authentic(forged));
  forged.secret_id = real.comm_id;
  ASSERT_EQ(overlay.comm(forged), "app");
  EXPECT_FALSE(overlay.is_authentic(forged));
}

TEST(AlertOverlay, ChangingTheSecretRetiresOldAlerts) {
  sim::Clock clock;
  AlertOverlay overlay(clock);
  overlay.set_shared_secret("visual-secret:tabby-cat");
  const Alert old = overlay.show(1, "app", Op::kCamera, Decision::kGrant);
  ASSERT_TRUE(overlay.is_authentic(old));
  overlay.set_shared_secret("visual-secret:parrot");
  EXPECT_FALSE(overlay.is_authentic(old));
  const Alert fresh = overlay.show(1, "app", Op::kCamera, Decision::kGrant);
  EXPECT_TRUE(overlay.is_authentic(fresh));
  // Value semantics: the secret is compared, not the moment it was set.
  overlay.set_shared_secret("visual-secret:tabby-cat");
  EXPECT_TRUE(overlay.is_authentic(old));
  EXPECT_FALSE(overlay.is_authentic(fresh));
  // An alert keeps the secret it was stamped with on screen.
  EXPECT_NE(overlay.render_banner(fresh).find("visual-secret:parrot"),
            std::string::npos);
}

TEST(AlertOverlay, BannerRendersSecretAndMessage) {
  sim::Clock clock;
  AlertOverlay overlay(clock);
  overlay.set_shared_secret("visual-secret:tabby-cat");
  const Alert& alert =
      overlay.show(7, "skype", Op::kMicrophone, Decision::kGrant);
  const std::string banner = overlay.render_banner(alert);
  EXPECT_NE(banner.find("visual-secret:tabby-cat"), std::string::npos);
  EXPECT_NE(banner.find("skype is recording"), std::string::npos);
  // Three lines: top border, body, bottom border.
  EXPECT_EQ(std::count(banner.begin(), banner.end(), '\n'), 3);
  EXPECT_EQ(banner,
            "+-------------------------------------------------------------"
            "-----+\n"
            "| visual-secret:tabby-cat | skype is recording from the "
            "microphone |\n"
            "+-------------------------------------------------------------"
            "-----+\n");
}

TEST(AlertOverlay, BannerFlagsMissingSecret) {
  sim::Clock clock;
  AlertOverlay overlay(clock);
  const Alert& alert = overlay.show(7, "x", Op::kCamera, Decision::kDeny);
  EXPECT_EQ(overlay.render_banner(alert),
            "+---------------------------------------------------------+\n"
            "| (no secret!) | Blocked: x tried and is using the camera |\n"
            "+---------------------------------------------------------+\n");
}

TEST(AlertOverlay, NoSecretConfiguredMeansNothingAuthentic) {
  sim::Clock clock;
  AlertOverlay overlay(clock);
  const Alert& a = overlay.show(1, "app", Op::kCamera, Decision::kGrant);
  EXPECT_FALSE(overlay.is_authentic(a));
}

class AlertSystemTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
};

// End-to-end: a blocked device access raises an overlay alert via the
// kernel → netlink → display manager path (V_{A,op}).
TEST_F(AlertSystemTest, BlockedDeviceAccessRaisesAlert) {
  auto daemon = sys_.launch_daemon("/home/user/.spy", "spy").value();
  auto fd = sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_EQ(fd.code(), util::Code::kOverhaulDenied);
  auto& alerts = sys_.xserver().alerts();
  ASSERT_EQ(alerts.shown_count(), 1u);
  EXPECT_EQ(alerts.comm(alerts.history()[0]), "spy");
  EXPECT_EQ(alerts.history()[0].op, Op::kMicrophone);
  EXPECT_EQ(alerts.history()[0].decision, Decision::kDeny);
  EXPECT_TRUE(alerts.is_authentic(alerts.history()[0]));
}

TEST_F(AlertSystemTest, GrantedDeviceAccessRaisesAlertToo) {
  auto app = sys_.launch_gui_app("/usr/bin/rec", "rec").value();
  const auto& r = sys_.xserver().window(app.window)->rect();
  sys_.input().click(r.x + 1, r.y + 1);
  auto fd = sys_.kernel().sys_open(app.pid, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  ASSERT_TRUE(fd.is_ok());
  auto& alerts = sys_.xserver().alerts();
  ASSERT_EQ(alerts.shown_count(), 1u);
  EXPECT_EQ(alerts.history()[0].decision, Decision::kGrant);
}

// The stacking guarantee: the overlay is not a window, so no client window
// can ever sit above it.
TEST_F(AlertSystemTest, OverlayAboveAllClientWindows) {
  auto daemon = sys_.launch_daemon("/home/user/.spy", "spy").value();
  (void)sys_.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                               kern::OpenFlags::kRead);
  ASSERT_EQ(sys_.xserver().alerts().active(sys_.clock().now()).size(), 1u);

  // A client maps + raises a full-screen window while the alert shows.
  auto attacker = sys_.launch_gui_app("/home/user/mal", "mal",
                                      Rect{0, 0, 1024, 768}, false);
  ASSERT_TRUE(attacker.is_ok());
  // The alert remains active and is not part of the window stacking.
  EXPECT_EQ(sys_.xserver().alerts().active(sys_.clock().now()).size(), 1u);
  for (WindowId wid : sys_.xserver().stacking_order()) {
    EXPECT_NE(wid, kNoWindow);  // overlay has no window id in the stack
  }
}

TEST_F(AlertSystemTest, BaselineShowsNoAlerts) {
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  auto daemon = base.launch_daemon("/home/user/.spy", "spy").value();
  auto fd = base.kernel().sys_open(daemon, core::OverhaulSystem::mic_path(),
                                   kern::OpenFlags::kRead);
  EXPECT_TRUE(fd.is_ok());  // unmodified system grants
  EXPECT_EQ(base.xserver().alerts().shown_count(), 0u);
}

}  // namespace
}  // namespace overhaul::x11
