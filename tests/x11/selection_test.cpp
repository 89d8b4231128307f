// ICCCM selection protocol + Overhaul clipboard mediation (§IV-A, Fig. 6).
#include "x11/selection.h"

#include <gtest/gtest.h>

#include "apps/password_manager.h"
#include "apps/runtime.h"
#include "core/system.h"

namespace overhaul::x11 {
namespace {

using apps::icccm_copy;
using apps::icccm_paste;

class SelectionTest : public ::testing::Test {
 protected:
  core::OverhaulSystem sys_;
  XServer& x_ = sys_.xserver();

  std::unique_ptr<apps::PasswordManagerApp> pm_;
  std::unique_ptr<apps::EditorApp> editor_;

  void SetUp() override {
    pm_ = apps::PasswordManagerApp::launch(sys_).value();
    editor_ = apps::EditorApp::launch(sys_).value();
    pm_->store_password("bank", "hunter2");
  }

  void user_clicks(const apps::GuiApp& app) {
    auto [cx, cy] = app.click_point();
    // Ensure the app is on top so the click lands on it.
    (void)x_.raise_window(app.client(), app.window());
    sys_.input().click(cx, cy);
  }

  // The audit lines of every denied copy, as an operator reads them.
  std::vector<std::string> denied_copy_lines() {
    std::vector<std::string> lines;
    for (const auto& rec : sys_.audit().filter([](const util::AuditRecord& r) {
           return r.op == util::Op::kCopy &&
                  r.decision == util::Decision::kDeny;
         }))
      lines.push_back(util::format_line(rec));
    return lines;
  }
};

TEST_F(SelectionTest, CopyWithoutInteractionDenied) {
  auto s = x_.selections().set_selection_owner(pm_->client(), "CLIPBOARD",
                                               pm_->window());
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
  EXPECT_EQ(x_.selections().stats().copies_denied, 1u);
}

// The selection name is client-chosen and lands in the audit record's
// detail. A client with no user input must not be able to forge a second
// audit line (here a mic GRANT) through it.
TEST_F(SelectionTest, NewlineInSelectionNameCannotForgeAuditLine) {
  const std::string name =
      "X\n[    4.000000s] pid=1      init         op=mic   GRANT "
      "age=0.001s /dev/snd/mic0";
  EXPECT_EQ(x_.selections()
                .set_selection_owner(pm_->client(), name, pm_->window())
                .code(),
            util::Code::kBadAccess);
  const std::vector<std::string> lines = denied_copy_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].find('\n'), std::string::npos) << lines[0];
  EXPECT_TRUE(lines[0].ends_with(
      "op=copy  DENY  age=-1.000s X\\x0a[    4.000000s] pid=1      init"
      "         op=mic   GRANT age=0.001s /dev/snd/mic0"))
      << lines[0];
}

TEST_F(SelectionTest, LongSelectionNameAuditsInFull) {
  const std::string name = std::string(400, 'S') + "END";
  EXPECT_EQ(x_.selections()
                .set_selection_owner(pm_->client(), name, pm_->window())
                .code(),
            util::Code::kBadAccess);
  const std::vector<std::string> lines = denied_copy_lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].ends_with(" " + name)) << lines[0];
}

TEST_F(SelectionTest, CopyAfterInteractionGranted) {
  user_clicks(*pm_);
  sys_.input().press_copy_chord();
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  auto owner = x_.selections().selection_owner("CLIPBOARD");
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(owner->client, pm_->client());
}

TEST_F(SelectionTest, FullPasteFlowDeliversData) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  sys_.input().press_paste_chord();
  auto pasted = editor_->paste_from(*pm_);
  ASSERT_TRUE(pasted.is_ok());
  EXPECT_EQ(pasted.value(), "hunter2");
  EXPECT_EQ(editor_->buffer(), "hunter2");
}

TEST_F(SelectionTest, PasteWithoutInteractionDenied) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  // Let the copy interaction expire, then paste with no user input.
  sys_.advance(sim::Duration::seconds(5));
  auto pasted = editor_->paste_from(*pm_);
  EXPECT_EQ(pasted.code(), util::Code::kBadAccess);
  EXPECT_EQ(x_.selections().stats().pastes_denied, 1u);
}

TEST_F(SelectionTest, PasteExpiresAfterDelta) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  sys_.advance(sys_.config().delta + sim::Duration::millis(1));
  EXPECT_EQ(editor_->paste_from(*pm_).code(), util::Code::kBadAccess);
}

TEST_F(SelectionTest, ConvertUnownedSelectionFails) {
  user_clicks(*editor_);
  auto s = x_.selections().convert_selection(editor_->client(), "PRIMARY",
                                             editor_->window(), "P");
  EXPECT_EQ(s.code(), util::Code::kBadAtom);
}

TEST_F(SelectionTest, SelectionOwnerWindowMustBeOwn) {
  user_clicks(*pm_);
  auto s = x_.selections().set_selection_owner(pm_->client(), "CLIPBOARD",
                                               editor_->window());
  EXPECT_EQ(s.code(), util::Code::kBadWindow);
}

// Attack: forged SelectionRequest via SendEvent (the §IV-A bypass).
TEST_F(SelectionTest, ForgedSelectionRequestBlocked) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  (void)pm_->pump_events();  // clear the click/chord input events

  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());
  XEvent forged;
  forged.type = EventType::kSelectionRequest;
  forged.selection = "CLIPBOARD";
  forged.property = "LOOT";
  forged.requestor = mallory.value().window;
  auto s = x_.send_event(mallory.value().client, pm_->window(), forged);
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
  EXPECT_EQ(x_.stats().blocked_send_events, 1u);
  // The owner never sees the forged request.
  EXPECT_FALSE(x_.client(pm_->client())->has_events());
}

// Attack: forged SelectionNotify (no in-flight transfer) blocked.
TEST_F(SelectionTest, ForgedSelectionNotifyBlocked) {
  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());
  XEvent forged;
  forged.type = EventType::kSelectionNotify;
  forged.selection = "CLIPBOARD";
  forged.property = "FAKE";
  auto s = x_.send_event(mallory.value().client, editor_->window(), forged);
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
}

// Attack: property snooping mid-flight (subscribe + read before deletion).
TEST_F(SelectionTest, MidFlightPropertyReadBlocked) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());

  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());

  // Manually run the paste protocol up to the data handoff, leaving the
  // property alive (before step 13).
  user_clicks(*editor_);
  sys_.input().press_paste_chord();
  ASSERT_TRUE(x_.selections()
                  .convert_selection(editor_->client(), "CLIPBOARD",
                                     editor_->window(), "P")
                  .is_ok());
  // Owner answers.
  for (const auto& ev : pm_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest) {
      ASSERT_TRUE(x_.selections()
                      .change_property(pm_->client(), ev.requestor,
                                       ev.property, "hunter2")
                      .is_ok());
    }
  }
  // Mallory tries to read the in-flight property on the editor's window.
  auto sniff = x_.selections().get_property(mallory.value().client,
                                            editor_->window(), "P");
  EXPECT_EQ(sniff.code(), util::Code::kBadAccess);
  EXPECT_GE(x_.selections().stats().snoops_blocked, 1u);
  // The rightful paste target can read it.
  auto legit =
      x_.selections().get_property(editor_->client(), editor_->window(), "P");
  ASSERT_TRUE(legit.is_ok());
  EXPECT_EQ(legit.value(), "hunter2");
}

// Attack: PropertyNotify snooping — only the paste target receives events
// for in-flight clipboard data.
TEST_F(SelectionTest, MidFlightPropertyEventsOnlyToTarget) {
  auto mallory = sys_.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory.is_ok());
  x_.selections().subscribe_property_events(mallory.value().client,
                                            editor_->window());
  x_.selections().subscribe_property_events(editor_->client(),
                                            editor_->window());

  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  sys_.input().press_paste_chord();
  auto pasted = editor_->paste_from(*pm_);
  ASSERT_TRUE(pasted.is_ok());

  // Mallory's queue must contain no PropertyNotify for the transfer.
  XClient* mc = x_.client(mallory.value().client);
  while (mc->has_events()) {
    EXPECT_NE(mc->next_event().type, EventType::kPropertyNotify);
  }
}

TEST_F(SelectionTest, PropertyOnOwnWindowFreelyUsable) {
  auto s = x_.selections().change_property(editor_->client(),
                                           editor_->window(), "MY", "v");
  ASSERT_TRUE(s.is_ok());
  auto v = x_.selections().get_property(editor_->client(), editor_->window(),
                                        "MY");
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), "v");
  ASSERT_TRUE(x_.selections()
                  .delete_property(editor_->client(), editor_->window(), "MY")
                  .is_ok());
}

TEST_F(SelectionTest, ForeignPropertyWriteBlocked) {
  auto s = x_.selections().change_property(pm_->client(), editor_->window(),
                                           "EVIL", "x");
  EXPECT_EQ(s.code(), util::Code::kBadAccess);
}

// ICCCM TARGETS negotiation: format discovery is metadata and needs no
// input correlation; the data transfer itself still does.
TEST_F(SelectionTest, TargetsNegotiationExemptFromMediation) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  sys_.advance(sim::Duration::seconds(10));  // all interactions stale

  // The editor asks which formats the owner offers — allowed without input.
  ASSERT_TRUE(x_.selections()
                  .convert_selection(editor_->client(), "CLIPBOARD",
                                     editor_->window(), "T", "TARGETS")
                  .is_ok());
  // The owner sees the TARGETS request and answers with its format list.
  bool answered = false;
  for (const auto& ev : pm_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest && ev.target == "TARGETS") {
      ASSERT_TRUE(x_.selections()
                      .change_property(pm_->client(), ev.requestor,
                                       ev.property, "STRING,UTF8_STRING")
                      .is_ok());
      answered = true;
    }
  }
  EXPECT_TRUE(answered);
  auto formats =
      x_.selections().get_property(editor_->client(), editor_->window(), "T");
  ASSERT_TRUE(formats.is_ok());
  EXPECT_EQ(formats.value(), "STRING,UTF8_STRING");
  ASSERT_TRUE(x_.selections()
                  .delete_property(editor_->client(), editor_->window(), "T")
                  .is_ok());

  // The actual STRING conversion is still mediated — and denied here.
  EXPECT_EQ(x_.selections()
                .convert_selection(editor_->client(), "CLIPBOARD",
                                   editor_->window(), "P", "STRING")
                .code(),
            util::Code::kBadAccess);
}

TEST_F(SelectionTest, TargetCarriedToOwner) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  ASSERT_TRUE(x_.selections()
                  .convert_selection(editor_->client(), "CLIPBOARD",
                                     editor_->window(), "P", "UTF8_STRING")
                  .is_ok());
  bool saw = false;
  for (const auto& ev : pm_->pump_events()) {
    if (ev.type == EventType::kSelectionRequest) {
      EXPECT_EQ(ev.target, "UTF8_STRING");
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST_F(SelectionTest, OwnerDisconnectClearsSelection) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  ASSERT_TRUE(x_.selections().selection_owner("CLIPBOARD").has_value());
  ASSERT_TRUE(x_.disconnect_client(pm_->client()).is_ok());
  EXPECT_FALSE(x_.selections().selection_owner("CLIPBOARD").has_value());
  // A paste now fails cleanly at the no-owner step.
  user_clicks(*editor_);
  EXPECT_EQ(x_.selections()
                .convert_selection(editor_->client(), "CLIPBOARD",
                                   editor_->window(), "P")
                .code(),
            util::Code::kBadAtom);
}

TEST_F(SelectionTest, DisconnectDropsInFlightTransfers) {
  user_clicks(*pm_);
  ASSERT_TRUE(pm_->copy_password_to_clipboard("bank").is_ok());
  user_clicks(*editor_);
  ASSERT_TRUE(x_.selections()
                  .convert_selection(editor_->client(), "CLIPBOARD",
                                     editor_->window(), "P")
                  .is_ok());
  ASSERT_FALSE(x_.selections().transfers().empty());
  ASSERT_TRUE(x_.disconnect_client(pm_->client()).is_ok());
  EXPECT_TRUE(x_.selections().transfers().empty());
}

TEST_F(SelectionTest, BaselineAllowsSniffing) {
  // On the unmodified system the same attack succeeds — the differential
  // oracle for the paper's clipboard protection claim.
  core::OverhaulSystem base(core::OverhaulConfig::baseline());
  auto pm = apps::PasswordManagerApp::launch(base).value();
  auto mallory_handle = base.launch_gui_app("/home/user/mal", "mal");
  ASSERT_TRUE(mallory_handle.is_ok());
  pm->store_password("bank", "hunter2");
  ASSERT_TRUE(pm->copy_password_to_clipboard("bank").is_ok());  // no input needed

  // Mallory pastes without any user interaction: granted at baseline.
  class MalloryApp : public apps::GuiApp {
   public:
    using GuiApp::GuiApp;
  };
  MalloryApp mallory(base, mallory_handle.value(), "mal");
  auto loot = icccm_paste(base.xserver(), *pm, mallory, "CLIPBOARD",
                          pm->pending_clipboard());
  ASSERT_TRUE(loot.is_ok());
  EXPECT_EQ(loot.value(), "hunter2");
}

}  // namespace
}  // namespace overhaul::x11
