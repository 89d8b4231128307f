#include "util/audit_report.h"

#include <gtest/gtest.h>

#include "audit/sink.h"

namespace overhaul::util {
namespace {

class AuditReportTest : public ::testing::Test {
 protected:
  void rec(const std::string& comm, Op op, Decision d) {
    sink_.append_decision(0, 1, comm, op, d, -1, "");
  }

  void SetUp() override {
    // The §V-D shape: two video-conf apps use mic+cam, one screenshot tool
    // captures the screen, many apps touch the clipboard, spyware denied.
    for (const char* vc : {"skype", "jitsi"}) {
      rec(vc, Op::kMicrophone, Decision::kGrant);
      rec(vc, Op::kCamera, Decision::kGrant);
    }
    rec("gnome-screenshot", Op::kScreenCapture, Decision::kGrant);
    for (const char* app : {"gedit", "firefox", "keepass"}) {
      rec(app, Op::kCopy, Decision::kGrant);
      rec(app, Op::kPaste, Decision::kGrant);
    }
    for (int i = 0; i < 5; ++i) {
      rec("spyd", Op::kMicrophone, Decision::kDeny);
      rec("spyd", Op::kScreenCapture, Decision::kDeny);
    }
  }
  audit::Sink sink_;
};

TEST_F(AuditReportTest, AppsGrantedPerResource) {
  const AuditReport report = build_report(sink_.records());
  EXPECT_EQ(report.apps_granted(Op::kCamera),
            (std::vector<std::string>{"jitsi", "skype"}));
  EXPECT_EQ(report.apps_granted(Op::kScreenCapture),
            (std::vector<std::string>{"gnome-screenshot"}));
  EXPECT_EQ(report.apps_granted(Op::kCopy).size(), 3u);
  EXPECT_TRUE(report.apps_granted(Op::kDeviceOther).empty());
}

TEST_F(AuditReportTest, AppsDeniedPerResource) {
  const AuditReport report = build_report(sink_.records());
  EXPECT_EQ(report.apps_denied(Op::kMicrophone),
            (std::vector<std::string>{"spyd"}));
  EXPECT_TRUE(report.apps_denied(Op::kCamera).empty());
}

TEST_F(AuditReportTest, PerAppCounts) {
  const AuditReport report = build_report(sink_.records());
  const AppUsage* spy = report.find("spyd");
  ASSERT_NE(spy, nullptr);
  EXPECT_EQ(spy->total_grants(), 0u);
  EXPECT_EQ(spy->total_denials(), 10u);
  EXPECT_EQ(spy->denials.at(Op::kMicrophone), 5u);

  const AppUsage* skype = report.find("skype");
  ASSERT_NE(skype, nullptr);
  EXPECT_EQ(skype->total_grants(), 2u);
  EXPECT_EQ(skype->total_denials(), 0u);
}

TEST_F(AuditReportTest, FindMissingReturnsNull) {
  const AuditReport report = build_report(sink_.records());
  EXPECT_EQ(report.find("nonexistent"), nullptr);
}

TEST_F(AuditReportTest, EmptyLogEmptyReport) {
  const AuditReport report = build_report(audit::Sink().records());
  EXPECT_TRUE(report.apps.empty());
  EXPECT_TRUE(report.apps_granted(Op::kCamera).empty());
}

TEST_F(AuditReportTest, ToStringListsEveryAppOpPair) {
  const AuditReport report = build_report(sink_.records());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("skype"), std::string::npos);
  EXPECT_NE(text.find("spyd"), std::string::npos);
  EXPECT_NE(text.find("mic"), std::string::npos);
  // spyd's denial count appears.
  EXPECT_NE(text.find("     5"), std::string::npos);
}

TEST_F(AuditReportTest, AppsSortedByName) {
  const AuditReport report = build_report(sink_.records());
  for (std::size_t i = 1; i < report.apps.size(); ++i) {
    EXPECT_LT(report.apps[i - 1].comm, report.apps[i].comm);
  }
}

}  // namespace
}  // namespace overhaul::util
