#include "util/audit_log.h"

#include <gtest/gtest.h>

#include "audit/sink.h"

namespace overhaul::util {
namespace {

AuditRecord make(Op op, Decision d, int pid = 100) {
  AuditRecord r;
  r.time_ns = 1'500'000'000;
  r.pid = pid;
  r.comm = "testapp";
  r.op = op;
  r.decision = d;
  r.interaction_age_ns = 250'000'000;
  r.detail = "/dev/snd/mic0";
  return r;
}

void append(audit::Sink* sink, const AuditRecord& r) {
  sink->append_decision(r.time_ns, r.pid, r.comm, r.op, r.decision,
                        r.interaction_age_ns, r.detail);
}

// The count/filter vocabulary over the live log (audit::Sink).
TEST(AuditLog, CountByDecision) {
  audit::Sink log;
  append(&log, make(Op::kMicrophone, Decision::kGrant));
  append(&log, make(Op::kCamera, Decision::kDeny));
  append(&log, make(Op::kCamera, Decision::kDeny));
  EXPECT_EQ(log.count(Decision::kGrant), 1u);
  EXPECT_EQ(log.count(Decision::kDeny), 2u);
}

TEST(AuditLog, CountByOpAndDecision) {
  audit::Sink log;
  append(&log, make(Op::kPaste, Decision::kGrant));
  append(&log, make(Op::kPaste, Decision::kDeny));
  append(&log, make(Op::kCopy, Decision::kGrant));
  EXPECT_EQ(log.count(Op::kPaste, Decision::kGrant), 1u);
  EXPECT_EQ(log.count(Op::kPaste, Decision::kDeny), 1u);
  EXPECT_EQ(log.count(Op::kCopy, Decision::kDeny), 0u);
}

TEST(AuditLog, FilterByPredicate) {
  audit::Sink log;
  append(&log, make(Op::kMicrophone, Decision::kGrant, 10));
  append(&log, make(Op::kMicrophone, Decision::kGrant, 20));
  append(&log, make(Op::kCamera, Decision::kDeny, 20));
  auto hits =
      log.filter([](const AuditRecord& r) { return r.pid == 20; });
  EXPECT_EQ(hits.size(), 2u);
}

TEST(AuditLog, FormatContainsKeyFields) {
  const std::string line = format_line(make(Op::kMicrophone, Decision::kDeny));
  EXPECT_NE(line.find("pid=100"), std::string::npos);
  EXPECT_NE(line.find("mic"), std::string::npos);
  EXPECT_NE(line.find("DENY"), std::string::npos);
  EXPECT_NE(line.find("/dev/snd/mic0"), std::string::npos);
}

TEST(AuditLog, FormatNeverInteracted) {
  AuditRecord r = make(Op::kCamera, Decision::kDeny);
  r.interaction_age_ns = -1;
  const std::string line = format_line(r);
  EXPECT_NE(line.find("age=-1.000"), std::string::npos);
}

TEST(AuditLog, FormatLayoutIsFixedForPrintableFields) {
  EXPECT_EQ(format_line(make(Op::kMicrophone, Decision::kDeny)),
            "[    1.500000s] pid=100    testapp      op=mic   DENY  "
            "age=0.250s /dev/snd/mic0");
  AuditRecord r = make(Op::kScreenCapture, Decision::kGrant, 7);
  r.comm = "a-very-long-process-name";
  r.detail = "";
  EXPECT_EQ(format_line(r),
            "[    1.500000s] pid=7      a-very-long-process-name op=scr   "
            "GRANT age=0.250s ");
}

TEST(AuditLog, FormatEscapesNonPrintableBytesAndBackslash) {
  AuditRecord r = make(Op::kCopy, Decision::kDeny);
  r.comm = std::string("a\tb\0c", 5);
  r.detail = "x\ny\\z\x7f\xff";
  const std::string line = format_line(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // The escaped comm is 11 bytes, padded to the 12-wide column.
  EXPECT_NE(line.find(" a\\x09b\\x00c  op=copy  DENY "), std::string::npos)
      << line;
  EXPECT_TRUE(line.ends_with(" x\\x0ay\\x5cz\\x7f\\xff")) << line;
}

TEST(AuditLog, FormatKeepsLongFieldsWhole) {
  AuditRecord r = make(Op::kCopy, Decision::kDeny);
  r.comm = std::string(300, 'c');
  r.detail = std::string(1000, 'd') + "END";
  const std::string line = format_line(r);
  EXPECT_NE(line.find(r.comm + " op=copy"), std::string::npos);
  EXPECT_TRUE(line.ends_with(" " + r.detail));
}

TEST(OpNames, AllDistinct) {
  EXPECT_EQ(op_name(Op::kCopy), "copy");
  EXPECT_EQ(op_name(Op::kPaste), "paste");
  EXPECT_EQ(op_name(Op::kScreenCapture), "scr");
  EXPECT_EQ(op_name(Op::kMicrophone), "mic");
  EXPECT_EQ(op_name(Op::kCamera), "cam");
  EXPECT_EQ(op_name(Op::kDeviceOther), "dev");
}

}  // namespace
}  // namespace overhaul::util
