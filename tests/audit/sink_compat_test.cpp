// The facade contract: audit::Sink must be observably equivalent to the
// frozen text log it replaced (bench/text_audit_log.h) — same counts, same
// record round-trip, byte-identical formatted lines — and the audit_dump
// CLI (run as a subprocess) must render a snapshot line-for-line equal to
// util::format_line over the same records, with totals and the --deny view
// agreeing with the live Sink.
#include "audit/sink.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/snapshot.h"
#include "bench/text_audit_log.h"
#include "util/audit_log.h"
#include "util/rng.h"

namespace overhaul::audit {
namespace {

util::AuditRecord make(util::Op op, util::Decision d, int pid = 100) {
  util::AuditRecord r;
  r.time_ns = 1'500'000'000;
  r.pid = pid;
  r.comm = "testapp";
  r.op = op;
  r.decision = d;
  r.interaction_age_ns = 250'000'000;
  r.detail = "/dev/snd/mic0";
  return r;
}

void append(Sink* sink, const util::AuditRecord& r) {
  sink->append_decision(r.time_ns, r.pid, r.comm, r.op, r.decision,
                        r.interaction_age_ns, r.detail);
}

// Drives the same seeded stream into both implementations.
void fill_both(Sink* sink, bench::TextAuditLog* log, std::uint64_t seed,
               int n) {
  static const char* kComms[] = {"videoconf", "browser", "spyware"};
  static const char* kDetails[] = {"/dev/video0", "selection:CLIPBOARD", ""};
  util::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    util::AuditRecord r;
    r.time_ns = static_cast<std::int64_t>(rng.next_below(1u << 30));
    r.pid = static_cast<int>(rng.next_below(30000));
    r.comm = kComms[rng.next_below(3)];
    r.op = static_cast<util::Op>(
        rng.next_below(static_cast<std::uint64_t>(util::kOpCount)));
    r.decision = rng.next_below(2) == 0 ? util::Decision::kGrant
                                        : util::Decision::kDeny;
    r.interaction_age_ns =
        rng.next_below(2) == 0
            ? -1
            : static_cast<std::int64_t>(rng.next_below(1u << 20));
    r.detail = kDetails[rng.next_below(3)];
    append(sink, r);
    log->append(std::move(r));
  }
}

TEST(SinkCompat, MirrorsTextLogUnderSharedStream) {
  Sink sink(32);
  bench::TextAuditLog log;
  log.set_capacity(32);
  fill_both(&sink, &log, 1234, 500);

  ASSERT_EQ(sink.size(), log.size());
  EXPECT_EQ(sink.total_appended(), log.total_appended());
  EXPECT_EQ(sink.dropped(), log.dropped());
  EXPECT_EQ(sink.count(util::Decision::kGrant),
            log.count(util::Decision::kGrant));
  EXPECT_EQ(sink.count(util::Decision::kDeny),
            log.count(util::Decision::kDeny));
  for (int op = 0; op < static_cast<int>(util::kOpCount); ++op) {
    EXPECT_EQ(sink.count(static_cast<util::Op>(op), util::Decision::kDeny),
              log.count(static_cast<util::Op>(op), util::Decision::kDeny));
  }
  const auto decoded = sink.records();
  ASSERT_EQ(decoded.size(), log.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    // Byte-identical rendered lines — the differential-oracle contract.
    EXPECT_EQ(util::format_line(decoded[i]),
              util::format_line(log.records()[i]))
        << "record " << i;
  }
}

TEST(SinkCompat, DecodeRoundTripsEveryField) {
  Sink sink(8);
  const util::AuditRecord in = make(util::Op::kCamera, util::Decision::kDeny);
  append(&sink, in);
  const util::AuditRecord out = sink.records().at(0);
  EXPECT_EQ(out.time_ns, in.time_ns);
  EXPECT_EQ(out.pid, in.pid);
  EXPECT_EQ(out.comm, in.comm);
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.decision, in.decision);
  EXPECT_EQ(out.interaction_age_ns, in.interaction_age_ns);
  EXPECT_EQ(out.detail, in.detail);
}

TEST(SinkCompat, FilterMatchesTextSemantics) {
  Sink sink(16);
  append(&sink, make(util::Op::kMicrophone, util::Decision::kGrant, 1));
  append(&sink, make(util::Op::kCamera, util::Decision::kDeny, 2));
  append(&sink, make(util::Op::kCamera, util::Decision::kDeny, 3));
  const auto denied = sink.filter([](const util::AuditRecord& r) {
    return r.decision == util::Decision::kDeny;
  });
  ASSERT_EQ(denied.size(), 2u);
  EXPECT_EQ(denied[0].pid, 2);
  EXPECT_EQ(denied[1].pid, 3);
}

TEST(SinkCompat, ZeroCapacityCountsDrops) {
  Sink sink(0);
  append(&sink, make(util::Op::kPaste, util::Decision::kGrant));
  append(&sink, make(util::Op::kPaste, util::Decision::kDeny));
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total_appended(), 2u);
  EXPECT_EQ(sink.dropped(), 2u);
}

TEST(SinkCompat, TextEquivBytesExceedsBinaryForStringHeavyStreams) {
  // A full ring of repeated comm/detail strings: the binary side holds one
  // interned copy plus fixed records, the text side would hold an
  // AuditRecord with two heap strings per entry.
  Sink sink(1024);
  for (int i = 0; i < 2048; ++i)
    append(&sink, make(util::Op::kScreenCapture, util::Decision::kGrant));
  EXPECT_GT(bench::text_equiv_bytes(sink.ring()), sink.memory_bytes());
}

#ifdef AUDIT_DUMP_BIN
// Runs the real decoder binary over a snapshot file and captures stdout;
// the exit code goes to *exit_code when given.
std::string run_audit_dump(const std::string& args,
                           int* exit_code = nullptr) {
  const std::string cmd = std::string(AUDIT_DUMP_BIN) + " " + args;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  if (exit_code != nullptr)
    *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(AuditDump, OutputMatchesAuditLogFormatLineForLine) {
  Sink sink(64);
  bench::TextAuditLog log;
  log.set_capacity(64);
  fill_both(&sink, &log, 99, 200);

  const std::string path = ::testing::TempDir() + "/audit_dump_test.bin";
  std::string error;
  ASSERT_TRUE(write_snapshot_file(sink.ring(), path, &error)) << error;

  std::string expected;
  for (const util::AuditRecord& rec : log.records())
    expected += util::format_line(rec) + "\n";
  EXPECT_EQ(run_audit_dump(path), expected);
  std::remove(path.c_str());
}

// Snapshot strings are outside input: a crafted comm or detail must not
// add lines to the dump, and a long one must not be cut short.
TEST(AuditDump, HostileSnapshotStringsPrintOneLinePerRecord) {
  Sink sink(8);
  const std::string forged =
      "X\n[    4.000000s] pid=1      init         op=mic   GRANT "
      "age=0.001s /dev/snd/mic0";
  const std::string long_name = std::string(400, 'n') + "END";
  sink.append_decision(1, 10, "evil\r\nname", util::Op::kCopy,
                       util::Decision::kDeny, -1, forged);
  sink.append_decision(2, 11, "app", util::Op::kCopy, util::Decision::kDeny,
                       -1, long_name);
  sink.append_decision(3, 12, "app", util::Op::kPaste, util::Decision::kDeny,
                       -1, std::string("nul\0byte", 8));

  const std::string path = ::testing::TempDir() + "/audit_dump_hostile.bin";
  std::string error;
  ASSERT_TRUE(write_snapshot_file(sink.ring(), path, &error)) << error;
  const std::string out = run_audit_dump(path);
  std::remove(path.c_str());

  EXPECT_EQ(count_lines(out), 3u) << out;
  EXPECT_EQ(out.find("\n[    4.000000s]"), std::string::npos) << out;
  EXPECT_NE(out.find("X\\x0a[    4.000000s] pid=1"), std::string::npos) << out;
  EXPECT_NE(out.find("evil\\x0d\\x0aname"), std::string::npos) << out;
  EXPECT_NE(out.find(long_name + "\n"), std::string::npos) << out;
  EXPECT_NE(out.find("nul\\x00byte\n"), std::string::npos) << out;
}

TEST(AuditDump, StatsTotalsMatchLiveSink) {
  Sink sink(64);
  bench::TextAuditLog log;
  fill_both(&sink, &log, 7, 150);  // wraps: 150 appends into 64 slots

  const std::string path = ::testing::TempDir() + "/audit_dump_stats.bin";
  std::string error;
  ASSERT_TRUE(write_snapshot_file(sink.ring(), path, &error)) << error;
  int code = -1;
  const std::string out = run_audit_dump("--stats " + path, &code);
  std::remove(path.c_str());

  EXPECT_EQ(code, 0);
  using std::to_string;
  EXPECT_EQ(out, "records   " + to_string(sink.size()) + "\ngrants    " +
                     to_string(sink.count(util::Decision::kGrant)) +
                     "\ndenials   " +
                     to_string(sink.count(util::Decision::kDeny)) +
                     "\nappended  " + to_string(sink.total_appended()) +
                     "\ndropped   " + to_string(sink.dropped()) + "\n");
}

TEST(AuditDump, DenyPrintsExactlyTheDenyLines) {
  Sink sink(64);
  bench::TextAuditLog log;
  fill_both(&sink, &log, 31, 100);

  const std::string path = ::testing::TempDir() + "/audit_dump_deny.bin";
  std::string error;
  ASSERT_TRUE(write_snapshot_file(sink.ring(), path, &error)) << error;
  int code = -1;
  const std::string out = run_audit_dump("--deny " + path, &code);
  std::remove(path.c_str());

  EXPECT_EQ(code, 0);
  std::string expected;
  for (const util::AuditRecord& rec : sink.filter(
           [](const util::AuditRecord& r) {
             return r.decision == util::Decision::kDeny;
           }))
    expected += util::format_line(rec) + "\n";
  ASSERT_GT(count_lines(expected), 0u);
  ASSERT_LT(count_lines(expected), sink.size());
  EXPECT_EQ(out, expected);
}

TEST(AuditDump, UnknownFlagIsUsageError) {
  int code = -1;
  const std::string out =
      run_audit_dump("--no-such-flag snapshot.bin 2>/dev/null", &code);
  EXPECT_EQ(code, 2);
  EXPECT_TRUE(out.empty());
}

TEST(AuditDump, RejectsCorruptSnapshotNonzeroExit) {
  const std::string path = ::testing::TempDir() + "/audit_dump_corrupt.bin";
  Sink sink(8);
  append(&sink, make(util::Op::kCamera, util::Decision::kGrant));
  std::string error;
  ASSERT_TRUE(write_snapshot_file(sink.ring(), path, &error)) << error;
  // Flip one payload byte on disk.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_END);
    std::fputc(c ^ 1, f);
    std::fclose(f);
  }
  int code = 0;
  run_audit_dump(path + " 2>/dev/null", &code);
  EXPECT_EQ(code, 1);
  std::remove(path.c_str());
}
#endif  // AUDIT_DUMP_BIN

}  // namespace
}  // namespace overhaul::audit
