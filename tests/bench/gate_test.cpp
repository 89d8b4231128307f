// bench_gate run as a subprocess on fixture reports: the verdict rule, the
// stamp refusal, missing inputs, --update's tighten-only rewrite, and the
// proof that every gate in tools/bench_baseline.json fails a 2x regression
// of the reference reading it was recorded from (tests/bench/reference/).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench_json.h"

namespace {

namespace bj = overhaul::bench_json;

const char* const kStamp =
    R"({"build_type":"Fixture","sanitize":"","hardware_lanes":4})";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class GateTest : public ::testing::Test {
 protected:
  std::string dir_;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "bench_gate_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(std::system(("mkdir -p '" + dir_ + "'").c_str()), 0);
  }

  std::string write(const std::string& name, const std::string& body) {
    const std::string path = dir_ + "/" + name;
    std::ofstream(path, std::ios::binary) << body;
    return path;
  }

  static std::string gate(const std::string& file, const std::string& key,
                          const std::string& better, double limit) {
    std::ostringstream g;
    g << R"({"file":")" << file << R"(","key":")" << key
      << R"(","better":")" << better << R"(","limit":)" << limit << "}";
    return g.str();
  }

  std::string baseline(const std::string& gates,
                       const std::string& stamp = kStamp) {
    return write("baseline.json",
                 "{\"stamp\":" + stamp + ",\"gates\":[" + gates + "]}");
  }

  std::string report(const std::string& name, const std::string& members,
                     const std::string& stamp = kStamp) {
    return write(name, "{\"bench\":\"fixture\",\"stamp\":" + stamp + "," +
                           members + "}");
  }

  static std::string estimate(double median, double lo, double hi) {
    std::ostringstream e;
    e << R"({"median":)" << median << R"(,"lo":)" << lo << R"(,"hi":)" << hi
      << R"(,"n":12})";
    return e.str();
  }

  // Runs bench_gate; returns its exit code, output into *out.
  static int run(const std::string& args, std::string* out) {
    const std::string cmd = std::string(BENCH_GATE_BIN) + " " + args + " 2>&1";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return -1;
    char buf[4096];
    std::size_t n = 0;
    out->clear();
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out->append(buf, n);
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  int judge(const std::string& gates, const std::string& members,
            std::string* out) {
    const std::string b = baseline(gates);
    const std::string r = report("BENCH_x.json", members);
    return run("--baseline=" + b + " " + r, out);
  }
};

TEST_F(GateTest, PassesWhenTheWholeIntervalIsOnTheGoodSide) {
  std::string out;
  EXPECT_EQ(judge(gate("BENCH_x.json", "ns", "lower", 10) + "," +
                      gate("BENCH_x.json", "speedup", "higher", 3),
                  R"("ns":)" + estimate(5, 4, 6) + R"(,"speedup":)" +
                      estimate(4, 3.5, 4.5),
                  &out),
            0)
      << out;
  EXPECT_NE(out.find("PASS"), std::string::npos) << out;
}

TEST_F(GateTest, FailsWhenTheWholeIntervalIsOnTheBadSide) {
  std::string out;
  EXPECT_EQ(judge(gate("BENCH_x.json", "ns", "lower", 10),
                  R"("ns":)" + estimate(13, 12, 14), &out),
            1);
  EXPECT_NE(out.find("FAIL"), std::string::npos) << out;
  EXPECT_EQ(judge(gate("BENCH_x.json", "speedup", "higher", 3),
                  R"("speedup":)" + estimate(2, 1.9, 2.1), &out),
            1);
  EXPECT_NE(out.find("FAIL"), std::string::npos) << out;
}

TEST_F(GateTest, UnresolvedWhenTheIntervalStraddlesTheLimitAndPrintsIt) {
  std::string out;
  EXPECT_EQ(judge(gate("BENCH_x.json", "ns", "lower", 10),
                  R"("ns":)" + estimate(9.5, 9, 11), &out),
            1);
  EXPECT_NE(out.find("UNRESOLVED"), std::string::npos) << out;
  EXPECT_NE(out.find("[9, 11]"), std::string::npos) << out;
}

TEST_F(GateTest, ABareNumberIsAPointReading) {
  std::string out;
  EXPECT_EQ(judge(gate("BENCH_x.json", "rss", "lower", 100), R"("rss":99)",
                  &out),
            0)
      << out;
  EXPECT_EQ(judge(gate("BENCH_x.json", "rss", "lower", 100), R"("rss":101)",
                  &out),
            1);
  EXPECT_NE(out.find("FAIL"), std::string::npos) << out;
}

TEST_F(GateTest, RefusesAReportWithAnotherStamp) {
  const std::string b = baseline(gate("BENCH_x.json", "ns", "lower", 10));
  const std::string debug =
      R"({"build_type":"Debug","sanitize":"","hardware_lanes":4})";
  std::string out;
  EXPECT_EQ(run("--baseline=" + b + " " +
                    report("BENCH_x.json", R"("ns":)" + estimate(5, 4, 6),
                           debug),
                &out),
            2);
  EXPECT_NE(out.find("refusing"), std::string::npos) << out;
  EXPECT_NE(out.find("Debug"), std::string::npos) << out;
  // A report with no stamp at all is refused the same way.
  EXPECT_EQ(run("--baseline=" + b + " " +
                    write("BENCH_x.json", R"({"ns":5})"),
                &out),
            2);
  EXPECT_NE(out.find("refusing"), std::string::npos) << out;
}

TEST_F(GateTest, FailsOnAMissingFileOrKey) {
  std::string out;
  EXPECT_EQ(judge(gate("BENCH_other.json", "ns", "lower", 10),
                  R"("ns":)" + estimate(5, 4, 6), &out),
            1);
  EXPECT_NE(out.find("no report BENCH_other.json"), std::string::npos) << out;
  EXPECT_EQ(judge(gate("BENCH_x.json", "absent", "lower", 10),
                  R"("ns":)" + estimate(5, 4, 6), &out),
            1);
  EXPECT_NE(out.find("no key absent"), std::string::npos) << out;
  EXPECT_EQ(run("--baseline=" + dir_ + "/nope.json " +
                    report("BENCH_x.json", R"("ns":1)"),
                &out),
            2);
}

TEST_F(GateTest, UpdateOnlyEverTightens) {
  const std::string b = baseline(gate("BENCH_x.json", "slow", "lower", 10) +
                                 "," +
                                 gate("BENCH_x.json", "fast", "lower", 10) +
                                 "," +
                                 gate("BENCH_x.json", "weak", "higher", 3) +
                                 "," +
                                 gate("BENCH_x.json", "strong", "higher", 3));
  const std::string r = report(
      "BENCH_x.json", R"("slow":)" + estimate(8, 7, 9) + R"(,"fast":)" +
                          estimate(5, 4, 6) + R"(,"weak":)" +
                          estimate(4, 3.9, 4.1) + R"(,"strong":)" +
                          estimate(8, 7, 9));
  std::string out;
  ASSERT_EQ(run("--baseline=" + b + " --update " + r, &out), 0) << out;
  std::map<std::string, double> limits;
  std::map<std::string, std::string> doc = bj::members(slurp(b));
  EXPECT_EQ(bj::members(doc["stamp"]), bj::members(kStamp));
  for (const auto& [unused, raw] : bj::split(doc["gates"])) {
    std::map<std::string, std::string> m = bj::members(raw);
    limits[bj::unquote(m["key"])] = std::strtod(m["limit"].c_str(), nullptr);
  }
  EXPECT_DOUBLE_EQ(limits["slow"], 10);  // 1.6 x 8 = 12.8 would loosen
  EXPECT_DOUBLE_EQ(limits["fast"], 8);   // 1.6 x 5
  EXPECT_DOUBLE_EQ(limits["weak"], 3);   // 4 / 1.6 = 2.5 would loosen
  EXPECT_DOUBLE_EQ(limits["strong"], 5);  // 8 / 1.6
  // A second update from the same reading changes nothing.
  const std::string once = slurp(b);
  ASSERT_EQ(run("--baseline=" + b + " --update " + r, &out), 0) << out;
  EXPECT_EQ(slurp(b), once);
}

// The north-star test of a gate: it must catch a 2x regression. For every
// entry of the committed baseline, take the reference reading it was
// recorded from, make median, lo and hi 2x worse, and expect FAIL.
TEST_F(GateTest, EveryBaselineGateFailsATwofoldRegression) {
  std::map<std::string, std::string> doc = bj::members(slurp(BENCH_BASELINE));
  const std::string stamp = doc["stamp"];
  const auto gates = bj::split(doc["gates"]);
  ASSERT_GE(gates.size(), 20u);
  for (const auto& [unused, raw] : gates) {
    std::map<std::string, std::string> g = bj::members(raw);
    const std::string file = bj::unquote(g["file"]);
    const std::string key = bj::unquote(g["key"]);
    const bool lower = bj::unquote(g["better"]) == "lower";
    std::map<std::string, std::string> ref =
        bj::members(slurp(std::string(BENCH_REFERENCE_DIR) + "/" + file));
    ASSERT_EQ(bj::members(ref["stamp"]), bj::members(stamp)) << file;
    ASSERT_TRUE(ref.count(key) == 1) << file << " has no " << key;
    bj::Reading r = bj::reading(ref[key]);
    const double f = lower ? 2.0 : 0.5;
    std::ostringstream worse;
    worse.precision(17);
    worse << R"({"median":)" << r.median * f << R"(,"lo":)" << r.lo * f
          << R"(,"hi":)" << r.hi * f << R"(,"n":)" << r.n << "}";
    const std::string b = write(
        "baseline.json", "{\"stamp\":" + stamp + ",\"gates\":[" + raw + "]}");
    const std::string rep = write(
        file, "{\"bench\":\"fixture\",\"stamp\":" + stamp + ",\"" + key +
                  "\":" + worse.str() + "}");
    std::string out;
    EXPECT_EQ(run("--baseline=" + b + " " + rep, &out), 1)
        << file << " " << key << ": " << out;
    EXPECT_NE(out.find("FAIL"), std::string::npos)
        << file << " " << key << ": " << out;
  }
}

}  // namespace
