// bench/sampler.h: the shared timing discipline behind every gated bench.
// Synthetic arms report durations from a scripted machine, so the ratio,
// rotation and stop-rule checks are deterministic; the one check that must
// see real time runs deterministic busy work.
#include "sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace overhaul::bench {
namespace {

// Every call is logged; a call's duration is `work` ms scaled by a drift
// shared by its whole round and by a 10 % penalty for going first in it.
struct ScriptedMachine {
  std::size_t arms = 0;
  std::vector<int> log;

  double call(int arm, double work) {
    log.push_back(arm);
    const std::size_t index = log.size() - 1;
    const double round = static_cast<double>(index / arms);
    const double drift = 1.0 + 0.3 * std::sin(round);
    const double first = index % arms == 0 ? 1.1 : 1.0;
    return work * 1e-3 * drift * first;
  }
};

volatile std::uint64_t g_sink = 0;

// A dependent xorshift chain: `n` steps that cannot be vectorized away.
double busy(int n) {
  return time_seconds([n] {
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_sink = x;
  });
}

TEST(Sampler, IdenticalArmsGiveARatioIntervalContainingOne) {
  ScriptedMachine m{2, {}};
  const Sample s = sample({{1, [&] { return m.call(0, 1.0); }},
                           {1, [&] { return m.call(1, 1.0); }}});
  ASSERT_EQ(s.ratio.size(), 2u);
  EXPECT_LE(s.ratio[1].lo, 1.0);
  EXPECT_GE(s.ratio[1].hi, 1.0);
  // The round-shared drift cancels in the ratio but not in the arms' own
  // medians, whose intervals stay far wider.
  EXPECT_GT(s.ns_per_op[0].hi - s.ns_per_op[0].lo,
            (s.ratio[1].hi - s.ratio[1].lo) * s.ns_per_op[0].median);
}

TEST(Sampler, TwiceTheBusyWorkGivesAnIntervalAboveOnePointSix) {
  const Sample s = sample({{1, [] { return busy(200'000); }},
                           {1, [] { return busy(400'000); }}});
  EXPECT_GT(s.ratio[1].lo, 1.6) << "[" << s.ratio[1].lo << ", "
                                << s.ratio[1].hi << "]";
}

TEST(Sampler, RoundsRotateWhichArmGoesFirst) {
  ScriptedMachine m{3, {}};
  std::vector<Arm> arms;
  for (int a = 0; a < 3; ++a)
    arms.push_back({1, [&m, a] { return m.call(a, 1.0); }});
  (void)sample(arms);
  ASSERT_GE(m.log.size(), 12u);
  const std::vector<int> head(m.log.begin(), m.log.begin() + 12);
  // Warm-up in arm order, then rounds starting at arm 0, 1, 2.
  EXPECT_EQ(head, (std::vector<int>{0, 1, 2, 0, 1, 2, 1, 2, 0, 2, 0, 1}));
}

TEST(Sampler, StopsAtTheRepCapWhenNoiseNeverSettles) {
  ScriptedMachine m{2, {}};
  int calls = 0;
  const Sample s =
      sample({{1, [&] { return m.call(0, ++calls % 2 == 1 ? 1.0 : 3.0); }},
              {1, [&] { return m.call(1, 1.0); }}});
  EXPECT_EQ(s.ns_per_op[0].n, kMaxRounds);
  EXPECT_EQ(m.log.size(), 2 * (kMaxRounds + 1));
}

TEST(Sampler, StopsAtTheFirstRoundThatResolvesEveryInterval) {
  int calls = 0;
  const Sample s = sample({{1, [&] { ++calls; return 1e-3; }},
                           {1, [&] { ++calls; return 2e-3; }}});
  EXPECT_EQ(s.ratio[1].n, kMinRounds);
  EXPECT_EQ(calls, static_cast<int>(2 * (kMinRounds + 1)));
  EXPECT_DOUBLE_EQ(s.ratio[1].median, 2.0);
  EXPECT_DOUBLE_EQ(s.ns_per_op[1].median, 2e6);
}

TEST(MedianCi, UsesBinomialOrderStatistics) {
  std::vector<double> v;
  for (int i = 1; i <= 30; ++i) v.push_back(i);
  const Estimate e = median_ci(v);
  EXPECT_DOUBLE_EQ(e.median, 15.5);
  EXPECT_DOUBLE_EQ(e.lo, 10);  // P(Bin(30, 1/2) <= 9) = 2.1 % <= 2.5 %
  EXPECT_DOUBLE_EQ(e.hi, 21);
  const Estimate six = median_ci({6, 1, 5, 2, 4, 3});
  EXPECT_DOUBLE_EQ(six.lo, 1);
  EXPECT_DOUBLE_EQ(six.hi, 6);
  const Estimate inv = Estimate{2, 1, 4, 7}.inverse();
  EXPECT_DOUBLE_EQ(inv.lo, 0.25);
  EXPECT_DOUBLE_EQ(inv.hi, 1);
}

}  // namespace
}  // namespace overhaul::bench
