// Unit tests of the benchmark's own rules, on synthetic inputs: the tail
// percentile rule, the rate ladder (max sustained rate, backlog detection,
// rung visiting order) and span self-time arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "driver/stats.h"
#include "driver/trace.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50.0), 3.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile(v, 100.0), 5.0);
  EXPECT_EQ(Percentile(Iota(100), 99.0), 99.0);
  EXPECT_EQ(Percentile(Iota(1000), 99.9), 999.0);
}

TEST(TailRuleTest, HighestPercentileWithTenBeyond) {
  // 1000 samples: p99 is rank 990, ten beyond; p99.9 has one beyond.
  EXPECT_EQ(TailPercentileFor(1000), 99.0);
  // 999 samples: p99 is rank 990 with nine beyond, so fall back to p90.
  EXPECT_EQ(TailPercentileFor(999), 90.0);
  EXPECT_EQ(TailPercentileFor(10000), 99.9);
  EXPECT_EQ(TailPercentileFor(9999), 99.0);
  EXPECT_EQ(TailPercentileFor(100), 90.0);
  EXPECT_EQ(TailPercentileFor(99), 50.0);
  EXPECT_EQ(TailPercentileFor(20), 50.0);
  // Fewer than 20: even the median leaves under ten beyond -> the maximum.
  EXPECT_EQ(TailPercentileFor(19), 100.0);
  EXPECT_EQ(TailPercentileFor(3), 100.0);
}

TEST(TailRuleTest, SummaryUsesTheRule) {
  const Summary s = Summarize(Iota(1000));
  EXPECT_EQ(s.n, 1000);
  EXPECT_EQ(s.median, 500.0);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  const Summary few = Summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.median, 2.0);
  EXPECT_EQ(few.tail, 3.0);
  EXPECT_EQ(few.tail_percentile, 100.0);
}

std::vector<Arrival> Ramp(int n, double first_ms, double last_ms) {
  std::vector<Arrival> arrivals;
  for (int i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / (n - 1);
    arrivals.push_back({static_cast<double>(i), first_ms + f * (last_ms - first_ms)});
  }
  return arrivals;
}

TEST(BacklogTest, FlatLatencyIsNotGrowing) {
  EXPECT_FALSE(BacklogGrowing(Ramp(300, 3.0, 3.0), 10.0));
  // A rise smaller than half the limit is noise, not a backlog.
  EXPECT_FALSE(BacklogGrowing(Ramp(300, 3.0, 6.0), 10.0));
}

TEST(BacklogTest, RisingLatencyIsGrowing) {
  EXPECT_TRUE(BacklogGrowing(Ramp(300, 2.0, 40.0), 10.0));
}

TEST(BacklogTest, OrderIsBySchedule) {
  // The same rising arrivals given in reverse order are still growing.
  std::vector<Arrival> arrivals = Ramp(300, 2.0, 40.0);
  std::reverse(arrivals.begin(), arrivals.end());
  EXPECT_TRUE(BacklogGrowing(arrivals, 10.0));
}

TEST(BacklogTest, LateMissesAreGrowing) {
  std::vector<Arrival> arrivals = Ramp(300, 2.0, 2.0);
  for (size_t i = 200; i < arrivals.size(); ++i) {
    arrivals[i].latency_ms = kMiss;
  }
  EXPECT_TRUE(BacklogGrowing(arrivals, 10.0));
}

TEST(BacklogTest, TooFewArrivalsNeverGrow) {
  EXPECT_FALSE(BacklogGrowing(Ramp(29, 1.0, 100.0), 10.0));
}

TEST(RungTest, PassNeedsTailWithinLimitAndSteadyBacklog) {
  const LatencyLimit p99{99.0, 10.0};
  RungResult ok;
  EvaluateRung(Ramp(300, 1.0, 4.0), p99, &ok);
  EXPECT_TRUE(ok.passed);
  EXPECT_LE(ok.tail_ms, 10.0);

  // 2% misses push p99 past any limit.
  std::vector<Arrival> missing = Ramp(300, 1.0, 1.0);
  for (int i = 0; i < 6; ++i) {
    missing[static_cast<size_t>(i * 50)].latency_ms = kMiss;
  }
  RungResult missed;
  EvaluateRung(missing, p99, &missed);
  EXPECT_FALSE(missed.passed);
  // The same 2% misses sit beyond a p90 limit.
  RungResult missed_p90;
  EvaluateRung(missing, LatencyLimit{90.0, 10.0}, &missed_p90);
  EXPECT_TRUE(missed_p90.passed);

  // p99 within the limit, but latency climbs through the rung.
  RungResult growing;
  EvaluateRung(Ramp(300, 0.5, 9.0), p99, &growing);
  EXPECT_LE(growing.tail_ms, 10.0);
  EXPECT_TRUE(growing.backlog_growing);
  EXPECT_FALSE(growing.passed);
}

RungResult Rung(double rate, bool passed) {
  RungResult r;
  r.rate = rate;
  r.passed = passed;
  return r;
}

TEST(MaxRateTest, HighestPassBelowEveryFailure) {
  EXPECT_EQ(MaxSustainedRate({Rung(100, true), Rung(200, true),
                              Rung(400, false), Rung(300, true)}),
            300.0);
  // A pass above a failure is noise at the knee and is not trusted.
  EXPECT_EQ(MaxSustainedRate({Rung(100, true), Rung(200, false),
                              Rung(400, true)}),
            100.0);
  EXPECT_EQ(MaxSustainedRate({Rung(100, false)}), 0.0);
  EXPECT_EQ(MaxSustainedRate({Rung(100, true), Rung(200, true)}), 200.0);
}

TEST(RateLadderTest, RatesAreGeometric) {
  const RateLadder ladder(100.0, 4, 9);
  EXPECT_DOUBLE_EQ(ladder.Rate(0), 100.0);
  EXPECT_DOUBLE_EQ(ladder.Rate(4), 200.0);
  EXPECT_DOUBLE_EQ(ladder.Rate(8), 400.0);
}

// Replays the ladder's visiting order against a system whose capacity sits
// between two rungs; returns the visited rungs.
std::vector<int> Visit(const RateLadder& ladder, int highest_passing) {
  std::vector<int> visited;
  std::vector<bool> passed;
  for (int next = ladder.Next(visited, passed); next >= 0;
       next = ladder.Next(visited, passed)) {
    visited.push_back(next);
    passed.push_back(next <= highest_passing);
  }
  return visited;
}

TEST(RateLadderTest, OctavesThenBisection) {
  const RateLadder ladder(100.0, 4, 33);
  // Capacity at rung 10: octaves 0, 4, 8, 12 (fails), then 10 (pass),
  // 11 (fail) pin it down.
  EXPECT_EQ(Visit(ladder, 10), (std::vector<int>{0, 4, 8, 12, 10, 11}));
  EXPECT_EQ(Visit(ladder, 9), (std::vector<int>{0, 4, 8, 12, 10, 9}));
  // Rung 0 fails: nothing else is tried.
  EXPECT_EQ(Visit(ladder, -1), (std::vector<int>{0}));
  // Everything passes: octaves up to the top rung.
  EXPECT_EQ(Visit(ladder, 100),
            (std::vector<int>{0, 4, 8, 12, 16, 20, 24, 28, 32}));
}

TEST(RateLadderTest, FindsEveryCapacity) {
  const RateLadder ladder(100.0, 4, 33);
  for (int capacity = 0; capacity < 33; ++capacity) {
    const std::vector<int> visited = Visit(ladder, capacity);
    std::vector<RungResult> rungs;
    for (const int v : visited) {
      rungs.push_back(Rung(ladder.Rate(v), v <= capacity));
    }
    EXPECT_DOUBLE_EQ(MaxSustainedRate(rungs), ladder.Rate(capacity))
        << "capacity rung " << capacity;
  }
}

TEST(PoissonScheduleTest, SeededAndAtTheRate) {
  const std::vector<int64_t> a = PoissonSchedule(1000.0, 2.0, 7);
  EXPECT_EQ(a, PoissonSchedule(1000.0, 2.0, 7));
  EXPECT_NE(a, PoissonSchedule(1000.0, 2.0, 8));
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 200.0);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i], a[i - 1]);
  }
  EXPECT_LT(a.back(), 2'000'000'000);
}

Span MakeSpan(int64_t id, int64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = parent == 0 ? "request" : "child";
  s.trace_id = 1;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, NoChildrenIsWholeDuration) {
  EXPECT_EQ(SelfTimeNs(MakeSpan(1, 0, 100, 200), {}), 100);
}

TEST(SelfTimeTest, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(SelfTimeNs(MakeSpan(1, 0, 0, 100),
                       {MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 50, 60)}),
            70);
}

TEST(SelfTimeTest, OverlapsCountOnce) {
  EXPECT_EQ(SelfTimeNs(MakeSpan(1, 0, 0, 100),
                       {MakeSpan(2, 1, 10, 50), MakeSpan(3, 1, 30, 70),
                        MakeSpan(4, 1, 40, 45)}),
            40);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(SelfTimeNs(MakeSpan(1, 0, 100, 200),
                       {MakeSpan(2, 1, 50, 120), MakeSpan(3, 1, 190, 300)}),
            70);
  EXPECT_EQ(SelfTimeNs(MakeSpan(1, 0, 100, 200), {MakeSpan(2, 1, 0, 50)}),
            100);
}

TEST(SelfTimeTest, FullyCoveredHasNoSelfTime) {
  EXPECT_EQ(SelfTimeNs(MakeSpan(1, 0, 0, 100),
                       {MakeSpan(2, 1, 0, 60), MakeSpan(3, 1, 60, 100)}),
            0);
}

TEST(SelfTimeTest, UnattributedShareOverRoots) {
  // Two requests: 100 ns with 20 uncovered, 300 ns with 0 uncovered.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),   MakeSpan(2, 1, 0, 80),
      MakeSpan(3, 0, 0, 300),   MakeSpan(4, 3, 0, 300),
  };
  EXPECT_DOUBLE_EQ(UnattributedShare(spans, "request"), 20.0 / 400.0);
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer off(false);
  EXPECT_EQ(off.Record("x", 1, 0, 0, 1), 0);
  EXPECT_TRUE(off.Spans().empty());
  Tracer on(true);
  const int64_t a = on.Record("x", 1, 0, 0, 1);
  const int64_t b = on.NewId();
  EXPECT_NE(a, b);
  EXPECT_EQ(on.Spans().size(), 1u);
}

}  // namespace
}  // namespace perfbench
