#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

// Summary statistics and the open-loop rate-ladder rules of the benchmark.
// Pure functions on plain vectors, so the rules are unit-tested on synthetic
// inputs (perfbench/tests/stats_test.cc) independently of any workload.

#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Latency value that stands for a request that failed, was shed, or missed
/// its deadline: it misses every latency limit.
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (`q` in [0, 100]) of `values`; NaN when empty.
/// Element ceil(q/100 * n) of the sorted values (1-based, clamped to 1..n).
double Percentile(std::vector<double> values, double q);

/// The percentile the benchmark reports as a metric's tail: the highest of
/// 99.9, 99, 90 and 50 that leaves at least ten samples strictly beyond its
/// nearest-rank element. Returns 100 (the maximum) when even the median has
/// fewer than ten samples beyond it, i.e. for fewer than 20 samples.
double TailPercentileFor(int64_t n);

/// Median, tail (at `TailPercentileFor(n)`) and sample count.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  double tail_percentile = 100.0;
  int64_t n = 0;
};
Summary Summarize(const std::vector<double>& values);

/// One arrival of an open-loop rung: when it was due (relative to the rung
/// start) and how long it took from then. A request that failed, was shed
/// or missed its deadline carries a latency at or beyond every limit (the
/// workloads use its deadline; kMiss also works).
struct Arrival {
  double scheduled_ms = 0.0;
  double latency_ms = 0.0;
};

/// A backlog grows when requests due late in a rung wait clearly longer than
/// requests due early: the median latency of the last third of arrivals (by
/// schedule) exceeds the median of the first third by more than half the
/// latency limit. Misses count as infinitely late. Needs at least 30
/// arrivals; fewer never count as growing.
bool BacklogGrowing(std::vector<Arrival> arrivals, double limit_ms);

/// Verdict on one rate-ladder rung.
struct RungResult {
  double rate = 0.0;     // offered arrivals per second
  double tail_ms = 0.0;  // at the limit's percentile, misses included
  bool backlog_growing = false;
  bool passed = false;
};

/// A latency limit on one percentile of a rung's arrivals. The percentile
/// must leave at least ten samples beyond it in every rung of the ladder.
struct LatencyLimit {
  double percentile = 99.0;
  double ms = 0.0;
};

/// Fills tail/backlog/pass of `rung` from its arrivals: a rung passes when
/// its latency at `limit.percentile` (misses included) is within
/// `limit.ms` and its backlog does not grow.
void EvaluateRung(const std::vector<Arrival>& arrivals,
                  const LatencyLimit& limit, RungResult* rung);

/// The highest passing rate that lies below every failing rate visited.
/// A pass above a failure (noise near the knee) is not trusted. 0 when no
/// rung passed.
double MaxSustainedRate(const std::vector<RungResult>& rungs);

/// Rate ladder: rung i offers `base * 2^(i / steps_per_octave)` per second,
/// for i in [0, rungs). The search visits it in two passes: whole octaves
/// upward from rung 0 until one fails, then bisection over the rungs of the
/// failing octave. `Next` returns the rung to try after the results so far,
/// or -1 when the highest sustained rung is pinned down.
class RateLadder {
 public:
  RateLadder(double base, int steps_per_octave, int rungs);

  double Rate(int index) const;

  /// `passed[i]` holds the verdict of the i-th visited rung, `visited[i]`
  /// its index. Returns the next rung index or -1.
  int Next(const std::vector<int>& visited,
           const std::vector<bool>& passed) const;

 private:
  double base_;
  int steps_;
  int rungs_;
};

/// An exponential inter-arrival schedule (Poisson process) at `rate` per
/// second over `seconds`, as offsets in nanoseconds from the start. Drawn
/// from the driver's own generator so a change to the library cannot change
/// the offered load.
std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                     uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
