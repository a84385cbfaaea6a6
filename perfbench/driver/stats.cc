#include "driver/stats.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

double TailPercentileFor(int64_t n) {
  for (const double q : {99.9, 99.0, 90.0, 50.0}) {
    int64_t rank = static_cast<int64_t>(
        std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::max<int64_t>(rank, 1);
    if (n - rank >= 10) {
      return q;
    }
  }
  return 100.0;
}

Summary Summarize(const std::vector<double>& values) {
  Summary summary;
  summary.n = static_cast<int64_t>(values.size());
  if (values.empty()) {
    return summary;
  }
  summary.median = Percentile(values, 50.0);
  summary.tail_percentile = TailPercentileFor(summary.n);
  summary.tail = Percentile(values, summary.tail_percentile);
  return summary;
}

bool BacklogGrowing(std::vector<Arrival> arrivals, double limit_ms) {
  if (arrivals.size() < 30) {
    return false;
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.scheduled_ms < b.scheduled_ms;
                   });
  const size_t third = arrivals.size() / 3;
  std::vector<double> first;
  std::vector<double> last;
  for (size_t i = 0; i < third; ++i) {
    first.push_back(arrivals[i].latency_ms);
    last.push_back(arrivals[arrivals.size() - third + i].latency_ms);
  }
  const double early = Percentile(first, 50.0);
  const double late = Percentile(last, 50.0);
  if (std::isinf(late)) {
    return !std::isinf(early);
  }
  return late - early > limit_ms / 2.0;
}

void EvaluateRung(const std::vector<Arrival>& arrivals,
                  const LatencyLimit& limit, RungResult* rung) {
  std::vector<double> latencies;
  latencies.reserve(arrivals.size());
  for (const Arrival& arrival : arrivals) {
    latencies.push_back(arrival.latency_ms);
  }
  rung->tail_ms =
      latencies.empty() ? kMiss : Percentile(latencies, limit.percentile);
  rung->backlog_growing = BacklogGrowing(arrivals, limit.ms);
  rung->passed = rung->tail_ms <= limit.ms && !rung->backlog_growing;
}

double MaxSustainedRate(const std::vector<RungResult>& rungs) {
  double lowest_failure = kMiss;
  for (const RungResult& rung : rungs) {
    if (!rung.passed) {
      lowest_failure = std::min(lowest_failure, rung.rate);
    }
  }
  double best = 0.0;
  for (const RungResult& rung : rungs) {
    if (rung.passed && rung.rate < lowest_failure) {
      best = std::max(best, rung.rate);
    }
  }
  return best;
}

RateLadder::RateLadder(double base, int steps_per_octave, int rungs)
    : base_(base), steps_(std::max(1, steps_per_octave)),
      rungs_(std::max(1, rungs)) {}

double RateLadder::Rate(int index) const {
  return base_ * std::exp2(static_cast<double>(index) / steps_);
}

int RateLadder::Next(const std::vector<int>& visited,
                     const std::vector<bool>& passed) const {
  if (visited.empty()) {
    return 0;
  }
  int lowest_failure = rungs_;
  int highest = -1;
  for (size_t i = 0; i < visited.size(); ++i) {
    highest = std::max(highest, visited[i]);
    if (!passed[i]) {
      lowest_failure = std::min(lowest_failure, visited[i]);
    }
  }
  if (lowest_failure == rungs_) {
    // Octave pass: everything so far passed.
    const int next = highest + steps_;
    return next < rungs_ ? next : -1;
  }
  int best_pass = -1;
  for (size_t i = 0; i < visited.size(); ++i) {
    if (passed[i] && visited[i] < lowest_failure) {
      best_pass = std::max(best_pass, visited[i]);
    }
  }
  if (lowest_failure - best_pass <= 1) {
    return -1;
  }
  return (best_pass + lowest_failure + 1) / 2;
}

std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                     uint64_t seed) {
  std::vector<int64_t> offsets;
  if (rate <= 0.0 || seconds <= 0.0) {
    return offsets;
  }
  offsets.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  std::mt19937_64 engine(seed);
  std::exponential_distribution<double> gap(rate);
  double t = gap(engine);
  while (t < seconds) {
    offsets.push_back(static_cast<int64_t>(t * 1e9));
    t += gap(engine);
  }
  return offsets;
}

}  // namespace perfbench
