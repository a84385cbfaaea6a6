#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

// Shared plumbing for the workloads: the clock, run arguments, the result
// report, per-phase outcome counts and small helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/pair_dataset.h"
#include "data/record.h"
#include "driver/stats.h"
#include "driver/trace.h"
#include "text/tokenizer.h"

namespace perfbench {

namespace data = ::adamel::data;
namespace text = ::adamel::text;

/// Monotonic nanoseconds. The same clock (`steady_clock`) the service stamps
/// `ScoreResponse::done_ns` with, so the two can be subtracted.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SleepUntilNs(int64_t when_ns) {
  const int64_t now = NowNs();
  if (when_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(when_ns - now));
  }
}

inline double MsBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-6;
}

/// Peak and current resident set size of this process (VmHWM, VmRSS), in
/// MiB.
double PeakRssMb();
double RssMb();

/// Heap bytes in live allocations (mallinfo2: in-use arena bytes plus
/// mmapped blocks), in MiB. Unlike the resident set it leaves out what the
/// allocator keeps cached, which varies from run to run with thread timing
/// (resident memory of score-open spread 16% across seeds, its live heap
/// under 1%).
double LiveHeapMb();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

/// Outcome counts of one phase of a run.
struct PhaseCounts {
  std::string phase;
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t deadline_missed = 0;
  int64_t failed = 0;
};

/// Everything a run prints: metrics by name and unit, per-metric sample
/// details, phase counts, and correctness failures.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& key, const std::string& json_value);
  void Phase(const PhaseCounts& counts);
  /// A failed correctness check: the run exits nonzero.
  void Fail(const std::string& what);

  void CountAttempted(int64_t n) { attempted_ += n; }
  void CountFailed(int64_t n) { failed_ += n; }

  bool correct() const { return errors_.empty(); }

  /// The detail line (provenance, phases, summaries, errors) and the final
  /// result line.
  std::string DetailJson(const Args& args) const;
  std::string ResultJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<PhaseCounts> phases_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

std::string JsonNumber(double value);
std::string JsonString(const std::string& value);
std::string SummaryJson(const Summary& summary);

/// Bitwise float equality (distinguishes -0/+0, equates identical NaNs).
bool BitEqual(float a, float b);

/// Token-level reuse of a stream of records: the share of token occurrences
/// already seen earlier in the stream. Whether the embedding cache helps a
/// workload depends on this.
class TokenSeenCounter {
 public:
  void Add(const data::Record& record);
  void Add(const data::PairDataset& pairs);
  /// Marks tokens as seen without counting them (the state before the
  /// stream starts, e.g. an already enrolled gallery).
  void Prime(const data::Record& record);
  double SeenShare() const;

 private:
  void Visit(const data::Record& record, bool count);

  text::Tokenizer tokenizer_;
  std::unordered_set<std::string> seen_;
  int64_t total_ = 0;
  int64_t repeated_ = 0;
};

/// Times a workload's set-up. `make` builds it from the run's seed and
/// returns it by unique_ptr.
///
/// A set-up that is too large to build twice at once (search-enroll's
/// gallery) is timed in `Build`. A short one is timed with `Again`, at a
/// point of the run its workload chooses, on extra builds that are then
/// dropped.
template <typename Make>
class SetupTimer {
 public:
  explicit SetupTimer(Make make) : make_(std::move(make)) {}

  /// Builds untimed for at least a second (a fresh process on a shared VM
  /// runs its first second or so up to twice as slow), then `timed` more
  /// times, each timed and each freed before the next is built. Returns the
  /// last build.
  auto Build(int timed) {
    decltype(make_()) out;
    const int64_t warm_until = NowNs() + 1'000'000'000;
    do {
      out = nullptr;
      out = make_();
    } while (NowNs() < warm_until);
    for (int i = 0; i < timed; ++i) {
      out = nullptr;
      out = Timed();
    }
    return out;
  }

  /// Builds and frees `n` more copies, each timed.
  void Again(int n) {
    for (int i = 0; i < n; ++i) {
      (void)Timed();
    }
  }

  /// Median seconds of the timed builds; every time goes to the details.
  double MedianSeconds(Report* report) const {
    std::string json;
    for (const double s : seconds_) {
      json.append(json.empty() ? "[" : ",").append(JsonNumber(s));
    }
    report->Detail("setup_s", json + "]");
    return Percentile(seconds_, 50.0);
  }

 private:
  auto Timed() {
    const int64_t start = NowNs();
    auto built = make_();
    seconds_.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    return built;
  }

  Make make_;
  std::vector<double> seconds_;
};

/// Decorrelated seed for a sub-stream of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
