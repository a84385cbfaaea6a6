#ifndef PERFBENCH_DRIVER_RUNG_H_
#define PERFBENCH_DRIVER_RUNG_H_

// The open-loop phase shared by the two serving workloads: one rung of
// Poisson arrivals at a fixed rate, its outcome, and the rate-ladder climb.

#include <functional>
#include <string>
#include <vector>

#include "driver/common.h"
#include "serve/batcher.h"

namespace perfbench {

struct RungOutcome {
  RungResult result;
  PhaseCounts counts;
  std::vector<Arrival> arrivals;
  /// Latency from the due time; a miss counts at least its deadline, which
  /// is beyond every latency limit.
  std::vector<double> latencies_ms;
  /// How late the pacing thread released each arrival.
  std::vector<double> late_ms;
  /// ScoreResponse::queue_ns of completed requests.
  std::vector<double> queue_ms;
  /// BatcherStats over the rung.
  adamel::serve::BatcherStats stats;
};

/// Counts one finished request into `out` by its status (completed, shed,
/// deadline missed or failed) and records its latency from `due_ns`, its
/// arrival for the backlog rule, and how late it was released.
void CountRequest(const adamel::Status& status, int64_t due_ns,
                  int64_t released_ns, int64_t done_ns, int64_t deadline_ns,
                  int64_t rung_start_ns, RungOutcome* out);

/// Completes a rung: batcher-stat deltas, the pass/fail verdict against
/// `limit`, the phase counts in `report` (requests that ended in an error
/// other than shedding or a deadline count as failed), and a progress line
/// on stderr.
void FinishRung(const std::string& workload,
                const adamel::serve::BatcherStats& before,
                const adamel::serve::BatcherStats& after,
                const LatencyLimit& limit, RungOutcome* out, Report* report);

/// Shed, timed-out and failed requests of a rung.
int64_t Misses(const PhaseCounts& counts);

/// Latency at the reference rate from several short phases: the median over
/// phases of each phase's median and of each phase's tail (the highest
/// percentile with ten samples beyond it in that phase). Short phases keep
/// the tail at a percentile that an isolated scheduler stall of the host
/// (a few ms, several times a minute on a shared machine) cannot move.
struct ReferenceLatency {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  std::string detail_json;  // every phase's summary
};
ReferenceLatency SummarizeReference(const std::vector<RungOutcome>& phases);

/// The serve-layer and generator metrics of the traced run, from its traced
/// rung.
void ReportServeLayers(const RungOutcome& traced, Report* report);

/// Climbs `ladder` (see RateLadder::Next), running each visited rung through
/// `run(phase, rate)` and calling `between()` after every attempt. A rung
/// passes when any of up to three attempts passes, so a slow spell of the
/// host (seconds long on a shared VM) does not end the climb early. Returns
/// the highest sustained rate.
double ClimbLadder(
    const RateLadder& ladder,
    const std::function<RungOutcome(const std::string&, double)>& run,
    const std::function<void()>& between);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_RUNG_H_
