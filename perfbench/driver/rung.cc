#include "driver/rung.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

namespace perfbench {

using ::adamel::StatusCode;

void CountRequest(const adamel::Status& status, int64_t due_ns,
                  int64_t released_ns, int64_t done_ns, int64_t deadline_ns,
                  int64_t rung_start_ns, RungOutcome* out) {
  ++out->counts.attempted;
  bool miss = true;
  if (status.ok()) {
    if (done_ns > deadline_ns) {
      ++out->counts.deadline_missed;
    } else {
      ++out->counts.completed;
      miss = false;
    }
  } else if (status.code() == StatusCode::kResourceExhausted) {
    ++out->counts.shed;
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++out->counts.deadline_missed;
  } else {
    ++out->counts.failed;
    std::fprintf(stderr, "[perfbench] request failed: %s\n",
                 status.ToString().c_str());
  }
  double latency_ms = MsBetween(due_ns, done_ns);
  if (miss) {
    latency_ms = std::max(latency_ms, MsBetween(due_ns, deadline_ns));
  }
  out->latencies_ms.push_back(latency_ms);
  out->late_ms.push_back(MsBetween(due_ns, released_ns));
  out->arrivals.push_back({MsBetween(rung_start_ns, due_ns), latency_ms});
}

void FinishRung(const std::string& workload,
                const adamel::serve::BatcherStats& before,
                const adamel::serve::BatcherStats& after,
                const LatencyLimit& limit, RungOutcome* out, Report* report) {
  adamel::serve::BatcherStats& d = out->stats;
  d.submitted = after.submitted - before.submitted;
  d.rejected = after.rejected - before.rejected;
  d.timed_out = after.timed_out - before.timed_out;
  d.batches = after.batches - before.batches;
  d.failed = after.failed - before.failed;
  d.pairs_scored = after.pairs_scored - before.pairs_scored;
  d.coalesced_requests = after.coalesced_requests - before.coalesced_requests;
  EvaluateRung(out->arrivals, limit, &out->result);
  report->Phase(out->counts);
  report->CountAttempted(out->counts.attempted);
  report->CountFailed(out->counts.failed);
  std::fprintf(stderr,
               "[%s] %-14s rate %8.1f/s  n %6lld  p%g %8.3f ms  misses %lld"
               "  %s\n",
               workload.c_str(), out->counts.phase.c_str(), out->result.rate,
               static_cast<long long>(out->counts.attempted),
               limit.percentile, out->result.tail_ms,
               static_cast<long long>(Misses(out->counts)),
               out->result.passed ? "pass" : "FAIL");
  // Let the queue settle before the next phase.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
}

int64_t Misses(const PhaseCounts& counts) {
  return counts.shed + counts.deadline_missed + counts.failed;
}

ReferenceLatency SummarizeReference(const std::vector<RungOutcome>& phases) {
  ReferenceLatency out;
  std::vector<double> medians;
  std::vector<double> tails;
  std::string json;
  for (const RungOutcome& phase : phases) {
    const Summary summary = Summarize(phase.latencies_ms);
    medians.push_back(summary.median);
    tails.push_back(summary.tail);
    json.append(json.empty() ? "[" : ",").append(SummaryJson(summary));
  }
  out.detail_json = json.empty() ? "[]" : json + "]";
  out.p50_ms = Percentile(medians, 50.0);
  out.tail_ms = Percentile(tails, 50.0);
  return out;
}

void ReportServeLayers(const RungOutcome& traced, Report* report) {
  report->Metric("serve.queue_wait_ms.p50", Percentile(traced.queue_ms, 50.0),
                 "ms");
  report->Metric("serve.queue_wait_ms.p99", Percentile(traced.queue_ms, 99.0),
                 "ms");
  const adamel::serve::BatcherStats& d = traced.stats;
  report->Metric("serve.batch_pairs.mean",
                 d.batches > 0 ? static_cast<double>(d.pairs_scored) /
                                     static_cast<double>(d.batches)
                               : 0.0,
                 "pairs");
  report->Metric("serve.coalesced_share",
                 d.submitted > 0 ? static_cast<double>(d.coalesced_requests) /
                                       static_cast<double>(d.submitted)
                                 : 0.0,
                 "ratio");
  report->Metric("serve.shed", static_cast<double>(d.rejected), "count");
  report->Metric("serve.timed_out", static_cast<double>(d.timed_out),
                 "count");
  report->Metric("serve.failed", static_cast<double>(d.failed), "count");
  report->Metric("gen.late_ms.p99", Percentile(traced.late_ms, 99.0), "ms");
}

double ClimbLadder(
    const RateLadder& ladder,
    const std::function<RungOutcome(const std::string&, double)>& run,
    const std::function<void()>& between) {
  std::vector<int> visited;
  std::vector<bool> passed;
  std::vector<RungResult> rungs;
  for (int next = ladder.Next(visited, passed); next >= 0;
       next = ladder.Next(visited, passed)) {
    const double rate = ladder.Rate(next);
    char phase[32];
    std::snprintf(phase, sizeof(phase), "rung@%.0f", rate);
    constexpr int kAttempts = 3;
    RungOutcome rung = run(phase, rate);
    between();
    for (int attempt = 2; attempt <= kAttempts && !rung.result.passed;
         ++attempt) {
      rung = run(std::string(phase) + "/" + std::to_string(attempt), rate);
      between();
    }
    visited.push_back(next);
    passed.push_back(rung.result.passed);
    rungs.push_back(rung.result);
  }
  return MaxSustainedRate(rungs);
}

}  // namespace perfbench
