// score-open: AdaMEL's online use. Poisson arrivals of 1- and 2-pair
// ScoreRequests from a fixed fp32/int8 tenant mix, sent open-loop from one
// pacing thread at a reference rate and up a rate ladder. The pair pool is a
// music-world test set that repeats, so the embedding cache mostly hits.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "datagen/music_world.h"
#include "driver/layers.h"
#include "driver/rung.h"
#include "driver/workloads.h"
#include "eval/metrics.h"
#include "serve/service.h"

namespace perfbench {
namespace {

namespace core = ::adamel::core;
namespace datagen = ::adamel::datagen;
namespace serve = ::adamel::serve;

// The limit a ladder rung must meet: p90 within 20 ms. A p99 limit would
// judge the host's scheduler stalls (up to ~20 ms, about once a second on a
// shared 4-core VM) rather than the load; saturation moves p90 as well.
// From about 16k to 45k requests/s p90 creeps between 8 and 11 ms with the
// rate and the host's speed, so a 10 ms limit fell anywhere on that range
// from run to run; 20 ms lies above it, where latency climbs steeply.
constexpr LatencyLimit kLimit{90.0, 20.0};
// Latency is reported at this offered rate, over kRefPhases phases of
// kRefPhaseSeconds (about 600 arrivals each, so each phase's tail is p90).
constexpr double kRefRate = 2000.0;
constexpr size_t kRefPhases = 11;
constexpr double kRefPhaseSeconds = 0.3;
// Ladder: 1000/s * 2^(i/12), i = 0..84 (1000/s .. 128000/s); on a quiet
// 4-vCPU host the service sustained up to about 100000/s.
constexpr double kLadderBase = 1000.0;
constexpr int kLadderSteps = 12;
constexpr int kLadderRungs = 85;
constexpr double kWarmupSeconds = 0.5;
constexpr int kSetupTimings = 11;
// Service workers; with the one pacing thread, within a 4-core budget.
constexpr int kWorkers = 2;

struct Tenant {
  bool quantized;
  int pairs;
  int64_t deadline_ns;
  double weight;
};
// The tenants and weights of bench_load's traffic mix: fp32 singles (0.5,
// 50 ms deadline), int8 singles (0.3, 25 ms) and 2-pair requests (0.2).
// bench_load sends its 2-pair tenant to a second, lighter model without a
// deadline; here every tenant scores the one serving model, and the 2-pair
// tenant keeps the fp32 deadline so that every request can miss one.
// Deadlines are anchored to the scheduled send time.
const Tenant kTenants[] = {
    {false, 1, 50'000'000, 0.5},
    {true, 1, 25'000'000, 0.3},
    {false, 2, 50'000'000, 0.2},
};

struct Setup {
  datagen::MelTask task;
  std::shared_ptr<core::AdamelLinkage> model;
  std::vector<float> ref_fp32;
  std::vector<float> ref_int8;
};

std::unique_ptr<Setup> BuildSetup(uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  datagen::MusicTaskOptions options;
  options.seed = SubSeed(seed, 1) % 1000003;
  setup->task = datagen::MakeMusicTask(options);
  // The serving model has the default architecture; two epochs are enough
  // for serving cost, which does not depend on how well it is trained.
  core::AdamelConfig config;
  config.epochs = 2;
  config.seed = SubSeed(seed, 2) % 1000003;
  setup->model = std::make_shared<core::AdamelLinkage>(
      core::AdamelVariant::kBase, config);
  core::MelInputs inputs;
  inputs.source_train = &setup->task.source_train;
  const adamel::Status fitted = setup->model->Fit(inputs);
  ADAMEL_CHECK(fitted.ok()) << fitted.ToString();
  const data::PairSpan train(setup->task.source_train);
  const adamel::Status quantized = setup->model->EnableQuantizedScoring(
      train.Subspan(0, std::min(256, train.size())));
  ADAMEL_CHECK(quantized.ok()) << quantized.ToString();
  setup->ref_fp32 = setup->model->trained().ScorePairs(setup->task.test);
  auto int8 = setup->model->trained().ScorePairsQuantized(setup->task.test);
  ADAMEL_CHECK(int8.ok()) << int8.status().ToString();
  setup->ref_int8 = std::move(int8).value();
  return setup;
}

// One request of a rung, prepared before the rung starts so the pacing
// thread only submits.
struct Sent {
  int tenant = 0;
  int first_pair = 0;
  serve::ScoreRequest request;
  int64_t due_ns = 0;
  int64_t submit_start_ns = 0;
  int64_t submit_end_ns = 0;
  std::future<serve::ScoreResponse> future;
};

class ScoreOpen {
 public:
  ScoreOpen(const Args& args, const Setup& setup, Report* report)
      : args_(args), setup_(setup), report_(report), tracer_(args.trace) {
    serve::ServiceOptions options;
    options.batcher.worker_threads = kWorkers;
    service_ = std::make_unique<serve::LinkageService>(options);
    const adamel::Status registered =
        service_->registry().Register("adamel", 1, setup.model);
    ADAMEL_CHECK(registered.ok()) << registered.ToString();
  }

  /// Runs one rung; `served` (optional) receives every served score with
  /// its pair's label.
  RungOutcome RunRung(const std::string& phase, double rate, double seconds,
                      bool traced,
                      std::vector<std::pair<float, int>>* served = nullptr) {
    const std::vector<int64_t> offsets =
        PoissonSchedule(rate, seconds, SubSeed(args_.seed, 100 + rung_));
    std::vector<Sent> sent = Prepare(offsets.size());
    ++rung_;
    const serve::BatcherStats before = service_->stats();
    const int64_t start = NowNs() + 2'000'000;
    for (size_t i = 0; i < sent.size(); ++i) {
      Sent& s = sent[i];
      s.due_ns = start + offsets[i];
      s.request.deadline_ns = s.due_ns + kTenants[s.tenant].deadline_ns;
      SleepUntilNs(s.due_ns);
      s.submit_start_ns = NowNs();
      s.future = service_->SubmitAsync(std::move(s.request));
      s.submit_end_ns = NowNs();
    }
    RungOutcome out;
    out.result.rate = rate;
    out.counts.phase = phase;
    for (Sent& s : sent) {
      const serve::ScoreResponse response = s.future.get();
      const Tenant& tenant = kTenants[s.tenant];
      CountRequest(response.status, s.due_ns, s.submit_start_ns,
                   response.done_ns, s.due_ns + tenant.deadline_ns, start,
                   &out);
      if (!response.status.ok()) {
        continue;
      }
      Check(s, response);
      out.queue_ms.push_back(static_cast<double>(response.queue_ns) * 1e-6);
      for (int p = 0; served != nullptr && p < tenant.pairs &&
                      p < static_cast<int>(response.scores.size());
           ++p) {
        served->push_back({response.scores[static_cast<size_t>(p)],
                           setup_.task.test.pair(s.first_pair + p).label});
      }
      if (traced) {
        RecordSpans(s, response);
      }
    }
    FinishRung("score-open", before, service_->stats(), kLimit, &out,
               report_);
    return out;
  }

  Tracer* tracer() { return &tracer_; }

  /// Token reuse over every request sent, in send order (traced runs).
  const TokenSeenCounter& tokens() const { return tokens_; }

 private:
  std::vector<Sent> Prepare(size_t count) {
    std::mt19937_64 pick(SubSeed(args_.seed, 10'000 + rung_));
    std::vector<double> weights;
    for (const Tenant& tenant : kTenants) {
      weights.push_back(tenant.weight);
    }
    std::discrete_distribution<int> tenant_of(weights.begin(), weights.end());
    const data::PairDataset& pool = setup_.task.test;
    std::uniform_int_distribution<int> pair_of(0, pool.size() - 2);
    std::vector<Sent> sent(count);
    for (Sent& s : sent) {
      s.tenant = tenant_of(pick);
      s.first_pair = pair_of(pick);
      const Tenant& tenant = kTenants[s.tenant];
      s.request.model = "adamel";
      s.request.quantized = tenant.quantized;
      s.request.pairs = data::PairDataset(pool.schema());
      for (int p = 0; p < tenant.pairs; ++p) {
        s.request.pairs.Add(pool.pair(s.first_pair + p));
      }
      if (args_.trace) {
        tokens_.Add(s.request.pairs);
      }
    }
    return sent;
  }

  // Every served score must be bitwise equal to offline scoring of the same
  // pair at the tenant's precision.
  void Check(const Sent& s, const serve::ScoreResponse& response) {
    const Tenant& tenant = kTenants[s.tenant];
    const std::vector<float>& ref =
        tenant.quantized ? setup_.ref_int8 : setup_.ref_fp32;
    if (static_cast<int>(response.scores.size()) != tenant.pairs) {
      report_->Fail("score-open: response has " +
                    std::to_string(response.scores.size()) + " scores for " +
                    std::to_string(tenant.pairs) + " pairs");
      return;
    }
    for (int p = 0; p < tenant.pairs; ++p) {
      const float want = ref[static_cast<size_t>(s.first_pair + p)];
      if (!BitEqual(response.scores[static_cast<size_t>(p)], want)) {
        report_->Fail("score-open: served " +
                      std::string(tenant.quantized ? "int8" : "fp32") +
                      " score of pool pair " +
                      std::to_string(s.first_pair + p) +
                      " differs from offline scoring");
        return;
      }
    }
  }

  // Children of a request: generator lateness, the SubmitAsync call, then
  // the queue wait and execution the response reports.
  void RecordSpans(const Sent& s, const serve::ScoreResponse& response) {
    const int64_t trace = tracer_.NewId();
    const int64_t root = tracer_.NewId();
    const int64_t exec_start =
        std::min(response.done_ns, s.submit_end_ns + response.queue_ns);
    tracer_.Record("gen.late", trace, root, s.due_ns, s.submit_start_ns);
    tracer_.Record("serve.SubmitAsync", trace, root, s.submit_start_ns,
                   s.submit_end_ns);
    tracer_.Record("serve.queue", trace, root, s.submit_end_ns, exec_start);
    tracer_.Record("serve.execute", trace, root, exec_start, response.done_ns);
    Span span;
    span.name = "request";
    span.trace_id = trace;
    span.id = root;
    span.start_ns = s.due_ns;
    span.end_ns = response.done_ns;
    tracer_.Add(span);
  }

  const Args& args_;
  const Setup& setup_;
  Report* report_;
  Tracer tracer_;
  std::unique_ptr<serve::LinkageService> service_;
  TokenSeenCounter tokens_;
  uint64_t rung_ = 0;
};

}  // namespace

void RunScoreOpen(const Args& args, Report* report) {
  SetupTimer setup_timer([&] { return BuildSetup(args.seed); });
  const std::unique_ptr<Setup> setup = setup_timer.Build(0);
  ScoreOpen bench(args, *setup, report);
  bench.RunRung("warmup", kRefRate, kWarmupSeconds, false);

  if (args.trace) {
    const double ref_seconds = args.seconds * 0.3;
    const RungOutcome plain =
        bench.RunRung("untraced", kRefRate, ref_seconds, false);
    const RungOutcome traced =
        bench.RunRung("traced", kRefRate, ref_seconds, true);
    ReportServeLayers(traced, report);
    report->Metric("trace.overhead_share",
                   Percentile(traced.latencies_ms, 50.0) /
                           Percentile(plain.latencies_ms, 50.0) -
                       1.0,
                   "ratio");
    report->Metric("trace.unattributed_share",
                   UnattributedShare(bench.tracer()->Spans(), "request"),
                   "ratio");
    report->Metric("text.token_seen_share", bench.tokens().SeenShare(),
                   "ratio");
    LayerInputs layers;
    layers.model = &setup->model->trained();
    layers.pairs = &setup->task.test;
    layers.batch = static_cast<int>(
        std::lround(static_cast<double>(traced.stats.pairs_scored) /
                    std::max<int64_t>(1, traced.stats.batches)));
    MeasureLayers(layers, bench.tracer(), report);
    if (!args.out_dir.empty() &&
        !bench.tracer()->WriteJsonl(args.out_dir + "/score-open-seed" +
                                    std::to_string(args.seed) +
                                    ".spans.jsonl")) {
      report->Fail("score-open: cannot write the span file");
    }
    return;
  }

  // Reference phases are spread between the ladder's rungs, so a slow
  // spell of the host moves a minority of them.
  std::vector<std::pair<float, int>> served;
  std::vector<RungOutcome> refs;
  const auto reference = [&] {
    if (refs.size() < kRefPhases) {
      refs.push_back(bench.RunRung("reference" + std::to_string(refs.size()),
                                   kRefRate, kRefPhaseSeconds, false,
                                   &served));
    }
  };
  reference();
  // Memory of the service at the reference load; the ladder's prepared
  // requests are the driver's, not the program's.
  const double heap_mb = LiveHeapMb();
  report->Detail("rss_mb", JsonNumber(RssMb()));
  report->Detail("peak_rss_mb", JsonNumber(PeakRssMb()));
  const double rung_seconds = args.seconds * 0.05;
  const double max_rate = ClimbLadder(
      RateLadder(kLadderBase, kLadderSteps, kLadderRungs),
      [&](const std::string& phase, double rate) {
        return bench.RunRung(phase, rate, rung_seconds, false);
      },
      reference);
  while (refs.size() < kRefPhases) {
    reference();
  }
  // Set-up is timed after the phases: a build right after start-up ran up
  // to twice as slow as one after the ladder's large rungs, which leave the
  // allocator with memory it can reuse.
  setup_timer.Again(kSetupTimings);

  std::vector<float> scores;
  std::vector<int> labels;
  for (const auto& [score, label] : served) {
    scores.push_back(score);
    labels.push_back(label);
  }
  const ReferenceLatency latency = SummarizeReference(refs);
  report->Metric(kSetupS, setup_timer.MedianSeconds(report), "s");
  report->Metric(kHeapMb, heap_mb, "MB");
  report->Metric(kP50Ms, latency.p50_ms, "ms");
  report->Metric(kTailMs, latency.tail_ms, "ms");
  report->Metric(kMaxRate, max_rate, "1/s");
  report->Metric(kQuality, adamel::eval::AveragePrecision(scores, labels),
                 "ratio");
  report->Detail("reference_latency_ms", latency.detail_json);
  report->Detail("reference_rate", JsonNumber(kRefRate));
  report->Detail("latency_limit_ms", JsonNumber(kLimit.ms));
  report->Detail("latency_limit_percentile", JsonNumber(kLimit.percentile));
  report->Detail("gen_late_ms", SummaryJson(Summarize(refs[0].late_ms)));
}

}  // namespace perfbench
