// fit-hyb: AdaMEL-hyb fitted from scratch with the default AdamelConfig on a
// music multi-source task — the paper's Figure 9 training cost and the path
// the lifecycle's fine-tune runs. The only workload with backward passes,
// the optimizer and small-batch GEMMs; it never touches serve or gallery.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/trainer.h"
#include "datagen/music_world.h"
#include "driver/layers.h"
#include "driver/workloads.h"
#include "eval/metrics.h"
#include "obs/telemetry.h"

namespace perfbench {
namespace {

namespace core = ::adamel::core;
namespace datagen = ::adamel::datagen;
namespace obs = ::adamel::obs;

std::unique_ptr<datagen::MelTask> BuildTask(uint64_t seed) {
  datagen::MusicTaskOptions options;
  options.seed = SubSeed(seed, 1) % 1000003;
  return std::make_unique<datagen::MelTask>(datagen::MakeMusicTask(options));
}

std::vector<int> Labels(const data::PairDataset& pairs) {
  std::vector<int> labels;
  for (const data::LabeledPair& pair : pairs.pairs()) {
    labels.push_back(pair.label);
  }
  return labels;
}

struct FitRun {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds = 0.0;
  std::vector<float> test_scores;
  std::array<int64_t, obs::kPhaseCount> phase_ns{};
};

FitRun TimedFit(const core::AdamelTrainer& trainer,
                const core::MelInputs& inputs, const data::PairDataset& test,
                std::unique_ptr<core::TrainedAdamel>* model) {
  FitRun run;
  const auto before = obs::PhaseProfiler::Global().ExclusiveNs();
  run.start_ns = NowNs();
  *model = std::make_unique<core::TrainedAdamel>(
      trainer.Fit(core::AdamelVariant::kHyb, inputs));
  run.end_ns = NowNs();
  run.seconds = static_cast<double>(run.end_ns - run.start_ns) * 1e-9;
  const auto after = obs::PhaseProfiler::Global().ExclusiveNs();
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    run.phase_ns[p] = after[p] - before[p];
  }
  run.test_scores = (*model)->ScorePairs(test);
  return run;
}

}  // namespace

void RunFitHyb(const Args& args, Report* report) {
  SetupTimer setup([&] { return BuildTask(args.seed); });
  const std::unique_ptr<datagen::MelTask> task = setup.Build(0);
  core::MelInputs inputs;
  inputs.source_train = &task->source_train;
  inputs.target_unlabeled = &task->target_unlabeled;
  inputs.support = &task->support;
  const core::AdamelTrainer trainer;  // default AdamelConfig
  const std::vector<int> labels = Labels(task->test);

  // Fit until the run's time is spent: at least two fits, so determinism is
  // checked, and at most 19, so the reported tail is always the slowest fit
  // (20 samples would make it the median). Every fit must reproduce the
  // first one's test scores bitwise. Set-up (about 30 ms) is timed three
  // times after each fit, so its samples span the run.
  std::vector<FitRun> fits;
  std::unique_ptr<core::TrainedAdamel> model;
  const int64_t run_start = NowNs();
  constexpr size_t kMinFits = 2;
  constexpr size_t kMaxFits = 19;
  while (fits.size() < kMinFits ||
         (fits.size() < kMaxFits &&
          static_cast<double>(NowNs() - run_start) * 1e-9 +
                  fits.back().seconds <=
              args.seconds)) {
    fits.push_back(TimedFit(trainer, inputs, task->test, &model));
    std::fprintf(stderr, "[fit-hyb] fit %zu: %.3f s\n", fits.size(),
                 fits.back().seconds);
    report->CountAttempted(1);
    setup.Again(3);
    if (fits.back().test_scores.size() != fits.front().test_scores.size() ||
        !std::equal(fits.back().test_scores.begin(),
                    fits.back().test_scores.end(),
                    fits.front().test_scores.begin(), BitEqual)) {
      report->Fail("fit-hyb: a repeated Fit with the same seed gave "
                   "different test scores");
    }
  }
  std::vector<double> fit_ms;
  for (const FitRun& fit : fits) {
    fit_ms.push_back(fit.seconds * 1e3);
  }
  const Summary fit_summary = Summarize(fit_ms);
  const double prauc =
      adamel::eval::AveragePrecision(fits.front().test_scores, labels);
  report->Detail("fit_ms", SummaryJson(fit_summary));
  report->Detail("source_train_pairs",
                 std::to_string(task->source_train.size()));
  report->Detail("epochs", std::to_string(trainer.config().epochs));

  if (!args.trace) {
    report->Metric(kSetupS, setup.MedianSeconds(report), "s");
    report->Metric(kHeapMb, LiveHeapMb(), "MB");
    report->Detail("rss_mb", JsonNumber(RssMb()));
    report->Detail("peak_rss_mb", JsonNumber(PeakRssMb()));
    report->Metric(kP50Ms, fit_summary.median, "ms");
    report->Metric(kTailMs, fit_summary.tail, "ms");
    report->Metric(kMaxRate,
                   static_cast<double>(task->source_train.size()) *
                       trainer.config().epochs / (fit_summary.median * 1e-3),
                   "1/s");
    report->Metric(kQuality, prauc, "ratio");
    return;
  }

  // Traced run: the last fit is read through the phase profiler's exclusive
  // totals, which every fit collects.
  Tracer tracer(true);
  for (const FitRun& fit : fits) {
    tracer.Record("core.AdamelTrainer.Fit", tracer.NewId(), 0, fit.start_ns,
                  fit.end_ns);
  }
  const FitRun& traced = fits.back();
  const auto phase_s = [&](obs::Phase phase) {
    return static_cast<double>(traced.phase_ns[static_cast<int>(phase)]) *
           1e-9;
  };
  report->Metric("core.fit.featurize_s", phase_s(obs::Phase::kFeaturize), "s");
  report->Metric("core.fit.forward_s", phase_s(obs::Phase::kForward), "s");
  report->Metric("core.fit.backward_s", phase_s(obs::Phase::kBackward), "s");
  report->Metric("core.fit.optimizer_s", phase_s(obs::Phase::kOptimizer), "s");
  int64_t attributed = 0;
  for (const int64_t ns : traced.phase_ns) {
    attributed += ns;
  }
  report->Metric("trace.unattributed_share",
                 std::max(0.0, 1.0 - static_cast<double>(attributed) * 1e-9 /
                                         traced.seconds),
                 "ratio");
  // Fit spans are recorded after the fits from their timestamps: no fit
  // runs a traced path the others skip, so tracing adds nothing here.
  report->Metric("trace.overhead_share", 0.0, "ratio");

  TokenSeenCounter tokens;
  for (int epoch = 0; epoch < trainer.config().epochs; ++epoch) {
    tokens.Add(task->source_train);
    tokens.Add(task->target_unlabeled);
    tokens.Add(task->support);
  }
  report->Metric("text.token_seen_share", tokens.SeenShare(), "ratio");

  const data::PairSpan train(task->source_train);
  const adamel::Status quantized = model->EnableQuantizedScoring(
      train.Subspan(0, std::min(256, train.size())));
  if (!quantized.ok()) {
    report->Fail("fit-hyb: EnableQuantizedScoring: " + quantized.ToString());
  }
  LayerInputs layers;
  layers.model = model.get();
  layers.pairs = &task->test;
  layers.batch = trainer.config().batch_size;
  MeasureLayers(layers, &tracer, report);
  if (!args.out_dir.empty() &&
      !tracer.WriteJsonl(args.out_dir + "/fit-hyb-seed" +
                         std::to_string(args.seed) + ".spans.jsonl")) {
    report->Fail("fit-hyb: cannot write the span file");
  }
}

}  // namespace perfbench
