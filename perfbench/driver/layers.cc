#include "driver/layers.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_set>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/features.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "text/embedding.h"
#include "text/tokenizer.h"

namespace perfbench {
namespace {

namespace core = ::adamel::core;
namespace nn = ::adamel::nn;

// Each measurement repeats its call until this much time has passed (at
// least kMinCalls, at most kMaxCalls) and reports the median call.
constexpr int64_t kBudgetNs = 150'000'000;
constexpr int kMinCalls = 20;
constexpr int kMaxCalls = 4000;

// Times `call(i)` for i = 0, 1, ... under the budget; one span per call.
std::vector<double> TimeCalls(Tracer* tracer, const std::string& span_name,
                              const std::function<void(int)>& call) {
  std::vector<double> ns;
  const int64_t trace = tracer->NewId();
  const int64_t begin = NowNs();
  for (int i = 0; i < kMaxCalls; ++i) {
    const int64_t start = NowNs();
    call(i);
    const int64_t end = NowNs();
    ns.push_back(static_cast<double>(end - start));
    tracer->Record(span_name, trace, 0, start, end);
    if (i + 1 >= kMinCalls && end - begin > kBudgetNs) {
      break;
    }
  }
  return ns;
}

double MedianOf(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

data::PairSpan Window(const data::PairDataset& pairs, int index, int count) {
  count = std::min(count, pairs.size());
  const int offset = (index * count) % (pairs.size() - count + 1);
  return data::PairSpan(pairs).Subspan(offset, count);
}

// Microseconds per pair of `fn` on windows of `count` pairs.
double UsPerPair(Tracer* tracer, const std::string& span_name,
                 const data::PairDataset& pairs, int count,
                 const std::function<void(data::PairSpan)>& fn) {
  count = std::min(count, pairs.size());
  const std::vector<double> ns = TimeCalls(
      tracer, span_name, [&](int i) { fn(Window(pairs, i, count)); });
  return MedianOf(ns) * 1e-3 / count;
}

double MatmulGflops(Tracer* tracer, const std::string& span_name, int rows,
                    int inner, int cols) {
  adamel::Rng rng(rows * 131 + inner);
  const nn::Tensor a = nn::Tensor::RandomNormal(rows, inner, 1.0f, &rng);
  const nn::Tensor b = nn::Tensor::RandomNormal(inner, cols, 1.0f, &rng);
  const std::vector<double> ns = TimeCalls(
      tracer, span_name, [&](int) { (void)nn::MatMul(a, b); });
  return 2.0 * rows * inner * cols / MedianOf(ns);  // flop/ns = GFLOP/s
}

}  // namespace

void MeasureLayers(const LayerInputs& inputs, Tracer* tracer, Report* report) {
  const core::TrainedAdamel& model = *inputs.model;
  const data::PairDataset& pairs = *inputs.pairs;
  const core::FeatureExtractor& extractor = model.extractor();
  const int n = std::max(1, inputs.batch);
  report->Detail("layers.batch_n", std::to_string(n));

  // core: featurize and score; forward = score - featurize.
  const auto featurize = [&](data::PairSpan span) {
    (void)extractor.Featurize(span);
  };
  const auto score_fp32 = [&](data::PairSpan span) {
    (void)model.ScorePairs(span);
  };
  const double feat_b1 =
      UsPerPair(tracer, "core.Featurize", pairs, 1, featurize);
  const double feat_bn =
      UsPerPair(tracer, "core.Featurize", pairs, n, featurize);
  const double fp32_b1 =
      UsPerPair(tracer, "core.ScorePairs", pairs, 1, score_fp32);
  const double fp32_bn =
      UsPerPair(tracer, "core.ScorePairs", pairs, n, score_fp32);
  report->Metric("core.featurize_us_per_pair.b1", feat_b1, "us");
  report->Metric("core.featurize_us_per_pair.bN", feat_bn, "us");
  report->Metric("core.score_us_per_pair.fp32.b1", fp32_b1, "us");
  report->Metric("core.score_us_per_pair.fp32.bN", fp32_bn, "us");
  report->Metric("core.forward_us_per_pair.fp32.b1", fp32_b1 - feat_b1, "us");
  report->Metric("core.forward_us_per_pair.fp32.bN", fp32_bn - feat_bn, "us");
  if (model.HasQuantized()) {
    const double int8_bn = UsPerPair(
        tracer, "core.ScorePairsQuantized", pairs, n,
        [&](data::PairSpan span) { (void)model.ScorePairsQuantized(span); });
    report->Metric("core.score_us_per_pair.int8.bN", int8_bn, "us");
    report->Metric("core.forward_us_per_pair.int8.bN", int8_bn - feat_bn,
                   "us");
  }

  // text: tokenize every attribute value; embed the distinct tokens on a
  // fresh embedding (cold cache), then again (warm cache).
  std::vector<const std::string*> values;
  for (const data::LabeledPair& pair : pairs.pairs()) {
    for (const std::string& v : pair.left.values) values.push_back(&v);
    for (const std::string& v : pair.right.values) values.push_back(&v);
  }
  const adamel::text::Tokenizer tokenizer;  // the extractor's defaults
  std::vector<std::string> distinct;
  {
    std::unordered_set<std::string> seen;
    for (const std::string* v : values) {
      for (std::string& token : tokenizer.Tokenize(*v)) {
        if (seen.insert(token).second) distinct.push_back(std::move(token));
      }
    }
  }
  // One call is ~100 ns, so each timed call is a pass over every value.
  const std::vector<double> tokenize_ns =
      TimeCalls(tracer, "text.Tokenize", [&](int) {
        for (const std::string* v : values) {
          (void)tokenizer.Tokenize(*v);
        }
      });
  report->Metric("text.tokenize_ns_per_value",
                 MedianOf(tokenize_ns) / std::max<size_t>(1, values.size()),
                 "ns");

  adamel::text::EmbeddingOptions embed_options;
  embed_options.dim = extractor.embed_dim();
  std::vector<double> cold;
  std::vector<double> warm;
  for (int round = 0; round < 3 && !distinct.empty(); ++round) {
    const adamel::text::HashTextEmbedding embedding(embed_options);
    for (std::vector<double>* out : {&cold, &warm}) {
      const int64_t start = NowNs();
      for (const std::string& token : distinct) {
        (void)embedding.EmbedToken(token);
      }
      const int64_t end = NowNs();
      tracer->Record("text.EmbedToken", tracer->NewId(), 0, start, end);
      out->push_back(static_cast<double>(end - start) / distinct.size());
    }
  }
  report->Metric("text.embed_ns_per_token.cold", MedianOf(cold), "ns");
  report->Metric("text.embed_ns_per_token.warm", MedianOf(warm), "ns");
  report->Detail("layers.distinct_tokens", std::to_string(distinct.size()));

  // nn: the classifier's first GEMM, (batch x F*H) * (F*H x hidden), the
  // model's largest, at the training batch and at the workload's batch.
  const core::AdamelConfig& config = model.model().config();
  const int inner = model.model().feature_count() * config.latent_dim;
  report->Metric("nn.matmul_gflops.b32",
                 MatmulGflops(tracer, "nn.MatMul", config.batch_size, inner,
                              config.hidden_dim),
                 "GFLOP/s");
  report->Metric("nn.matmul_gflops.bN",
                 MatmulGflops(tracer, "nn.MatMul", n, inner,
                              config.hidden_dim),
                 "GFLOP/s");

  // common: an empty ParallelFor over 16 one-index chunks, the fan-out
  // shape of a 16-shard gallery probe.
  const std::vector<double> pf_ns =
      TimeCalls(tracer, "common.ParallelFor", [](int) {
        adamel::ParallelFor(0, 16, 1, [](int64_t, int64_t) {});
      });
  report->Metric("common.parallel_for_us", MedianOf(pf_ns) * 1e-3, "us");
}

}  // namespace perfbench
