// search-enroll: open-loop 1:N search (SearchAsync, probe_k 64, k 10) against
// a gallery of 200k enrolled records while a second stream enrolls batches of
// new entities at a fixed rate. Most of the work is the gallery probe, with
// the re-rank riding the batcher; enrollment contends for the shard locks and
// brings unseen tokens, so the embedding cache mostly misses.
//
// Threads: the pacing thread (main) only releases arrivals; one probe thread
// calls SearchAsync, whose probe runs on the caller, so a slow probe shows as
// search latency rather than as a quieter schedule; one enroll thread; one
// service worker. Four in all.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/trainer.h"
#include "datagen/world.h"
#include "driver/layers.h"
#include "driver/rung.h"
#include "driver/workloads.h"
#include "gallery/gallery.h"
#include "serve/service.h"

namespace perfbench {
namespace {

namespace core = ::adamel::core;
namespace datagen = ::adamel::datagen;
namespace gallery = ::adamel::gallery;
namespace serve = ::adamel::serve;

constexpr int kBaseEntities = 50'000;  // x 4 sources = 200k records
// One record each; enough for the enroll stream through the longest ladder
// climb (about 50 s of streaming).
constexpr int kStreamEntities = 40'000;
constexpr int kSources = 4;
constexpr int kQueries = 4000;
constexpr int kProbeK = 64;
constexpr int kK = 10;
constexpr int64_t kDeadlineNs = 100'000'000;
// The limit a ladder rung must meet: p90 within 50 ms. Rungs hold 125 to
// 1000 arrivals, so p90 is the highest percentile with ten or more beyond.
constexpr LatencyLimit kLimit{90.0, 50.0};
// Latency is reported at this offered rate, a fifth of the probe thread's
// capacity, over kRefPhases phases of kRefPhaseSeconds (about 150 arrivals
// each, so each phase's tail is p90).
constexpr double kRefRate = 60.0;
constexpr size_t kRefPhases = 6;
constexpr double kRefPhaseSeconds = 2.5;
// Ladder: 100/s * 2^(i/12), i = 0..60 (100/s .. 3200/s).
constexpr double kLadderBase = 100.0;
constexpr int kLadderSteps = 12;
constexpr int kLadderRungs = 61;
constexpr double kWarmupSeconds = 0.5;
// Enroll stream: batches of kEnrollBatch new records at kEnrollRate per
// second, a fifth of the enroll thread's capacity, as the search reference
// rate is a fifth of the probe thread's. Back-to-back Enroll calls of 32 new
// records beside the reference search load took 11.2 ms each (median; 89
// batches/s on the 4-vCPU VM the benchmark was written on).
constexpr int kEnrollBatch = 32;
constexpr double kEnrollRate = 18.0;
constexpr int kWorkers = 1;
constexpr int kRecallQueries = 50;
constexpr int kQuietQueries = 32;

datagen::World MakeWorld(uint64_t seed) {
  datagen::WorldConfig config;
  config.num_entities = kBaseEntities + kStreamEntities;
  config.family_size = 16;
  config.seed = seed;
  datagen::AttributeSpec name{"name", datagen::AttributeKind::kEntityName};
  datagen::AttributeSpec family{"performer",
                                datagen::AttributeKind::kFamilyName};
  datagen::AttributeSpec category{"genre", datagen::AttributeKind::kCategory};
  category.category_cardinality = 50;
  category.vocab_seed = 3;
  datagen::AttributeSpec year{"year", datagen::AttributeKind::kNumeric};
  datagen::AttributeSpec title{"page_title",
                               datagen::AttributeKind::kComposite};
  title.filler_tokens = 2;
  title.vocab_seed = 5;
  config.attributes = {name, family, category, year, title};
  datagen::World world(std::move(config));
  for (int s = 0; s < kSources; ++s) {
    datagen::SourceProfile profile;
    profile.name = "site" + std::to_string(s);
    profile.decoration_vocab_seed = 100 + s;
    std::vector<datagen::AttributeRendering> renderings(5);
    renderings[0].abbrev_prob = 0.05 * s;
    renderings[0].typo_prob = 0.02;
    renderings[2].missing_prob = 0.1;
    renderings[4].decoration_prob = 0.2;
    profile.attributes = std::move(renderings);
    world.AddSource(profile);
  }
  return world;
}

struct Setup {
  std::unique_ptr<datagen::World> world;
  std::vector<data::Record> base;
  std::vector<data::Record> stream;  // new entities, enrolled during the run
  std::vector<data::Record> queries;
  std::shared_ptr<core::AdamelLinkage> model;
  std::shared_ptr<gallery::Gallery> gallery;
};

std::unique_ptr<Setup> BuildSetup(uint64_t seed) {
  auto setup = std::make_unique<Setup>();
  setup->world =
      std::make_unique<datagen::World>(MakeWorld(SubSeed(seed, 1) % 1000003));
  const datagen::World& world = *setup->world;
  adamel::Rng render(SubSeed(seed, 2));
  const std::vector<std::string> sources = world.source_names();
  for (int e = 0; e < kBaseEntities; ++e) {
    for (const std::string& site : sources) {
      setup->base.push_back(world.Render(e, site, &render));
    }
  }
  // The stream: each new entity once, from one source, with its name,
  // performer and title tokens given a fresh random stem — new real
  // entities bring names the gallery has never seen, while the synthetic
  // name generator reuses a small syllable space.
  std::mt19937_64 stems(SubSeed(seed, 7));
  std::uniform_int_distribution<int> letter('a', 'z');
  std::uniform_int_distribution<int> stem_length(3, 5);
  const auto new_stem = [&] {
    std::string stem(static_cast<size_t>(stem_length(stems)), 'a');
    for (char& c : stem) c = static_cast<char>(letter(stems));
    return stem;
  };
  std::string family_stem;
  for (int e = kBaseEntities; e < world.num_entities(); ++e) {
    if (e % world.config().family_size == 0 || family_stem.empty()) {
      family_stem = new_stem();
    }
    const std::string entity_stem = new_stem();
    data::Record record =
        world.Render(e, sources[static_cast<size_t>(e % kSources)], &render);
    for (const auto& [attribute, stem] :
         {std::pair<const char*, const std::string*>{"name", &entity_stem},
          {"performer", &family_stem},
          {"page_title", &entity_stem}}) {
      std::string& value = record.values[static_cast<size_t>(
          world.schema().IndexOf(attribute))];
      std::string stemmed;
      for (const std::string& token : adamel::SplitWhitespace(value)) {
        stemmed += (stemmed.empty() ? "" : " ") + *stem + token;
      }
      value = stemmed;
    }
    setup->stream.push_back(std::move(record));
  }
  // Queries re-render enrolled entities with a fresh rng, so surface forms
  // differ from the enrolled records.
  adamel::Rng query_rng(SubSeed(seed, 3));
  std::mt19937_64 pick(SubSeed(seed, 4));
  std::uniform_int_distribution<int> entity_of(0, kBaseEntities - 1);
  std::uniform_int_distribution<int> source_of(0, kSources - 1);
  for (int q = 0; q < kQueries; ++q) {
    setup->queries.push_back(world.Render(
        entity_of(pick), sources[static_cast<size_t>(source_of(pick))],
        &query_rng));
  }

  // Re-ranker: the default architecture, two epochs on pairs of this world.
  datagen::PairSamplingOptions sampling;
  sampling.left_sources = {"site0", "site1"};
  sampling.right_sources = {"site2", "site3"};
  sampling.positives = 300;
  sampling.negatives = 300;
  adamel::Rng pair_rng(SubSeed(seed, 5));
  const data::PairDataset train =
      datagen::SamplePairs(world, sampling, &pair_rng);
  core::AdamelConfig config;
  config.epochs = 2;
  config.seed = SubSeed(seed, 6) % 1000003;
  setup->model = std::make_shared<core::AdamelLinkage>(
      core::AdamelVariant::kBase, config);
  core::MelInputs inputs;
  inputs.source_train = &train;
  const adamel::Status fitted = setup->model->Fit(inputs);
  ADAMEL_CHECK(fitted.ok()) << fitted.ToString();

  gallery::GalleryOptions options;
  options.embedding.dim = 128;
  options.num_shards = 16;
  auto created = gallery::Gallery::Create(world.schema(), options);
  ADAMEL_CHECK(created.ok()) << created.status().ToString();
  setup->gallery = std::move(created).value();
  const data::RecordSpan base(setup->base);
  constexpr int64_t kChunk = 50'000;
  for (int64_t offset = 0; offset < base.size(); offset += kChunk) {
    const adamel::Status enrolled = setup->gallery->Enroll(
        base.Subspan(offset, std::min(kChunk, base.size() - offset)));
    ADAMEL_CHECK(enrolled.ok()) << enrolled.ToString();
  }
  return setup;
}

// One search of a rung.
struct Sent {
  int query = 0;
  int64_t due_ns = 0;
  int64_t released_ns = 0;  // when the pacing thread handed it over
  int64_t call_start_ns = 0;
  int64_t call_end_ns = 0;
  std::future<serve::SearchResponse> search;  // untraced: SearchAsync
  // Traced: the decomposed path's re-rank batch, or the error that
  // stopped it before submission.
  std::future<serve::ScoreResponse> rerank;
  adamel::Status early;
  int64_t trace_id = 0;
  int64_t root_id = 0;
};

struct EnrollSample {
  int64_t due_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

bool SameCandidates(const std::vector<gallery::Candidate>& a,
                    const std::vector<gallery::Candidate>& b);

class SearchEnroll {
 public:
  SearchEnroll(const Args& args, const Setup& setup, Report* report)
      : args_(args), setup_(setup), report_(report), tracer_(args.trace) {
    serve::ServiceOptions options;
    options.batcher.worker_threads = kWorkers;
    options.gallery = setup.gallery;
    service_ = std::make_unique<serve::LinkageService>(options);
    const adamel::Status registered =
        service_->registry().Register("adamel", 1, setup.model);
    ADAMEL_CHECK(registered.ok()) << registered.ToString();
  }

  ~SearchEnroll() { StopEnrolling(); }

  SearchEnroll(const SearchEnroll&) = delete;
  SearchEnroll& operator=(const SearchEnroll&) = delete;

  /// Starts the enroll stream: kEnrollBatch new records every
  /// 1/kEnrollRate seconds, each batch timed from its due time.
  void StartEnrolling() {
    stop_enroll_ = false;
    enroll_thread_ = std::thread([this] { EnrollLoop(); });
  }

  void StopEnrolling() {
    stop_enroll_ = true;
    if (enroll_thread_.joinable()) {
      enroll_thread_.join();
    }
  }

  RungOutcome RunRung(const std::string& phase, double rate, double seconds,
                      bool traced, std::vector<int>* queries = nullptr) {
    const std::vector<int64_t> offsets =
        PoissonSchedule(rate, seconds, SubSeed(args_.seed, 100 + rung_));
    std::mt19937_64 pick(SubSeed(args_.seed, 10'000 + rung_));
    ++rung_;
    std::uniform_int_distribution<int> query_of(0, kQueries - 1);
    std::vector<Sent> sent(offsets.size());
    for (Sent& s : sent) {
      s.query = query_of(pick);
      if (queries != nullptr) {
        queries->push_back(s.query);
      }
    }
    const serve::BatcherStats before = service_->stats();
    const int64_t start = NowNs() + 2'000'000;
    for (size_t i = 0; i < sent.size(); ++i) {
      sent[i].due_ns = start + offsets[i];
    }

    // The pacing thread releases arrivals at their due time; the probe
    // thread takes them in order.
    std::mutex mutex;
    std::condition_variable released_cv;
    size_t released = 0;
    std::thread prober([&] {
      for (size_t i = 0; i < sent.size(); ++i) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          released_cv.wait(lock, [&] { return released > i; });
        }
        Issue(&sent[i], traced);
      }
    });
    for (size_t i = 0; i < sent.size(); ++i) {
      SleepUntilNs(sent[i].due_ns);
      sent[i].released_ns = NowNs();
      {
        std::lock_guard<std::mutex> lock(mutex);
        released = i + 1;
      }
      released_cv.notify_one();
    }
    prober.join();

    RungOutcome out;
    out.result.rate = rate;
    out.counts.phase = phase;
    for (Sent& s : sent) {
      Collect(&s, start, traced, &out);
    }
    FinishRung("search-enroll", before, service_->stats(), kLimit, &out,
               report_);
    return out;
  }

  /// Call durations of the enroll batches so far, in ms.
  std::vector<double> EnrollCallMs() const {
    std::vector<double> ms;
    for (const EnrollSample& e : enrolls_) {
      ms.push_back(MsBetween(e.start_ns, e.end_ns));
    }
    return ms;
  }
  /// Records enrolled by the stream so far (valid after StopEnrolling).
  int64_t enrolled() const { return enroll_offset_; }
  int64_t enroll_failures() const { return enroll_failures_; }
  /// Whether the stream ran out of new records before StopEnrolling, so
  /// the last phases ran without it (valid after StopEnrolling).
  bool ran_dry() const { return ran_dry_; }

  Tracer* tracer() { return &tracer_; }
  serve::LinkageService& service() { return *service_; }

 private:
  void Issue(Sent* s, bool traced) {
    const data::Record& query = setup_.queries[static_cast<size_t>(s->query)];
    s->call_start_ns = NowNs();
    if (!traced) {
      serve::SearchRequest request;
      request.model = "adamel";
      request.query = query;
      request.k = kK;
      request.probe_k = kProbeK;
      request.deadline_ns = s->due_ns + kDeadlineNs;
      s->search = service_->SearchAsync(std::move(request));
      s->call_end_ns = NowNs();
      return;
    }
    // Traced: SearchAsync decomposed into its public steps, each a span —
    // Gallery::Search, GetRecord for the re-rank pairs, SubmitAsync.
    s->trace_id = tracer_.NewId();
    s->root_id = tracer_.NewId();
    auto hits = setup_.gallery->Search(query, kProbeK);
    const int64_t probed = NowNs();
    tracer_.Record("gallery.Search", s->trace_id, s->root_id,
                   s->call_start_ns, probed);
    if (!hits.ok()) {
      s->early = hits.status();
      return;
    }
    serve::ScoreRequest request;
    request.model = "adamel";
    request.pairs = data::PairDataset(setup_.gallery->schema());
    for (const gallery::Candidate& hit : hits.value()) {
      auto record = setup_.gallery->GetRecord(hit.index);
      if (!record.ok()) {
        s->early = record.status();
        return;
      }
      data::LabeledPair pair;
      pair.left = query;
      pair.right = std::move(record).value();
      request.pairs.Add(std::move(pair));
    }
    const int64_t gathered = NowNs();
    tracer_.Record("gallery.GetRecord", s->trace_id, s->root_id, probed,
                   gathered);
    request.deadline_ns = s->due_ns + kDeadlineNs;
    s->rerank = service_->SubmitAsync(std::move(request));
    s->call_end_ns = NowNs();
    tracer_.Record("serve.SubmitAsync", s->trace_id, s->root_id, gathered,
                   s->call_end_ns);
  }

  void Collect(Sent* s, int64_t start, bool traced, RungOutcome* out) {
    adamel::Status status = s->early;
    int64_t done_ns = s->call_end_ns;
    if (!traced) {
      const serve::SearchResponse response = s->search.get();
      status = response.status;
      done_ns = response.done_ns;
      if (status.ok()) {
        Verify(*s, response);
      }
    } else if (s->rerank.valid()) {
      const serve::ScoreResponse response = s->rerank.get();
      status = response.status;
      done_ns = response.done_ns;
      if (status.ok()) {
        out->queue_ms.push_back(static_cast<double>(response.queue_ns) * 1e-6);
        RecordSpans(*s, response);
      }
    }
    CountRequest(status, s->due_ns, s->released_ns, done_ns,
                 s->due_ns + kDeadlineNs, start, out);
  }

  // A served answer must equal offline re-ranking of the same candidates:
  // same records, same order, bitwise-equal scores.
  void Verify(const Sent& s, const serve::SearchResponse& response) {
    const data::Record& query = setup_.queries[static_cast<size_t>(s.query)];
    if (response.candidates.empty() ||
        static_cast<int>(response.candidates.size()) > kK) {
      report_->Fail("search-enroll: a search returned " +
                    std::to_string(response.candidates.size()) +
                    " candidates");
      return;
    }
    auto offline = gallery::RerankCandidates(*setup_.model, *setup_.gallery,
                                             query, response.candidates, kK);
    if (!offline.ok() ||
        !SameCandidates(offline.value(), response.candidates)) {
      report_->Fail("search-enroll: served search for query " +
                    std::to_string(s.query) +
                    " differs from offline RerankCandidates");
    }
  }

  // The request root and the children only the response can date: the
  // pacing thread's lateness, the hand-off wait for the probe thread, and
  // the re-rank's queue wait and execution.
  void RecordSpans(const Sent& s, const serve::ScoreResponse& response) {
    const int64_t exec_start =
        std::min(response.done_ns, s.call_end_ns + response.queue_ns);
    tracer_.Record("gen.late", s.trace_id, s.root_id, s.due_ns,
                   s.released_ns);
    tracer_.Record("client.handoff", s.trace_id, s.root_id, s.released_ns,
                   s.call_start_ns);
    tracer_.Record("serve.queue", s.trace_id, s.root_id, s.call_end_ns,
                   exec_start);
    tracer_.Record("serve.execute", s.trace_id, s.root_id, exec_start,
                   response.done_ns);
    Span span;
    span.name = "request";
    span.trace_id = s.trace_id;
    span.id = s.root_id;
    span.start_ns = s.due_ns;
    span.end_ns = response.done_ns;
    tracer_.Add(span);
  }

  void EnrollLoop() {
    const int64_t interval = static_cast<int64_t>(1e9 / kEnrollRate);
    int64_t due = NowNs();
    const data::RecordSpan stream(setup_.stream);
    while (!stop_enroll_ && enroll_offset_ + kEnrollBatch <= stream.size()) {
      due += interval;
      SleepUntilNs(due);
      if (stop_enroll_) {
        break;
      }
      EnrollSample sample;
      sample.due_ns = due;
      sample.start_ns = NowNs();
      const adamel::Status enrolled = setup_.gallery->Enroll(
          stream.Subspan(enroll_offset_, kEnrollBatch));
      sample.end_ns = NowNs();
      enroll_offset_ += kEnrollBatch;
      if (!enrolled.ok()) {
        ++enroll_failures_;
        std::fprintf(stderr, "[search-enroll] enroll failed: %s\n",
                     enrolled.ToString().c_str());
      }
      tracer_.Record("gallery.Enroll", tracer_.NewId(), 0, sample.start_ns,
                     sample.end_ns);
      enrolls_.push_back(sample);
    }
    ran_dry_ = !stop_enroll_;
  }

  const Args& args_;
  const Setup& setup_;
  Report* report_;
  Tracer tracer_;
  std::unique_ptr<serve::LinkageService> service_;
  uint64_t rung_ = 0;
  // Written by the enroll thread; read only after StopEnrolling joins it.
  std::atomic<bool> stop_enroll_{false};
  int64_t enroll_offset_ = 0;
  int64_t enroll_failures_ = 0;
  bool ran_dry_ = false;
  std::vector<EnrollSample> enrolls_;
  std::thread enroll_thread_;  // last: joined before the members it uses go
};

bool SameCandidates(const std::vector<gallery::Candidate>& a,
                    const std::vector<gallery::Candidate>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || !BitEqual(a[i].score, b[i].score)) {
      return false;
    }
  }
  return true;
}

// recall@64 of the bucket probe against the exhaustive int8 oracle.
double ProbeRecall(const gallery::Gallery& index,
                   const std::vector<data::Record>& queries,
                   const std::vector<int>& sample, Report* report) {
  int64_t found = 0;
  int64_t total = 0;
  for (const int q : sample) {
    const data::Record& query = queries[static_cast<size_t>(q)];
    auto probed = index.Search(query, kProbeK);
    auto oracle = index.SearchExhaustive(query, kProbeK);
    if (!probed.ok() || !oracle.ok()) {
      report->Fail("search-enroll: recall probe failed");
      return 0.0;
    }
    std::vector<int64_t> got;
    for (const gallery::Candidate& hit : probed.value()) {
      got.push_back(hit.index);
    }
    std::sort(got.begin(), got.end());
    for (const gallery::Candidate& want : oracle.value()) {
      ++total;
      found += std::binary_search(got.begin(), got.end(), want.index) ? 1 : 0;
    }
  }
  return total > 0 ? static_cast<double>(found) / total : 0.0;
}

// With the service idle, SearchAsync must return exactly what offline
// Search + RerankCandidates return.
void QuietCheck(SearchEnroll* bench, const Setup& setup,
                const std::vector<int>& sample, Report* report) {
  for (const int q : sample) {
    const data::Record& query = setup.queries[static_cast<size_t>(q)];
    serve::SearchRequest request;
    request.model = "adamel";
    request.query = query;
    request.k = kK;
    request.probe_k = kProbeK;
    const serve::SearchResponse served =
        bench->service().SearchAsync(std::move(request)).get();
    auto hits = setup.gallery->Search(query, kProbeK);
    if (!served.status.ok() || !hits.ok()) {
      report->Fail("search-enroll: idle search failed");
      return;
    }
    auto offline = gallery::RerankCandidates(*setup.model, *setup.gallery,
                                             query, hits.value(), kK);
    if (!offline.ok() || !SameCandidates(offline.value(), served.candidates)) {
      report->Fail("search-enroll: idle SearchAsync differs from offline "
                   "Search + RerankCandidates for query " +
                   std::to_string(q));
      return;
    }
  }
}

// The enroll stream must have run for the whole measurement.
void CheckStream(const SearchEnroll& bench, Report* report) {
  if (bench.ran_dry()) {
    report->Fail("search-enroll: the enroll stream ran out of new records "
                 "before the run ended");
  }
}

std::vector<int> FirstDistinct(const std::vector<int>& queries, size_t n) {
  std::vector<int> out;
  for (const int q : queries) {
    if (out.size() == n) {
      break;
    }
    if (std::find(out.begin(), out.end(), q) == out.end()) {
      out.push_back(q);
    }
  }
  return out;
}

}  // namespace

void RunSearchEnroll(const Args& args, Report* report) {
  SetupTimer setup_timer([&] { return BuildSetup(args.seed); });
  const std::unique_ptr<Setup> setup = setup_timer.Build(2);
  // The gallery keeps its own copy of the base records; the driver's copy
  // only primes the token counter of the traced run.
  TokenSeenCounter tokens;
  if (args.trace) {
    for (const data::Record& record : setup->base) {
      tokens.Prime(record);
    }
  }
  setup->base = {};
  SearchEnroll bench(args, *setup, report);
  bench.RunRung("warmup", kRefRate, kWarmupSeconds, false);
  bench.StartEnrolling();

  if (args.trace) {
    const double ref_seconds = args.seconds * 0.3;
    const RungOutcome plain =
        bench.RunRung("untraced", kRefRate, ref_seconds, false);
    std::vector<int> queries;
    const RungOutcome traced =
        bench.RunRung("traced", kRefRate, ref_seconds, true, &queries);
    bench.StopEnrolling();
    CheckStream(bench, report);
    ReportServeLayers(traced, report);
    const std::vector<Span> spans = bench.tracer()->Spans();
    const std::vector<double> search_ms = DurationsMs(spans, "gallery.Search");
    report->Metric("gallery.search_ms.p50", Percentile(search_ms, 50.0), "ms");
    report->Metric("gallery.search_ms.p99", Percentile(search_ms, 99.0), "ms");
    report->Metric("gallery.enroll_ms.p99",
                   Percentile(bench.EnrollCallMs(), 99.0), "ms");
    report->Metric("trace.overhead_share",
                   Percentile(traced.latencies_ms, 50.0) /
                           Percentile(plain.latencies_ms, 50.0) -
                       1.0,
                   "ratio");
    report->Metric("trace.unattributed_share",
                   UnattributedShare(spans, "request"), "ratio");

    // Token reuse of the enroll stream against the enrolled gallery.
    for (int64_t r = 0; r < bench.enrolled(); ++r) {
      tokens.Add(setup->stream[static_cast<size_t>(r)]);
    }
    report->Metric("text.token_seen_share", tokens.SeenShare(), "ratio");

    // Offline re-rank of probe hits, and the (query, candidate) pairs the
    // re-rank scores, for the core/text/nn layer measurements.
    const std::vector<int> sample = FirstDistinct(queries, kRecallQueries);
    std::vector<double> rerank_ms;
    data::PairDataset pairs(setup->gallery->schema());
    for (const int q : sample) {
      const data::Record& query = setup->queries[static_cast<size_t>(q)];
      auto hits = setup->gallery->Search(query, kProbeK);
      if (!hits.ok()) {
        report->Fail("search-enroll: probe failed");
        break;
      }
      for (const gallery::Candidate& hit : hits.value()) {
        data::LabeledPair pair;
        pair.left = query;
        pair.right = setup->gallery->GetRecord(hit.index).value();
        pairs.Add(std::move(pair));
      }
      const int64_t t0 = NowNs();
      auto ranked = gallery::RerankCandidates(*setup->model, *setup->gallery,
                                              query, hits.value(), kK);
      const int64_t t1 = NowNs();
      bench.tracer()->Record("gallery.RerankCandidates",
                             bench.tracer()->NewId(), 0, t0, t1);
      rerank_ms.push_back(MsBetween(t0, t1));
      if (!ranked.ok()) {
        report->Fail("search-enroll: RerankCandidates failed");
      }
    }
    report->Metric("gallery.rerank_ms.p50", Percentile(rerank_ms, 50.0), "ms");
    LayerInputs layers;
    layers.model = &setup->model->trained();
    layers.pairs = &pairs;
    layers.batch = static_cast<int>(
        std::lround(static_cast<double>(traced.stats.pairs_scored) /
                    std::max<int64_t>(1, traced.stats.batches)));
    MeasureLayers(layers, bench.tracer(), report);
    if (!args.out_dir.empty() &&
        !bench.tracer()->WriteJsonl(args.out_dir + "/search-enroll-seed" +
                                    std::to_string(args.seed) +
                                    ".spans.jsonl")) {
      report->Fail("search-enroll: cannot write the span file");
    }
    QuietCheck(&bench, *setup, FirstDistinct(queries, kQuietQueries), report);
    return;
  }

  // Reference phases are spread between the ladder's rungs, so a slow
  // spell of the host moves a minority of them.
  std::vector<int> queries;
  std::vector<RungOutcome> refs;
  const auto reference = [&] {
    if (refs.size() < kRefPhases) {
      refs.push_back(bench.RunRung("reference" + std::to_string(refs.size()),
                                   kRefRate, kRefPhaseSeconds, false,
                                   &queries));
    }
  };
  reference();
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
  bench.StopEnrolling();
  CheckStream(bench, report);

  PhaseCounts enroll;
  enroll.phase = "enroll-stream";
  enroll.attempted = static_cast<int64_t>(bench.EnrollCallMs().size());
  enroll.failed = bench.enroll_failures();
  enroll.completed = enroll.attempted - enroll.failed;
  report->Phase(enroll);
  report->CountAttempted(enroll.attempted);
  report->CountFailed(enroll.failed);

  const double recall =
      ProbeRecall(*setup->gallery, setup->queries,
                  FirstDistinct(queries, kRecallQueries), report);
  QuietCheck(&bench, *setup, FirstDistinct(queries, kQuietQueries), report);

  const ReferenceLatency latency = SummarizeReference(refs);
  report->Metric(kSetupS, setup_timer.MedianSeconds(report), "s");
  report->Metric(kHeapMb, heap_mb, "MB");
  report->Metric(kP50Ms, latency.p50_ms, "ms");
  report->Metric(kTailMs, latency.tail_ms, "ms");
  report->Metric(kMaxRate, max_rate, "1/s");
  report->Metric(kQuality, recall, "ratio");
  report->Detail("reference_latency_ms", latency.detail_json);
  report->Detail("reference_rate", JsonNumber(kRefRate));
  report->Detail("latency_limit_ms", JsonNumber(kLimit.ms));
  report->Detail("latency_limit_percentile", JsonNumber(kLimit.percentile));
  report->Detail("enroll_ms", SummaryJson(Summarize(bench.EnrollCallMs())));
  report->Detail("gallery_records", std::to_string(setup->gallery->size()));
  report->Detail("gen_late_ms", SummaryJson(Summarize(refs[0].late_ms)));
}

}  // namespace perfbench
