#include "driver/common.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <thread>

#include "common/parallel.h"
#include "nn/kernels/kernels.h"
#include "obs/telemetry.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

// A "Vm...:" line of /proc/self/status, in MiB.
double StatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t length = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, length, key) == 0) {
      return std::atof(line.c_str() + length) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM:"); }

double RssMb() { return StatusMb("VmRSS:"); }

double LiveHeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1048576.0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string SummaryJson(const Summary& summary) {
  return "{\"median\":" + JsonNumber(summary.median) +
         ",\"tail\":" + JsonNumber(summary.tail) +
         ",\"tail_percentile\":" + JsonNumber(summary.tail_percentile) +
         ",\"n\":" + std::to_string(summary.n) + "}";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Detail(const std::string& key, const std::string& json_value) {
  details_.push_back({key, json_value});
}

void Report::Phase(const PhaseCounts& counts) { phases_.push_back(counts); }

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
  errors_.push_back(what);
}

std::string Report::DetailJson(const Args& args) const {
  std::ostringstream out;
  out << "{\"provenance\":{"
      << "\"git_sha\":" << JsonString(args.git_sha)
      << ",\"git_dirty\":" << JsonString(args.git_dirty)
      << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << JsonString(PERFBENCH_COMPILER)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"pool_threads\":" << adamel::NumThreads()
      << ",\"kernel_backend\":"
      << JsonString(adamel::nn::kernels::IsaName(
             adamel::nn::kernels::ActiveIsa()))
      << ",\"telemetry\":"
      << (adamel::obs::kTelemetryEnabled ? "true" : "false")
      << ",\"workload\":" << JsonString(args.workload)
      << ",\"seed\":" << args.seed
      << ",\"seconds\":" << JsonNumber(args.seconds)
      << ",\"trace\":" << (args.trace ? "true" : "false") << "}";
  out << ",\"phases\":[";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const PhaseCounts& p = phases_[i];
    out << (i ? "," : "") << "{\"phase\":" << JsonString(p.phase)
        << ",\"attempted\":" << p.attempted << ",\"completed\":" << p.completed
        << ",\"shed\":" << p.shed << ",\"deadline_missed\":"
        << p.deadline_missed << ",\"failed\":" << p.failed << "}";
  }
  out << "],\"details\":{";
  for (size_t i = 0; i < details_.size(); ++i) {
    out << (i ? "," : "") << JsonString(details_[i].first) << ":"
        << details_[i].second;
  }
  out << "},\"errors\":[";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out << (i ? "," : "") << JsonString(errors_[i]);
  }
  out << "]}";
  return out.str();
}

std::string Report::ResultJson() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? "," : "") << JsonString(metrics_[i].first)
        << ":{\"value\":" << JsonNumber(metrics_[i].second.first)
        << ",\"unit\":" << JsonString(metrics_[i].second.second) << "}";
  }
  out << "}}";
  return out.str();
}

bool BitEqual(float a, float b) {
  uint32_t x = 0;
  uint32_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

void TokenSeenCounter::Visit(const data::Record& record, bool count) {
  for (const std::string& value : record.values) {
    for (std::string& token : tokenizer_.Tokenize(value)) {
      const bool fresh = seen_.insert(std::move(token)).second;
      if (count) {
        ++total_;
        repeated_ += fresh ? 0 : 1;
      }
    }
  }
}

void TokenSeenCounter::Add(const data::Record& record) { Visit(record, true); }

void TokenSeenCounter::Add(const data::PairDataset& pairs) {
  for (const data::LabeledPair& pair : pairs.pairs()) {
    Visit(pair.left, true);
    Visit(pair.right, true);
  }
}

void TokenSeenCounter::Prime(const data::Record& record) {
  Visit(record, false);
}

double TokenSeenCounter::SeenShare() const {
  return total_ > 0 ? static_cast<double>(repeated_) / total_ : 0.0;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
