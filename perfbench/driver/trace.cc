#include "driver/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> covered;
  covered.reserve(children.size());
  for (const Span& child : children) {
    const int64_t lo = std::max(child.start_ns, parent.start_ns);
    const int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) {
      covered.emplace_back(lo, hi);
    }
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t run_lo = 0;
  int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) {
      union_ns += run_hi - run_lo;
    }
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) {
    union_ns += run_hi - run_lo;
  }
  return std::max<int64_t>(0, parent.end_ns - parent.start_ns) - union_ns;
}

int64_t Tracer::NewId() {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Add(Span span) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

int64_t Tracer::Record(const std::string& name, int64_t trace_id,
                       int64_t parent, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.id = NewId();
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  const int64_t id = span.id;
  Add(std::move(span));
  return id;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const Span& span : Spans()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"trace\":%lld,\"id\":%lld,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 span.name.c_str(), static_cast<long long>(span.trace_id),
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

double UnattributedShare(const std::vector<Span>& spans,
                         const std::string& root_name) {
  std::unordered_map<int64_t, std::vector<Span>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].push_back(span);
    }
  }
  double self = 0.0;
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.parent != 0 || span.name != root_name) {
      continue;
    }
    const auto it = children.find(span.id);
    self += static_cast<double>(SelfTimeNs(
        span, it == children.end() ? std::vector<Span>{} : it->second));
    total += static_cast<double>(span.end_ns - span.start_ns);
  }
  return total > 0.0 ? self / total : 0.0;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

}  // namespace perfbench
