#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

// In-memory spans for the traced run. Spans are recorded only by the
// benchmark's own code, around calls into a layer's public functions (or
// reconstructed from timestamps a response carries); they are kept in memory
// and written out once, when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t trace_id = 0;  // shared by every span of one request
  int64_t id = 0;        // unique within the run
  int64_t parent = 0;    // id of the span that caused it; 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of `parent`: its duration minus the part of [start, end] that
/// the union of `children` covers (children are clipped to the parent;
/// overlapping children are not double-counted).
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

/// Thread-safe span sink. Disabled tracers record nothing and hand out id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh id, unique among span and trace ids of this tracer, so a
  /// parent's id can be handed to children recorded before it.
  int64_t NewId();

  /// Records a finished span.
  void Add(Span span);

  /// Records a finished span with a fresh id and returns the id.
  int64_t Record(const std::string& name, int64_t trace_id, int64_t parent,
                 int64_t start_ns, int64_t end_ns);

  std::vector<Span> Spans() const;

  /// Writes one JSON object per span to `path`. Returns false on IO error.
  bool WriteJsonl(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

/// Per-trace attribution over a set of spans: for each trace whose root span
/// is named `root_name`, the root's self time (time no child span covers) and
/// its duration. Returns (sum of root self time) / (sum of root duration).
double UnattributedShare(const std::vector<Span>& spans,
                         const std::string& root_name);

/// Durations in milliseconds of every span named `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
