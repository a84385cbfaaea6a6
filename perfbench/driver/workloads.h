#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include "driver/common.h"

namespace perfbench {

// Each workload builds its inputs from `args.seed`, measures for about
// `args.seconds`, checks its outputs, and fills `report` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).

/// Open-loop single- and 2-pair scoring through LinkageService::SubmitAsync.
void RunScoreOpen(const Args& args, Report* report);

/// Open-loop SearchAsync against an enrolled gallery while a second stream
/// enrolls new entities.
void RunSearchEnroll(const Args& args, Report* report);

/// AdaMEL-hyb fitted from scratch with the default configuration.
void RunFitHyb(const Args& args, Report* report);

/// Names of the end-to-end metrics every workload reports (see
/// perfbench/README.md for what each means per workload).
inline constexpr const char* kSetupS = "setup_s";
inline constexpr const char* kHeapMb = "heap_mb";
inline constexpr const char* kP50Ms = "p50_ms";
inline constexpr const char* kTailMs = "tail_ms";
inline constexpr const char* kMaxRate = "max_rate_per_s";
inline constexpr const char* kQuality = "quality";

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
