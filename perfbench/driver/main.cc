// perfbench driver: runs one workload and prints a detail line (provenance,
// phase counts, sample summaries) and then the result line:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// Usage: perfbench_driver --workload score-open|search-enroll|fit-hyb
//          --seed N --seconds S --trace 0|1 [--out_dir DIR]
//          [--git_sha SHA] [--git_dirty 0|1|unknown]
// Exits 0 when every correctness check passed, 1 when one failed, 2 on a
// usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver/common.h"
#include "driver/workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out_dir") {
      args->out_dir = value;
    } else if (flag == "--git_sha") {
      args->git_sha = value;
    } else if (flag == "--git_dirty") {
      args->git_dirty = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out_dir DIR]\n");
    return 2;
  }
  perfbench::Report report;
  if (args.workload == "score-open") {
    perfbench::RunScoreOpen(args, &report);
  } else if (args.workload == "search-enroll") {
    perfbench::RunSearchEnroll(args, &report);
  } else if (args.workload == "fit-hyb") {
    perfbench::RunFitHyb(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\n%s\n", report.DetailJson(args).c_str(),
              report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
