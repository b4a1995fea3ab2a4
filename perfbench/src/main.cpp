/// perfbench: the repository benchmark's measuring process. One run is one
/// self-contained process (so runs of two builds can be interleaved):
///
///   perfbench <batch_fit|stream_catchup|serve_mixed> --seed N --seconds S
///             --trace 0|1 --work-dir DIR --iuad-main PATH
///             [--scale full|tiny] [--corrupt-oracle 1]
///
/// The last stdout line is the JSON result: end-to-end metrics with
/// --trace 0, per-layer metrics (plus a Chrome trace-event file in the work
/// directory) with --trace 1. perfbench/run.py builds and drives it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <workload> [--flag value]...\n");
    return 2;
  }
  Args args;
  args.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--iuad-main") {
      args.iuad_main = value;
    } else if (key == "--scale") {
      args.scale = std::strcmp(value, "tiny") == 0 ? Scale::kTiny : Scale::kFull;
    } else if (key == "--corrupt-oracle") {
      args.corrupt_oracle = std::atoi(value) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  mkdir(args.work_dir.c_str(), 0755);

  Tracer tracer(args.trace);
  Report report;
  int rc = 0;
  if (args.workload == "batch_fit") {
    rc = RunBatchFit(args, &tracer, &report);
  } else if (args.workload == "stream_catchup") {
    rc = RunStreamCatchup(args, &tracer, &report);
  } else if (args.workload == "serve_mixed") {
    rc = RunServeMixed(args, &tracer, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;

  report.Set("success_rate",
             report.attempted > 0
                 ? static_cast<double>(report.attempted - report.failed) /
                       static_cast<double>(report.attempted)
                 : 0.0,
             "ratio");
  report.correct = report.failed == 0;
  if (args.trace) {
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  report.Print(args.workload, args.trace);
  return 0;
}
