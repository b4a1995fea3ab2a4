#ifndef IUAD_PERFBENCH_WORKLOADS_H_
#define IUAD_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Each workload sets up its inputs from args.seed, measures for
/// args.seconds, checks the program's outputs, and fills `report`. A
/// non-zero return means the run could not be set up at all; wrong or
/// failed operations are counted in report->failed instead.
int RunBatchFit(const Args& args, Tracer* tracer, Report* report);
int RunStreamCatchup(const Args& args, Tracer* tracer, Report* report);
int RunServeMixed(const Args& args, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // IUAD_PERFBENCH_WORKLOADS_H_
