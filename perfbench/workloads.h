// The benchmark's workloads. Each builds its inputs from the seed outside
// any timed region, measures for RunConfig::seconds, checks every output
// and returns its metrics; see README.md for why each workload exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

RunResult RunExactEmb(const RunConfig& config, Tracer* tracer);
RunResult RunLseiTypes(const RunConfig& config, Tracer* tracer);
RunResult RunServeChurn(const RunConfig& config, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
