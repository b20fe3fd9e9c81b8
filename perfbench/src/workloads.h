// The three workloads. Each appends its metrics, attempt counts and any
// correctness mismatch to `report`; with tracing on it reports the
// per-layer metrics of the traced run instead of the end-to-end ones.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"

namespace perfbench {

/// serve_read (`writes` false) and serve_write (`writes` true).
void RunServe(const Args& args, const World& world, bool writes,
              Tracer* tracer, Report* report);

/// cluster_offline.
void RunClusterOffline(const Args& args, const World& world, Tracer* tracer,
                       Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
