#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// explore, escalate and fanout: read-only SkyServer workloads whose bounds
/// are stated with ERROR/CONFIDENCE/EXACT only, so the answering layer is a
/// function of seed and query (sky.cc).
RunResult RunSkyWorkload(const Args& args);

/// ingest: open-loop persistent ingest into a windowed table beside
/// closed-loop budgeted queries, all through one loopback server
/// (ingest.cc).
RunResult RunIngestWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
