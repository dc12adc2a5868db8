// The three workloads. Each generates its inputs from the run's seed into
// the work directory, sets up (several times, for a median), computes its
// references outside every timed window, then measures for the run's
// seconds (see Measure in common.h for the primary and ride-along ops).
// Returns false when set-up itself failed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

// Nightly supervisory run, one thread: full chases of three applications
// alternating with durable (checkpoint + resume) chases.
bool RunBatch(Run* run, double* peak_rss_mb);

// Analyst desks against the daemon: closed-loop HTTP clients over loopback
// against an in-process TemplexServer.
bool RunServe(Run* run, double* peak_rss_mb);

// One-shot CLI-style analyst sessions, one thread: query-driven point
// queries with an explanation, alternating with what-if shocks with
// explanations under the scenario.
bool RunAnalyst(Run* run, double* peak_rss_mb);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
