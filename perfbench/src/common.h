// Shared machinery of the three workloads: the run record, the library
// entry points wrapped in spans, and the output checks.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/application.h"
#include "engine/chase.h"
#include "explain/glossary.h"
#include "gen.h"
#include "trace.h"

namespace perfbench {

using templex::ChaseResult;
using templex::Fact;
using templex::KnowledgeGraphApplication;
using templex::Program;
using templex::Result;
using templex::Status;
using App = KnowledgeGraphApplication;

enum Kind { kChase, kDurable, kLookup, kEnumerate, kExplain, kWhatIf, kKinds };
extern const char* const kKindNames[kKinds];

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // smoke-test sizes
  std::string work_dir;
  std::string programs_dir = "perfbench/programs";
  std::string trace_out;  // Chrome trace JSON of a traced run
};

// Everything one run measures.
struct Run {
  explicit Run(const Args& a) : args(a) {}

  // Records one op. Its latency counts only when its output checked out.
  void Op(Kind kind, double ms, bool ok, const std::string& what);
  // Primary ops (nightly jobs, analyst sessions, requests) and their busy
  // time, kept apart for untraced and traced phases.
  void Primary(double ms, int64_t ops = 1);
  void Problem(const std::string& what);
  void Count(const std::string& name, double value) {
    tracer.Count(name, value);
  }
  bool tracing() const { return tracer.enabled(); }
  // A chase config; traced runs attach `budget` for footprint accounting.
  templex::ChaseConfig Config(templex::MemoryBudget* budget) const;

  const Args& args;
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> latency_ms[kKinds];
  int64_t attempted[kKinds] = {};
  int64_t failed[kKinds] = {};
  int64_t primary_ops[2] = {};
  double primary_s[2] = {};
  int64_t problems = 0;
};

// ---- Library entry points, each under a span --------------------------------

Result<Program> LoadProgram(Run* run, const std::string& file);
Result<std::vector<Fact>> LoadCsv(Run* run, const std::string& path);
Result<std::unique_ptr<App>> CreateApp(Run* run, Program program,
                                       templex::DomainGlossary glossary,
                                       std::vector<Fact> facts);
// The CLI's goal syntax: a fact literal whose `_` arguments are wildcards.
Result<Fact> ParseGoal(const std::string& text);

// Runs the application's chase under `span`, recording the engine counters
// of a traced run. Returns the elapsed ms, or a negative value on failure.
double TimedChase(Run* run, App* app, const char* span);

// One durable job: the same chases with checkpointing into fresh
// directories under `dir`, then a resume from each. The resumed graph must
// equal the fresh one and the derived count `expected_derived`. Returns the
// elapsed ms of the timed part; sets *ok.
struct DurableJob {
  const Program* program;
  const std::vector<Fact>* facts;
  int64_t expected_derived;
};
double DurableChases(Run* run, const std::vector<DurableJob>& jobs,
                     const std::string& dir, bool* ok);

// Explain under a span, its elapsed ms in *ms; a traced run then replays
// the three public steps (find, proof extraction, rendering) to split it.
Result<std::string> TimedExplain(Run* run, const App& app, const Fact& fact,
                                 double* ms);

// The measurement. The run's seconds are cut into `slices` slices. Each
// slice runs `primary(end)`, the workload's own ops (the ones its ops_per_s
// counts), until the slice's deadline `end`, then `ride_along()`: a fixed
// sample of the ops the workload does not dominate, which it runs only so
// that every end-to-end metric prints, and which ops_per_s leaves out.
// Interleaving spreads every metric's samples over the whole run (the
// host's speed drifts over seconds). A traced run traces every other
// quarter (untraced, traced, untraced, traced), so drift over the run does
// not masquerade as tracing overhead; `slices` is a multiple of 4.
template <class Primary, class RideAlong>
void Measure(Run* run, int slices, Primary primary, RideAlong ride_along) {
  const Clock::time_point start = Clock::now();
  const std::chrono::duration<double> run_span(run->args.seconds);
  for (int slice = 0; slice < slices; ++slice) {
    run->tracer.set_enabled(run->args.trace && (slice * 4 / slices) % 2 == 1);
    primary(start + std::chrono::duration_cast<Clock::duration>(
                        run_span * (slice + 1) / slices));
    ride_along();
  }
  run->tracer.set_enabled(false);
}

// A goal in the CLI syntax with its expected answers (sorted).
struct GoalQuery {
  std::string text;
  std::vector<std::string> expected;
};

// Parses and answers `q` in process, as a CLI session or the server's
// handler does. Returns the elapsed ms; *answers gets the answers in engine
// order, *ok whether they equal q.expected.
double QueryInProcess(Run* run, const App& app, const GoalQuery& q,
                      std::vector<Fact>* answers, bool* ok);

// A what-if session: WhatIf({hypothetical}), then ExplainUnder on every new
// fact of `explain_predicate`. The new facts must equal `expected` (sorted)
// and every explanation must render. Records a kWhatIf op and returns its
// elapsed ms.
double WhatIfOp(Run* run, const App& app, const Fact& hypothetical,
              const std::vector<std::string>& expected,
              const std::string& explain_predicate);

// Request pools over a company-control KG, with expected answers from the
// independent reference (reference.h): fully bound lookups (three in four
// hold), half-bound enumerations, and derived facts to explain. Entities are
// drawn by their place in the generator's skeleton with a fixed draw, so
// every seed asks structurally the same questions (same proof lengths, same
// answer counts) about differently named and weighted instances: the
// latency distribution does not move with the seed.
struct ControlPools {
  std::vector<GoalQuery> lookups;
  std::vector<GoalQuery> enumerations;
  std::vector<Fact> explains;
};
ControlPools MakeControlPools(const OwnershipKg& kg,
                              const std::vector<std::vector<int>>& control,
                              int size);
// The Control facts of `control`, sorted.
std::vector<std::string> ControlFacts(
    const OwnershipKg& kg, const std::vector<std::vector<int>>& control);

// Expected new facts of each latent what-if shock of `kg`, from full chases
// of the EDB plus the shock; the new Default facts are cross-checked against
// the independent reference. Computed outside every timed window.
std::vector<std::vector<std::string>> StressWhatIfReference(
    Run* run, const Program& program, const std::vector<Fact>& facts,
    const DebtKg& kg);
Fact ShockFact(const DebtKg& kg, const std::pair<int, int64_t>& shock);

// ---- Output checks ----------------------------------------------------------

std::vector<std::string> Sorted(const std::vector<Fact>& facts);
Fact MakeFact(const std::string& predicate,
              const std::vector<std::string>& args);
bool SameGraph(const templex::ChaseGraph& a, const templex::ChaseGraph& b);
// Derived facts of `scenario` that `baseline` lacks, sorted.
std::vector<std::string> NewFacts(const ChaseResult& baseline,
                                  const ChaseResult& scenario);

// ---- Host and statistics ----------------------------------------------------

int64_t DirBytes(const std::string& dir);
double PeakRssMb();
double Median(std::vector<double> v);
// Linear-interpolated percentile, q in [0, 1]; 0 for no samples.
double Percentile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
