// `batch`: the nightly supervisory run.
#include <map>

#include "apps/glossaries.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Nightly {
  std::unique_ptr<App> control, stress, links;
};

// Parses the three programs, loads the three CSVs, deploys the apps.
bool Deploy(Run* run, Nightly* night) {
  const std::string& dir = run->args.work_dir;
  Result<Program> cc = LoadProgram(run, "company_control.vada");
  Result<Program> st = LoadProgram(run, "stress_test.vada");
  Result<Program> cl = LoadProgram(run, "close_links.vada");
  Result<std::vector<Fact>> cc_facts = LoadCsv(run, dir + "/dense.csv");
  Result<std::vector<Fact>> st_facts = LoadCsv(run, dir + "/debt.csv");
  Result<std::vector<Fact>> cl_facts = LoadCsv(run, dir + "/dag.csv");
  if (!cc.ok() || !st.ok() || !cl.ok() || !cc_facts.ok() || !st_facts.ok() ||
      !cl_facts.ok()) {
    run->Problem("batch set-up: cannot load programs or facts");
    return false;
  }
  auto control = CreateApp(run, std::move(cc).value(),
                           templex::CompanyControlGlossary(),
                           std::move(cc_facts).value());
  auto stress = CreateApp(run, std::move(st).value(),
                          templex::StressTestGlossary(),
                          std::move(st_facts).value());
  auto links = CreateApp(run, std::move(cl).value(),
                         templex::CloseLinksGlossary(),
                         std::move(cl_facts).value());
  if (!control.ok() || !stress.ok() || !links.ok()) {
    run->Problem("batch set-up: cannot create the applications");
    return false;
  }
  night->control = std::move(control).value();
  night->stress = std::move(stress).value();
  night->links = std::move(links).value();
  return true;
}

}  // namespace

bool RunBatch(Run* run, double* peak_rss_mb) {
  const Args& args = run->args;
  DenseOptions dense;
  DebtOptions debt;
  DagOptions dag;
  if (args.tiny) {
    dense = {2, 20, 3};
    debt = {200, 4, 2, 2, 2, 4};
    dag = {4, 5, 2};
  }
  const OwnershipKg cc_kg = DenseOwnershipNetwork(dense, args.seed);
  const DebtKg st_kg = DebtNetwork(debt, args.seed);
  const OwnershipKg cl_kg = OwnershipDag(dag, args.seed);
  if (!WriteFile(args.work_dir + "/dense.csv", OwnershipCsv(cc_kg)) ||
      !WriteFile(args.work_dir + "/debt.csv", DebtCsv(st_kg)) ||
      !WriteFile(args.work_dir + "/dag.csv", OwnershipCsv(cl_kg))) {
    run->Problem("cannot write the generated CSVs");
    return false;
  }

  // Set-up is timed once here and again in every ride-along (a fresh
  // deployment, then discarded), so its median samples the whole run.
  auto deploy = [&](Nightly* into) {
    const Clock::time_point start = Clock::now();
    if (!Deploy(run, into)) return false;
    run->setup_s.push_back(MsSince(start) / 1000.0);
    return true;
  };
  run->tracer.set_enabled(args.trace);
  Nightly night;
  if (!deploy(&night)) return false;
  run->tracer.set_enabled(false);

  // References, outside every timed window.
  const std::vector<std::vector<int>> control = ControlSets(cc_kg);
  const std::vector<std::string> control_facts = ControlFacts(cc_kg, control);
  const std::vector<bool> defaulted = Defaults(st_kg, {});
  std::vector<Fact> default_facts;
  for (size_t i = 0; i < defaulted.size(); ++i) {
    if (defaulted[i]) {
      default_facts.push_back(MakeFact("Default", {st_kg.names[i]}));
    }
  }
  const std::vector<std::string> expected_defaults = Sorted(default_facts);
  const CloseLinkReference links = CloseLinks(cl_kg);
  std::vector<Fact> link_facts;
  for (const auto& [x, y] : links.close_links) {
    link_facts.push_back(
        MakeFact("CloseLink", {cl_kg.names[x], cl_kg.names[y]}));
  }
  const std::vector<std::string> expected_links = Sorted(link_facts);
  const int64_t links_derived =
      links.int_own_facts + static_cast<int64_t>(links.close_links.size());
  const std::vector<std::vector<std::string>> whatif_expected =
      StressWhatIfReference(run, night.stress->explainer().program(),
                            night.stress->facts(), st_kg);
  if (whatif_expected.size() != st_kg.whatif_shocks.size()) return false;
  const ControlPools pools =
      MakeControlPools(cc_kg, control, args.tiny ? 8 : 64);
  // The stress test's derived count includes engine-ordered partial sums
  // (Risk facts), so the first chase pins it for the rest of the run.
  int64_t stress_derived = -1;
  std::map<std::string, std::string> explained;  // pinned by first render

  Cycle lookup_cycle(pools.lookups.size());
  Cycle enumerate_cycle(pools.enumerations.size());
  Cycle explain_cycle(pools.explains.size());
  Cycle whatif_cycle(st_kg.whatif_shocks.size());
  std::vector<Fact> answers;

  auto chase_job = [&] {
    Tracer::Span job(&run->tracer, "batch.chase_job");
    const double cc_ms = TimedChase(run, night.control.get(),
                                    "engine.chase.company_control");
    const double st_ms =
        TimedChase(run, night.stress.get(), "engine.chase.stress_test");
    const double cl_ms =
        TimedChase(run, night.links.get(), "engine.chase.close_links");
    const double ms = cc_ms + st_ms + cl_ms;
    bool ok = cc_ms >= 0 && st_ms >= 0 && cl_ms >= 0;
    if (ok) {
      const ChaseResult& st = night.stress->chase();
      if (stress_derived < 0) stress_derived = st.stats.derived_facts;
      const ChaseResult& cc = night.control->chase();
      const ChaseResult& cl = night.links->chase();
      ok = Sorted(cc.FactsOf("Control")) == control_facts &&
           Sorted(st.FactsOf("Default")) == expected_defaults &&
           st.stats.derived_facts == stress_derived &&
           Sorted(cl.FactsOf("CloseLink")) == expected_links &&
           cl.stats.derived_facts == links_derived;
    }
    run->Op(kChase, ms, ok, "three full chases");
    run->Primary(ms);
  };

  // The stress test's expected count is the one the first chase pinned.
  std::vector<DurableJob> jobs = {
      {&night.control->explainer().program(), &night.control->facts(),
       static_cast<int64_t>(control_facts.size())},
      {&night.stress->explainer().program(), &night.stress->facts(), -1},
      {&night.links->explainer().program(), &night.links->facts(),
       links_derived}};
  auto durable_job = [&] {
    Tracer::Span span(&run->tracer, "batch.durable_job");
    jobs[1].expected_derived = stress_derived;
    bool ok = false;
    const double ms = DurableChases(run, jobs, args.work_dir + "/ckpt", &ok);
    run->Op(kDurable, ms, ok, "three durable chases");
    run->Primary(ms);
  };

  // The ride-along's point ops run in groups of kGroup consecutive ops of
  // one kind, and each op records its group's mean latency. A nightly
  // report has no per-request user, and the tail of single ~0.05 ms ops
  // follows the host's cache contention: timed one by one, the lookup p90
  // spread 32% over ten runs. `op(&ok, &what)` runs one op and returns its
  // elapsed ms.
  constexpr int kGroup = 8;
  auto group = [&](Kind kind, auto op) {
    double ms = 0;
    bool ok[kGroup];
    std::string what[kGroup];
    for (int j = 0; j < kGroup; ++j) ms += op(&ok[j], &what[j]);
    for (int j = 0; j < kGroup; ++j) run->Op(kind, ms / kGroup, ok[j], what[j]);
  };
  auto lookup = [&](bool* ok, std::string* what) {
    const GoalQuery& q = pools.lookups[lookup_cycle.Next()];
    *what = q.text;
    return QueryInProcess(run, *night.control, q, &answers, ok);
  };
  auto enumerate = [&](bool* ok, std::string* what) {
    const GoalQuery& q = pools.enumerations[enumerate_cycle.Next()];
    *what = q.text;
    return QueryInProcess(run, *night.control, q, &answers, ok);
  };
  auto explain = [&](bool* ok, std::string* what) {
    const Fact& fact = pools.explains[explain_cycle.Next()];
    *what = fact.ToString();
    double ms = 0;
    Result<std::string> text = TimedExplain(run, *night.control, fact, &ms);
    *ok = text.ok() && !text.value().empty();
    if (*ok) {
      auto [it, fresh] = explained.emplace(*what, text.value());
      *ok = fresh || it->second == text.value();
    }
    return ms;
  };

  // Ride-along, per slice (assumed sample sizes, not a rate of a nightly
  // run): a fresh deployment timed as set-up, then discarded; 32 lookups
  // and 32 explanations, 16 enumerations and 1 what-if shock over the
  // latest chase job's materializations. The run has 32 slices, so that a
  // host hiccup during one slice's burst of point ops hits little of their
  // sample.
  auto ride_along = [&] {
    Tracer::Span span(&run->tracer, "batch.ride_along");
    {
      Nightly fresh;
      deploy(&fresh);
    }
    for (int i = 0; i < 4; ++i) {
      group(kLookup, lookup);
      group(kExplain, explain);
      if (i % 2 == 0) group(kEnumerate, enumerate);
    }
    const size_t k = whatif_cycle.Next();
    WhatIfOp(run, *night.stress, ShockFact(st_kg, st_kg.whatif_shocks[k]),
             whatif_expected[k], "Default");
  };

  // Jobs alternate over the whole run, chase first: the ride-along reads
  // the materializations of the latest chase job.
  int64_t job = 0;
  Measure(
      run, 32,
      [&](Clock::time_point end) {
        do {
          if (job++ % 2 == 0) {
            chase_job();
          } else {
            durable_job();
          }
        } while (Clock::now() < end);
      },
      ride_along);
  *peak_rss_mb = PeakRssMb();
  return true;
}

}  // namespace perfbench
