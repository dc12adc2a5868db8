// `analyst`: one-shot CLI-style sessions on one thread.
#include <algorithm>
#include <map>

#include "apps/glossaries.h"
#include "datalog/parser.h"
#include "engine/query_planner.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Desk {
  std::unique_ptr<App> ownership, stress;
};

// One RunForQuery: its parsed goal, its execution, elapsed ms, and whether
// the answers checked out.
struct QueryRun {
  Result<Fact> goal;
  Result<App::QueryExecution> execution;
  double ms;
  bool ok;
};

bool Deploy(Run* run, Desk* desk) {
  const std::string& dir = run->args.work_dir;
  Result<Program> cc = LoadProgram(run, "company_control.vada");
  Result<Program> st = LoadProgram(run, "stress_test.vada");
  Result<std::vector<Fact>> cc_facts = LoadCsv(run, dir + "/ownership.csv");
  Result<std::vector<Fact>> st_facts = LoadCsv(run, dir + "/stress.csv");
  if (!cc.ok() || !st.ok() || !cc_facts.ok() || !st_facts.ok()) {
    run->Problem("analyst set-up: cannot load programs or facts");
    return false;
  }
  auto ownership = CreateApp(run, std::move(cc).value(),
                             templex::CompanyControlGlossary(),
                             std::move(cc_facts).value());
  auto stress = CreateApp(run, std::move(st).value(),
                          templex::StressTestGlossary(),
                          std::move(st_facts).value());
  if (!ownership.ok() || !stress.ok()) {
    run->Problem("analyst set-up: cannot create the applications");
    return false;
  }
  desk->ownership = std::move(ownership).value();
  desk->stress = std::move(stress).value();
  return true;
}

}  // namespace

bool RunAnalyst(Run* run, double* peak_rss_mb) {
  const Args& args = run->args;
  GroupedOptions shape{400, 3};
  DebtOptions debt{1000, 10, 4, 2, 3, 16};
  int pool_size = 64;
  if (args.tiny) {
    shape = {20, 2};
    debt = {120, 2, 2, 2, 2, 4};
    pool_size = 8;
  }
  const OwnershipKg own_kg = GroupedNationalKg(shape, args.seed);
  const DebtKg debt_kg = DebtNetwork(debt, args.seed);
  if (!WriteFile(args.work_dir + "/ownership.csv", OwnershipCsv(own_kg)) ||
      !WriteFile(args.work_dir + "/stress.csv", DebtCsv(debt_kg))) {
    run->Problem("cannot write the generated CSVs");
    return false;
  }

  // Set-up: deploy both applications and chase the stress-test baseline the
  // what-ifs diff against. Timed once here and again in every ride-along
  // (a fresh deployment), so its median samples the whole run.
  Desk desk;
  int64_t stress_derived = -1;
  auto deploy = [&](Desk* into) {
    const Clock::time_point start = Clock::now();
    if (!Deploy(run, into)) return false;
    const double chase_ms =
        TimedChase(run, into->stress.get(), "engine.chase.stress_test");
    run->setup_s.push_back(MsSince(start) / 1000.0);
    bool ok = chase_ms >= 0;
    if (ok) {
      if (stress_derived < 0) {
        stress_derived = into->stress->chase().stats.derived_facts;
      }
      ok = into->stress->chase().stats.derived_facts == stress_derived;
    }
    run->Op(kChase, chase_ms, ok, "stress-test baseline chase");
    return true;
  };
  run->tracer.set_enabled(args.trace);
  if (!deploy(&desk)) return false;
  run->tracer.set_enabled(false);

  // References, outside every timed window: the independent control
  // closure for answers, a full materialization for explanation text, full
  // chases for the what-ifs.
  const std::vector<std::vector<int>> control = ControlSets(own_kg);
  const ControlPools pools = MakeControlPools(own_kg, control, pool_size);
  std::vector<GoalQuery> lookups;
  for (const Fact& fact : pools.explains) {
    lookups.push_back({"Control(" + fact.args[0].string_value() + ", " +
                           fact.args[1].string_value() + ")",
                       {fact.ToString()}});
  }
  std::map<std::string, std::string> explanations;
  {
    Result<Program> program = LoadProgram(run, "company_control.vada");
    if (!program.ok()) return false;
    auto full = CreateApp(run, std::move(program).value(),
                          templex::CompanyControlGlossary(),
                          desk.ownership->facts());
    if (!full.ok() || !full.value()->Run().ok()) {
      run->Problem("analyst reference: full materialization failed");
      return false;
    }
    auto remember = [&](const Fact& fact) {
      Result<std::string> text = full.value()->Explain(fact);
      explanations[fact.ToString()] =
          text.ok() ? text.value() : "<no explanation>";
    };
    for (const Fact& fact : pools.explains) remember(fact);
  }
  const std::vector<std::vector<std::string>> whatif_expected =
      StressWhatIfReference(run, desk.stress->explainer().program(),
                            desk.stress->facts(), debt_kg);
  if (whatif_expected.size() != debt_kg.whatif_shocks.size()) return false;

  Cycle lookup_cycle(lookups.size());
  Cycle enumerate_cycle(pools.enumerations.size());
  Cycle whatif_cycle(debt_kg.whatif_shocks.size());

  // RunForQuery on the CLI goal text against `app`, recorded as a `kind`
  // op.
  auto run_for_query = [&](App* app, Kind kind, const GoalQuery& q) {
    const Clock::time_point start = Clock::now();
    Tracer::Span span(&run->tracer, "engine.query.run_for_query");
    Result<Fact> goal = ParseGoal(q.text);
    Result<App::QueryExecution> execution =
        goal.ok() ? app->RunForQuery(goal.value())
                  : Result<App::QueryExecution>(goal.status());
    const double ms = MsSince(start);
    span.End();
    const bool ok =
        execution.ok() && Sorted(execution.value().answers) == q.expected;
    run->Op(kind, ms, ok, q.text);
    return QueryRun{std::move(goal), std::move(execution), ms, ok};
  };

  // A point session: a fully bound RunForQuery, then Explain of its answer.
  auto point_session = [&](const GoalQuery& q) {
    const QueryRun point = run_for_query(desk.ownership.get(), kLookup, q);
    double busy = point.ms;
    if (point.ok && !point.execution.value().answers.empty()) {
      const Fact& fact = point.execution.value().answers.front();
      double explain_ms = 0;
      Result<std::string> text =
          TimedExplain(run, *desk.ownership, fact, &explain_ms);
      auto it = explanations.find(fact.ToString());
      run->Op(kExplain, explain_ms,
              text.ok() && it != explanations.end() &&
                  it->second == text.value(),
              fact.ToString());
      busy += explain_ms;
    }
    run->Primary(busy);
    if (!run->tracing() || !point.ok) return;
    // Split the point query from outside: the planner alone, the rest is
    // evaluation over the relevant EDB.
    const templex::Program& program = desk.ownership->explainer().program();
    const auto& stats = point.execution.value().stats;
    Tracer::Span plan_span(&run->tracer, "engine.query.plan");
    const templex::QueryPlan plan = templex::PlanQuery(
        program, desk.ownership->facts(), point.goal.value(),
        templex::EvalMode::kAuto);
    const double plan_ms = plan_span.End();
    run->Count("engine.query.plan_us", plan_ms * 1000.0);
    run->Count("engine.query.evaluate_ms", point.ms - plan_ms);
    run->Count("engine.query.qsqr_share",
               plan.mode == templex::EvalMode::kQsqr ? 1.0 : 0.0);
    const double edb =
        static_cast<double>(std::max<int64_t>(1, stats.edb_facts));
    run->Count("engine.query.relevant_edb_ratio",
               stats.query_driven
                   ? static_cast<double>(stats.relevant_edb_facts) / edb
                   : 1.0);
  };

  // Sessions alternate: a point session, then a what-if session
  // (WhatIf({Shock}), then ExplainUnder on each new Default).
  int64_t session = 0;
  auto primary = [&](Clock::time_point end) {
    do {
      Tracer::Span span(&run->tracer, "analyst.session");
      if (session++ % 2 == 0) {
        point_session(lookups[lookup_cycle.Next()]);
      } else {
        const size_t k = whatif_cycle.Next();
        run->Primary(WhatIfOp(run, *desk.stress,
                              ShockFact(debt_kg, debt_kg.whatif_shocks[k]),
                              whatif_expected[k], "Default"));
      }
    } while (Clock::now() < end);
  };

  // Ride-along, per slice (assumed sample sizes, not a rate of the desks):
  // one baseline refresh, a fresh deployment (timed as set-up, its
  // baseline chase as a chase op) and a durable run of the stress
  // baseline; every other slice a half-bound RunForQuery(Control(a, _))
  // enumeration on the fresh deployment. A CLI session answers one goal
  // per process, so the enumeration runs on its own application: on the
  // sessions' one, the next point query paid for freeing its full
  // materialization (a 3 s run's lookup p50 read ≈100 ms, not ≈20 ms).
  // The host's speed drifts over seconds, so a metric's median settles
  // only when its samples come from many points of the run: with the
  // refreshes in bursts of four after each of 8 slices, the baseline chase
  // p50 spread 34% over five runs.
  int64_t slice = 0;
  auto ride_along = [&] {
    Tracer::Span span(&run->tracer, "analyst.ride_along");
    {
      Desk fresh;
      deploy(&fresh);
      if (slice++ % 2 == 0 && fresh.ownership != nullptr) {
        run_for_query(fresh.ownership.get(), kEnumerate,
                      pools.enumerations[enumerate_cycle.Next()]);
      }
    }
    bool ok = false;
    const double durable_ms = DurableChases(
        run, {{&desk.stress->explainer().program(), &desk.stress->facts(),
               stress_derived}},
        args.work_dir + "/ckpt", &ok);
    run->Op(kDurable, durable_ms, ok, "durable stress-test baseline");
  };
  Measure(run, 64, primary, ride_along);
  *peak_rss_mb = PeakRssMb();
  return true;
}

}  // namespace perfbench
