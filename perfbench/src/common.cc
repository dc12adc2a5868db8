#include "common.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/memory.h"
#include "datalog/parser.h"
#include "engine/proof.h"
#include "io/csv.h"
#include "reference.h"

namespace perfbench {

namespace fs = std::filesystem;

const char* const kKindNames[kKinds] = {"chase",     "durable", "lookup",
                                        "enumerate", "explain", "whatif"};

void Run::Op(Kind kind, double ms, bool ok, const std::string& what) {
  ++attempted[kind];
  if (ok) {
    latency_ms[kind].push_back(ms);
  } else {
    ++failed[kind];
    Problem(std::string(kKindNames[kind]) + " failed: " + what);
  }
}

void Run::Primary(double ms, int64_t ops) {
  const int traced = tracing() ? 1 : 0;
  primary_ops[traced] += ops;
  primary_s[traced] += ms / 1000.0;
}

void Run::Problem(const std::string& what) {
  // A handful is enough to diagnose; the counts carry the rest.
  if (problems++ < 8) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

templex::ChaseConfig Run::Config(templex::MemoryBudget* budget) const {
  templex::ChaseConfig config;
  if (tracing()) config.budget = budget;
  return config;
}

Result<Program> LoadProgram(Run* run, const std::string& file) {
  Result<std::string> text =
      templex::ReadFileToString(run->args.programs_dir + "/" + file);
  if (!text.ok()) return text.status();
  Tracer::Span span(&run->tracer, "datalog.parse_program");
  Result<Program> program = templex::ParseProgram(text.value());
  run->Count("datalog.parse_program_ms", span.End());
  return program;
}

Result<std::vector<Fact>> LoadCsv(Run* run, const std::string& path) {
  Tracer::Span span(&run->tracer, "io.load_csv");
  Result<std::vector<Fact>> facts = templex::LoadFactsCsv(path);
  const double ms = span.End();
  run->Count("io.load_csv_ms", ms);
  if (facts.ok()) {
    run->Count("io.load_facts_per_s",
               static_cast<double>(facts.value().size()) / (ms / 1000.0));
  }
  return facts;
}

Result<std::unique_ptr<App>> CreateApp(Run* run, Program program,
                                       templex::DomainGlossary glossary,
                                       std::vector<Fact> facts) {
  Tracer::Span span(&run->tracer, "explain.create");
  Result<std::unique_ptr<App>> app =
      App::Create(std::move(program), std::move(glossary));
  run->Count("explain.create_ms", span.End());
  if (app.ok()) app.value()->AddFacts(std::move(facts));
  return app;
}

Result<Fact> ParseGoal(const std::string& text) {
  Result<Fact> fact = templex::ParseFactLiteral(text);
  if (!fact.ok()) return fact;
  Fact pattern = std::move(fact).value();
  for (templex::Value& arg : pattern.args) {
    if (arg.is_string() && arg.string_value() == "_") {
      arg = templex::Value::Null();
    }
  }
  return pattern;
}

namespace {

void CountChase(Run* run, const ChaseResult& result, double ms,
                const templex::MemoryBudget& budget) {
  if (!run->tracing()) return;
  const auto& stats = result.stats;
  run->Count("engine.derived_per_s",
             static_cast<double>(stats.derived_facts) / (ms / 1000.0));
  run->Count("engine.rounds", static_cast<double>(stats.rounds));
  run->Count("engine.matches", static_cast<double>(stats.matches));
  const int64_t derived = std::max<int64_t>(1, stats.derived_facts);
  run->Count("engine.matches_per_derived",
             static_cast<double>(stats.matches) / static_cast<double>(derived));
  run->Count("engine.accounted_bytes_per_fact",
             static_cast<double>(budget.peak_bytes()) /
                 std::max(1, result.graph.size()));
}

}  // namespace

double TimedChase(Run* run, App* app, const char* span_name) {
  templex::MemoryBudget budget;
  Tracer::Span span(&run->tracer, span_name);
  const Status status = app->Run(run->Config(&budget));
  const double ms = span.End();
  if (!status.ok()) {
    run->Problem(std::string(span_name) + ": " + status.ToString());
    return -1;
  }
  if (run->tracing()) {
    run->Count(std::string(span_name).replace(0, 12, "engine.chase_ms"), ms);
  }
  CountChase(run, app->chase(), ms, budget);
  return ms;
}

double DurableChases(Run* run, const std::vector<DurableJob>& jobs,
                     const std::string& dir, bool* ok) {
  *ok = true;
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::vector<ChaseResult> fresh, resumed;
  double checkpoint_ms = 0, resume_ms = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < jobs.size(); ++i) {
    templex::ChaseConfig config;
    config.checkpoint.dir = dir + "/job" + std::to_string(i);
    fs::create_directories(config.checkpoint.dir, ec);
    {
      Tracer::Span span(&run->tracer, "io.checkpoint_run");
      Result<ChaseResult> result =
          templex::ChaseEngine(config).Run(*jobs[i].program, *jobs[i].facts);
      checkpoint_ms += span.End();
      if (!result.ok()) {
        run->Problem("checkpointed run: " + result.status().ToString());
        *ok = false;
        return MsSince(start);
      }
      fresh.push_back(std::move(result).value());
    }
    config.checkpoint.resume = true;
    {
      Tracer::Span span(&run->tracer, "io.resume");
      Result<ChaseResult> result =
          templex::ChaseEngine(config).Run(*jobs[i].program, *jobs[i].facts);
      resume_ms += span.End();
      if (!result.ok()) {
        run->Problem("resume: " + result.status().ToString());
        *ok = false;
        return MsSince(start);
      }
      resumed.push_back(std::move(result).value());
    }
  }
  const double ms = MsSince(start);
  int64_t facts = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    facts += fresh[i].graph.size();
    if (!SameGraph(fresh[i].graph, resumed[i].graph)) {
      run->Problem("resumed graph differs from the fresh one");
      *ok = false;
    }
    if (fresh[i].stats.derived_facts != jobs[i].expected_derived) {
      run->Problem("durable derived " +
                   std::to_string(fresh[i].stats.derived_facts) + " != " +
                   std::to_string(jobs[i].expected_derived));
      *ok = false;
    }
  }
  if (run->tracing()) {
    run->Count("io.checkpoint_run_ms", checkpoint_ms);
    run->Count("io.resume_ms", resume_ms);
    run->Count("io.checkpoint_bytes_per_fact",
               static_cast<double>(DirBytes(dir)) /
                   static_cast<double>(std::max<int64_t>(1, facts)));
  }
  fs::remove_all(dir, ec);
  return ms;
}

Result<std::string> TimedExplain(Run* run, const App& app, const Fact& fact,
                                 double* ms) {
  Tracer::Span span(&run->tracer, "explain.explain");
  Result<std::string> text = app.Explain(fact);
  *ms = span.End();
  if (!run->tracing() || !text.ok()) return text;
  run->Count("explain.text_bytes", static_cast<double>(text.value().size()));
  Tracer::Span find(&run->tracer, "explain.find");
  Result<templex::FactId> id = app.chase().Find(fact);
  run->Count("explain.find_us", find.End() * 1000.0);
  if (!id.ok() || app.chase().graph.node(id.value()).is_extensional()) {
    return text;
  }
  Tracer::Span extract(&run->tracer, "explain.proof");
  templex::Proof proof = templex::Proof::Extract(app.chase().graph, id.value());
  run->Count("explain.proof_us", extract.End() * 1000.0);
  run->Count("explain.proof_steps", proof.num_chase_steps());
  Tracer::Span render(&run->tracer, "explain.render");
  Result<std::string> replay = app.explainer().ExplainProof(proof);
  run->Count("explain.render_us", render.End() * 1000.0);
  if (!replay.ok() || replay.value() != text.value()) {
    run->Problem("explain replay differs from Explain");
  }
  return text;
}

double QueryInProcess(Run* run, const App& app, const GoalQuery& q,
                      std::vector<Fact>* answers, bool* ok) {
  const Clock::time_point start = Clock::now();
  Tracer::Span parse(&run->tracer, "datalog.parse_goal");
  Result<Fact> goal = ParseGoal(q.text);
  const double parse_ms = parse.End();
  answers->clear();
  double scan_ms = 0;
  if (goal.ok()) {
    Tracer::Span scan(&run->tracer, "apps.query");
    *answers = app.Query(goal.value());
    scan_ms = scan.End();
  }
  const double ms = MsSince(start);
  *ok = goal.ok() && Sorted(*answers) == q.expected;
  if (run->tracing() && goal.ok()) {
    run->Count("datalog.parse_goal_us", parse_ms * 1000.0);
    run->Count("apps.query_scan_us", scan_ms * 1000.0);
    run->Count("apps.examined", static_cast<double>(
                                    app.chase().graph.FactsOf(
                                        goal.value().predicate).size()));
    run->Count("apps.answers", static_cast<double>(answers->size()));
  }
  return ms;
}

double WhatIfOp(Run* run, const App& app, const Fact& hypothetical,
              const std::vector<std::string>& expected,
              const std::string& explain_predicate) {
  const Clock::time_point start = Clock::now();
  Tracer::Span span(&run->tracer, "apps.whatif");
  Result<App::WhatIfResult> scenario = app.WhatIf({hypothetical});
  const double whatif_ms = MsSince(start);
  bool ok = scenario.ok();
  if (ok) {
    for (const Fact& fact : scenario.value().new_facts) {
      if (fact.predicate != explain_predicate) continue;
      Tracer::Span under(&run->tracer, "explain.explain_under");
      Result<std::string> text = app.ExplainUnder(scenario.value(), fact);
      ok = ok && text.ok() && !text.value().empty();
    }
  }
  const double ms = MsSince(start);
  span.End();
  ok = ok && Sorted(scenario.value().new_facts) == expected;
  run->Op(kWhatIf, ms, ok, hypothetical.ToString());
  if (!run->tracing() || !scenario.ok()) return ms;
  // Split WhatIf into the engine's Extend and the application's diff.
  Tracer::Span extend(&run->tracer, "engine.extend");
  Result<ChaseResult> extended = templex::ChaseEngine().Extend(
      app.chase(), app.explainer().program(), {hypothetical});
  const double extend_ms = extend.End();
  if (!extended.ok()) return ms;
  run->Count("engine.extend_ms", extend_ms);
  run->Count("engine.extend.new_facts",
             static_cast<double>(scenario.value().new_facts.size()));
  run->Count("apps.whatif_diff_ms", whatif_ms - extend_ms);
  return ms;
}

ControlPools MakeControlPools(const OwnershipKg& kg,
                              const std::vector<std::vector<int>>& control,
                              int size) {
  Rng rng(0x706f6f6cull);
  const int n = static_cast<int>(kg.names.size());
  auto text = [&](int a, const std::string& b) {
    return "Control(" + kg.names[a] + ", " + b + ")";
  };
  auto holds = [&](int a, int b) {
    return std::binary_search(control[a].begin(), control[a].end(), b);
  };
  // A controller with someone besides itself, and one of its controlled.
  auto positive = [&](int* a, int* b) {
    do {
      *a = static_cast<int>(rng.Uniform(0, n - 1));
    } while (control[*a].size() < 2);
    do {
      *b = control[*a][rng.Uniform(0, control[*a].size() - 1)];
    } while (*b == *a);
  };
  ControlPools pools;
  for (int i = 0; i < size; ++i) {
    int a = 0, b = 0;
    if (i % 4 == 3) {
      a = static_cast<int>(rng.Uniform(0, n - 1));
      do {
        b = static_cast<int>(rng.Uniform(0, n - 1));
      } while (holds(a, b));
    } else {
      positive(&a, &b);
    }
    GoalQuery q{text(a, kg.names[b]), {}};
    if (holds(a, b)) {
      q.expected.push_back(MakeFact("Control", {kg.names[a], kg.names[b]})
                               .ToString());
    }
    pools.lookups.push_back(std::move(q));
    positive(&a, &b);
    pools.explains.push_back(MakeFact("Control", {kg.names[a], kg.names[b]}));
  }
  for (int i = 0; i < size / 2; ++i) {
    const int a = static_cast<int>(rng.Uniform(0, n - 1));
    std::vector<Fact> expected;
    for (int b : control[a]) {
      expected.push_back(MakeFact("Control", {kg.names[a], kg.names[b]}));
    }
    pools.enumerations.push_back({text(a, "_"), Sorted(expected)});
  }
  return pools;
}

std::vector<std::string> ControlFacts(
    const OwnershipKg& kg, const std::vector<std::vector<int>>& control) {
  std::vector<Fact> facts;
  for (size_t a = 0; a < control.size(); ++a) {
    for (int b : control[a]) {
      facts.push_back(MakeFact("Control", {kg.names[a], kg.names[b]}));
    }
  }
  return Sorted(facts);
}

Fact ShockFact(const DebtKg& kg, const std::pair<int, int64_t>& shock) {
  return Fact("Shock", {templex::Value::String(kg.names[shock.first]),
                        templex::Value::Int(shock.second)});
}

std::vector<std::vector<std::string>> StressWhatIfReference(
    Run* run, const Program& program, const std::vector<Fact>& facts,
    const DebtKg& kg) {
  std::vector<std::vector<std::string>> expected;
  Result<ChaseResult> baseline = templex::ChaseEngine().Run(program, facts);
  if (!baseline.ok()) {
    run->Problem("reference chase: " + baseline.status().ToString());
    return expected;
  }
  const std::vector<bool> before = Defaults(kg, {});
  for (const auto& shock : kg.whatif_shocks) {
    std::vector<Fact> edb = facts;
    edb.push_back(ShockFact(kg, shock));
    Result<ChaseResult> scenario = templex::ChaseEngine().Run(program, edb);
    if (!scenario.ok()) {
      run->Problem("reference chase: " + scenario.status().ToString());
      expected.emplace_back();
      continue;
    }
    expected.push_back(NewFacts(baseline.value(), scenario.value()));
    const std::vector<bool> after = Defaults(kg, {shock});
    std::vector<Fact> defaults;
    for (size_t i = 0; i < after.size(); ++i) {
      if (after[i] && !before[i]) {
        defaults.push_back(MakeFact("Default", {kg.names[i]}));
      }
    }
    std::vector<std::string> engine_defaults;
    for (const std::string& f : expected.back()) {
      if (f.rfind("Default(", 0) == 0) engine_defaults.push_back(f);
    }
    if (engine_defaults != Sorted(defaults)) {
      run->Problem("what-if reference: engine and independent defaults differ");
      expected.back().push_back("<reference mismatch>");
    }
  }
  return expected;
}

std::vector<std::string> Sorted(const std::vector<Fact>& facts) {
  std::vector<std::string> out;
  out.reserve(facts.size());
  for (const Fact& f : facts) out.push_back(f.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

Fact MakeFact(const std::string& predicate,
              const std::vector<std::string>& args) {
  Fact fact;
  fact.predicate = predicate;
  for (const std::string& a : args) {
    fact.args.push_back(templex::Value::String(a));
  }
  return fact;
}

bool SameGraph(const templex::ChaseGraph& a, const templex::ChaseGraph& b) {
  if (a.size() != b.size()) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (!(a.node(i).fact == b.node(i).fact)) return false;
  }
  return true;
}

std::vector<std::string> NewFacts(const ChaseResult& baseline,
                                  const ChaseResult& scenario) {
  std::vector<Fact> fresh;
  for (int id = 0; id < scenario.graph.size(); ++id) {
    const templex::ChaseNode& node = scenario.graph.node(id);
    if (node.is_extensional()) continue;
    if (!baseline.graph.Find(node.fact).has_value()) fresh.push_back(node.fact);
  }
  return Sorted(fresh);
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
