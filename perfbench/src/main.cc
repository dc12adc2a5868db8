// templex_perfbench: the end-to-end benchmark binary (see ../README.md).
//
//   templex_perfbench --workload batch|serve|analyst --seed N --seconds S
//                     --trace 0|1 --work-dir DIR [--programs DIR]
//                     [--trace-out FILE] [--size tiny]
//
// Prints a per-metric table (with sample counts) and, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exit code 0 when the run completed (correct or not), 1 on bad usage or a
// failed set-up, 2 on a non-Release build.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
  size_t samples;  // 0: not a sample statistic
};

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<Metric> EndToEnd(const Run& run, double peak_rss_mb) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(run.setup_s), "s", run.setup_s.size()});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB", 0});
  m.push_back({"ops_per_s",
               static_cast<double>(run.primary_ops[0]) /
                   std::max(1e-9, run.primary_s[0]),
               "1/s", static_cast<size_t>(run.primary_ops[0])});
  auto p50 = [&](const char* name, Kind kind) {
    m.push_back({name, Percentile(run.latency_ms[kind], 0.5), "ms",
                 run.latency_ms[kind].size()});
  };
  auto p90 = [&](const char* name, Kind kind) {
    m.push_back({name, Percentile(run.latency_ms[kind], 0.9), "ms",
                 run.latency_ms[kind].size()});
  };
  p50("chase_p50_ms", kChase);
  p50("durable_p50_ms", kDurable);
  p50("lookup_p50_ms", kLookup);
  p90("lookup_p90_ms", kLookup);
  p50("enumerate_p50_ms", kEnumerate);
  p90("enumerate_p90_ms", kEnumerate);
  p50("explain_p50_ms", kExplain);
  p90("explain_p90_ms", kExplain);
  p50("whatif_p50_ms", kWhatIf);
  p90("whatif_p90_ms", kWhatIf);
  return m;
}

// Per-layer metrics: medians of what the traced phase recorded at each
// layer boundary. A layer the workload does not exercise reads 0.
std::vector<Metric> PerLayer(const Run& run) {
  std::vector<Metric> m;
  auto median = [&](const char* name, const char* unit) {
    const std::vector<double> v = run.tracer.Counts(name);
    m.push_back({name, Median(v), unit, v.size()});
  };
  median("datalog.parse_program_ms", "ms");
  median("datalog.parse_goal_us", "us");
  median("io.load_csv_ms", "ms");
  median("io.load_facts_per_s", "1/s");
  median("io.checkpoint_run_ms", "ms");
  median("io.resume_ms", "ms");
  median("io.checkpoint_bytes_per_fact", "B");
  median("engine.chase_ms.company_control", "ms");
  median("engine.chase_ms.stress_test", "ms");
  median("engine.chase_ms.close_links", "ms");
  median("engine.derived_per_s", "1/s");
  median("engine.rounds", "count");
  median("engine.matches", "count");
  median("engine.matches_per_derived", "ratio");
  median("engine.accounted_bytes_per_fact", "B");
  median("engine.query.plan_us", "us");
  median("engine.query.evaluate_ms", "ms");
  median("engine.query.relevant_edb_ratio", "ratio");
  {
    const std::vector<double> v = run.tracer.Counts("engine.query.qsqr_share");
    m.push_back({"engine.query.qsqr_share",
                 v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size()),
                 "ratio", v.size()});
  }
  median("engine.extend_ms", "ms");
  median("engine.extend.new_facts", "count");
  median("apps.query_scan_us", "us");
  {
    const std::vector<double> answers = run.tracer.Counts("apps.answers");
    const double examined = Sum(run.tracer.Counts("apps.examined"));
    m.push_back({"apps.examined_per_answer",
                 answers.empty() ? 0.0 : examined / std::max(1.0, Sum(answers)),
                 "ratio", answers.size()});
  }
  median("apps.whatif_diff_ms", "ms");
  median("explain.create_ms", "ms");
  median("explain.find_us", "us");
  median("explain.proof_us", "us");
  median("explain.render_us", "us");
  median("explain.proof_steps", "count");
  median("explain.text_bytes", "B");
  median("service.connect_us", "us");
  median("service.overhead_us", "us");
  median("service.response_bytes", "B");
  median("service.shed_share", "ratio");
  const double untraced = static_cast<double>(run.primary_ops[0]) /
                          std::max(1e-9, run.primary_s[0]);
  const double traced = static_cast<double>(run.primary_ops[1]) /
                        std::max(1e-9, run.primary_s[1]);
  m.push_back({"trace.untraced_ops_per_s", untraced, "1/s",
               static_cast<size_t>(run.primary_ops[0])});
  m.push_back({"trace.traced_ops_per_s", traced, "1/s",
               static_cast<size_t>(run.primary_ops[1])});
  m.push_back({"trace.overhead_share",
               traced > 0 ? untraced / traced - 1.0 : 0.0, "ratio", 0});
  return m;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Pins the process, and every thread it starts afterwards, to the last CPU
// of its affinity set; returns that CPU, or -1 when pinning failed. On a
// virtual machine whose vCPUs share their host, waking a thread on another
// (halted) vCPU costs whatever the host is busy with, and the serve
// workload's request path makes three such wakeups per request: unpinned,
// its p90 swung 3x between runs of the same code. On one CPU every handoff
// is a local context switch, and each path costs its CPU work.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpu = i;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "templex_perfbench: %s\nusage: templex_perfbench --workload "
               "batch|serve|analyst --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--programs DIR] [--trace-out FILE] "
               "[--size tiny]\n",
               why);
  return 1;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "templex_perfbench: refusing to measure a non-Release build "
               "(NDEBUG is not defined); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--programs") {
      args.programs_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--size") {
      args.tiny = value == "tiny";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0) {
    return Usage("--work-dir and a positive --seconds are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const int cpu = PinToOneCpu();

  Run run(args);
  double peak_rss_mb = 0;
  bool ran = false;
  if (args.workload == "batch") {
    ran = RunBatch(&run, &peak_rss_mb);
  } else if (args.workload == "serve") {
    ran = RunServe(&run, &peak_rss_mb);
  } else if (args.workload == "analyst") {
    ran = RunAnalyst(&run, &peak_rss_mb);
  } else {
    return Usage("unknown workload");
  }
  if (!ran) {
    std::fprintf(stderr, "templex_perfbench: %s set-up failed\n",
                 args.workload.c_str());
    return 1;
  }
  if (args.trace && !args.trace_out.empty() &&
      !run.tracer.WriteChromeJson(args.trace_out)) {
    std::fprintf(stderr, "templex_perfbench: cannot write %s\n",
                 args.trace_out.c_str());
  }

  int64_t attempted = 0, failed = 0;
  std::printf("workload %s seed %llu, pinned to cpu %d: ops attempted/failed",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              cpu);
  for (int k = 0; k < kKinds; ++k) {
    attempted += run.attempted[k];
    failed += run.failed[k];
    std::printf(" %s=%lld/%lld", kKindNames[k],
                static_cast<long long>(run.attempted[k]),
                static_cast<long long>(run.failed[k]));
  }
  std::printf("\n");
  const std::vector<Metric> metrics =
      args.trace ? PerLayer(run) : EndToEnd(run, peak_rss_mb);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %-6s", m.name.c_str(), m.value, m.unit);
    if (m.samples > 0) std::printf("  n=%zu", m.samples);
    std::printf("\n");
  }
  const bool correct = failed == 0 && run.problems == 0 && attempted > 0;
  std::string json =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
