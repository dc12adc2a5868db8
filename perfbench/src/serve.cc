// `serve`: analyst desks hitting the daemon over loopback.
#include <algorithm>
#include <iterator>
#include <thread>

#include "apps/glossaries.h"
#include "http_client.h"
#include "reference.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/transport.h"
#include "workloads.h"

namespace perfbench {

namespace {

// One request of the replayed pool, with the body the server must answer:
// the in-process Query/Explain output on the same snapshot.
struct Request {
  Kind kind;
  std::string target;
  std::string body;
  std::string expected;
  const GoalQuery* query = nullptr;  // lookups and enumerations
  const Fact* fact = nullptr;        // explanations
};

struct Sample {
  size_t request;
  double ms;
  int status;
  bool ok;
  size_t bytes;
  double connect_us;
};

// The daemon: snapshot registry, TCP transport, request loop.
struct Daemon {
  std::unique_ptr<templex::SnapshotRegistry> snapshots;
  std::unique_ptr<templex::TcpServerTransport> transport;
  std::unique_ptr<templex::TemplexServer> server;

  ~Daemon() { Stop(); }
  void Stop() {
    if (server != nullptr) {
      server->RequestDrain();
      const Status drained = server->WaitDrained();
      (void)drained;  // a blown drain only delays exit
      server.reset();
    }
    transport.reset();
    snapshots.reset();
  }
};

// Walks the request pool in the 40/20/40 mix: 2 lookups, 1 enumeration,
// 2 explanations, each kind round-robin from `start`.
class Mix {
 public:
  Mix(const std::vector<size_t>* lookups,
      const std::vector<size_t>* enumerations,
      const std::vector<size_t>* explains, size_t start)
      : lookups_(lookups),
        enumerations_(enumerations),
        explains_(explains),
        lookup_(lookups->size(), start),
        enumerate_(enumerations->size(), start),
        explain_(explains->size(), start) {}

  size_t Next() {
    const int64_t r = n_++ % 5;
    return r < 2   ? (*lookups_)[lookup_.Next()]
           : r < 3 ? (*enumerations_)[enumerate_.Next()]
                   : (*explains_)[explain_.Next()];
  }

 private:
  const std::vector<size_t>* lookups_;
  const std::vector<size_t>* enumerations_;
  const std::vector<size_t>* explains_;
  Cycle lookup_, enumerate_, explain_;
  int64_t n_ = 0;
};

// Closed loop: the client sends its next request when the previous one
// completed, until `end`.
void Client(int port, const std::vector<Request>& pool, Mix mix,
            Clock::time_point end, Tracer* tracer, std::vector<Sample>* out) {
  while (Clock::now() < end) {
    const size_t i = mix.Next();
    const Request& req = pool[i];
    Tracer::Span span(tracer, "service.request");
    HttpReply reply = Post(port, req.target, req.body);
    const double ms = span.End();
    out->push_back({i, ms, reply.status,
                    reply.status == 200 && reply.body == req.expected,
                    reply.bytes, reply.connect_us});
  }
}

}  // namespace

bool RunServe(Run* run, double* peak_rss_mb) {
  const Args& args = run->args;
  GroupedOptions shape;
  int pool_size = 128;
  if (args.tiny) {
    shape = {20, 2};
    pool_size = 16;
  }
  const OwnershipKg kg = GroupedNationalKg(shape, args.seed);
  const std::string csv = args.work_dir + "/national.csv";
  if (!WriteFile(csv, OwnershipCsv(kg))) {
    run->Problem("cannot write the generated CSV");
    return false;
  }
  const std::vector<std::vector<int>> control = ControlSets(kg);
  int64_t control_count = 0;
  for (const auto& set : control) {
    control_count += static_cast<int64_t>(set.size());
  }

  // Set-up: parse, load, deploy, chase, publish, listen, start; the chase
  // also counts as a chase op. Timed once here and again in every
  // ride-along (a second daemon, then drained), so its median samples the
  // whole run.
  auto deploy = [&](Daemon* daemon) {
    const Clock::time_point start = Clock::now();
    Result<Program> program = LoadProgram(run, "company_control.vada");
    Result<std::vector<Fact>> facts = LoadCsv(run, csv);
    if (!program.ok() || !facts.ok()) {
      run->Problem("serve set-up: cannot load program or facts");
      return false;
    }
    auto app = CreateApp(run, std::move(program).value(),
                         templex::CompanyControlGlossary(),
                         std::move(facts).value());
    if (!app.ok()) return false;
    const double chase_ms = TimedChase(run, app.value().get(),
                                       "engine.chase.company_control");
    run->Op(kChase, chase_ms,
            chase_ms >= 0 &&
                app.value()->chase().stats.derived_facts == control_count,
            "national chase");
    daemon->snapshots = std::make_unique<templex::SnapshotRegistry>();
    daemon->snapshots->Publish(
        std::shared_ptr<const App>(std::move(app).value()));
    auto transport = templex::TcpServerTransport::Listen(0);
    if (!transport.ok()) {
      run->Problem("serve set-up: " + transport.status().ToString());
      return false;
    }
    daemon->transport = std::move(transport).value();
    templex::ServerOptions options;
    options.num_workers = 2;
    daemon->server = std::make_unique<templex::TemplexServer>(
        daemon->transport.get(), daemon->snapshots.get(), options);
    daemon->server->Start();
    run->setup_s.push_back(MsSince(start) / 1000.0);
    return true;
  };
  run->tracer.set_enabled(args.trace);
  Daemon daemon;
  if (!deploy(&daemon)) return false;
  run->tracer.set_enabled(false);
  const int port = daemon.transport->port();
  const std::shared_ptr<const App> snapshot = daemon.snapshots->Current();

  // Expected bodies: in-process Query/Explain on the same snapshot, checked
  // against the independent reference, outside every timed window.
  const ControlPools pools = MakeControlPools(kg, control, pool_size);
  std::vector<Request> pool;
  std::vector<size_t> lookups, enumerations, explains;
  std::vector<Fact> answers;
  auto add_query = [&](Kind kind, const GoalQuery& q) {
    bool ok = false;
    QueryInProcess(run, *snapshot, q, &answers, &ok);
    if (!ok) run->Problem("in-process answer is not the reference: " + q.text);
    std::string body;
    for (const Fact& f : answers) body += f.ToString() + "\n";
    (kind == kLookup ? lookups : enumerations).push_back(pool.size());
    pool.push_back({kind, "/query", q.text,
                    ok ? body : "<reference mismatch>", &q, nullptr});
  };
  for (const GoalQuery& q : pools.lookups) add_query(kLookup, q);
  for (const GoalQuery& q : pools.enumerations) add_query(kEnumerate, q);
  for (const Fact& fact : pools.explains) {
    Result<std::string> text = snapshot->Explain(fact);
    explains.push_back(pool.size());
    pool.push_back({kExplain, "/explain", fact.ToString(),
                    text.ok() ? text.value() + "\n" : "<no explanation>",
                    nullptr, &fact});
  }

  // Hypothetical acquisitions for the ride-along what-ifs: one group's head
  // buys 40/64 of another's. Expected new Control facts from the reference.
  std::vector<std::pair<Fact, std::vector<std::string>>> acquisitions;
  {
    Rng rng(args.seed ^ 0x616371ull);
    const std::vector<std::string> before = ControlFacts(kg, control);
    const int groups = static_cast<int>(kg.names.size()) / kGroupSize;
    for (int k = 0; k < (args.tiny ? 4 : 16); ++k) {
      const int g = static_cast<int>(rng.Uniform(0, groups - 1));
      int h = g;
      while (h == g) h = static_cast<int>(rng.Uniform(0, groups - 1));
      const Stake stake{g * kGroupSize, h * kGroupSize, 40};
      const std::vector<std::string> after =
          ControlFacts(kg, ControlSets(kg, {stake}));
      std::vector<std::string> fresh;
      std::set_difference(after.begin(), after.end(), before.begin(),
                          before.end(), std::back_inserter(fresh));
      acquisitions.push_back(
          {Fact("Own", {templex::Value::String(kg.names[stake.owner]),
                        templex::Value::String(kg.names[stake.owned]),
                        templex::Value::Double(ShareOf(kg, stake))}),
           std::move(fresh)});
    }
  }

  // The primary slice: the clients replay the pools until the slice's
  // deadline; latency is measured by the clients, correctness checked on
  // every body.
  constexpr int kClients = 2;
  int64_t shed = 0, requests = 0;
  auto http_slice = [&](Clock::time_point end) {
    const Clock::time_point start = Clock::now();
    std::vector<std::vector<Sample>> samples(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      // Each client walks the pools from its own starting point.
      clients.emplace_back(Client, port, std::cref(pool),
                           Mix(&lookups, &enumerations, &explains, c * 7), end,
                           &run->tracer, &samples[c]);
    }
    for (std::thread& t : clients) t.join();
    const double wall_ms = MsSince(start);
    int64_t done = 0;
    for (const std::vector<Sample>& client : samples) {
      for (const Sample& s : client) {
        const Request& req = pool[s.request];
        run->Op(req.kind, s.ms, s.ok, req.target + " " + req.body);
        if (s.status == 429 || s.status == 503) ++shed;
        if (run->tracing()) {
          run->Count("service.connect_us", s.connect_us);
          run->Count("service.response_bytes", static_cast<double>(s.bytes));
        }
        ++done;
      }
    }
    requests += done;
    run->Primary(wall_ms, done);
  };

  // A traced slice also sends 16 requests from a single client, one at a
  // time, to the otherwise idle daemon. service.overhead_us comes from
  // these, so no concurrent request's CPU time lands in it.
  std::vector<Sample> probes;
  Mix probe_mix(&lookups, &enumerations, &explains, 3);
  auto probe = [&] {
    for (int i = 0; i < 16; ++i) {
      const size_t r = probe_mix.Next();
      const Request& req = pool[r];
      const Clock::time_point start = Clock::now();
      HttpReply reply = Post(port, req.target, req.body);
      const double ms = MsSince(start);
      const bool ok = reply.status == 200 && reply.body == req.expected;
      run->Op(req.kind, ms, ok, req.target + " " + req.body);
      probes.push_back(
          {r, ms, reply.status, ok, reply.bytes, reply.connect_us});
    }
  };

  // Ride-along, per slice (assumed sample sizes, not a rate of the desks):
  // a second deployment of the daemon (timed as set-up, its chase as a
  // chase op), drained again; every other slice a durable warm start
  // (checkpointed chase, then resume) of the served KG; one in-process
  // what-if on the served snapshot while the daemon stays up. The host's
  // speed drifts over seconds, so each of these metrics samples 16 points
  // of the run (8 for the durable warm start, the costliest), not a burst
  // after each of a few slices.
  Cycle acquisition(acquisitions.size());
  int64_t slice = 0;
  auto ride_along = [&] {
    Tracer::Span span(&run->tracer, "serve.ride_along");
    {
      Daemon second;
      deploy(&second);
    }
    if (slice++ % 2 == 1) {
      bool ok = false;
      const double durable_ms = DurableChases(
          run,
          {{&snapshot->explainer().program(), &snapshot->facts(),
            control_count}},
          args.work_dir + "/ckpt", &ok);
      run->Op(kDurable, durable_ms, ok, "national durable warm start");
    }
    const auto& [fact, expected] = acquisitions[acquisition.Next()];
    WhatIfOp(run, *snapshot, fact, expected, "Control");
    if (run->tracing()) probe();
  };
  Measure(run, 16, http_slice, ride_along);

  // A traced run replays the handler's public calls in process, per probed
  // pool entry, to split the probe's latency into library time and service
  // overhead.
  if (args.trace) {
    run->tracer.set_enabled(true);
    std::vector<double> replay_ms(pool.size(), -1);
    for (const Sample& s : probes) {
      if (replay_ms[s.request] >= 0) continue;
      const Request& req = pool[s.request];
      std::vector<double> reps;
      for (int r = 0; r < 3; ++r) {
        const Clock::time_point start = Clock::now();
        if (req.query != nullptr) {
          bool ok = false;
          QueryInProcess(run, *snapshot, *req.query, &answers, &ok);
          std::string body;
          for (const Fact& f : answers) body += f.ToString() + "\n";
        } else {
          double ms = 0;
          (void)TimedExplain(run, *snapshot, *req.fact, &ms);
        }
        reps.push_back(MsSince(start));
      }
      replay_ms[s.request] = Median(reps);
    }
    for (const Sample& s : probes) {
      run->Count("service.overhead_us", (s.ms - replay_ms[s.request]) * 1000.0);
    }
    run->Count("service.shed_share",
               static_cast<double>(shed) /
                   static_cast<double>(std::max<int64_t>(1, requests)));
  }
  *peak_rss_mb = PeakRssMb();
  daemon.Stop();
  return true;
}

}  // namespace perfbench
