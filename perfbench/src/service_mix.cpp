// service_mix: one SolverService with one worker per core and two kinds of
// traffic competing for it.
//
// * One-shot jobs arrive open-loop on a Poisson schedule drawn from the
//   seed: mostly short paper-family instances, plus a tail of long ones
//   that need many conflict slices and get preempted. Each job's latency
//   is measured from the time it was due, so a stalled generator still
//   charges the wait to the jobs behind it; how late the generator ran is
//   reported as loadgen.late_s_*.
// * A few closed-loop incremental sessions each run BMC through a
//   SessionBackend with per-answer certification (proof.check): every
//   answer is DRAT-checked by the service before it is returned.
//
// Every SAT model is validated against the job's formula, verdicts are
// compared with the generators' expectations, session counterexamples
// are replayed and session UNSAT answers must come back certified.
#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "circuits.h"
#include "engines/backend.h"
#include "engines/bmc.h"
#include "engines/transition_system.h"
#include "service/solver_service.h"
#include "spans.h"
#include "traced_backend.h"
#include "util/rng.h"
#include "workload_util.h"

namespace perfbench {
namespace {

using berkmin::SolveStatus;
using berkmin::service::JobOutcome;
using berkmin::service::JobResult;

// Every round submits the same mix: kShortCopies independent draws of
// each short job template (1-50 ms of solving) and kLongCopies of each
// long one (0.1-0.5 s, i.e. many 2000-conflict slices, so it is
// preempted). The seed draws the instances, the arrival order and the
// Poisson arrival times.
const std::vector<std::string> kShortJobs = {
    "hole:6", "hole:7", "par:32:48:5:sat:{s}", "par:32:48:5:unsat:{s}",
    "bmc:6:120:8:6:unsat:{i}", "mult_mut:5:1:{s}", "adder_sum:16:{s}",
    "adder:24:0:1", "mult:5:1", "adder_mut:24:0:{s}", "hanoi:4",
    "miter:15:200:unsat:{i}:60"};
const std::vector<std::string> kLongJobs = {"hole:8", "adder:24:1:1", "hanoi:5"};
constexpr int kShortCopies = 20;
constexpr int kLongCopies = 4;
constexpr int kSchedules = 8;
// About half the capacity of the 4-worker service for this mix with the
// sessions running, as measured on a 4-core machine: all 252 jobs
// submitted at once finished in 1.64-1.80 s, i.e. ~148 jobs/s. Heavier
// loads made queueing amplify the shared machine's own speed drift: at
// 110 jobs/s (3/4) one seed's summed job latency ranged over +-20% from
// run to run, at 88 jobs/s the ten-seed quartile spread was 22%.
constexpr double kArrivalRate = 70.0;

// Sessions: each client thread opens a fresh certified session per BMC
// run and does its runs back to back (a closed loop), concurrently with
// the job stream. Runs alternate between a safe 8-bit lockstep pair
// (checked to the bound) and one whose fault shows at depth 16.
constexpr int kSessionClients = 2;
constexpr int kRunsPerClient = 3;
constexpr int kSessionBound = 28;
constexpr int kSessionFaultBit = 5;

struct ScheduledJob {
  double due = 0;  // seconds after the round starts
  const Instance* instance = nullptr;
};

struct SessionRun {
  std::unique_ptr<berkmin::engines::TransitionSystem> ts;
  std::optional<int> bad_depth;
};

class ServiceMix final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    std::vector<std::string> specs;
    for (int copy = 0; copy < kShortCopies; ++copy) {
      specs.insert(specs.end(), kShortJobs.begin(), kShortJobs.end());
    }
    for (int copy = 0; copy < kLongCopies; ++copy) {
      specs.insert(specs.end(), kLongJobs.begin(), kLongJobs.end());
    }
    instances_ = spec_instances(seed, specs, /*serialize=*/false);
    std::vector<const Instance*> jobs;
    for (const Instance& inst : instances_) jobs.push_back(&inst);
    berkmin::Rng rng(seed);
    // A Poisson stream conditioned on its count: the arrival times of N
    // jobs in a window of N / rate seconds are sorted uniform draws, so
    // every round offers the same load over the same window. Rounds cycle
    // through several such schedules (and arrival orders), so a run's
    // median does not rest on one arrival pattern.
    const double window = static_cast<double>(jobs.size()) / kArrivalRate;
    schedules_.assign(kSchedules, {});
    for (std::vector<ScheduledJob>& schedule : schedules_) {
      for (std::size_t i = jobs.size() - 1; i > 0; --i) {
        std::swap(jobs[i], jobs[rng.below(i + 1)]);
      }
      std::vector<double> times;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        times.push_back(static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53 *
                        window);
      }
      std::sort(times.begin(), times.end());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        schedule.push_back({times[i], jobs[i]});
      }
    }
    rounds_run_ = 0;
    sessions_.clear();
    sessions_.resize(kSessionClients);
    std::uint64_t index = 0;
    for (int client = 0; client < kSessionClients; ++client) {
      for (int run = 0; run < kRunsPerClient; ++run) {
        LockstepParams p;
        p.width = 8;
        p.fault_bit = (client + run) % 2 == 0 ? 0 : kSessionFaultBit;
        p.style = static_cast<CarryStyle>(index % kNumCarryStyles);
        p.shuffle_seed = seed * 1000 + ++index;
        SessionRun r;
        r.ts = std::make_unique<berkmin::engines::TransitionSystem>(
            lockstep_counters(p));
        r.bad_depth = r.ts->reachable_bad_step();
        if (r.bad_depth != lockstep_bad_depth(p)) {
          throw std::logic_error("service_mix: construction and search disagree");
        }
        sessions_[static_cast<std::size_t>(client)].push_back(std::move(r));
      }
    }
    service_ = start_service(nullptr);
  }

  void teardown() override {
    service_.reset();
    hub_.reset();
  }

  Sample round(Tracer* tracer, OpCount* ops) override {
    // Every round starts on a fresh service (the service keeps finished
    // jobs' results, so a reused one would grow round by round). A traced
    // round's service carries a telemetry hub, which can only be attached
    // at start. Restarts happen outside the timed part of the round.
    if (tracer != nullptr) {
      service_.reset();
      hub_ = std::make_unique<berkmin::telemetry::Telemetry>();
      service_ = start_service(hub_.get());
    }
    const Sample s = serve(*service_, schedules_[rounds_run_++ % schedules_.size()],
                           tracer, ops);
    service_.reset();
    service_ = start_service(nullptr);
    return s;
  }

 private:
  // One round of traffic: the job stream on this thread, the session
  // clients on their own, then every answer checked.
  Sample serve(berkmin::service::SolverService& service,
               const std::vector<ScheduledJob>& schedule, Tracer* tracer,
               OpCount* ops) {
    Sample s;
    const std::int64_t start = monotonic_ns();
    const double cpu_start = process_cpu_seconds();
    const int round_span = Tracer::current();

    // Completion times of one-shot jobs, keyed by job id. The callback
    // runs on a worker right after the job finishes; it notifies under the
    // lock, so once the last entry is seen no worker touches these locals.
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::unordered_map<berkmin::service::JobId, std::int64_t> done_at;
    service.set_completion_callback([&](const JobResult& r) {
      if (r.session != berkmin::service::invalid_session) return;
      const std::int64_t now = monotonic_ns();
      std::lock_guard<std::mutex> guard(done_mu);
      done_at[r.id] = now;
      done_cv.notify_all();
    });

    // Closed-loop sessions, one client thread each.
    std::vector<SessionOutcome> outcomes(sessions_.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      clients.emplace_back([&, i] {
        outcomes[i] = run_client(service, sessions_[i], tracer, round_span, i);
      });
    }

    // Open-loop job stream.
    std::vector<berkmin::service::JobId> ids;
    std::vector<std::int64_t> due_at;
    std::vector<std::int64_t> submitted_at;
    std::vector<double> late;
    for (const ScheduledJob& job : schedule) {
      const std::int64_t due = start + static_cast<std::int64_t>(job.due * 1e9);
      for (std::int64_t now = monotonic_ns(); now < due; now = monotonic_ns()) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<std::int64_t>(due - now, 2'000'000)));
      }
      berkmin::service::JobRequest request;
      request.name = job.instance->name;
      request.cnf = job.instance->cnf;
      request.limits.deadline_seconds = 60.0;
      submitted_at.push_back(monotonic_ns());
      const auto id = service.submit(std::move(request));
      late.push_back(static_cast<double>(monotonic_ns() - due) * 1e-9);
      ++ops->attempted;
      if (!id.has_value()) {
        ++ops->failed;
        ids.push_back(berkmin::service::invalid_job);
      } else {
        ids.push_back(*id);
      }
      due_at.push_back(due);
    }

    std::vector<double> latencies;
    std::vector<double> queue_s;
    double requeue_s = 0, solve_s = 0, slices = 0, preemptions = 0;
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (ids[j] == berkmin::service::invalid_job) continue;
      const JobResult r = service.wait(ids[j]);
      std::int64_t finished;
      {
        std::unique_lock<std::mutex> lock(done_mu);
        done_cv.wait(lock, [&] { return done_at.count(ids[j]) != 0; });
        finished = done_at[ids[j]];
      }
      if (tracer) tracer->record(round_span, "job", j, submitted_at[j], finished);
      latencies.push_back(static_cast<double>(finished - due_at[j]) * 1e-9);
      queue_s.push_back(r.queue_seconds);
      requeue_s += r.wall_seconds - r.queue_seconds - r.solve_seconds;
      solve_s += r.solve_seconds;
      slices += r.slices;
      preemptions += r.preemptions;
      s["core.conflicts"] += static_cast<double>(r.conflicts);
      s["core.decisions"] += static_cast<double>(r.decisions);
      s["core.propagations"] += static_cast<double>(r.propagations);
      s["core.learned_clauses"] += static_cast<double>(r.learned_clauses);
      s["core.max_live_clauses"] += static_cast<double>(r.max_live_clauses);
      if (r.outcome != JobOutcome::completed) {
        ++ops->failed;
        continue;
      }
      const Instance& inst = *schedule[j].instance;
      ScopedSpan span(tracer, "validate_model", j);
      check_verdict(inst, r.status, r.model);
    }
    for (std::thread& t : clients) t.join();
    service.set_completion_callback(nullptr);

    std::vector<double> session_queries;
    double session_outside = 0;
    for (const SessionOutcome& o : outcomes) {
      ops->attempted += o.attempted;
      ops->failed += o.failed;
      session_queries.insert(session_queries.end(), o.query_s.begin(), o.query_s.end());
      session_outside += o.outside_solve_s;
      s["engines.queries"] += static_cast<double>(o.queries);
      s["engines.frames"] += static_cast<double>(o.frames);
    }

    const double wall = static_cast<double>(monotonic_ns() - start) * 1e-9;
    s["wall_s"] = wall;
    s["cpu_s"] = process_cpu_seconds() - cpu_start;
    double verdict = 0;
    for (const double l : latencies) verdict += l;
    for (const double q : session_queries) verdict += q;
    s["verdict_s"] = verdict;
    s["latency_p50_s"] = s["job_latency_p50_s"] = quantile(latencies, 0.5);
    s["latency_p90_s"] = s["job_latency_p90_s"] = quantile(latencies, 0.9);
    s["session_query_p50_s"] = quantile(session_queries, 0.5);
    s["session_query_p90_s"] = quantile(session_queries, 0.9);
    s["service.queue_s_p50"] = quantile(queue_s, 0.5);
    s["service.queue_s_p90"] = quantile(queue_s, 0.9);
    s["service.requeue_s"] = requeue_s;
    s["service.busy_frac"] =
        solve_s / (static_cast<double>(service.options().num_workers) * wall);
    s["service.slices"] = slices;
    s["service.preemptions"] = preemptions;
    s["service.session_outside_solve_s"] = session_outside;
    s["loadgen.late_s_p50"] = quantile(late, 0.5);
    s["loadgen.late_s_max"] = quantile(late, 1.0);
    finish_core_stats(s, solve_s);
    if (tracer == nullptr) return s;
    const auto totals = total_seconds_by_name(tracer->spans());
    const auto get = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second;
    };
    add_phase_totals(s, *hub_, solve_s);
    s["cnf.model_check_s"] = get("validate_model");
    s["engines.solve_s"] = get("query");
    const double edit_s = get("edit.new_vars") + get("edit.add") +
                          get("edit.push") + get("edit.pop") +
                          get("edit.activate");
    s["engines.edit_s"] = edit_s;
    s["engines.self_s"] = get("bmc_run") - get("query") - edit_s;
    std::vector<double> query_us;
    for (const SessionOutcome& o : outcomes) {
      for (const double q : o.query_s) query_us.push_back(q * 1e6);
    }
    s["engines.query_us_p50"] = quantile(query_us, 0.5);
    s["engines.query_us_p99"] = quantile(query_us, 0.99);
    return s;
  }

  struct SessionOutcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t queries = 0;
    std::uint64_t frames = 0;
    std::vector<double> query_s;
    double outside_solve_s = 0;  // query latency the solver did not spend
  };

  std::unique_ptr<berkmin::service::SolverService> start_service(
      berkmin::telemetry::Telemetry* hub) {
    berkmin::service::ServiceOptions options;
    options.num_workers =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    options.telemetry = hub;
    return std::make_unique<berkmin::service::SolverService>(options);
  }

  // Runs one client's BMC runs, one certified session each.
  static SessionOutcome run_client(berkmin::service::SolverService& service,
                                   const std::vector<SessionRun>& runs,
                                   Tracer* tracer, int parent, std::size_t client) {
    SessionOutcome out;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      run_session(service, runs[i], tracer, parent, client * 100 + i, &out);
    }
    return out;
  }

  static void run_session(berkmin::service::SolverService& service,
                          const SessionRun& session, Tracer* tracer,
                          int parent, std::size_t index, SessionOutcome* outcome) {
    SessionOutcome& out = *outcome;
    berkmin::service::SessionRequest request;
    request.name = "bmc-" + std::to_string(index);
    request.proof.check = true;
    berkmin::engines::SessionBackend backend(service, request);
    TracedBackend timed(backend, tracer);
    timed.after_query = [&](SolveStatus status) {
      const JobResult& r = backend.last_result();
      if (status == SolveStatus::unsatisfiable && (!r.proof_checked || !r.proof_valid)) {
        wrong_answer(request.name + ": session answer not certified");
      }
      out.outside_solve_s += timed.query_us().back() * 1e-6 - r.solve_seconds;
    };
    ++out.attempted;
    berkmin::engines::BmcOptions options;
    options.bound = kSessionBound;
    berkmin::engines::EngineResult result;
    {
      const int span = tracer ? tracer->open_under(parent, "bmc_run", index) : -1;
      result = berkmin::engines::BmcEngine(*session.ts, timed, options).run();
      if (tracer) tracer->close(span);
    }
    for (const double us : timed.query_us()) out.query_s.push_back(us * 1e-6);
    out.queries += result.stats.solves;
    out.frames += result.stats.frames;
    const std::string who = request.name;
    switch (result.verdict) {
      case berkmin::engines::Verdict::unsafe:
        if (!session.bad_depth || !result.cex ||
            !session.ts->trace_reaches_bad(result.cex->inputs) ||
            result.cex->depth() != *session.bad_depth) {
          wrong_answer(who + ": wrong or unreplayable counterexample");
        }
        break;
      case berkmin::engines::Verdict::safe_bounded:
        if (session.bad_depth && *session.bad_depth <= result.bound) {
          wrong_answer(who + ": bounded-safe past the counterexample depth");
        }
        break;
      default:
        ++out.failed;
    }
  }

  std::vector<Instance> instances_;
  std::vector<std::vector<ScheduledJob>> schedules_;
  std::size_t rounds_run_ = 0;
  std::vector<std::vector<SessionRun>> sessions_;  // per client
  std::unique_ptr<berkmin::telemetry::Telemetry> hub_;
  std::unique_ptr<berkmin::service::SolverService> service_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mix() {
  return std::make_unique<ServiceMix>();
}

}  // namespace perfbench
