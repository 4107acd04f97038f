// Resource-governor behaviour: memory budgets degrading solvers in tiers
// instead of dying, service watchdogs preempting stuck slices (on jobs
// and sessions, at 1 and 2 threads, with cancellation, deadline and budget
// expiry alongside), pressure refusing admission, slice-death retries with
// bounded give-up, and session poisoning after an engine dies mid-solve.
#include <chrono>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "gtest/gtest.h"
#include "reference/brute_force.h"
#include "reference/dpll.h"
#include "service/solver_service.h"
#include "util/fault.h"
#include "util/memory_budget.h"

namespace berkmin {
namespace {

using util::FaultInjector;
using util::FaultPlan;
using util::FaultSite;
using util::MemoryBudget;

struct ScopedInjector {
  explicit ScopedInjector(FaultInjector* injector)
      : previous(util::install_fault_injector(injector)) {}
  ~ScopedInjector() { util::install_fault_injector(previous); }
  FaultInjector* previous;
};

TEST(MemoryGovernor, SoftPressureDegradesButStaysCorrect) {
  // The budget sits in the soft band before the solver even loads (other
  // tenants of a shared process hold most of the limit). Every restart
  // must then run the emergency glue-core reduction — a recorded degrade
  // event — and the answer must still match the reference solver.
  std::uint64_t total_degrades = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Cnf cnf = gen::random_ksat(30, 128, 3, seed);
    const reference::DpllResult expected = reference::dpll_solve(cnf);
    ASSERT_TRUE(expected.completed);
    MemoryBudget budget(1 << 20);
    budget.charge(750 * 1024);  // ~73% of the limit: soft pressure
    SolverOptions options;
    options.restart_interval = 1;  // degrade ladder runs at every restart
    Solver solver(options);
    solver.set_memory_budget(&budget);
    solver.load(cnf);
    const SolveStatus status = solver.solve();
    ASSERT_NE(status, SolveStatus::unknown) << "seed " << seed;
    EXPECT_EQ(status == SolveStatus::satisfiable, expected.satisfiable)
        << "seed " << seed;
    if (solver.stats().restarts > 0) {
      EXPECT_GT(budget.degrade_events(), 0u) << "seed " << seed;
      EXPECT_GT(solver.stats().pressure_reductions, 0u) << "seed " << seed;
    }
    total_degrades += budget.degrade_events();
    solver.set_memory_budget(nullptr);  // release the charge for the next run
    EXPECT_EQ(budget.used(), 750u * 1024u);
  }
  EXPECT_GT(total_degrades, 0u);
}

TEST(MemoryGovernor, PinnedCriticalBudgetStillTerminates) {
  // A budget that can never leave the critical band (external charge the
  // emergency reductions cannot touch — the CLI equivalent is a
  // --memory-budget smaller than the base formula). Lemma storage is
  // denied almost always, but the escape valve admits one lemma per
  // deny streak, so even an UNSAT refutation must terminate and agree.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Cnf cnf = gen::pigeonhole(4);  // UNSAT: needs real learning
    MemoryBudget budget(1000);
    budget.charge(990);  // critical, forever
    SolverOptions options;
    options.seed = seed;
    Solver solver(options);
    solver.set_memory_budget(&budget);
    solver.load(cnf);
    EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable) << "seed " << seed;
    EXPECT_GT(solver.stats().no_learn_restarts, 0u) << "seed " << seed;
    EXPECT_GT(budget.degrade_events(), 0u) << "seed " << seed;
    solver.set_memory_budget(nullptr);
  }

  // A refutation that genuinely needs accumulated lemmas: the ladder must
  // declare the pinned budget infeasible (emergency reductions can never
  // leave the critical band) and finish at full strength instead of
  // shedding the database forever.
  const Cnf hard = gen::pigeonhole(6);
  MemoryBudget budget(1000);
  budget.charge(990);
  SolverOptions options;
  options.restart_interval = 100;  // reach the declaration streak quickly
  Solver solver(options);
  solver.set_memory_budget(&budget);
  solver.load(hard);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  if (solver.stats().pressure_reductions >= 8) {
    EXPECT_EQ(solver.stats().budget_infeasible_solves, 1u);
  }
  solver.set_memory_budget(nullptr);
}

TEST(MemoryGovernor, UnlimitedBudgetChangesNothing) {
  const Cnf cnf = gen::random_ksat(20, 85, 3, 7);
  MemoryBudget budget;  // limit 0 = unlimited
  Solver governed;
  governed.set_memory_budget(&budget);
  governed.load(cnf);
  Solver plain;
  plain.load(cnf);
  EXPECT_EQ(governed.solve(), plain.solve());
  EXPECT_EQ(governed.stats().decisions, plain.stats().decisions);
  EXPECT_EQ(budget.degrade_events(), 0u);
  EXPECT_GT(budget.used(), 0u);  // bookkeeping ran, just never pressured
}

TEST(ServiceGovernor, CriticalPressureRefusesAdmission) {
  MemoryBudget budget(1000);
  budget.charge(960);  // ≥95% — critical
  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.memory_budget = &budget;
  service::SolverService service(sopts);

  service::JobRequest request;
  request.cnf = gen::random_ksat(8, 30, 3, 1);
  EXPECT_FALSE(service.submit(std::move(request)).has_value());
  EXPECT_FALSE(service.open_session({}).has_value());
  EXPECT_EQ(service.stats().rejected_pressure, 2u);
  EXPECT_GE(budget.degrade_events(), 2u);

  // Pressure receding reopens admission.
  budget.release(800);
  service::JobRequest retry;
  retry.cnf = gen::random_ksat(8, 30, 3, 1);
  const auto id = service.submit(std::move(retry));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(service.wait(*id).outcome, service::JobOutcome::completed);
  service.shutdown(service::SolverService::Shutdown::drain);
}

// The slice lifecycle on both kinds of job — a submitted job (served as a
// private single-solve session) and a query on an opened session — at 1
// and 2 threads: watchdog preemption, cancellation, deadline and budget
// expiry all go through the one slice path.
struct LifecycleCase {
  bool session = false;
  int threads = 1;
};

// Names the case in test listings (the default would print raw bytes).
void PrintTo(const LifecycleCase& c, std::ostream* out) {
  *out << (c.session ? "session" : "job") << "_t" << c.threads;
}

class ServiceLifecycle : public ::testing::TestWithParam<LifecycleCase> {
 protected:
  // Queues `cnf` as this case's kind of job. A session case opens a fresh
  // session; follow_up() then queries that same session again.
  std::optional<service::JobId> start(service::SolverService& service,
                                      const Cnf& cnf,
                                      service::JobLimits limits = {}) {
    if (!GetParam().session) {
      cnf_ = cnf;
      return follow_up(service, limits);
    }
    service::SessionRequest request;
    request.threads = GetParam().threads;
    const auto sid = service.open_session(request);
    if (!sid.has_value()) return std::nullopt;
    session_ = *sid;
    for (const auto& clause : cnf.clauses()) {
      if (!service.session_add_clause(session_, clause)) return std::nullopt;
    }
    return follow_up(service, limits);
  }

  std::optional<service::JobId> follow_up(service::SolverService& service,
                                          service::JobLimits limits = {}) {
    if (GetParam().session) return service.session_solve(session_, {}, limits);
    service::JobRequest request;
    request.cnf = cnf_;
    request.limits = limits;
    request.limits.threads = GetParam().threads;
    return service.submit(std::move(request));
  }

  // Runs `cnf` on a fresh service with no faults injected.
  service::JobResult reference(const Cnf& cnf,
                               const service::ServiceOptions& sopts,
                               service::JobLimits limits) {
    service::SolverService service(sopts);
    const auto id = start(service, cnf, limits);
    EXPECT_TRUE(id.has_value());
    return id.has_value() ? service.wait(*id) : service::JobResult{};
  }

 private:
  Cnf cnf_;
  service::SessionId session_ = service::invalid_session;
};

// A stall injected ahead of the solve: the engine is published, so the
// watchdog (or a cancel) lands while the slice is running.
FaultPlan stall_first_slice() {
  FaultPlan plan;
  plan.seed = 3;
  plan.stall_ms = 250;
  plan.arm(FaultSite::worker_stall, 1.0, 1);
  return plan;
}

TEST_P(ServiceLifecycle, WatchdogPreemptsStalledSlice) {
  // The first slice stalls 250ms; a 50ms watchdog must fire, preempt it,
  // and let the rescheduled slice finish the job with the right answer.
  // If the stopped engine were not un-latched, every later slice would
  // stop at once until the deadline.
  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.watchdog_seconds = 0.05;
  service::JobLimits limits;
  limits.deadline_seconds = 10.0;
  const Cnf cnf = gen::pigeonhole(5);
  const service::JobResult unpreempted = reference(cnf, sopts, limits);
  ASSERT_EQ(unpreempted.status, SolveStatus::unsatisfiable);

  FaultInjector injector(stall_first_slice());
  ScopedInjector installed(&injector);
  service::SolverService service(sopts);
  const auto id = start(service, cnf, limits);
  ASSERT_TRUE(id.has_value());
  const service::JobResult result = service.wait(*id);
  EXPECT_EQ(result.outcome, service::JobOutcome::completed) << result.error;
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  EXPECT_GE(result.preemptions, 1u);
  EXPECT_GE(service.stats().watchdog_fires, 1u);
  if (GetParam().threads == 1) {
    // The watchdog stopped the engine before its search started, so the
    // resumed slices do exactly the unpreempted run's work.
    EXPECT_EQ(result.conflicts, unpreempted.conflicts);
    EXPECT_EQ(result.decisions, unpreempted.decisions);
    EXPECT_EQ(result.propagations, unpreempted.propagations);
    EXPECT_EQ(result.learned_clauses, unpreempted.learned_clauses);
  }
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST_P(ServiceLifecycle, CancelMidSliceThenQueryAgain) {
  // Cancel lands during the stalled slice; the sticky stop must not leak
  // into the follow-up query (on a session, the same engine answers it).
  FaultInjector injector(stall_first_slice());
  ScopedInjector installed(&injector);
  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  service::SolverService service(sopts);
  const auto id = start(service, gen::pigeonhole(5));
  ASSERT_TRUE(id.has_value());
  while (service.state(*id) != service::JobState::running) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(service.cancel(*id));
  const service::JobResult cancelled = service.wait(*id);
  EXPECT_EQ(cancelled.outcome, service::JobOutcome::cancelled);
  EXPECT_EQ(cancelled.status, SolveStatus::unknown);

  const auto again = follow_up(service);
  ASSERT_TRUE(again.has_value());
  const service::JobResult result = service.wait(*again);
  EXPECT_EQ(result.outcome, service::JobOutcome::completed) << result.error;
  EXPECT_EQ(result.status, SolveStatus::unsatisfiable);
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST_P(ServiceLifecycle, DeadlineExpires) {
  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.slice_conflicts = 500;
  service::SolverService service(sopts);
  service::JobLimits limits;
  limits.deadline_seconds = 0.05;
  const auto id = start(service, gen::pigeonhole(10), limits);
  ASSERT_TRUE(id.has_value());
  const service::JobResult result = service.wait(*id);
  EXPECT_EQ(result.outcome, service::JobOutcome::deadline_expired);
  EXPECT_EQ(result.status, SolveStatus::unknown);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
  service.shutdown(service::SolverService::Shutdown::cancel_pending);
}

TEST_P(ServiceLifecycle, BudgetExhausts) {
  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.slice_conflicts = 100;
  service::SolverService service(sopts);
  service::JobLimits limits;
  limits.max_conflicts = 300;
  const auto id = start(service, gen::pigeonhole(10), limits);
  ASSERT_TRUE(id.has_value());
  const service::JobResult result = service.wait(*id);
  EXPECT_EQ(result.outcome, service::JobOutcome::budget_exhausted);
  EXPECT_EQ(result.status, SolveStatus::unknown);
  EXPECT_GE(result.conflicts, 300u);
  EXPECT_GE(result.preemptions, 1u);
  EXPECT_EQ(service.stats().budget_exhausted, 1u);
  service.shutdown(service::SolverService::Shutdown::drain);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ServiceLifecycle,
    ::testing::Values(LifecycleCase{false, 1}, LifecycleCase{false, 2},
                      LifecycleCase{true, 1}, LifecycleCase{true, 2}));

TEST(ServiceGovernor, SliceDeathRetriesThenGivesUp) {
  // Every slice dies (rate 1, effectively unbounded fires); with one
  // allowed retry the job must come back as a structured error, not a
  // crash or a hang.
  FaultPlan plan;
  plan.seed = 11;
  plan.arm(FaultSite::slice_death, 1.0, 1000);
  FaultInjector injector(plan);
  ScopedInjector installed(&injector);

  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_slice_retries = 1;
  service::SolverService service(sopts);
  service::JobRequest request;
  request.cnf = gen::random_ksat(12, 50, 3, 2);
  const auto id = service.submit(std::move(request));
  ASSERT_TRUE(id.has_value());
  const service::JobResult result = service.wait(*id);
  EXPECT_EQ(result.outcome, service::JobOutcome::error);
  EXPECT_NE(result.error.find("slice died"), std::string::npos)
      << result.error;
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.slice_deaths, 2u);   // initial attempt + one retry
  EXPECT_EQ(stats.slice_retries, 1u);
  service.shutdown(service::SolverService::Shutdown::drain);
}

TEST(ServiceGovernor, SessionEngineDeathPoisonsTheSession) {
  FaultPlan plan;
  plan.seed = 5;
  plan.arm(FaultSite::slice_death, 1.0, 1000);
  FaultInjector injector(plan);

  service::ServiceOptions sopts;
  sopts.num_workers = 1;
  service::SolverService service(sopts);
  const auto sid = service.open_session({});
  ASSERT_TRUE(sid.has_value());
  const std::vector<Lit> unit{Lit::positive(0)};
  ASSERT_TRUE(service.session_add_clause(*sid, unit));

  std::optional<service::JobId> id;
  {
    ScopedInjector installed(&injector);
    id = service.session_solve(*sid, {});
    ASSERT_TRUE(id.has_value());
    const service::JobResult died = service.wait(*id);
    EXPECT_EQ(died.outcome, service::JobOutcome::error);
    EXPECT_NE(died.error.find("session engine died"), std::string::npos)
        << died.error;
  }

  // The session stays poisoned even after injection stops: its engine
  // state is gone and silently rebuilding it could drop pushed groups.
  const auto after = service.session_solve(*sid, {});
  ASSERT_TRUE(after.has_value());
  const service::JobResult result = service.wait(*after);
  EXPECT_EQ(result.outcome, service::JobOutcome::unsupported);
  EXPECT_NE(result.error.find("close and reopen"), std::string::npos)
      << result.error;
  service.close_session(*sid);
  service.shutdown(service::SolverService::Shutdown::drain);
}

}  // namespace
}  // namespace berkmin
