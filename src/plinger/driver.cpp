#include "plinger/driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "boltzmann/los.hpp"
#include "common/timing.hpp"
#include "cosmo/background.hpp"
#include "cosmo/thermo_cache.hpp"
#include "store/mode_result_store.hpp"

namespace plinger::parallel {

using boltzmann::ModeEvolver;
using boltzmann::ModeResult;

namespace {

/// The per-run thermo cache: the one the caller prebuilt (RunSetup::
/// thermo, e.g. a batched run reusing a RunContext), or a fresh build.
std::shared_ptr<const cosmo::ThermoCache> run_cache(
    const cosmo::Background& bg, const cosmo::Recombination& rec,
    const RunSetup& setup) {
  if (setup.thermo) return setup.thermo;
  return std::make_shared<const cosmo::ThermoCache>(bg, rec);
}

/// Shared driver epilogue: close the recorder into the run output.
void attach_trace(RunOutput& out, std::unique_ptr<TraceRecorder> rec,
                  int n_workers) {
  if (rec) {
    out.trace =
        std::make_shared<const Trace>(rec->finish(n_workers));
  }
}

/// Host-side checkpoint binding shared by every driver: the open
/// journal plus the residual schedule covering what is left to compute.
struct StoreBinding {
  std::unique_ptr<store::ModeResultStore> store;
  std::optional<KSchedule> residual;

  const KSchedule& effective(const KSchedule& base) const {
    return residual ? *residual : base;
  }
  bool stop_requested() const {
    return store != nullptr && store->stop_requested();
  }
};

/// Open the journal named in setup.store (checked against
/// setup.identity), mark its modes done in `out`, and build the
/// residual schedule.  Loaded modes appear in the trace as zero-cost
/// spans on the synthetic "worker 0" (store) row, so reports stay
/// honest: they contribute completed-mode counts but no busy time, CPU,
/// or flops to this run.
StoreBinding bind_store(const KSchedule& schedule, const RunSetup& setup,
                        RunOutput& out, TraceRecorder* recorder) {
  StoreBinding b;
  if (setup.store.path.empty()) return b;
  PLINGER_REQUIRE(setup.identity.value != 0,
                  "store " + setup.store.path +
                      ": the run identity is unset (run::RunPlan stamps "
                      "setup.identity; a direct driver call must set "
                      "it before checkpointing)");
  // The constructor rejects a journal stamped with any other identity.
  b.store = std::make_unique<store::ModeResultStore>(
      setup.store, setup.identity, schedule.size());
  if (!setup.store.resume || b.store->n_loaded() == 0) return b;
  for (const auto& [ik, r] : b.store->loaded()) {
    if (recorder) {
      const double t = recorder->now();
      recorder->record_span(ik, r.k, /*worker=*/0, /*completed=*/true, t,
                            t, 0.0, 0);
    }
    out.results.emplace(ik, r);
  }
  out.n_modes_loaded = b.store->n_loaded();
  std::vector<std::size_t> remaining;
  for (std::size_t ik = schedule.ik_first(); ik != 0;
       ik = schedule.ik_next(ik)) {
    if (!b.store->contains(ik)) remaining.push_back(ik);
  }
  b.residual = schedule.residual(remaining);
  return b;
}

/// Request shaping shared by every driver: an LOS-routed mode is
/// pinned to the short hierarchy and gets the shared source sample
/// times; otherwise the historical lmax_cap scaling applies.  Modes
/// below kAutoSolverCrossoverK take the hierarchy branch — at low k
/// lmax_photon_for_k is already small, so LOS source sampling costs
/// more than the short hierarchy saves.
void shape_request(boltzmann::EvolveRequest& req, const RunSetup& setup,
                   double tau_end) {
  if (setup.los.enabled && boltzmann::los_routes_mode(req.k)) {
    req.lmax_photon = setup.los.lmax_evolve;
    req.sample_taus = setup.los.sample_taus;
    return;
  }
  if (setup.lmax_cap > 0.0) {
    req.lmax_photon = boltzmann::lmax_photon_for_k(
        req.k, tau_end, static_cast<std::size_t>(setup.lmax_cap));
  }
  if (setup.los.enabled) {
    // solver=auto reroute: this mode's EE/TE contribution must reach
    // as far as the LOS branch projects, so the G tower rides the
    // mode's effective photon tower (the evolver's own uncapped
    // lmax_photon_for_k when lmax_cap = 0) instead of the run-level
    // polarization setting (G_l is negligible beyond k tau0 — this is
    // completeness, not extra physics).
    req.lmax_polarization =
        req.lmax_photon != 0 ? req.lmax_photon
                             : boltzmann::lmax_photon_for_k(req.k, tau_end);
  }
}

/// A worker that dies right after delivering the run's final result can
/// leave its tag-7 death notice unread: the master exits the moment the
/// schedule completes, and that exit is indistinguishable from a clean
/// shutdown.  Once sends are quiescent (threads joined, or the TCP run
/// wound down) a non-blocking sweep settles the accounting.
void sweep_late_notices(mp::InProcWorld& world, RunOutput& out,
                        TraceRecorder* recorder) {
  while (const auto pr =
             world.probe_for(0, mp::kAnySource, mp::kAnyTag, 0.0)) {
    std::vector<double> buf(pr->length, 0.0);
    world.recv(0, pr->source, pr->tag, buf);
    if (pr->tag != kTagError || buf.size() < 2 ||
        buf[1] != kFailureCodeWorkerLost) {
      continue;  // a stale non-failure message; drop it
    }
    auto& lost = out.master.lost_workers;
    if (std::find(lost.begin(), lost.end(), pr->source) == lost.end()) {
      lost.push_back(pr->source);
      if (recorder) {
        recorder->record_fault(FaultEvent::Kind::worker_lost, pr->source,
                               0);
      }
    }
  }
}

/// The one request-shaping rule, bound to one evolver: every driver's
/// workers evolve through this, so a mode's tower never depends on the
/// driver.  `tau_end` is the broadcast value (0 selects today).
EvolveFn shaped_evolve(const ModeEvolver& evolver, const RunSetup& setup) {
  return [&evolver, &setup](const boltzmann::EvolveRequest& req,
                            double tau_end) {
    const double end =
        tau_end > 0.0 ? tau_end : evolver.background().conformal_age();
    boltzmann::EvolveRequest r = req;
    shape_request(r, setup, end);
    return evolver.evolve(r, end);
  };
}

std::unique_ptr<TraceRecorder> make_recorder(const RunSetup& setup) {
  if (!setup.trace.enabled) return nullptr;
  return std::make_unique<TraceRecorder>(setup.trace);
}

/// The one result sink: checkpoint a computed mode, count it, keep it.
void sink_result(RunOutput& out, const StoreBinding& store, std::size_t ik,
                 ModeResult r) {
  if (store.store) store.store->append(ik, r);
  ++out.n_modes_computed;
  out.total_worker_cpu_seconds += r.cpu_seconds;
  out.total_flops += r.flops;
  out.results.emplace(ik, std::move(r));
}

/// The master half shared by the threads and tcp drivers: recorder and
/// message tap, store binding, run_master on the calling thread, then
/// the late-notice sweep and the degraded rollup.  `start_workers`
/// launches in-process worker ranks once the recorder exists;
/// `join_workers` must return only when no worker rank and no message
/// the world holds back can send again.  It runs on every path, before
/// the recorder is released.
RunOutput run_master_half(
    mp::InProcWorld& world, const KSchedule& schedule,
    const RunSetup& setup,
    const std::function<void(TraceRecorder*)>& start_workers,
    const std::function<void()>& join_workers) {
  const int n_workers = world.size() - 1;
  RunOutput out;
  out.n_workers = n_workers;
  const double w0 = wallclock_seconds();
  std::unique_ptr<TraceRecorder> recorder = make_recorder(setup);
  if (recorder && setup.trace.capture_messages) {
    // A TcpWorld counts both directions at the master, so the tap sees
    // the same tag traffic the in-process observer would.
    world.set_send_observer([r = recorder.get()](int from, int to, int tag,
                                                 std::size_t bytes) {
      r->record_message(tag, from, to, bytes);
    });
  }
  StoreBinding store = bind_store(schedule, setup, out, recorder.get());

  // Checkpointing happens here, in the master loop, as each result is
  // sunk — workers never see the store and the Appendix-A wire protocol
  // is untouched.  The master issues only the residual schedule;
  // workers keep the base schedule (same grid, same ik -> k mapping)
  // and stay oblivious.
  try {
    start_workers(recorder.get());
    mp::PassContext ctx = mp::initpass(world, 0);
    StopPredicate stop_early;
    if (store.store) {
      stop_early = [&store] { return store.store->stop_requested(); };
    }
    out.master = run_master(
        ctx, store.effective(schedule), setup,
        [&out, &store](std::size_t ik, const ModeResult& r) {
          sink_result(out, store, ik, r);
        },
        setup.fault.max_retries, recorder.get(), stop_early);
    mp::endpass(ctx);
  } catch (...) {
    join_workers();
    throw;
  }
  join_workers();

  // After the join every in-process notice is queued.  Worker ranks in
  // other processes have no join barrier, so a death notice racing the
  // final result is only best-effort there; anything queued is settled.
  sweep_late_notices(world, out, recorder.get());
  out.n_modes_reassigned = out.master.n_reassigned;
  out.n_workers_lost = out.master.lost_workers.size();
  out.completed_degraded = out.n_workers_lost > 0 ||
                           !out.master.quarantined_ik.empty() ||
                           !out.master.failed_ik.empty() ||
                           out.master.all_workers_lost;

  out.wallclock_seconds = wallclock_seconds() - w0;
  out.transport = world.stats();
  attach_trace(out, std::move(recorder), n_workers);
  return out;
}

}  // namespace

RunOutput run_linger_serial(const cosmo::Background& bg,
                            const cosmo::Recombination& rec,
                            const boltzmann::PerturbationConfig& cfg,
                            const KSchedule& schedule,
                            const RunSetup& setup) {
  return run_linger_autotask(bg, rec, cfg, schedule, setup, 1);
}

RunOutput run_linger_autotask(const cosmo::Background& bg,
                              const cosmo::Recombination& rec,
                              const boltzmann::PerturbationConfig& cfg,
                              const KSchedule& schedule,
                              const RunSetup& setup, int n_threads) {
  PLINGER_REQUIRE(n_threads >= 1, "run_linger_autotask: need >= 1 thread");
  RunOutput out;
  out.n_workers = n_threads;
  const double w0 = wallclock_seconds();
  std::unique_ptr<TraceRecorder> recorder = make_recorder(setup);

  StoreBinding store = bind_store(schedule, setup, out, recorder.get());
  const KSchedule& issue = store.effective(schedule);

  // Flatten the issue order once, then hand out items via an atomic
  // cursor (the loop-level self-scheduling Autotasking provided).  The
  // serial main loop in k (paper §4: "The main loop of the serial code
  // is in k") is this loop with one worker.
  std::vector<std::size_t> order;
  for (std::size_t ik = issue.ik_first(); ik != 0;
       ik = issue.ik_next(ik)) {
    order.push_back(ik);
  }
  std::atomic<std::size_t> cursor{0};
  std::mutex out_mutex;
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // One fused thermo/background cache per run, shared read-only by every
  // worker thread (immutable after construction, so no synchronization).
  const auto cache = run_cache(bg, rec, setup);

  const auto work = [&](int worker) {  // worker ids 1..n, as in PLINGER
    try {
      ModeEvolver evolver(bg, rec, cfg, cache);
      const EvolveFn evolve = shaped_evolve(evolver, setup);
      for (;;) {
        if (store.stop_requested()) break;  // flush-then-stop hook
        const std::size_t i = cursor.fetch_add(1);
        if (i >= order.size()) break;
        const std::size_t ik = order[i];
        boltzmann::EvolveRequest req;
        req.k = issue.k_of_ik(ik);
        if (recorder) recorder->record_assign(ik, worker);
        const double t0 = recorder ? recorder->now() : 0.0;
        ModeResult r = evolve(req, setup.tau_end);
        if (recorder) {
          recorder->record_span(ik, req.k, worker, /*completed=*/true, t0,
                                recorder->now(), r.cpu_seconds, r.flops);
        }
        const std::lock_guard<std::mutex> lock(out_mutex);
        sink_result(out, store, ik, std::move(r));
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  {
    // The calling thread is worker 1; the rest run on their own threads.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(n_threads - 1));
    for (int worker = 2; worker <= n_threads; ++worker) {
      threads.emplace_back(work, worker);
    }
    work(1);
  }
  if (first_error) std::rethrow_exception(first_error);
  out.wallclock_seconds = wallclock_seconds() - w0;
  attach_trace(out, std::move(recorder), n_threads);
  return out;
}

RunOutput run_plinger_threads(const cosmo::Background& bg,
                              const cosmo::Recombination& rec,
                              const boltzmann::PerturbationConfig& cfg,
                              const KSchedule& schedule,
                              const RunSetup& setup, int n_workers,
                              mp::Library library) {
  PLINGER_REQUIRE(n_workers >= 1, "run_plinger_threads: need >= 1 worker");

  // The plain world, or the fault-injecting decorator when the setup
  // carries an injection plan (tests and fault drills).  The protocol
  // layer sees only the InProcWorld interface either way.
  std::unique_ptr<mp::InProcWorld> world;
  mp::FaultInjectingWorld* faults = nullptr;
  if (setup.inject.empty()) {
    world = std::make_unique<mp::InProcWorld>(n_workers + 1, library);
  } else {
    auto f = std::make_unique<mp::FaultInjectingWorld>(
        n_workers + 1, setup.inject, library);
    faults = f.get();
    world = std::move(f);
  }

  // Worker threads (ranks 1..n).  Exceptions are captured and rethrown
  // after the master half returns.  All workers share one read-only
  // thermo cache; the Appendix-A wire protocol is untouched by it.
  const auto cache = run_cache(bg, rec, setup);
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::jthread> threads;
  RunOutput out = run_master_half(
      *world, schedule, setup,
      [&](TraceRecorder* recorder) {
        threads.reserve(static_cast<std::size_t>(n_workers));
        for (int rank = 1; rank <= n_workers; ++rank) {
          threads.emplace_back([&, rank, recorder] {
            try {
              ModeEvolver evolver(bg, rec, cfg, cache);
              mp::PassContext ctx = mp::initpass(*world, rank);
              run_worker(ctx, schedule, setup,
                         shaped_evolve(evolver, setup), recorder);
              mp::endpass(ctx);
            } catch (const mp::RankKilled&) {
              // Simulated process death (fault injection): the master's
              // recovery path owns the fallout; the thread just ends.
            } catch (...) {
              const std::lock_guard<std::mutex> lock(error_mutex);
              if (!first_error) first_error = std::current_exception();
            }
          });
        }
      },
      [&] {
        threads.clear();  // join
        // A delayed delivery still asleep would otherwise land after
        // the sweep and call the message tap after its recorder is gone.
        if (faults) faults->join_delayed();
      });
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

RunOutput run_plinger_tcp(const cosmo::Background& bg,
                          const cosmo::Recombination& rec,
                          const boltzmann::PerturbationConfig& cfg,
                          const KSchedule& schedule, const RunSetup& setup,
                          mp::TcpWorld& world) {
  // The master never integrates, so the physics inputs are only part of
  // the signature for symmetry with the other drivers.
  (void)bg;
  (void)rec;
  (void)cfg;
  PLINGER_REQUIRE(world.local_rank() == 0,
                  "run_plinger_tcp: the master must hold rank 0");
  // The worker ranks live in other processes behind the sockets.
  return run_master_half(
      world, schedule, setup, [](TraceRecorder*) {}, [] {});
}

void run_plinger_tcp_worker(const cosmo::Background& bg,
                            const cosmo::Recombination& rec,
                            const boltzmann::PerturbationConfig& cfg,
                            const KSchedule& schedule,
                            const RunSetup& setup, mp::TcpWorld& world) {
  PLINGER_REQUIRE(world.local_rank() >= 1,
                  "run_plinger_tcp_worker: rank 0 is the master");
  const auto cache = run_cache(bg, rec, setup);
  ModeEvolver evolver(bg, rec, cfg, cache);
  try {
    mp::PassContext ctx = mp::initpass(world, world.local_rank());
    run_worker(ctx, schedule, setup, shaped_evolve(evolver, setup));
    mp::endpass(ctx);
  } catch (const mp::PeerLost&) {
    // The master is gone; whatever it still wanted is unknowable.  The
    // worker winds down cleanly — master-side recovery owns the rest.
  }
}

}  // namespace plinger::parallel
