#include "plinger/driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
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

/// Host-side checkpoint binding shared by the three drivers: the open
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

/// Shared degraded-completion rollup (mirrors MasterStats into the
/// run-output counters).
void settle_degraded(RunOutput& out) {
  out.n_modes_reassigned = out.master.n_reassigned;
  out.n_workers_lost = out.master.lost_workers.size();
  out.completed_degraded = out.n_workers_lost > 0 ||
                           !out.master.quarantined_ik.empty() ||
                           !out.master.failed_ik.empty() ||
                           out.master.all_workers_lost;
}

}  // namespace

RunOutput run_linger_serial(const cosmo::Background& bg,
                            const cosmo::Recombination& rec,
                            const boltzmann::PerturbationConfig& cfg,
                            const KSchedule& schedule,
                            const RunSetup& setup) {
  RunOutput out;
  out.n_workers = 1;
  const double w0 = wallclock_seconds();
  std::unique_ptr<TraceRecorder> recorder;
  if (setup.trace.enabled) {
    recorder = std::make_unique<TraceRecorder>(setup.trace);
  }

  StoreBinding store = bind_store(schedule, setup, out, recorder.get());
  const KSchedule& issue = store.effective(schedule);

  // One fused thermo/background cache per run (shared here only with
  // the evolver, but built the same way the parallel drivers share it).
  const auto cache = run_cache(bg, rec, setup);
  ModeEvolver evolver(bg, rec, cfg, cache);
  const double tau_end =
      setup.tau_end > 0.0 ? setup.tau_end : bg.conformal_age();

  // The serial main loop in k (paper §4: "The main loop of the serial
  // code is in k"), walked in the schedule's issue order (only the
  // residual modes when resuming from a store).
  for (std::size_t ik = issue.ik_first(); ik != 0;
       ik = issue.ik_next(ik)) {
    boltzmann::EvolveRequest req;
    req.k = issue.k_of_ik(ik);
    shape_request(req, setup, tau_end);
    if (recorder) recorder->record_assign(ik, 1);
    const double t0 = recorder ? recorder->now() : 0.0;
    ModeResult r = evolver.evolve(req, tau_end);
    if (recorder) {
      recorder->record_span(ik, req.k, 1, /*completed=*/true, t0,
                            recorder->now(), r.cpu_seconds, r.flops);
    }
    if (store.store) store.store->append(ik, r);
    ++out.n_modes_computed;
    out.total_worker_cpu_seconds += r.cpu_seconds;
    out.total_flops += r.flops;
    out.results.emplace(ik, std::move(r));
    if (store.stop_requested()) break;  // flush-then-stop hook
  }
  out.wallclock_seconds = wallclock_seconds() - w0;
  attach_trace(out, std::move(recorder), 1);
  return out;
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
  std::unique_ptr<TraceRecorder> recorder;
  if (setup.trace.enabled) {
    recorder = std::make_unique<TraceRecorder>(setup.trace);
  }
  const double tau_end =
      setup.tau_end > 0.0 ? setup.tau_end : bg.conformal_age();

  StoreBinding store = bind_store(schedule, setup, out, recorder.get());
  const KSchedule& issue = store.effective(schedule);

  // Flatten the issue order once, then hand out items via an atomic
  // cursor (the loop-level self-scheduling Autotasking provided).
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

  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(n_threads));
    for (int t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        const int worker = t + 1;  // worker ids 1..n, as in PLINGER
        try {
          ModeEvolver evolver(bg, rec, cfg, cache);
          for (;;) {
            if (store.stop_requested()) break;  // flush-then-stop hook
            const std::size_t i = cursor.fetch_add(1);
            if (i >= order.size()) break;
            const std::size_t ik = order[i];
            boltzmann::EvolveRequest req;
            req.k = issue.k_of_ik(ik);
            shape_request(req, setup, tau_end);
            if (recorder) recorder->record_assign(ik, worker);
            const double t0 = recorder ? recorder->now() : 0.0;
            ModeResult r = evolver.evolve(req, tau_end);
            if (recorder) {
              recorder->record_span(ik, req.k, worker, /*completed=*/true,
                                    t0, recorder->now(), r.cpu_seconds,
                                    r.flops);
            }
            const std::lock_guard<std::mutex> lock(out_mutex);
            if (store.store) store.store->append(ik, r);
            ++out.n_modes_computed;
            out.total_worker_cpu_seconds += r.cpu_seconds;
            out.total_flops += r.flops;
            out.results.emplace(ik, std::move(r));
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
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
  RunOutput out;
  out.n_workers = n_workers;
  const double w0 = wallclock_seconds();

  // The plain world, or the fault-injecting decorator when the setup
  // carries an injection plan (tests and fault drills).  The protocol
  // layer sees only the InProcWorld interface either way.
  std::unique_ptr<mp::InProcWorld> world_ptr;
  if (setup.inject.empty()) {
    world_ptr = std::make_unique<mp::InProcWorld>(n_workers + 1, library);
  } else {
    world_ptr = std::make_unique<mp::FaultInjectingWorld>(
        n_workers + 1, setup.inject, library);
  }
  mp::InProcWorld& world = *world_ptr;
  std::unique_ptr<TraceRecorder> recorder;
  if (setup.trace.enabled) {
    recorder = std::make_unique<TraceRecorder>(setup.trace);
    if (setup.trace.capture_messages) {
      world.set_send_observer(
          [r = recorder.get()](int from, int to, int tag,
                               std::size_t bytes) {
            r->record_message(tag, from, to, bytes);
          });
    }
  }

  StoreBinding store = bind_store(schedule, setup, out, recorder.get());

  // Worker threads (ranks 1..n).  Exceptions are captured and rethrown
  // on the master thread after join.  All workers share one read-only
  // thermo cache; the Appendix-A wire protocol is untouched by it.
  const auto cache = run_cache(bg, rec, setup);
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<std::size_t>(n_workers));
  for (int rank = 1; rank <= n_workers; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        ModeEvolver evolver(bg, rec, cfg, cache);
        mp::PassContext ctx = mp::initpass(world, rank);
        if (setup.los.enabled) {
          // LOS shaping is host-side state the tag-1 broadcast does not
          // carry; the EvolveFn overload lets the driver pin the short
          // hierarchy and attach the shared sample times without any
          // wire-protocol change.
          run_worker(
              ctx, schedule,
              [&evolver, &bg, &setup](const boltzmann::EvolveRequest& req,
                                      double tau_end) {
                const double end =
                    tau_end > 0.0 ? tau_end : bg.conformal_age();
                boltzmann::EvolveRequest r = req;
                // Same routing as the serial/autotask loops, including
                // the solver=auto k-crossover.
                shape_request(r, setup, end);
                return evolver.evolve(r, end);
              },
              recorder.get());
        } else {
          run_worker(ctx, schedule, evolver, recorder.get());
        }
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

  // Master (rank 0) on the calling thread.  Checkpointing happens here,
  // in the master loop, as each result is sunk — workers never see the
  // store and the Appendix-A wire protocol is untouched.  The master
  // issues only the residual schedule; workers keep the base schedule
  // (same grid, same ik -> k mapping) and stay oblivious.
  {
    mp::PassContext ctx = mp::initpass(world, 0);
    StopPredicate stop_early;
    if (store.store) {
      stop_early = [&store] { return store.store->stop_requested(); };
    }
    out.master = run_master(
        ctx, store.effective(schedule), setup,
        [&out, &store](std::size_t ik, const ModeResult& r) {
          if (store.store) store.store->append(ik, r);
          ++out.n_modes_computed;
          out.total_worker_cpu_seconds += r.cpu_seconds;
          out.total_flops += r.flops;
          out.results.emplace(ik, r);
        },
        setup.fault.max_retries, recorder.get(), stop_early);
    mp::endpass(ctx);
  }
  threads.clear();  // join
  if (first_error) std::rethrow_exception(first_error);

  // After the join every notice is guaranteed queued.
  sweep_late_notices(world, out, recorder.get());
  settle_degraded(out);

  out.wallclock_seconds = wallclock_seconds() - w0;
  out.transport = world.stats();
  attach_trace(out, std::move(recorder), n_workers);
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
  const int n_workers = world.size() - 1;
  RunOutput out;
  out.n_workers = n_workers;
  const double w0 = wallclock_seconds();

  std::unique_ptr<TraceRecorder> recorder;
  if (setup.trace.enabled) {
    recorder = std::make_unique<TraceRecorder>(setup.trace);
    if (setup.trace.capture_messages) {
      // The TCP world counts both directions at the master, so the tap
      // sees the same tag traffic the in-process observer would.
      world.set_send_observer(
          [r = recorder.get()](int from, int to, int tag,
                               std::size_t bytes) {
            r->record_message(tag, from, to, bytes);
          });
    }
  }

  StoreBinding store = bind_store(schedule, setup, out, recorder.get());

  // Master loop on the calling thread, exactly as in the threads driver;
  // the worker ranks live in other processes behind the sockets.
  {
    mp::PassContext ctx = mp::initpass(world, 0);
    StopPredicate stop_early;
    if (store.store) {
      stop_early = [&store] { return store.store->stop_requested(); };
    }
    out.master = run_master(
        ctx, store.effective(schedule), setup,
        [&out, &store](std::size_t ik, const ModeResult& r) {
          if (store.store) store.store->append(ik, r);
          ++out.n_modes_computed;
          out.total_worker_cpu_seconds += r.cpu_seconds;
          out.total_flops += r.flops;
          out.results.emplace(ik, r);
        },
        setup.fault.max_retries, recorder.get(), stop_early);
    mp::endpass(ctx);
  }

  // Unlike the threads driver there is no join barrier, so a death
  // notice racing the final result is only best-effort here; anything
  // already queued is settled.
  sweep_late_notices(world, out, recorder.get());
  settle_degraded(out);

  out.wallclock_seconds = wallclock_seconds() - w0;
  out.transport = world.stats();
  attach_trace(out, std::move(recorder), n_workers);
  return out;
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
    if (setup.los.enabled) {
      // Same host-side shaping as the threads driver: the tag-1
      // broadcast does not carry LOS state, so every process that runs
      // workers must pin it identically for bitwise-equal results.
      run_worker(ctx, schedule,
                 [&evolver, &bg, &setup](
                     const boltzmann::EvolveRequest& req, double tau_end) {
                   const double end =
                       tau_end > 0.0 ? tau_end : bg.conformal_age();
                   boltzmann::EvolveRequest r = req;
                   shape_request(r, setup, end);
                   return evolver.evolve(r, end);
                 },
                 nullptr);
    } else {
      run_worker(ctx, schedule, evolver, nullptr);
    }
    mp::endpass(ctx);
  } catch (const mp::PeerLost&) {
    // The master is gone; whatever it still wanted is unknowable.  The
    // worker winds down cleanly — master-side recovery owns the rest.
  }
}

}  // namespace plinger::parallel
