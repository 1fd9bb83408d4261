#pragma once

/// RunPlan — the executable form of a RunConfig: the materialized
/// k-schedule, perturbation configuration, and RunSetup, bound to a
/// shared RunContext, with one execute() that dispatches to the chosen
/// driver.
///
/// Construction is where the config meets the physics: the `cl` grid
/// needs the conformal age, so the grid is materialized here (from the
/// context) rather than in RunConfig.  The assembled RunSetup is
/// exposed mutably so benches and tests can attach what the declarative
/// surface does not cover (fault-injection plans, custom stop hooks)
/// before execute().

#include <memory>

#include "boltzmann/config.hpp"
#include "plinger/driver.hpp"
#include "plinger/schedule.hpp"
#include "run/context.hpp"
#include "store/identity.hpp"

namespace plinger::run {

/// Relative integration work of one mode (arbitrary units): steps scale
/// with the k tau0 oscillations, state with the photon tower the driver
/// evolves for it.  lmax_evolve > 0 is a solver=auto run's short LOS
/// tower, taken by exactly the modes boltzmann::los_routes_mode()
/// sends down the line-of-sight branch; such a mode also stops at each
/// of its n_samples source sample times, so they add to its step count.
/// Every other mode evolves the k-dependent hierarchy capped at
/// lmax_cap.  RunPlan::estimated_cost() and run_batch()'s pre-context
/// issue order both sum this.
double mode_cost(double k, double tau0, std::size_t lmax_cap,
                 std::size_t lmax_evolve, std::size_t n_samples);

class RunPlan {
 public:
  /// Materializes grid, schedule, perturbation config, and RunSetup
  /// (including setup().thermo = ctx->thermo()).  The context must be
  /// the one built from cfg's cosmology (run_batch may share it across
  /// configs with equal cosmology_key()).
  RunPlan(RunConfig cfg, std::shared_ptr<const RunContext> ctx);

  const RunConfig& config() const { return cfg_; }
  const RunContext& context() const { return *ctx_; }
  const parallel::KSchedule& schedule() const { return schedule_; }
  const boltzmann::PerturbationConfig& perturbation() const {
    return pcfg_;
  }

  /// The assembled run setup; mutable so callers can attach host-side
  /// extras (setup().inject, setup().store.stop_after, ...) before
  /// execute().  The 5 broadcast doubles, store/trace/fault fields and
  /// the store identity are already filled from the config.
  parallel::RunSetup& setup() { return setup_; }
  const parallel::RunSetup& setup() const { return setup_; }

  /// The checkpoint-store identity this plan's execution stamps on (and
  /// requires of) a journal, hashed once at construction and carried to
  /// the drivers as setup().identity.  It covers, in this order,
  /// store::kIdentityVersion, every non-operational config_keys() row,
  /// and the derived inputs the drivers receive: the k-grid, the LOS
  /// short tower and sample times, and kAutoSolverCrossoverK.
  store::RunIdentity identity() const { return setup_.identity; }

  /// Deterministic relative cost estimate (arbitrary units): per-mode
  /// integration work summed over the schedule.  run_batch() issues
  /// plans largest-first on this, mirroring the paper's largest-k-first
  /// inside one run.
  double estimated_cost() const;

  /// Run the configured driver over the schedule.  Respects everything
  /// in setup(), including caller mutations.  With transport = tcp this
  /// is the master side: it listens on cfg().tcp_listen, blocks in
  /// accept_workers() until cfg().workers plinger_worker processes have
  /// joined (or the accept window closes), and runs the same recovery
  /// machinery as the in-process threads driver.
  parallel::RunOutput execute() const;

  /// Worker side of a transport = tcp run: connect to cfg().tcp_connect
  /// and serve the remote master until stopped (or until the master
  /// link drops).  The config must carry the same physics surface as
  /// the master's — the worker refuses a tag-1 broadcast that differs
  /// from its own setup in any slot (n_k, tau_end, lmax_cap, ...).
  /// This is what the plinger_worker example binary calls.
  void execute_worker() const;

 private:
  RunConfig cfg_;
  std::shared_ptr<const RunContext> ctx_;
  boltzmann::PerturbationConfig pcfg_;
  parallel::KSchedule schedule_;
  parallel::RunSetup setup_;
};

/// The one-call form: context + plan + execute for a single config.
parallel::RunOutput execute_run(const RunConfig& cfg);

}  // namespace plinger::run
