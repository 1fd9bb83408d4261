#include "boltzmann/mode_evolution.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/timing.hpp"
#include "math/brent.hpp"

namespace plinger::boltzmann {

ModeEvolver::ModeEvolver(const cosmo::Background& bg,
                         const cosmo::Recombination& rec,
                         const PerturbationConfig& cfg)
    : ModeEvolver(bg, rec, cfg,
                  std::make_shared<const cosmo::ThermoCache>(bg, rec)) {}

ModeEvolver::ModeEvolver(const cosmo::Background& bg,
                         const cosmo::Recombination& rec,
                         const PerturbationConfig& cfg,
                         std::shared_ptr<const cosmo::ThermoCache> cache)
    : bg_(bg), rec_(rec), cfg_(cfg), cache_(std::move(cache)) {
  PLINGER_REQUIRE(cache_, "ModeEvolver: thermo cache is null");
}

namespace {

/// `in_tca` selects the Pi column's source: the slaved polarization
/// states are identically zero while tight coupling holds, so samples
/// recorded there take the quasi-static pi_source() value instead —
/// the line-of-sight E-mode projection needs Pi populated across the
/// whole visibility window, not only after the tight-coupling exit.
TransferSample make_sample(const ModeEquations& eq, double tau,
                           std::span<const double> y, bool in_tca) {
  const StateLayout& L = eq.layout();
  TransferSample s;
  s.tau = tau;
  s.a = y[StateLayout::a];
  s.delta_c = y[StateLayout::delta_c];
  s.delta_b = y[StateLayout::delta_b];
  s.delta_g = y[StateLayout::delta_g];
  s.delta_nu = y[L.fn(0)];
  s.delta_m = eq.delta_matter(y);
  s.theta_b = y[StateLayout::theta_b];
  s.theta_g = y[StateLayout::theta_g];
  s.eta = y[StateLayout::eta];
  s.h = y[StateLayout::h];
  const NewtonianPotentials p = eq.newtonian(tau, y);
  s.phi = p.phi;
  s.psi = p.psi;
  s.alpha = eq.couplings(tau, y).alpha;
  s.pi_pol = eq.pi_source(tau, y, in_tca);
  return s;
}

/// Shared tail of both integrator paths: final transfer outputs at
/// tau_end plus the flops/cpu accounting.
ModeResult finalize(ModeResult& result, const ModeEquations& eq,
                    const PerturbationConfig& cfg, const EvolveRequest& req,
                    double tau_end, std::span<const double> y, double cpu0) {
  result.final_state = make_sample(eq, tau_end, y, /*in_tca=*/false);
  const StateLayout& L = eq.layout();
  result.f_gamma.resize(cfg.lmax_photon + 1);
  result.g_gamma.resize(L.lmax_polarization() + 1);
  result.f_gamma[0] = y[StateLayout::delta_g];
  result.f_gamma[1] = 4.0 / (3.0 * req.k) * y[StateLayout::theta_g];
  for (std::size_t l = 2; l <= cfg.lmax_photon; ++l) {
    result.f_gamma[l] = y[L.fg(l)];
  }
  for (std::size_t l = 0; l <= L.lmax_polarization(); ++l) {
    result.g_gamma[l] = y[L.gg(l)];
  }

  result.flops = eq.rhs_calls() * eq.flops_per_rhs();
  result.cpu_seconds = thread_cpu_seconds() - cpu0;
  return result;
}

}  // namespace

ModeResult ModeEvolver::evolve(const EvolveRequest& req,
                               double tau_end) const {
  PLINGER_REQUIRE(req.k > 0.0, "evolve: k must be positive");
  const double cpu0 = thread_cpu_seconds();

  const double tau0 = bg_.conformal_age();
  if (tau_end <= 0.0) tau_end = tau0;
  PLINGER_REQUIRE(tau_end <= tau0 + 1e-9, "evolve: tau_end beyond today");

  PerturbationConfig cfg = cfg_;
  cfg.lmax_photon = (req.lmax_photon != 0)
                        ? req.lmax_photon
                        : lmax_photon_for_k(req.k, tau_end);
  if (req.lmax_polarization != 0) {
    cfg.lmax_polarization = req.lmax_polarization;
  }
  // StateLayout requires lmax_polarization <= lmax_photon; a tall
  // polarization tower (used for E-mode references) is clamped per mode
  // so low-k modes with a shorter per-k photon tower stay valid.  No-op
  // for the default config: lmax_photon_for_k never drops below 60.
  cfg.lmax_polarization = std::min(cfg.lmax_polarization, cfg.lmax_photon);
  ModeEquations eq(bg_, rec_, cfg, req.k, *cache_);

  // Start superhorizon AND radiation-dominated.
  const double tau_init =
      std::min(cfg.ic_eps / req.k,
               bg_.tau_of_a(bg_.a_equality() / cfg.early_a_factor));
  PLINGER_REQUIRE(tau_init < tau_end, "evolve: tau range is empty");

  // Tight-coupling exit: the validity margin shrinks monotonically, so a
  // single bracketed root gives the switch time.
  double tau_switch = tau_init;
  if (eq.tca_valid(tau_init)) {
    const double a_forced = 1.0 / (1.0 + cfg.tca_exit_z);
    double tau_forced = bg_.tau_of_a(a_forced);
    tau_forced = std::min(tau_forced, tau_end);
    auto margin = [&](double tau) {
      return eq.tca_margin(bg_.a_of_tau(tau));
    };
    if (margin(tau_forced) >= 0.0) {
      // Thresholds never trip before the forced-exit redshift.
      tau_switch = tau_forced;
    } else {
      tau_switch = plinger::math::brent_root(margin, tau_init, tau_forced,
                                             1e-10 * tau_forced);
    }
  }

  // Integration breakpoints: switch point plus every in-range sample.
  // Each stop carries its "record a sample here" tag so the loop below
  // does not rescan sample_taus at every breakpoint (that scan was
  // O(n_samples) per stop, i.e. quadratic in the request size).
  struct Stop {
    double tau;
    bool sample;
  };
  std::vector<Stop> stops;
  stops.reserve(req.sample_taus.size() + 2);
  for (double t : req.sample_taus) {
    if (t > tau_init && t < tau_end) stops.push_back({t, true});
  }
  // The switch/end stops still count as sample points when a requested
  // time lands on them (within the dedup tolerance) — the same semantics
  // the per-stop scan had.
  auto near_sample = [&req](double t) {
    return std::any_of(req.sample_taus.begin(), req.sample_taus.end(),
                       [t](double s) { return std::abs(s - t) < 1e-12; });
  };
  stops.push_back({tau_switch, near_sample(tau_switch)});
  stops.push_back({tau_end, near_sample(tau_end)});
  std::sort(stops.begin(), stops.end(),
            [](const Stop& a, const Stop& b) { return a.tau < b.tau; });
  // Dedup against the last kept stop (as std::unique does), OR-ing the
  // sample tags of merged stops.
  std::size_t n_kept = 0;
  for (const Stop& s : stops) {
    if (n_kept > 0 && std::abs(s.tau - stops[n_kept - 1].tau) < 1e-12) {
      stops[n_kept - 1].sample = stops[n_kept - 1].sample || s.sample;
    } else {
      stops[n_kept++] = s;
    }
  }
  stops.resize(n_kept);

  ModeResult result;
  result.k = req.k;
  result.lmax = cfg.lmax_photon;
  result.tau_init = tau_init;
  result.tau_switch = tau_switch;
  result.tau_end = tau_end;

  std::vector<double> y = eq.initial_conditions(tau_init);
  plinger::math::OdeOptions opts;
  opts.rtol = cfg.rtol;
  opts.atol = cfg.atol;

  bool in_tca = tau_switch > tau_init;

  if (cfg.integrator == IntegratorKind::dop853) {
    // Dense-output path: one integration segment per RHS regime
    // ([tau_init, tau_switch] tightly coupled, [tau_switch, tau_end]
    // full hierarchy), with sample times answered by the 7th-order
    // continuous extension inside accepted steps — the step size is
    // never clamped to the sample grid.  Boundary semantics mirror the
    // clamped path: times within 1e-12 of tau_switch/tau_end are
    // answered from the boundary state (after the TCA handoff), and
    // near-duplicate times collapse to one sample.
    std::vector<double> ts(req.sample_taus.begin(), req.sample_taus.end());
    std::sort(ts.begin(), ts.end());
    std::vector<double> seg_tca, seg_full;
    bool sample_at_switch = false, sample_at_end = false;
    for (double t : ts) {
      if (t <= tau_init || t >= tau_end) continue;
      std::vector<double>& seg = (t < tau_switch) ? seg_tca : seg_full;
      if (!seg.empty() && std::abs(t - seg.back()) < 1e-12) continue;
      if (std::abs(t - tau_switch) < 1e-12 && in_tca) {
        sample_at_switch = true;
      } else if (std::abs(t - tau_end) < 1e-12) {
        sample_at_end = true;
      } else {
        seg.push_back(t);
      }
    }

    plinger::math::Dop853 integrator;
    auto record = [&](double t, std::span<const double> yy) {
      result.samples.push_back(make_sample(eq, t, yy, in_tca));
    };
    auto run_segment = [&](double t0, double t1, auto&& rhs,
                           std::span<const double> seg) {
      const auto stats =
          integrator.integrate_dense(rhs, t0, t1, y, opts, seg, record);
      result.stats.n_accepted += stats.n_accepted;
      result.stats.n_rejected += stats.n_rejected;
      result.stats.n_rhs += stats.n_rhs;
    };
    if (in_tca) {
      run_segment(tau_init, tau_switch,
                  [&eq](double t, std::span<const double> yy,
                        std::span<double> dd) { eq.rhs_tca(t, yy, dd); },
                  seg_tca);
      eq.tca_handoff(tau_switch, y);
      in_tca = false;
    }
    if (sample_at_switch) record(tau_switch, y);
    if (tau_end > tau_switch) {
      run_segment(std::max(tau_switch, tau_init), tau_end,
                  [&eq](double t, std::span<const double> yy,
                        std::span<double> dd) { eq.rhs_full(t, yy, dd); },
                  seg_full);
    }
    if (sample_at_end) record(tau_end, y);
    return finalize(result, eq, cfg, req, tau_end, y, cpu0);
  }

  plinger::math::Dverk integrator;
  double t_cur = tau_init;
  for (const Stop& stop : stops) {
    const double t_next = stop.tau;
    if (t_next <= t_cur) continue;
    auto rhs = [&eq, in_tca](double t, std::span<const double> yy,
                             std::span<double> dd) {
      if (in_tca) {
        eq.rhs_tca(t, yy, dd);
      } else {
        eq.rhs_full(t, yy, dd);
      }
    };
    const auto stats = integrator.integrate(rhs, t_cur, t_next, y, opts);
    result.stats.n_accepted += stats.n_accepted;
    result.stats.n_rejected += stats.n_rejected;
    result.stats.n_rhs += stats.n_rhs;
    t_cur = t_next;

    if (in_tca && std::abs(t_cur - tau_switch) < 1e-12) {
      eq.tca_handoff(t_cur, y);
      in_tca = false;
    }
    if (stop.sample) {
      result.samples.push_back(make_sample(eq, t_cur, y, in_tca));
    }
  }

  return finalize(result, eq, cfg, req, tau_end, y, cpu0);
}

}  // namespace plinger::boltzmann
