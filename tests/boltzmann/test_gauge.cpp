#include "boltzmann/gauge.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "boltzmann/mode_evolution.hpp"
#include "common/error.hpp"

namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;

namespace {
struct World {
  pc::Background bg{pc::CosmoParams::standard_cdm()};
  pc::Recombination rec{bg};
  pc::ThermoCache cache{bg, rec};
  pb::PerturbationConfig cfg;
  World() {
    cfg.lmax_photon = 32;
    cfg.lmax_polarization = 16;
    cfg.lmax_neutrino = 16;
  }
};
const World& world() {
  static World w;
  return w;
}

/// Evolve a mode to tau and return (equations, state) for inspection.
std::vector<double> evolve_state(const pb::ModeEquations& eq, double k,
                                 double tau_init, double tau) {
  plinger::math::Dverk ode;
  plinger::math::OdeOptions opts;
  opts.rtol = 1e-7;
  opts.atol = 1e-12;
  auto y = eq.initial_conditions(tau_init);
  bool in_tca = eq.tca_valid(tau_init);
  if (in_tca && eq.tca_valid(tau)) {
    ode.integrate(
        [&eq](double t, std::span<const double> yy, std::span<double> d) {
          eq.rhs_tca(t, yy, d);
        },
        tau_init, tau, y, opts);
    return y;
  }
  (void)k;
  // Integrate TCA to a safe switch, then full.
  const double tau_sw = std::min(tau, 60.0);
  ode.integrate(
      [&eq](double t, std::span<const double> yy, std::span<double> d) {
        eq.rhs_tca(t, yy, d);
      },
      tau_init, tau_sw, y, opts);
  if (tau > tau_sw) {
    eq.tca_handoff(tau_sw, y);
    ode.integrate(
        [&eq](double t, std::span<const double> yy, std::span<double> d) {
          eq.rhs_full(t, yy, d);
        },
        tau_sw, tau, y, opts);
  }
  return y;
}
}  // namespace

TEST(Gauge, SuperhorizonPsiMatchesAnalytic) {
  // Radiation era, adiabatic, k tau << 1:
  // psi = 20 C / (15 + 4 R_nu) with C = 1 (MB95).
  const auto& w = world();
  const double k = 0.3;
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, k, w.cache);
  const double tau = 0.5;  // k tau = 0.15, a ~ 1e-6: radiation era
  const auto y = eq.initial_conditions(0.01);
  auto state = y;
  {
    plinger::math::Dverk ode;
    plinger::math::OdeOptions opts;
    opts.rtol = 1e-8;
    ode.integrate(
        [&eq](double t, std::span<const double> yy, std::span<double> d) {
          eq.rhs_tca(t, yy, d);
        },
        0.01, tau, state, opts);
  }
  const auto g = w.bg.grho(w.bg.a_of_tau(tau));
  const double r_nu =
      (g.nu_massless + g.nu_massive) / (g.nu_massless + g.nu_massive +
                                        g.photon);
  const double psi_expect = 20.0 / (15.0 + 4.0 * r_nu);
  const auto pot = eq.newtonian(tau, state);
  EXPECT_NEAR(pot.psi, psi_expect, 0.02 * psi_expect);
  // And phi - psi = (2/5) R_nu / (1 + (4/15) R_nu) * psi-ish: just check
  // phi > psi (neutrino shear makes phi exceed psi).
  EXPECT_GT(pot.phi, pot.psi);
}

TEST(Gauge, SuperhorizonAdiabaticNewtonianDensities) {
  // Superhorizon adiabatic in Newtonian gauge: delta_gamma = -2 psi.
  const auto& w = world();
  const double k = 0.1;
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, k, w.cache);
  const double tau = 1.0;  // k tau = 0.1
  const auto y = evolve_state(eq, k, 0.01, tau);
  const auto n = pb::to_newtonian_gauge(eq, tau, y);
  EXPECT_NEAR(n.photon.delta, -2.0 * n.potentials.psi,
              0.05 * std::abs(n.photon.delta));
  // Adiabatic relation survives the gauge change: delta_c = 3/4 delta_g.
  EXPECT_NEAR(n.cdm.delta, 0.75 * n.photon.delta,
              0.05 * std::abs(n.cdm.delta));
}

TEST(Gauge, PoissonResidualTinyAcrossEpochs) {
  const auto& w = world();
  const double k = 0.05;
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, k, w.cache);
  for (double tau : {1.0, 30.0, 235.0, 2000.0, 10000.0}) {
    const auto y = evolve_state(eq, k, 0.4 / k * 0.01, tau);
    EXPECT_LT(pb::poisson_residual(eq, tau, y), 1e-10) << tau;
  }
}

TEST(Gauge, ComovingContrastGaugeInvariantGrowth) {
  // Delta grows ~ a in the matter era and is finite superhorizon.
  const auto& w = world();
  const double k = 0.02;
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, k, w.cache);
  const auto y1 = evolve_state(eq, k, 0.05, 2000.0);
  const auto y2 = evolve_state(eq, k, 0.05, 8000.0);
  const double d1 = pb::comoving_density_contrast(eq, 2000.0, y1);
  const double d2 = pb::comoving_density_contrast(eq, 8000.0, y2);
  EXPECT_GT(std::abs(d2), 3.0 * std::abs(d1));
}

TEST(Gauge, ThetaShiftIsAlphaK2) {
  const auto& w = world();
  const double k = 0.05;
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, k, w.cache);
  const auto y = evolve_state(eq, k, 0.1, 500.0);
  const auto n = pb::to_newtonian_gauge(eq, 500.0, y);
  const auto c = eq.couplings(500.0, y);
  // CDM has theta^(S) = 0, so theta^(N) = alpha k^2 exactly.
  EXPECT_DOUBLE_EQ(n.cdm.theta, c.alpha * k * k);
  EXPECT_EQ(n.cdm.sigma, 0.0);
}

TEST(Isocurvature, ModeStartsWithEntropyPerturbation) {
  const auto& w = world();
  pb::PerturbationConfig cfg = w.cfg;
  cfg.ic_type = pb::InitialConditionType::cdm_isocurvature;
  pb::ModeEquations eq(w.bg, w.rec, cfg, 0.01, w.cache);
  const double tau = 0.5;
  const auto y = eq.initial_conditions(tau);
  EXPECT_DOUBLE_EQ(y[pb::StateLayout::delta_c], 1.0);
  // Radiation nearly unperturbed: the compensating delta_gamma = -2 eps
  // is first order in the (small) CDM-to-radiation ratio.
  const auto g = w.bg.grho(w.bg.a_of_tau(tau));
  const double eps = g.cdm / (g.photon + g.nu_massless);
  EXPECT_LT(eps, 0.02);
  EXPECT_NEAR(y[pb::StateLayout::delta_g], -2.0 * eps, 0.1 * eps);
  EXPECT_NEAR(y[pb::StateLayout::eta], -0.5 * eps, 0.1 * eps);
}

TEST(Isocurvature, EinsteinResidualsHoldForEntropyMode) {
  const auto& w = world();
  pb::PerturbationConfig cfg = w.cfg;
  cfg.ic_type = pb::InitialConditionType::cdm_isocurvature;
  cfg.rtol = 1e-8;
  const double k = 0.02;
  pb::ModeEquations eq(w.bg, w.rec, cfg, k, w.cache);
  auto y = eq.initial_conditions(0.05);
  plinger::math::Dverk ode;
  plinger::math::OdeOptions opts;
  opts.rtol = 1e-8;
  opts.atol = 1e-14;
  ode.integrate(
      [&eq](double t, std::span<const double> yy, std::span<double> d) {
        eq.rhs_tca(t, yy, d);
      },
      0.05, 30.0, y, opts);
  const auto res = eq.einstein_residuals(30.0, y);
  EXPECT_LT(std::abs(res.trace) / res.scale, 5e-3);
  EXPECT_LT(std::abs(res.shear) / res.scale, 5e-3);
}

TEST(Isocurvature, DifferentAcousticPhaseThanAdiabatic) {
  // The entropy mode's photon oscillation is ~90 degrees out of phase
  // with the adiabatic mode: at recombination the two delta_g(k) patterns
  // must differ grossly over a k sweep (zero crossings at different k).
  const auto& w = world();
  pb::PerturbationConfig iso_cfg = w.cfg;
  iso_cfg.ic_type = pb::InitialConditionType::cdm_isocurvature;
  pb::ModeEvolver ad(w.bg, w.rec, w.cfg);
  pb::ModeEvolver iso(w.bg, w.rec, iso_cfg);
  int differing_signs = 0;
  for (double k = 0.03; k < 0.1; k += 0.01) {
    pb::EvolveRequest req;
    req.k = k;
    req.sample_taus = {w.rec.tau_star()};
    const auto ra = ad.evolve(req, w.rec.tau_star() + 5.0);
    const auto ri = iso.evolve(req, w.rec.tau_star() + 5.0);
    if (ra.samples[0].delta_g * ri.samples[0].delta_g < 0.0) {
      ++differing_signs;
    }
  }
  EXPECT_GE(differing_signs, 2);
}

TEST(Isocurvature, MatterPerturbationSurvives) {
  // The CDM perturbation must grow after equality like any matter mode.
  const auto& w = world();
  pb::PerturbationConfig cfg = w.cfg;
  cfg.ic_type = pb::InitialConditionType::cdm_isocurvature;
  pb::ModeEvolver ev(w.bg, w.rec, cfg);
  pb::EvolveRequest req;
  req.k = 0.05;
  const auto r = ev.evolve(req);
  EXPECT_GT(std::abs(r.final_state.delta_c), 5.0);
}
