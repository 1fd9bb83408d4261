// Tight-coupling internals: handoff continuity and the consistency of
// the slip expansion against the exact equations.

#include <cmath>

#include <gtest/gtest.h>

#include "boltzmann/equations.hpp"
#include "common/error.hpp"
#include "math/ode.hpp"

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

/// Evolve in TCA from the ICs to tau.
std::vector<double> tca_state(const pb::ModeEquations& eq, double tau_init,
                              double tau) {
  plinger::math::Dverk ode;
  plinger::math::OdeOptions opts;
  opts.rtol = 1e-8;
  opts.atol = 1e-14;
  auto y = eq.initial_conditions(tau_init);
  ode.integrate(
      [&eq](double t, std::span<const double> yy, std::span<double> d) {
        eq.rhs_tca(t, yy, d);
      },
      tau_init, tau, y, opts);
  return y;
}
}  // namespace

TEST(TightCoupling, ValidityWindow) {
  const auto& w = world();
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, 0.05, w.cache);
  EXPECT_TRUE(eq.tca_valid(1.0));
  EXPECT_FALSE(eq.tca_valid(300.0));  // past recombination
  EXPECT_FALSE(eq.tca_valid(5000.0));
  // Exactly one transition: once invalid, never valid again.
  bool was_valid = true;
  for (double tau = 1.0; tau < 2000.0; tau *= 1.3) {
    const bool v = eq.tca_valid(tau);
    if (!was_valid) {
      EXPECT_FALSE(v) << tau;
    }
    was_valid = v;
  }
}

TEST(TightCoupling, HandoffSeedsQuasiStaticPolarization) {
  const auto& w = world();
  const double k = 0.05;
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, k, w.cache);
  const auto& L = eq.layout();
  auto y = tca_state(eq, 0.02, 40.0);
  eq.tca_handoff(40.0, y);
  // Pi = (5/2) F2, G0 = Pi/2, G2 = Pi/10.
  const double f2 = y[L.fg(2)];
  ASSERT_NE(f2, 0.0);
  EXPECT_NEAR(y[L.gg(0)], 1.25 * f2, 1e-12 * std::abs(f2));
  EXPECT_NEAR(y[L.gg(2)], 0.25 * f2, 1e-12 * std::abs(f2));
  // Higher moments stay zero at the handoff.
  EXPECT_EQ(y[L.fg(3)], 0.0);
  EXPECT_EQ(y[L.gg(3)], 0.0);
}

TEST(TightCoupling, SlipMatchesExactEquationsDeepInCoupling) {
  // Deep in tight coupling the slip-expanded theta_b' must agree with
  // the exact (stiff) equation evaluated on the slaved state to O(tau_c).
  const auto& w = world();
  const double k = 0.02;
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, k, w.cache);
  const double tau = 20.0;  // deep: opacity ~ 120/Mpc
  auto y = tca_state(eq, 0.02, tau);

  std::vector<double> dy_tca(y.size(), 0.0);
  eq.rhs_tca(tau, y, dy_tca);

  // Seed the slaved moments so the full equations see the same photon
  // state the TCA assumes, then compare the baryon acceleration.
  auto y_full = y;
  eq.tca_handoff(tau, y_full);
  std::vector<double> dy_full(y_full.size(), 0.0);
  eq.rhs_full(tau, y_full, dy_full);

  const double a = dy_tca[pb::StateLayout::theta_b];
  const double b = dy_full[pb::StateLayout::theta_b];
  EXPECT_NEAR(a / b, 1.0, 0.05) << a << " vs " << b;
  // Densities agree exactly (same formulas).
  EXPECT_DOUBLE_EQ(dy_tca[pb::StateLayout::delta_b],
                   dy_full[pb::StateLayout::delta_b]);
  EXPECT_DOUBLE_EQ(dy_tca[pb::StateLayout::delta_g],
                   dy_full[pb::StateLayout::delta_g]);
}

TEST(TightCoupling, PhotonBaryonLockedWhileCoupled) {
  // theta_g tracks theta_b to O(tau_c) through the coupled era.
  const auto& w = world();
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, 0.03, w.cache);
  for (double tau : {5.0, 20.0, 50.0}) {
    const auto y = tca_state(eq, 0.02, tau);
    const double tb = y[pb::StateLayout::theta_b];
    const double tg = y[pb::StateLayout::theta_g];
    EXPECT_NEAR(tg / tb, 1.0, 0.02) << tau;
  }
}

TEST(TightCoupling, HandoffPreservesConservedQuantities) {
  // The handoff only touches slaved moments: densities, velocities and
  // the metric must be bit-identical across it.
  const auto& w = world();
  pb::ModeEquations eq(w.bg, w.rec, w.cfg, 0.05, w.cache);
  auto y = tca_state(eq, 0.02, 45.0);
  const auto before = y;
  eq.tca_handoff(45.0, y);
  for (std::size_t i : {pb::StateLayout::a, pb::StateLayout::eta,
                        pb::StateLayout::h, pb::StateLayout::delta_c,
                        pb::StateLayout::delta_b,
                        pb::StateLayout::theta_b,
                        pb::StateLayout::delta_g,
                        pb::StateLayout::theta_g}) {
    EXPECT_EQ(y[i], before[i]) << i;
  }
}
