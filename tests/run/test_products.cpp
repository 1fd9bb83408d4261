// make_spectra products: the polarization contract of the unified
// SourceTable pipeline.
//
// Pinned here: solver=auto runs — all-LOS grids and grids straddling
// the crossover — deliver genuinely nonzero C_l^EE / C_l^TE (the fast
// path projects E sources, not zeros), SpectrumSet::polarization_l_max
// reports the honest coverage, and a run whose mode results cannot
// reach an l >= 2 polarization contribution is refused with a
// diagnostic instead of handing the caller silently-zero EE/TE columns.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"

namespace pr = plinger::run;

namespace {

/// Small but real: full conformal age (the LOS sources need the
/// visibility epoch), draft sampling, reduced towers.  Seconds total.
pr::RunConfig small_config() {
  pr::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.004;
  cfg.k_max = 0.04;
  cfg.n_k = 6;
  cfg.l_max = 24;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.driver = "serial";
  return cfg;
}

std::shared_ptr<const pr::RunContext> shared_context() {
  static const std::shared_ptr<const pr::RunContext> ctx =
      pr::make_context(small_config());
  return ctx;
}

}  // namespace

TEST(MakeSpectraPolarization, LosDeliversNonzeroEeAndTe) {
  // small_config's grid sits entirely above the crossover: every mode
  // is projected.
  pr::RunConfig cfg = small_config();
  cfg.solver = "auto";
  cfg.los_accuracy = "draft";
  const pr::RunPlan plan(cfg, shared_context());
  const auto out = plan.execute();
  ASSERT_EQ(out.results.size(), 6u);
  const pr::SpectrumSet spec = pr::make_spectra(plan, out);

  EXPECT_EQ(spec.polarization_l_max, cfg.l_max);
  bool te_alive = false;
  for (std::size_t l = 2; l <= cfg.l_max; ++l) {
    // EE is an auto spectrum: every accumulated quadrature is a square,
    // so "nonzero" means strictly positive at every l.
    EXPECT_GT(spec.polarization.cl[l], 0.0) << "l=" << l;
    te_alive = te_alive || spec.cross.cl[l] != 0.0;
  }
  EXPECT_TRUE(te_alive);
}

TEST(MakeSpectraPolarization, AutoRoutingKeepsAllThreeSpectraAlive) {
  // solver=auto splits the schedule at the crossover: hierarchy modes
  // contribute their evolved (full-tower-lifted) G towers, LOS modes
  // their projected ones — every spectrum must see both branches, not
  // just C_l^TT.  The grid straddles kAutoSolverCrossoverK, unlike
  // small_config's (which sits entirely on the LOS side).
  pr::RunConfig cfg = small_config();
  cfg.k_min = 0.0004;
  cfg.k_max = 0.004;
  cfg.solver = "auto";
  cfg.los_accuracy = "draft";
  const pr::RunPlan plan(cfg, shared_context());
  const auto out = plan.execute();
  ASSERT_EQ(out.results.size(), 6u);

  // The crossover actually split this grid (else the test is vacuous).
  bool hier_branch = false, los_branch = false;
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    (r.samples.empty() ? hier_branch : los_branch) = true;
  }
  ASSERT_TRUE(hier_branch);
  ASSERT_TRUE(los_branch);

  const pr::SpectrumSet spec = pr::make_spectra(plan, out);
  EXPECT_GE(spec.polarization_l_max, 2u);
  for (std::size_t l = 2; l <= cfg.l_max; ++l) {
    EXPECT_GT(spec.polarization.cl[l], 0.0) << "l=" << l;
  }
}

TEST(MakeSpectraPolarization, RefusesSilentZeroPolarizationColumns) {
  // A result set whose G towers cannot reach l = 2 (doctored here; in
  // the field: a truncated journal or a miswired tower) must be refused
  // loudly — zeros in a C_l^EE column are a lie, not a spectrum.
  pr::RunConfig cfg = small_config();
  const pr::RunPlan plan(cfg, shared_context());
  auto out = plan.execute();
  ASSERT_EQ(out.results.size(), 6u);
  for (auto& [ik, r] : out.results) {
    (void)ik;
    r.g_gamma.resize(2);  // monopole + dipole only: no l >= 2 reach
  }
  try {
    (void)pr::make_spectra(plan, out);
    FAIL() << "make_spectra accepted polarization-free mode results";
  } catch (const plinger::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("polarization"), std::string::npos) << msg;
    EXPECT_NE(msg.find("silently zero"), std::string::npos) << msg;
  }
}
