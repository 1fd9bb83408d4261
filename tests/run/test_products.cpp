// make_spectra products: the polarization contract of the unified
// SourceTable pipeline.
//
// Pinned here: solver=auto runs — all-LOS grids and grids straddling
// the crossover — deliver genuinely nonzero C_l^EE / C_l^TE (the fast
// path projects E sources, not zeros), SpectrumSet::polarization_l_max
// reports the honest coverage, and a run whose mode results cannot
// reach an l >= 2 polarization contribution is refused with a
// diagnostic instead of handing the caller silently-zero EE/TE columns.
// The projection pool: make_spectra's C_l are bitwise independent of
// the pool size (workers, or 1 under driver=serial) and bitwise equal
// to a serial build + project + accumulate loop in ik order, and a
// projection that throws surfaces from make_spectra with its type and
// message, every pool thread joined.

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boltzmann/source_table.hpp"
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

/// A log grid straddling the solver=auto crossover: the first modes
/// are evolved, the rest are projected.
pr::RunConfig straddling_auto_config() {
  pr::RunConfig cfg = small_config();
  cfg.grid = "log";
  cfg.k_min = 0.0003;
  cfg.k_max = 0.03;
  cfg.n_k = 12;
  cfg.solver = "auto";
  cfg.los_accuracy = "draft";
  return cfg;
}

/// make_spectra under another driver/pool size, on the same results.
pr::SpectrumSet spectra_with_pool(const pr::RunConfig& base,
                                  const plinger::parallel::RunOutput& out,
                                  const std::string& driver, int workers) {
  pr::RunConfig cfg = base;
  cfg.driver = driver;
  cfg.workers = workers;
  const pr::RunPlan plan(cfg, shared_context());
  return pr::make_spectra(plan, out);
}

/// The serial oracle: build, project and accumulate one mode at a time
/// in ascending ik order, then COBE-normalize.
pr::SpectrumSet serial_oracle(const pr::RunPlan& plan,
                              const plinger::parallel::RunOutput& out) {
  const std::size_t l_max = plan.config().l_max;
  plinger::spectra::PowerLawSpectrum primordial;
  primordial.n_s = plan.config().n_s;
  plinger::spectra::ClAccumulator acc(l_max, primordial);
  double x_max = 1.0;
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    x_max = std::max(x_max, r.k * r.tau_end);
  }
  const plinger::boltzmann::BesselTable table(l_max + 1, x_max);
  for (const auto& [ik, r] : out.results) {
    const double w = plan.schedule().weight_of_ik(ik);
    std::vector<double> f = r.f_gamma, g = r.g_gamma;
    if (!r.samples.empty()) {
      auto pm = plinger::boltzmann::project_source_table(
          plinger::boltzmann::build_source_table(
              plan.context().background(), plan.context().recombination(),
              r),
          l_max, table);
      f = std::move(pm.f_gamma);
      g = std::move(pm.g_gamma);
    }
    acc.add_mode(r.k, w, f);
    acc.add_mode_polarization(r.k, w, g);
    acc.add_mode_cross(r.k, w, f, g);
  }
  pr::SpectrumSet s;
  s.temperature = acc.temperature();
  s.polarization = acc.polarization();
  s.cross = acc.cross();
  s.cobe_factor = plinger::spectra::normalize_to_cobe_quadrupole(
      s.temperature, 18e-6, plan.context().params().t_cmb);
  for (double& c : s.polarization.cl) c *= s.cobe_factor;
  for (double& c : s.cross.cl) c *= s.cobe_factor;
  return s;
}

void expect_bitwise_equal(const pr::SpectrumSet& a, const pr::SpectrumSet& b,
                          const std::string& label) {
  // operator== on the vectors compares every double exactly.
  EXPECT_TRUE(a.temperature.cl == b.temperature.cl) << label << ": TT";
  EXPECT_TRUE(a.polarization.cl == b.polarization.cl) << label << ": EE";
  EXPECT_TRUE(a.cross.cl == b.cross.cl) << label << ": TE";
  EXPECT_EQ(a.cobe_factor, b.cobe_factor) << label << ": cobe_factor";
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

TEST(MakeSpectraProjectionPool, SpectraAreBitwiseIndependentOfPoolSize) {
  const pr::RunConfig cfg = straddling_auto_config();
  const pr::RunPlan plan(cfg, shared_context());
  const auto out = plan.execute();
  std::size_t projected = 0;
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    projected += r.samples.empty() ? 0 : 1;
  }
  // Both branches, and more projected modes than the largest pool.
  ASSERT_GT(projected, 4u);
  ASSERT_LT(projected, out.results.size());

  const pr::SpectrumSet oracle = serial_oracle(plan, out);
  expect_bitwise_equal(spectra_with_pool(cfg, out, "serial", 4), oracle,
                       "driver=serial");
  for (const int workers : {1, 2, 4}) {
    expect_bitwise_equal(spectra_with_pool(cfg, out, "threads", workers),
                         oracle, "workers=" + std::to_string(workers));
  }
}

TEST(MakeSpectraProjectionPool, ProjectionFailureSurfacesWithItsMessage) {
  // A sample-bearing mode with too few samples for its SourceTable: the
  // pool must rethrow build_source_table's InvalidArgument from
  // make_spectra after joining its threads, not hang or terminate.
  const pr::RunConfig cfg = straddling_auto_config();
  const pr::RunPlan plan(cfg, shared_context());
  auto out = plan.execute();
  std::optional<std::size_t> doctored;
  std::size_t seen = 0;
  for (auto& [ik, r] : out.results) {
    if (r.samples.empty() || ++seen != 3) continue;
    r.samples.resize(10);
    doctored = ik;
  }
  ASSERT_TRUE(doctored.has_value());
  for (int round = 0; round < 5; ++round) {
    try {
      (void)spectra_with_pool(cfg, out, "threads", 4);
      FAIL() << "make_spectra accepted a 10-sample source table";
    } catch (const plinger::InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("build_source_table: too few source samples"),
                std::string::npos)
          << msg;
    }
  }
}
