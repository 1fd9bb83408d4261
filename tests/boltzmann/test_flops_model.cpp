// The flop-count model behind the paper-style Mflop accounting (§5.1)
// must track the implemented RHS: bench_floprate divides ModeResult.flops
// by CPU time, so a stale model silently mis-reports the sustained rate.
// These tests pin the per-term model of the one (ThermoCache) RHS and
// assert the evolver's reported flops are n_rhs * flops_per_rhs.

#include <gtest/gtest.h>

#include <cstdint>

#include "boltzmann/equations.hpp"
#include "boltzmann/mode_evolution.hpp"
#include "cosmo/thermo_cache.hpp"

namespace {

using plinger::boltzmann::EvolveRequest;
using plinger::boltzmann::ModeEquations;
using plinger::boltzmann::ModeEvolver;
using plinger::boltzmann::PerturbationConfig;
using plinger::boltzmann::StateLayout;
using plinger::cosmo::Background;
using plinger::cosmo::CosmoParams;
using plinger::cosmo::Recombination;
using plinger::cosmo::ThermoCache;

/// The current cost model, spelled out term by term (see
/// ModeEquations::flops_per_rhs): a 140-flop common block (one fused
/// ThermoCache lookup, the densities and the Einstein constraints), and
/// tabulated-coupling interior rows lo*f[l-1] - hi*f[l+1] costing 5
/// (photon/polarization, with the opacity term), 3 (massless nu), and 4
/// (massive nu, with the qke scale) flops per multipole.
std::uint64_t expected_flops(const StateLayout& layout) {
  const std::uint64_t common = 140;
  const std::uint64_t photons = (layout.lmax_photon() - 1) * 5 +
                                (layout.lmax_polarization() + 1) * 5;
  const std::uint64_t neutrinos = (layout.lmax_neutrino() + 1) * 3;
  const std::uint64_t massive =
      layout.n_q() * ((layout.lmax_massive_nu() + 1) * 4 + 28);
  return common + photons + neutrinos + massive;
}

class FlopsModelTest : public ::testing::Test {
 protected:
  FlopsModelTest()
      : bg_(CosmoParams::standard_cdm()), rec_(bg_), cache_(bg_, rec_) {}

  Background bg_;
  Recombination rec_;
  ThermoCache cache_;
};

TEST_F(FlopsModelTest, CachedAndDirectModelsMatchFormula) {
  for (const std::size_t lmax_photon : {16UL, 128UL, 1024UL}) {
    PerturbationConfig cfg;
    cfg.lmax_photon = lmax_photon;
    const ModeEquations eq(bg_, rec_, cfg, 0.05, cache_);
    EXPECT_EQ(eq.flops_per_rhs(), expected_flops(eq.layout()));
  }
}

TEST_F(FlopsModelTest, MassiveNeutrinoTermScalesWithMomentumNodes) {
  const Background bg(CosmoParams::mixed_dark_matter());
  const Recombination rec(bg);
  const ThermoCache cache(bg, rec);
  PerturbationConfig cfg;
  cfg.lmax_massive_nu = 6;
  std::uint64_t prev = 0;
  for (const std::size_t n_q : {2UL, 4UL, 8UL}) {
    cfg.n_q = n_q;
    const ModeEquations eq(bg, rec, cfg, 0.05, cache);
    EXPECT_EQ(eq.flops_per_rhs(), expected_flops(eq.layout()));
    EXPECT_GT(eq.flops_per_rhs(), prev);
    prev = eq.flops_per_rhs();
  }
}

TEST_F(FlopsModelTest, EvolverReportsRhsCountTimesModel) {
  // bench_floprate's Mflop/s = ModeResult.flops / cpu_seconds; the flops
  // numerator must be exactly n_rhs * the per-call model.
  PerturbationConfig cfg;
  cfg.rtol = 1e-4;
  const ModeEvolver evolver(bg_, rec_, cfg);
  EvolveRequest req;
  req.k = 0.01;
  req.lmax_photon = 64;
  const auto r = evolver.evolve(req);
  ASSERT_GT(r.stats.n_rhs, 0);

  PerturbationConfig used = cfg;
  used.lmax_photon = r.lmax;
  const ModeEquations eq(bg_, rec_, used, req.k, cache_);
  EXPECT_EQ(r.flops,
            static_cast<std::uint64_t>(r.stats.n_rhs) * eq.flops_per_rhs());
  EXPECT_EQ(eq.flops_per_rhs(), expected_flops(eq.layout()));
}

}  // namespace
