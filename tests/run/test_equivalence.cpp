// Golden equivalence: the run layer vs the legacy hand-rolled wiring.
//
// The refactor's acceptance bar is bitwise: RunConfig -> RunContext ->
// RunPlan -> execute() must reproduce, bit for bit, what the
// pre-refactor entry points produced by building
// Background/Recombination/KSchedule/RunSetup by hand.  These tests
// recreate that legacy wiring inline (copied from the old linger_cli
// main) and diff every mode and the accumulated temperature spectrum.
// The store identity is pinned here too, and walked key by key against
// the roles of the RunConfig key table.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "cosmo/background.hpp"
#include "cosmo/params.hpp"
#include "cosmo/recombination.hpp"
#include "io/params.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "spectra/cl.hpp"
#include "store/identity.hpp"
#include "store/mode_result_store.hpp"

using namespace plinger;

namespace {

// The shared small-but-real test run: linear grid, reduced hierarchy,
// early stop — seconds, not minutes, and every code path exercised.
run::RunConfig small_config() {
  run::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.002;
  cfg.k_max = 0.02;
  cfg.n_k = 8;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.tau_end = 600.0;
  cfg.lmax_cap = 24;
  cfg.driver = "serial";
  return cfg;
}

// The legacy linger_cli wiring, verbatim: explicit closure expression,
// hand-built schedule and setup, direct driver call.
parallel::RunOutput legacy_run(const run::RunConfig& cfg) {
  cosmo::CosmoParams params = cosmo::CosmoParams::standard_cdm();
  params.h = cfg.h;
  params.omega_b = cfg.omega_b;
  params.omega_lambda = cfg.omega_lambda;
  params.t_cmb = cfg.t_cmb;
  params.n_s = cfg.n_s;
  params.omega_c = 1.0 - params.omega_b - params.omega_lambda -
                   params.omega_gamma() - params.omega_nu_massless();

  const cosmo::Background bg(params);
  cosmo::Recombination::Options ropts;
  ropts.z_reion = cfg.z_reion;
  const cosmo::Recombination rec(bg, ropts);

  const auto kgrid = math::linspace(cfg.k_min, cfg.k_max, cfg.n_k);
  const parallel::KSchedule schedule(kgrid,
                                     parallel::IssueOrder::largest_first);

  boltzmann::PerturbationConfig pcfg;
  pcfg.rtol = cfg.rtol;
  pcfg.lmax_photon = cfg.lmax_photon;
  pcfg.lmax_polarization = cfg.lmax_polarization;
  pcfg.lmax_neutrino = cfg.lmax_neutrino;

  parallel::RunSetup setup;
  setup.tau_end = cfg.tau_end;
  setup.lmax_cap = cfg.lmax_cap;
  setup.n_k = static_cast<double>(schedule.size());
  return parallel::run_linger_serial(bg, rec, pcfg, schedule, setup);
}

void expect_bitwise_equal(const parallel::RunOutput& a,
                          const parallel::RunOutput& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [ik, ra] : a.results) {
    const auto it = b.results.find(ik);
    ASSERT_NE(it, b.results.end()) << "ik " << ik;
    const auto& rb = it->second;
    EXPECT_EQ(ra.k, rb.k) << "ik " << ik;
    EXPECT_EQ(ra.lmax, rb.lmax) << "ik " << ik;
    EXPECT_EQ(ra.f_gamma, rb.f_gamma) << "ik " << ik;
    EXPECT_EQ(ra.g_gamma, rb.g_gamma) << "ik " << ik;
    EXPECT_EQ(ra.final_state.delta_c, rb.final_state.delta_c);
    EXPECT_EQ(ra.final_state.delta_b, rb.final_state.delta_b);
    EXPECT_EQ(ra.final_state.delta_m, rb.final_state.delta_m);
    EXPECT_EQ(ra.final_state.eta, rb.final_state.eta);
    EXPECT_EQ(ra.tau_switch, rb.tau_switch);
  }
}

}  // namespace

TEST(RunEquivalence, PlanReproducesLegacyWiringBitwise) {
  const run::RunConfig cfg = small_config();
  const auto legacy = legacy_run(cfg);
  const auto modern = run::execute_run(cfg);
  expect_bitwise_equal(legacy, modern);
}

TEST(RunEquivalence, DriversAgreeThroughTheRunLayer) {
  run::RunConfig cfg = small_config();
  const auto ctx = run::make_context(cfg);
  const auto serial = run::RunPlan(cfg, ctx).execute();
  cfg.driver = "threads";
  cfg.workers = 2;
  const auto threads = run::RunPlan(cfg, ctx).execute();
  cfg.driver = "autotask";
  const auto autotask = run::RunPlan(cfg, ctx).execute();
  expect_bitwise_equal(serial, threads);
  expect_bitwise_equal(serial, autotask);
}

TEST(RunEquivalence, IdentityHashIsStableAcrossReleases) {
  // Pinned value of the small_config() identity (store::kIdentityVersion
  // 2, the key-table hash).  If this changes, every existing journal
  // stops resuming — any edit that moves it needs a kIdentityVersion
  // bump and a CHANGES.md entry, not just a new constant.
  const run::RunPlan plan(small_config(), run::make_context(small_config()));
  EXPECT_EQ(plan.identity().value, UINT64_C(0x22F3F6385DCBBC6F));
}

TEST(RunEquivalence, AutoIdentityHashIsStableAcrossReleases) {
  // Pinned solver=auto stamp of small_config(); same migration rule as
  // the hierarchy pin above.
  run::RunConfig cfg = small_config();
  cfg.solver = "auto";
  const run::RunPlan plan(cfg, run::make_context(cfg));
  EXPECT_EQ(plan.identity().value, UINT64_C(0x3512A0D3133320A2));
}

TEST(RunEquivalence, OldIdentityJournalIsRefusedWithTheRemedy) {
  // A journal stamped by the version-1 identity rule (small_config()'s
  // stamp before the key-table hash) must be refused loudly, and the
  // refusal must tell the operator how to proceed.
  const std::string path =
      ::testing::TempDir() + "plinger_identity_v1_journal.pj";
  std::filesystem::remove(path);
  {
    store::StoreOptions opts;
    opts.path = path;
    const store::ModeResultStore v1(
        opts, store::RunIdentity{UINT64_C(0xE0DE65790795AA5C)}, 8);
  }
  run::RunConfig cfg = small_config();
  cfg.store = path;
  const run::RunPlan plan(cfg, run::make_context(cfg));
  ASSERT_EQ(plan.schedule().size(), 8u);
  try {
    (void)plan.execute();
    ADD_FAILURE() << "a version-1 journal was resumed";
  } catch (const store::StoreIdentityMismatch& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("e0de65790795aa5c"), std::string::npos) << what;
    EXPECT_NE(what.find("move or delete the journal"), std::string::npos)
        << what;
    EXPECT_NE(what.find("point store= at a new path"), std::string::npos)
        << what;
  }
  std::filesystem::remove(path);
}

namespace {

// The key walk's base: small_config() on the threads driver with a
// massive neutrino and a tcp_listen endpoint, so every row below has a
// valid alternative on its own.  Plans are built, never executed.
run::RunConfig key_walk_base() {
  run::RunConfig cfg = small_config();
  cfg.n_massive_nu = 1;
  cfg.omega_nu = 0.1;
  cfg.driver = "threads";
  cfg.tcp_listen = "127.0.0.1:0";
  return cfg;
}

// One valid alternative value per config_keys() row.  A row without an
// entry fails the walk, so a key cannot land untagged and unchecked.
const std::map<std::string, std::string>& key_walk_alternatives() {
  static const std::map<std::string, std::string> alt = {
      {"preset", "lcdm"},
      {"h", "0.55"},
      {"omega_b", "0.06"},
      {"omega_lambda", "0.1"},
      {"omega_nu", "0.15"},
      {"n_massive_nu", "2"},
      {"n_eff_massless", "2.04"},
      {"t_cmb", "2.7255"},
      {"y_helium", "0.25"},
      {"n_s", "0.96"},
      {"z_reion", "20"},
      {"grid", "log"},
      {"k_min", "0.003"},
      {"k_max", "0.03"},
      {"n_k", "9"},
      {"l_max", "30"},
      {"points_per_osc", "3"},
      {"k_margin", "1.5"},
      {"order", "natural"},
      {"ic", "isocurvature"},
      {"integrator", "dop853"},
      {"rtol", "1e-6"},
      {"lmax_photon", "32"},
      {"lmax_polarization", "16"},
      {"lmax_neutrino", "16"},
      {"tau_end", "700"},
      {"lmax_cap", "32"},
      {"solver", "auto"},
      {"los_accuracy", "draft"},
      {"tca_eps", "0.004"},
      {"driver", "serial"},
      {"workers", "3"},
      {"transport", "tcp"},
      {"tcp_listen", "127.0.0.1:1"},
      {"tcp_connect", "127.0.0.1:2"},
      {"tcp_retry", "3"},
      {"tcp_backoff_ms", "100"},
      {"store", "walk.pj"},
      {"resume", "0"},
      {"flush_interval", "4"},
      {"stop_after", "3"},
      {"trace", "1"},
      {"trace_json", "walk.json"},
      {"fault_timeout", "5"},
      {"max_retries", "4"},
  };
  return alt;
}

}  // namespace

TEST(RunIdentity, KeyWalkHashesExactlyTheNonOperationalKeys) {
  // Flip each key-table row, alone, to a valid alternative: the store
  // identity must move exactly when the row is not operational, and
  // the context cache key exactly when the row is cosmology.
  const run::RunConfig base = key_walk_base();
  const auto base_ctx = run::make_context(base);
  const std::uint64_t base_id = run::RunPlan(base, base_ctx).identity().value;
  const std::uint64_t base_cosmo = run::RunContext::cosmology_key(base);
  std::istringstream base_text(base.to_params_text());
  const io::KeyValueMap base_kv = io::parse_params(base_text);

  const auto& alt = key_walk_alternatives();
  std::size_t walked = 0;
  for (const run::ConfigKey& row : run::config_keys()) {
    SCOPED_TRACE(row.key);
    const auto it = alt.find(row.key);
    ASSERT_NE(it, alt.end())
        << "key '" << row.key << "' has no alternative value in the walk";
    io::KeyValueMap kv = base_kv;
    kv[row.key] = it->second;
    const run::RunConfig flipped = run::parse_config(kv).config;
    ASSERT_FALSE(flipped == base) << "alternative is the base value";

    const std::uint64_t cosmo = run::RunContext::cosmology_key(flipped);
    EXPECT_EQ(cosmo != base_cosmo, row.role == run::KeyRole::cosmology);
    const auto ctx =
        cosmo == base_cosmo ? base_ctx : run::make_context(flipped);
    const std::uint64_t id = run::RunPlan(flipped, ctx).identity().value;
    EXPECT_NE(id, 0u);
    EXPECT_EQ(id != base_id, row.role != run::KeyRole::operational)
        << "role " << run::key_role_name(row.role);
    ++walked;
  }
  EXPECT_EQ(walked, alt.size()) << "the walk names keys the table lacks";
}

TEST(RunEquivalence, SpectraMatchLegacyAccumulationBitwise) {
  // make_spectra() must accumulate exactly like the legacy example
  // loops: ascending ik, trapezoid weights, add_mode() per result, COBE
  // normalization last.  Polarization/cross accumulate into independent
  // sums, so requesting them cannot perturb the temperature bits.
  const run::RunConfig cfg = small_config();
  const auto ctx = run::make_context(cfg);
  const run::RunPlan plan(cfg, ctx);
  const auto out = plan.execute();

  const std::size_t l_max = cfg.lmax_photon;
  spectra::PowerLawSpectrum primordial;
  primordial.n_s = cfg.n_s;
  spectra::ClAccumulator acc(l_max, primordial);
  for (const auto& [ik, r] : out.results) {
    acc.add_mode(r.k, plan.schedule().weight_of_ik(ik), r.f_gamma);
  }
  auto want = acc.temperature();
  const double cobe = spectra::normalize_to_cobe_quadrupole(
      want, 18e-6, ctx->params().t_cmb);

  const auto got = run::make_spectra(plan, out, l_max);
  ASSERT_EQ(got.temperature.cl.size(), want.cl.size());
  for (std::size_t l = 0; l < want.cl.size(); ++l) {
    EXPECT_EQ(got.temperature.cl[l], want.cl[l]) << "l " << l;
  }
  EXPECT_EQ(got.cobe_factor, cobe);
  EXPECT_EQ(got.modes_used, out.results.size());
}

TEST(RunEquivalence, SharedContextIsBitwiseNeutral) {
  // Two plans sharing one RunContext (one ThermoCache) vs two
  // independently contexted runs: identical bits.  This is the property
  // run_batch() relies on.
  const run::RunConfig cfg = small_config();
  const auto shared = run::make_context(cfg);
  const auto a = run::RunPlan(cfg, shared).execute();
  const auto b = run::RunPlan(cfg, shared).execute();
  const auto solo = run::execute_run(cfg);
  expect_bitwise_equal(a, solo);
  expect_bitwise_equal(b, solo);
}
