// Driver-equivalence sweep: "PLINGER = LINGER over message passing".
//
// One parameterized test asserts bitwise-identical ModeResults across
// the serial, autotask, and message-passing drivers for every IssueOrder
// policy and worker counts {1, 2, 4}.  The reference is a single serial
// natural-order run; since results are keyed by the ascending work index
// ik, neither the issue order nor the transport may change a single bit.

#include <thread>

#include <gtest/gtest.h>

#include "boltzmann/los.hpp"
#include "math/spline.hpp"
#include "plinger/driver.hpp"

namespace pp = plinger::parallel;
namespace pb = plinger::boltzmann;
namespace pc = plinger::cosmo;

namespace {

constexpr std::size_t kNModes = 6;

struct World {
  pc::Background bg{pc::CosmoParams::standard_cdm()};
  pc::Recombination rec{bg};
  pb::PerturbationConfig cfg;
  World() {
    cfg.lmax_photon = 24;
    cfg.lmax_polarization = 12;
    cfg.lmax_neutrino = 12;
    cfg.rtol = 1e-5;
  }
};
const World& world() {
  static World w;
  return w;
}

pp::KSchedule schedule_with(pp::IssueOrder order) {
  return pp::KSchedule(plinger::math::linspace(0.002, 0.02, kNModes),
                       order);
}

pp::RunSetup setup_for(const pp::KSchedule& s) {
  pp::RunSetup setup;
  setup.tau_end = 600.0;  // stop well before today: keeps the sweep fast
  setup.lmax_cap = 24;
  setup.n_k = static_cast<double>(s.size());
  return setup;
}

/// The serial natural-order reference every configuration must match.
const std::map<std::size_t, pb::ModeResult>& reference() {
  static const auto ref = [] {
    const auto& w = world();
    const auto s = schedule_with(pp::IssueOrder::natural);
    return pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup_for(s))
        .results;
  }();
  return ref;
}

/// Bitwise equality of everything except wallclock-dependent fields
/// (cpu_seconds is a timing, so it is excluded by construction).  The
/// message-passing driver reassembles results from the paper's tag-4/5
/// wire records, which do not carry n_rejected, alpha, or pi_pol; for
/// that driver only the wire-carried fields are compared (still bitwise).
void expect_bitwise_equal(const pb::ModeResult& a, const pb::ModeResult& b,
                          std::size_t ik, bool wire_fields_only) {
  EXPECT_EQ(a.k, b.k) << ik;
  EXPECT_EQ(a.lmax, b.lmax) << ik;
  EXPECT_EQ(a.flops, b.flops) << ik;
  EXPECT_EQ(a.stats.n_accepted, b.stats.n_accepted) << ik;
  EXPECT_EQ(a.stats.n_rhs, b.stats.n_rhs) << ik;
  EXPECT_EQ(a.tau_init, b.tau_init) << ik;
  EXPECT_EQ(a.tau_switch, b.tau_switch) << ik;
  EXPECT_EQ(a.tau_end, b.tau_end) << ik;

  const auto& fa = a.final_state;
  const auto& fb = b.final_state;
  EXPECT_EQ(fa.a, fb.a) << ik;
  EXPECT_EQ(fa.delta_c, fb.delta_c) << ik;
  EXPECT_EQ(fa.delta_b, fb.delta_b) << ik;
  EXPECT_EQ(fa.delta_g, fb.delta_g) << ik;
  EXPECT_EQ(fa.delta_nu, fb.delta_nu) << ik;
  EXPECT_EQ(fa.delta_m, fb.delta_m) << ik;
  EXPECT_EQ(fa.theta_b, fb.theta_b) << ik;
  EXPECT_EQ(fa.theta_g, fb.theta_g) << ik;
  EXPECT_EQ(fa.eta, fb.eta) << ik;
  EXPECT_EQ(fa.h, fb.h) << ik;
  EXPECT_EQ(fa.phi, fb.phi) << ik;
  EXPECT_EQ(fa.psi, fb.psi) << ik;
  if (!wire_fields_only) {
    EXPECT_EQ(a.stats.n_rejected, b.stats.n_rejected) << ik;
    EXPECT_EQ(fa.alpha, fb.alpha) << ik;
    EXPECT_EQ(fa.pi_pol, fb.pi_pol) << ik;
  }

  ASSERT_EQ(a.f_gamma.size(), b.f_gamma.size()) << ik;
  for (std::size_t l = 0; l < a.f_gamma.size(); ++l) {
    EXPECT_EQ(a.f_gamma[l], b.f_gamma[l]) << ik << " l=" << l;
  }
  ASSERT_EQ(a.g_gamma.size(), b.g_gamma.size()) << ik;
  for (std::size_t l = 0; l < a.g_gamma.size(); ++l) {
    EXPECT_EQ(a.g_gamma[l], b.g_gamma[l]) << ik << " l=" << l;
  }
}

void expect_matches_reference(
    const std::map<std::size_t, pb::ModeResult>& results,
    bool wire_fields_only = false) {
  const auto& ref = reference();
  ASSERT_EQ(results.size(), ref.size());
  for (const auto& [ik, r_ref] : ref) {
    ASSERT_TRUE(results.count(ik)) << ik;
    expect_bitwise_equal(results.at(ik), r_ref, ik, wire_fields_only);
  }
}

struct SweepCase {
  pp::IssueOrder order;
  int workers;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const char* order = "";
  switch (info.param.order) {
    case pp::IssueOrder::largest_first: order = "LargestFirst"; break;
    case pp::IssueOrder::natural: order = "Natural"; break;
    case pp::IssueOrder::random_shuffle: order = "Shuffled"; break;
  }
  return std::string(order) + "Workers" +
         std::to_string(info.param.workers);
}

class DriverEquivalence : public ::testing::TestWithParam<SweepCase> {};

}  // namespace

TEST_P(DriverEquivalence, AllDriversBitwiseIdentical) {
  const auto& w = world();
  const auto [order, workers] = GetParam();
  const auto s = schedule_with(order);
  const auto setup = setup_for(s);

  const auto serial = pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup);
  expect_matches_reference(serial.results);

  const auto autotask =
      pp::run_linger_autotask(w.bg, w.rec, w.cfg, s, setup, workers);
  expect_matches_reference(autotask.results);

  const auto plinger =
      pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, workers);
  expect_matches_reference(plinger.results, /*wire_fields_only=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DriverEquivalence,
    ::testing::Values(
        SweepCase{pp::IssueOrder::largest_first, 1},
        SweepCase{pp::IssueOrder::largest_first, 2},
        SweepCase{pp::IssueOrder::largest_first, 4},
        SweepCase{pp::IssueOrder::natural, 1},
        SweepCase{pp::IssueOrder::natural, 2},
        SweepCase{pp::IssueOrder::natural, 4},
        SweepCase{pp::IssueOrder::random_shuffle, 1},
        SweepCase{pp::IssueOrder::random_shuffle, 2},
        SweepCase{pp::IssueOrder::random_shuffle, 4}),
    case_name);

TEST(DriverRouting, RerouteLiftsPolarizationWithoutAnLmaxCap) {
  // solver=auto request shaping with lmax_cap = 0: a mode below the
  // crossover evolves the evolver's own uncapped lmax_photon_for_k
  // tower, and its G tower must ride that tower, not the run-level
  // lmax_polarization (12 here) — in every driver.
  const auto& w = world();
  const pp::KSchedule s({2e-4, 5e-4}, pp::IssueOrder::natural);
  ASSERT_LT(s.k_grid().back(), pb::kAutoSolverCrossoverK);
  pp::RunSetup setup;
  setup.tau_end = 600.0;
  setup.lmax_cap = 0.0;
  setup.n_k = static_cast<double>(s.size());
  setup.los.enabled = true;
  setup.los.lmax_evolve = 24;

  const auto check = [&](const pp::RunOutput& out) {
    ASSERT_EQ(out.results.size(), s.size());
    for (const auto& [ik, r] : out.results) {
      const std::size_t tower = pb::lmax_photon_for_k(r.k, 600.0);
      EXPECT_EQ(r.f_gamma.size(), tower + 1) << "ik " << ik;
      EXPECT_EQ(r.g_gamma.size(), tower + 1) << "ik " << ik;
    }
  };
  check(pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup));
  check(pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, 2));
}

TEST(DriverRouting, LmaxCapBindsEveryDriverWhenTauEndIsToday) {
  // tau_end = 0 (evolve to today) with lmax_cap below every mode's
  // natural tower: the cap is one host-side rule, so every driver —
  // including the message-passing ones, whose broadcast tau_end is 0 —
  // evolves the same capped towers and the same bits.
  const auto& w = world();
  const pp::KSchedule s(plinger::math::linspace(0.002, 0.008, 3),
                        pp::IssueOrder::largest_first);
  pp::RunSetup setup;
  setup.tau_end = 0.0;
  setup.lmax_cap = 40;
  setup.n_k = static_cast<double>(s.size());
  const double tau0 = w.bg.conformal_age();
  for (double k : s.k_grid()) {
    ASSERT_LT(setup.lmax_cap,
              static_cast<double>(pb::lmax_photon_for_k(k, tau0)))
        << "k " << k;
  }

  const auto ref = pp::run_linger_serial(w.bg, w.rec, w.cfg, s, setup);
  ASSERT_EQ(ref.results.size(), s.size());
  for (const auto& [ik, r] : ref.results) {
    EXPECT_LE(static_cast<double>(r.lmax), setup.lmax_cap) << "ik " << ik;
  }
  const auto expect_same = [&](const pp::RunOutput& out, bool wire,
                               const char* driver) {
    SCOPED_TRACE(driver);
    ASSERT_EQ(out.results.size(), ref.results.size());
    for (const auto& [ik, r] : ref.results) {
      ASSERT_TRUE(out.results.count(ik)) << ik;
      EXPECT_LE(static_cast<double>(out.results.at(ik).lmax),
                setup.lmax_cap)
          << "ik " << ik;
      expect_bitwise_equal(out.results.at(ik), r, ik, wire);
    }
  };
  for (int n : {1, 2}) {
    expect_same(pp::run_linger_autotask(w.bg, w.rec, w.cfg, s, setup, n),
                false, n == 1 ? "autotask 1" : "autotask 2");
    expect_same(pp::run_plinger_threads(w.bg, w.rec, w.cfg, s, setup, n),
                true, n == 1 ? "threads 1" : "threads 2");
  }

  // An in-process tcp master/worker pair over loopback sockets.
  auto master = plinger::mp::TcpWorld::listen("127.0.0.1", 0, 1);
  std::thread worker([&, port = master->port()] {
    auto link = plinger::mp::TcpWorld::connect("127.0.0.1", port);
    pp::run_plinger_tcp_worker(w.bg, w.rec, w.cfg, s, setup, *link);
  });
  EXPECT_EQ(master->accept_workers(30.0), 1);
  const auto tcp = pp::run_plinger_tcp(w.bg, w.rec, w.cfg, s, setup, *master);
  master.reset();  // GOODBYE lets the worker's link close
  worker.join();
  expect_same(tcp, true, "tcp");
}
