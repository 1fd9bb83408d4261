// bench_los: the solver=auto production fast path vs the full hierarchy.
//
// The paper integrates every photon moment to the present ("up to 10,000
// moments l ... 75 C90 CPU-hours"); the line-of-sight decomposition
// (CMBFAST, 1996) evolves a short hierarchy and projects the multipoles
// afterwards.  solver = auto takes that path for every mode at or above
// boltzmann::kAutoSolverCrossoverK and the full hierarchy below it.
// This bench is a thin shell over the run layer: RunPlans sharing one
// context, the same cl-grid, and the driver's own per-mode CPU
// accounting.  It reports
//
//   * per-mode speedup (hierarchy CPU / auto CPU) grouped by k-decade —
//     the fast path's win grows with k tau0, so the highest decade is
//     the headline number (the accuracy gate's companion claim:
//     >= 10x per mode at the highest-k decade),
//   * total CPU and wallclock both ways, and two speedups: the
//     evolution-only one (hierarchy CPU / auto CPU, speedup_total_auto)
//     and the end-to-end one (evolution wallclock + projection, per
//     solver: speedup_end_to_end_auto), which is what a caller waits on,
//   * the worst relative C_l^TT / C_l^EE / C_l^TE deviation over l (the
//     same comparison the ctest `accuracy` gate pins per l, here at
//     bench scale),
//   * the crossover's own ledger: the modes auto reroutes to the
//     hierarchy, also evolved here through the short LOS tower they
//     would otherwise take, so the routing must show it pays.
//
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "boltzmann/los.hpp"
#include "boltzmann/mode_evolution.hpp"
#include "common/timing.hpp"
#include "io/bench_json.hpp"
#include "run/config.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"

using namespace plinger;

namespace {

struct DecadeCost {
  double cpu_hier = 0.0;
  double cpu_auto = 0.0;
  std::size_t n_modes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_los [--smoke] [--out FILE]\n");
      return 2;
    }
  }

  // The hierarchy's per-mode cost grows ~ (k tau0)^2 (tower height x
  // step count) while LOS stays flat; the >= 10x headline lives at the
  // l ~ 1000 scale the paper's 10,000-moment anecdote points at.
  const std::size_t l_max = smoke ? 120 : 1000;
  run::RunConfig hier;
  hier.grid = "cl";
  hier.l_max = l_max;
  hier.points_per_osc = 2.0;
  hier.lmax_polarization = 12;
  hier.lmax_neutrino = 16;
  hier.rtol = 1e-5;
  hier.driver = "autotask";
  hier.workers = 4;

  run::RunConfig aut = hier;
  aut.solver = "auto";
  aut.los_accuracy = "standard";

  const auto ctx = run::make_context(hier);
  const run::RunPlan hier_plan(hier, ctx);
  const run::RunPlan auto_plan(aut, ctx);
  std::printf("== solver=hierarchy vs solver=auto: l_max = %zu, %zu "
              "modes ==\n",
              l_max, hier_plan.schedule().size());

  double t0 = wallclock_seconds();
  const auto hier_out = hier_plan.execute();
  const double wall_hier = wallclock_seconds() - t0;
  t0 = wallclock_seconds();
  const auto auto_out = auto_plan.execute();
  const double wall_auto = wallclock_seconds() - t0;

  // The crossover's other arm: a mode auto reroutes to the hierarchy
  // (k below the crossover), evolved the way the LOS branch would —
  // the short tower plus the shared source sample times.
  const parallel::LosRunSpec& los = auto_plan.setup().los;
  const boltzmann::ModeEvolver evolver(ctx->background(),
                                       ctx->recombination(),
                                       auto_plan.perturbation(),
                                       ctx->thermo());
  const auto short_tower_cpu = [&](double k) {
    boltzmann::EvolveRequest req;
    req.k = k;
    req.lmax_photon = los.lmax_evolve;
    req.sample_taus = los.sample_taus;
    return evolver.evolve(req, ctx->conformal_age()).cpu_seconds;
  };

  // Per-mode CPU, grouped by decade of k.  Both plans share the grid,
  // so the result maps are keyed identically.
  std::map<int, DecadeCost> decades;
  double cpu_hier = 0.0, cpu_auto = 0.0;
  // The routing's own ledger: CPU on just the rerouted modes, under
  // auto (full hierarchy) and through the short tower.
  double cpu_los_rerouted = 0.0, cpu_auto_rerouted = 0.0;
  bool complete = hier_out.results.size() == auto_out.results.size();
  for (const auto& [ik, rh] : hier_out.results) {
    const auto ia = auto_out.results.find(ik);
    if (ia == auto_out.results.end()) {
      complete = false;
      continue;
    }
    const int dec =
        static_cast<int>(std::floor(std::log10(rh.k) + 1e-12));
    auto& d = decades[dec];
    d.cpu_hier += rh.cpu_seconds;
    d.cpu_auto += ia->second.cpu_seconds;
    d.n_modes += 1;
    cpu_hier += rh.cpu_seconds;
    cpu_auto += ia->second.cpu_seconds;
    if (!boltzmann::los_routes_mode(rh.k)) {
      cpu_los_rerouted += short_tower_cpu(rh.k);
      cpu_auto_rerouted += ia->second.cpu_seconds;
    }
  }

  // The accuracy companion: worst relative C_l^TT deviation, raw
  // (normalization divided back out).  The projection itself is timed
  // too — the unified SourceTable pipeline folds T and E kernels in
  // one pass, so this is the cost of all three spectra, not just TT.
  t0 = wallclock_seconds();
  const auto spec_hier = run::make_spectra(hier_plan, hier_out, l_max);
  const double proj_hier = wallclock_seconds() - t0;
  t0 = wallclock_seconds();
  const auto spec_auto = run::make_spectra(auto_plan, auto_out, l_max);
  const double proj_auto = wallclock_seconds() - t0;
  double worst_rel_auto = 0.0;
  for (std::size_t l = 2; l <= l_max; ++l) {
    const double a = spec_hier.temperature.cl[l] / spec_hier.cobe_factor;
    const double c = spec_auto.temperature.cl[l] / spec_auto.cobe_factor;
    worst_rel_auto =
        std::max(worst_rel_auto, std::abs(c - a) / std::abs(a));
  }

  // EE/TE arm.  The speed arms above keep their lean polarization
  // towers (the TT speed record's baseline), so their EE is truncated
  // at the tower top and is no reference; the deviation is measured
  // against a dedicated tall-tower hierarchy run over the same k grid
  // — the ctest accuracy gate's construction (compared through
  // l = 160, denominators guarded by a fraction of the spectrum's
  // peak), except the polarization tower rides the full per-k photon
  // tower instead of the gate's 400: this grid reaches k tau0 well
  // past 400, and a G tower truncated below k tau0 reflects noise
  // down into its low-l moments, which sums into a jagged low-l EE
  // reference.
  run::RunConfig polref = hier;
  polref.lmax_photon = static_cast<std::size_t>(hier.lmax_cap);
  polref.lmax_polarization = polref.lmax_photon;
  const run::RunPlan polref_plan(polref, ctx);
  t0 = wallclock_seconds();
  const auto polref_out = polref_plan.execute();
  const double wall_polref = wallclock_seconds() - t0;
  const auto spec_ref = run::make_spectra(polref_plan, polref_out, l_max);
  const std::size_t l_pol =
      std::min({spec_ref.polarization_l_max,
                spec_auto.polarization_l_max, l_max, std::size_t{160}});
  double worst_ee_auto = 0.0, worst_te_auto = 0.0;
  if (l_pol >= 2) {
    double peak_ee = 0.0, peak_te = 0.0;
    for (std::size_t l = 2; l <= l_pol; ++l) {
      peak_ee = std::max(
          peak_ee,
          std::abs(spec_ref.polarization.cl[l] / spec_ref.cobe_factor));
      peak_te = std::max(
          peak_te,
          std::abs(spec_ref.cross.cl[l] / spec_ref.cobe_factor));
    }
    const auto rel = [](double fast, double ref, double guard) {
      return std::abs(fast - ref) / std::max(std::abs(ref), guard);
    };
    for (std::size_t l = 2; l <= l_pol; ++l) {
      const double ee_h =
          spec_ref.polarization.cl[l] / spec_ref.cobe_factor;
      const double te_h = spec_ref.cross.cl[l] / spec_ref.cobe_factor;
      worst_ee_auto = std::max(
          worst_ee_auto,
          rel(spec_auto.polarization.cl[l] / spec_auto.cobe_factor, ee_h,
              0.01 * peak_ee));
      worst_te_auto = std::max(
          worst_te_auto,
          rel(spec_auto.cross.cl[l] / spec_auto.cobe_factor, te_h,
              0.01 * peak_te));
    }
  }

  const double rerouted_speedup =
      cpu_auto_rerouted > 0.0 ? cpu_los_rerouted / cpu_auto_rerouted : 0.0;
  // What a caller waits for: evolution wallclock plus the projection.
  const double end_to_end_speedup =
      (wall_hier + proj_hier) / (wall_auto + proj_auto);
  std::printf("total CPU: hierarchy %.2f s, auto %.2f s (%.1fx); "
              "wallclock %.2f / %.2f s\n",
              cpu_hier, cpu_auto,
              cpu_auto > 0.0 ? cpu_hier / cpu_auto : 0.0, wall_hier,
              wall_auto);
  std::printf("worst C_l^TT relative deviation (l <= %zu): %.4f\n", l_max,
              worst_rel_auto);
  std::printf("worst C_l^EE / C_l^TE deviation (l <= %zu): %.4f / %.4f\n",
              l_pol, worst_ee_auto, worst_te_auto);
  std::printf("three-spectrum projection: hierarchy %.2f s, auto %.2f s\n",
              proj_hier, proj_auto);
  std::printf("end to end (evolution wallclock + projection): hierarchy "
              "%.2f s, auto %.2f s (%.1fx)\n",
              wall_hier + proj_hier, wall_auto + proj_auto,
              end_to_end_speedup);
  std::printf("rerouted (k < %.3g) modes: short tower %.3f s, auto "
              "%.3f s (%.1fx)\n\n",
              boltzmann::kAutoSolverCrossoverK, cpu_los_rerouted,
              cpu_auto_rerouted, rerouted_speedup);

  io::BenchReport report("los");
  report.add("totals")
      .metric("l_max", static_cast<double>(l_max))
      .metric("n_modes", static_cast<double>(hier_out.results.size()))
      .metric("cpu_seconds_hierarchy", cpu_hier)
      .metric("cpu_seconds_auto", cpu_auto)
      .metric("wallclock_seconds_hierarchy", wall_hier)
      .metric("wallclock_seconds_auto", wall_auto)
      .metric("speedup_total_auto",
              cpu_auto > 0.0 ? cpu_hier / cpu_auto : 0.0)
      .metric("speedup_end_to_end_auto", end_to_end_speedup)
      .metric("cpu_seconds_los_rerouted_modes", cpu_los_rerouted)
      .metric("cpu_seconds_auto_rerouted_modes", cpu_auto_rerouted)
      .metric("rerouted_speedup", rerouted_speedup)
      .metric("worst_cl_rel_error_auto", worst_rel_auto)
      .metric("polarization_l_max", static_cast<double>(l_pol))
      .metric("wallclock_seconds_polarization_reference", wall_polref)
      .metric("worst_cl_ee_rel_error_auto", worst_ee_auto)
      .metric("worst_cl_te_rel_error_auto", worst_te_auto)
      .metric("projection_seconds_hierarchy", proj_hier)
      .metric("projection_seconds_auto", proj_auto)
      .metric("complete", complete ? 1.0 : 0.0);

  std::printf("per-mode speedup by k-decade:\n");
  std::printf("   decade          modes   hier CPU   auto CPU   "
              "speedup\n");
  double speedup_highest = 0.0;
  for (const auto& [dec, d] : decades) {
    const double speedup_auto =
        d.cpu_auto > 0.0 ? d.cpu_hier / d.cpu_auto : 0.0;
    speedup_highest = speedup_auto;  // map iterates ascending: last wins
    std::printf("   1e%+d..1e%+d     %5zu   %8.2f   %8.2f   %6.1fx\n", dec,
                dec + 1, d.n_modes, d.cpu_hier, d.cpu_auto, speedup_auto);
    char name[32];
    std::snprintf(name, sizeof name, "decade_1e%+d", dec);
    report.add(name)
        .label("k_decade", std::to_string(dec))
        .metric("n_modes", static_cast<double>(d.n_modes))
        .metric("cpu_seconds_hierarchy", d.cpu_hier)
        .metric("cpu_seconds_auto", d.cpu_auto)
        .metric("speedup_auto", speedup_auto);
  }
  report.entries[0].metric("speedup_highest_k_decade", speedup_highest);
  std::printf("\nhighest-k decade speedup: %.1fx%s\n", speedup_highest,
              smoke ? " (smoke scale; the full run is the record)" : "");

  // Smoke runs land in the cwd so ctest never dirties the repo root.
  const std::string written = report.write_file(
      out_path.empty() && smoke ? "BENCH_los.json" : out_path);
  std::printf("wrote %s\n", written.c_str());

  // Structural gates (both scales): every mode present both ways, and
  // every deviation within the ceiling the accuracy gate enforces.
  if (!complete) {
    std::fprintf(stderr, "FAIL: mode sets differ between solvers\n");
    return 1;
  }
  if (!(worst_rel_auto < 0.20)) {
    std::fprintf(stderr, "FAIL: auto C_l deviation %.3f exceeds 0.20\n",
                 worst_rel_auto);
    return 1;
  }
  // The polarization arm rides the same ceiling: the fast path must
  // not ship EE/TE columns it cannot defend.
  if (l_pol < 2) {
    std::fprintf(stderr, "FAIL: no common polarization reach\n");
    return 1;
  }
  if (!(worst_ee_auto < 0.20 && worst_te_auto < 0.20)) {
    std::fprintf(stderr, "FAIL: EE/TE deviation %.3f/%.3f exceeds 0.20\n",
                 worst_ee_auto, worst_te_auto);
    return 1;
  }
  // The crossover must pay: the rerouted low-k modes may not cost more
  // under auto's hierarchy than through the short tower they skip.
  if (!(cpu_auto_rerouted <= cpu_los_rerouted)) {
    std::fprintf(stderr,
                 "FAIL: solver=auto spends %.3f s on the rerouted "
                 "(k < crossover) modes vs %.3f s through the short "
                 "tower\n",
                 cpu_auto_rerouted, cpu_los_rerouted);
    return 1;
  }
  return 0;
}
