#include "workloads.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace pr = plinger::run;

namespace {

/// The grid and tower keys every workload shares: the cl k-grid at two
/// points per oscillation, short polarization and neutrino towers, the
/// threads driver with two evolution workers (plus its master thread).
pr::RunConfig base(const std::string& preset, const std::string& solver,
                   std::size_t l_max) {
  pr::RunConfig cfg;
  cfg.set_preset(preset);
  cfg.solver = solver;
  cfg.grid = "cl";
  cfg.l_max = l_max;
  cfg.points_per_osc = 2.0;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 16;
  cfg.driver = "threads";
  cfg.workers = 2;
  return cfg;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"los_lcdm", "hier_mdm", "serve_sweep"};
}

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "los_lcdm") {
    w.configs.push_back(base("lcdm", "auto", smoke ? 40 : 350));
  } else if (name == "hier_mdm") {
    pr::RunConfig cfg = base("mdm", "hierarchy", smoke ? 30 : 250);
    // Full hierarchies: the polarization tower rides each mode's photon
    // tower.  A 12-moment G tower truncated far below k tau0 reflects
    // its truncation error down to l = 2 (C_l^EE off by ~200x there).
    cfg.lmax_photon = static_cast<std::size_t>(cfg.lmax_cap);
    cfg.lmax_polarization = cfg.lmax_photon;
    w.configs.push_back(cfg);
  } else if (name == "serve_sweep") {
    w.serve = true;
    for (const char* preset : {"scdm", "lcdm", "mdm"}) {
      for (std::size_t l_max : {160, 240}) {
        w.configs.push_back(base(preset, "auto", smoke ? l_max / 8 : l_max));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<std::size_t> make_request_list(std::size_t n_configs,
                                           std::size_t repeats_per_config,
                                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> list(n_configs);
  for (std::size_t i = 0; i < n_configs; ++i) list[i] = i;
  std::shuffle(list.begin(), list.end(), rng);

  std::vector<std::size_t> repeats;
  for (std::size_t i = 0; i < n_configs; ++i) {
    repeats.insert(repeats.end(), repeats_per_config, i);
  }
  std::shuffle(repeats.begin(), repeats.end(), rng);
  for (const std::size_t idx : repeats) {
    // Anywhere after the config's first occurrence.
    const auto first = static_cast<std::size_t>(
        std::find(list.begin(), list.end(), idx) - list.begin());
    std::uniform_int_distribution<std::size_t> at(first + 1, list.size());
    list.insert(list.begin() + static_cast<std::ptrdiff_t>(at(rng)), idx);
  }
  return list;
}

std::string config_label(const pr::RunConfig& cfg) {
  return cfg.preset + "_l" + std::to_string(cfg.l_max);
}

pr::RunConfig reference_config(const pr::RunConfig& cfg) {
  pr::RunConfig ref = cfg;
  ref.solver = "hierarchy";
  ref.lmax_photon = static_cast<std::size_t>(cfg.lmax_cap);
  ref.lmax_polarization = ref.lmax_photon;
  ref.rtol = cfg.rtol / 10.0;
  return ref;
}

}  // namespace perfbench
