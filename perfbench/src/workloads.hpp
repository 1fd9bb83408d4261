#pragma once

/// The benchmark's workloads: the RunConfigs each one sends, and the
/// seeded request list of the serve workload.

#include <cstdint>
#include <string>
#include <vector>

#include "run/config.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// The distinct configs the workload runs, in a fixed order (one for
  /// los_lcdm and hier_mdm, the six sweep points for serve_sweep).
  std::vector<plinger::run::RunConfig> configs;
  bool serve = false;  ///< answered through a SpectrumService sweep
};

/// The named workload.  `smoke` shrinks every l_max to a few tens so a
/// full run takes seconds (the self-test path; its outputs are checked
/// for shape, not against the committed reference).  Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, bool smoke);

/// Every workload name, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// The serve client's request list: indices into Workload::configs.
/// Every config appears once and then `repeats_per_config` more times;
/// the seed orders the first occurrences and places the repeats, so
/// every seed sends the same multiset of requests.
std::vector<std::size_t> make_request_list(std::size_t n_configs,
                                           std::size_t repeats_per_config,
                                           std::uint64_t seed);

/// Short label of a config ("lcdm_l500"): the reference file stem.
std::string config_label(const plinger::run::RunConfig& cfg);

/// The independent reference run for a workload config: the full
/// hierarchy with the per-k polarization tower and a 10x tighter rtol.
plinger::run::RunConfig reference_config(const plinger::run::RunConfig& cfg);

}  // namespace perfbench
