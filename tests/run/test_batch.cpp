// run_batch(): multi-cosmology batches share contexts without sharing
// bits.
//
// The batch layer promises: outputs in job order, bitwise identical to
// independent runs; one context build per distinct cosmology with cache
// hits for the rest; honest per-job accounting; and upfront rejection
// of configurations that cannot coexist (two jobs appending to one
// journal).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "run/batch.hpp"
#include "run/plan.hpp"

using namespace plinger;

namespace {

run::RunConfig tiny_config() {
  run::RunConfig cfg;
  cfg.grid = "linear";
  cfg.k_min = 0.002;
  cfg.k_max = 0.015;
  cfg.n_k = 4;
  cfg.lmax_photon = 24;
  cfg.lmax_polarization = 12;
  cfg.lmax_neutrino = 12;
  cfg.rtol = 1e-5;
  cfg.tau_end = 600.0;
  cfg.lmax_cap = 24;
  cfg.driver = "serial";
  return cfg;
}

// Three cosmologies x two grid variants = six jobs, four cache hits.
std::vector<run::BatchJob> sweep_jobs() {
  std::vector<run::BatchJob> jobs;
  for (const char* preset : {"scdm", "lcdm", "mdm"}) {
    for (int variant = 0; variant < 2; ++variant) {
      run::RunConfig cfg = tiny_config();
      cfg.set_preset(preset);
      cfg.k_max = 0.015 + 0.005 * variant;
      jobs.push_back({cfg, std::string(preset) + "-" +
                               std::to_string(variant)});
    }
  }
  return jobs;
}

void expect_bitwise_equal(const parallel::RunOutput& a,
                          const parallel::RunOutput& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (const auto& [ik, ra] : a.results) {
    const auto it = b.results.find(ik);
    ASSERT_NE(it, b.results.end()) << "ik " << ik;
    EXPECT_EQ(ra.k, it->second.k);
    EXPECT_EQ(ra.f_gamma, it->second.f_gamma);
    EXPECT_EQ(ra.g_gamma, it->second.g_gamma);
    EXPECT_EQ(ra.final_state.delta_m, it->second.final_state.delta_m);
  }
}

}  // namespace

TEST(RunBatch, OutputsMatchIndependentRunsBitwise) {
  const auto jobs = sweep_jobs();
  run::BatchOptions opts;
  opts.executors = 2;
  const auto batch = run::run_batch(jobs, opts);
  ASSERT_EQ(batch.outputs.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto solo = run::execute_run(jobs[j].config);
    expect_bitwise_equal(solo, batch.outputs[j]);
  }
}

TEST(RunBatch, ContextsAreBuiltOncePerCosmology) {
  const auto jobs = sweep_jobs();
  const auto batch = run::run_batch(jobs, {});
  EXPECT_EQ(batch.report.n_contexts_built, 3u);
  EXPECT_EQ(batch.report.context_cache_hits, jobs.size() - 3u);
  // Same-cosmology jobs share a key; distinct cosmologies never do.
  std::vector<std::uint64_t> keys;
  for (const auto& j : batch.report.jobs) keys.push_back(j.cosmology_key);
  EXPECT_EQ(keys[0], keys[1]);  // scdm-0 / scdm-1
  EXPECT_EQ(keys[2], keys[3]);  // lcdm-0 / lcdm-1
  EXPECT_NE(keys[0], keys[2]);
  EXPECT_NE(keys[2], keys[4]);
}

TEST(RunBatch, ReportIsInJobOrderWithHonestAccounting) {
  const auto jobs = sweep_jobs();
  const auto batch = run::run_batch(jobs, {});
  ASSERT_EQ(batch.report.jobs.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& r = batch.report.jobs[j];
    EXPECT_EQ(r.name, jobs[j].name);
    EXPECT_EQ(r.n_modes, batch.outputs[j].results.size());
    EXPECT_GT(r.estimated_cost, 0.0);
    EXPECT_GE(r.wallclock_seconds, 0.0);
  }
  EXPECT_GT(batch.report.pool_utilization, 0.0);
  EXPECT_LE(batch.report.pool_utilization, 1.0 + 1e-9);
}

TEST(RunBatch, MoreExecutorsThanJobsIsFine) {
  std::vector<run::BatchJob> jobs = {{tiny_config(), "only"}};
  run::BatchOptions opts;
  opts.executors = 8;
  const auto batch = run::run_batch(jobs, opts);
  ASSERT_EQ(batch.outputs.size(), 1u);
  EXPECT_EQ(batch.report.n_contexts_built, 1u);
}

TEST(RunBatch, EmptyBatchIsEmpty) {
  const auto batch = run::run_batch({}, {});
  EXPECT_TRUE(batch.outputs.empty());
  EXPECT_TRUE(batch.report.jobs.empty());
  EXPECT_EQ(batch.report.n_contexts_built, 0u);
}

TEST(RunBatch, DuplicateStorePathsAreRejectedUpfront) {
  run::RunConfig a = tiny_config();
  a.store = "batch_journal.bin";
  run::RunConfig b = tiny_config();
  b.k_max = 0.02;
  b.store = "batch_journal.bin";
  std::vector<run::BatchJob> jobs = {{a, "a"}, {b, "b"}};
  EXPECT_THROW(run::run_batch(jobs, {}), InvalidArgument);
}

TEST(RunBatch, InvalidJobConfigIsRejectedBeforeAnyWork) {
  run::RunConfig bad = tiny_config();
  bad.rtol = 0.0;
  std::vector<run::BatchJob> jobs = {{tiny_config(), "good"},
                                     {bad, "bad"}};
  EXPECT_THROW(run::run_batch(jobs, {}), InvalidArgument);
}

TEST(RunBatch, AutoJobIsCostedByTheTowersItEvolves) {
  // The solver=auto job asks for the larger l_max (more modes) but
  // evolves the short LOS tower above the crossover, so it is the
  // cheaper job (about half the hierarchy job's wallclock here) and
  // must be issued second.  With one executor the first-issued job
  // builds the shared context: the hierarchy job's cache miss is the
  // observable issue order.
  run::RunConfig hier;
  hier.grid = "cl";
  hier.l_max = 200;
  hier.points_per_osc = 1.0;
  hier.rtol = 1e-4;
  hier.lmax_polarization = 12;
  hier.lmax_neutrino = 12;
  hier.driver = "serial";
  run::RunConfig fast = hier;
  fast.solver = "auto";
  fast.los_accuracy = "draft";
  fast.l_max = 250;
  const std::vector<run::BatchJob> jobs = {{fast, "auto"},
                                           {hier, "hierarchy"}};
  run::BatchOptions opts;
  opts.executors = 1;
  const auto batch = run::run_batch(jobs, opts);
  ASSERT_EQ(batch.report.jobs.size(), 2u);
  EXPECT_FALSE(batch.report.jobs[1].context_cache_hit);
  EXPECT_TRUE(batch.report.jobs[0].context_cache_hit);
  EXPECT_GT(batch.outputs[0].results.size(),
            batch.outputs[1].results.size());
  EXPECT_LT(batch.report.jobs[0].estimated_cost,
            batch.report.jobs[1].estimated_cost);

  // Just above the crossover the short tower still stops at each of its
  // 144 draft source sample times, which outweighs the taller tower of
  // a small hierarchy job: the auto job at l_max = 50 is the slower
  // one to run, so it must be costed higher and issued first.
  run::RunConfig small_hier = hier;
  small_hier.l_max = 30;
  run::RunConfig small_auto = fast;
  small_auto.l_max = 50;
  const std::vector<run::BatchJob> small = {{small_hier, "hierarchy"},
                                            {small_auto, "auto"}};
  const auto small_batch = run::run_batch(small, opts);
  ASSERT_EQ(small_batch.report.jobs.size(), 2u);
  EXPECT_FALSE(small_batch.report.jobs[1].context_cache_hit);
  EXPECT_TRUE(small_batch.report.jobs[0].context_cache_hit);
  EXPECT_GT(small_batch.report.jobs[1].estimated_cost,
            small_batch.report.jobs[0].estimated_cost);
}
