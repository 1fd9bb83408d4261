// perfbench — the end-to-end spectrum benchmark of plinger++.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --repo-root DIR --work-dir DIR [--spans-out FILE] [--smoke]
//   perfbench --regen-reference DIR [--workload NAME] [--smoke]
//
// With --trace 0 it times the workload through the public run, store and
// serve API and prints the end-to-end metrics; with --trace 1 it runs the
// workload once more with the driver trace on and spans recorded around
// every layer call, and prints the per-layer metrics.  Either way the
// outputs are checked first: spectra against the committed reference
// (perfbench/reference), every serve tier byte-identical, a traced
// replay bitwise equal to run::make_spectra.  The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; a
// failed check prints it with "correct": false and no metrics, and
// exits 1.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "accuracy.hpp"
#include "boltzmann/source_table.hpp"
#include "cosmo/background.hpp"
#include "cosmo/recombination.hpp"
#include "cosmo/thermo_cache.hpp"
#include "ledger.hpp"
#include "plinger/trace.hpp"
#include "run/context.hpp"
#include "run/plan.hpp"
#include "run/products.hpp"
#include "serve/service.hpp"
#include "spectra/cl.hpp"
#include "store/mode_result_store.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
namespace pr = plinger::run;
namespace pb = plinger::boltzmann;
namespace ps = plinger::serve;
namespace pp = plinger::parallel;
namespace pst = plinger::store;

namespace perfbench {
namespace {

/// LRU-tier answers per block, so a block's p90 has six samples beyond
/// it, and repeats of each config mixed into each pass of the serve list.
constexpr std::size_t kRepeatsPerBlock = 60;
constexpr std::size_t kServeRepeatsPerConfig = 50;
/// Cold set-up repetitions (make_context + RunPlan) at the start of
/// every iteration, so the set-up median samples the whole run.
constexpr int kSetupReps = 3;
constexpr int kSetupRepsServe = 4;
/// Traced-run repetitions of the cosmo and plan layers.
constexpr int kLayerReps = 5;
/// The traced replay must attribute all but this share of its time.
constexpr double kMaxUnattributed = 0.05;
/// Projection refinement rule of boltzmann/source_table: every sample
/// interval is split until k * dtau <= 0.25.
constexpr double kProjectionDx = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string repo_root = ".";
  std::string work_dir;
  std::string spans_out;
  std::string regen_dir;
};

/// A failed correctness check: the run prints no metrics.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Failure accounting: every mode a driver was asked for and every
/// request a service was sent is one attempt; failed or quarantined
/// modes, degraded answers and thrown requests are failures.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void run(const pp::RunOutput& out, std::size_t n_modes) {
    attempted += n_modes;
    failed += out.master.failed_ik.size() + out.master.quarantined_ik.size();
  }
  void answer(const ps::Answer& a) {
    ++attempted;
    if (a.body->degraded) ++failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Shared inputs of a run: the workload, its references and envelopes.
struct Bench {
  Options opt;
  Workload w;
  std::vector<Spectra> refs;  ///< per config
  std::vector<Envelope> envs;    ///< per config (by preset)
  Tally tally;
  Ledger* ledger = nullptr;  ///< set while the traced run records spans
  std::size_t n_work_dirs = 0;

  std::string fresh_dir(const std::string& stem) {
    const fs::path p =
        fs::path(opt.work_dir) / (stem + "-" + std::to_string(n_work_dirs++));
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
  }
};

/// Answer one request, counting it; a thrown request is a failure and
/// ends the run (its outputs cannot be checked).  In the traced run the
/// answer and the rendering of its reply are spans.
ps::Answer answer(Bench& b, ps::SpectrumService& svc,
                  const pr::RunConfig& cfg) {
  try {
    const auto ask = [&] { return svc.answer(cfg); };
    ps::Answer a = b.ledger ? b.ledger->span("serve.answer", ask) : ask();
    if (b.ledger) {
      b.ledger->span("serve.render", [&] { return ps::render_response(a); });
    }
    b.tally.answer(a);
    return a;
  } catch (const std::exception& e) {
    ++b.tally.attempted;
    ++b.tally.failed;
    throw CheckFailed(std::string("request threw: ") + e.what());
  }
}

/// The benchmark's services: one compute at a time, journals in `dir`.
ps::ServeOptions service_options(const std::string& dir) {
  ps::ServeOptions so;
  so.journal_dir = dir;
  so.compute_slots = 1;
  return so;
}

pr::SpectrumSet compute_spectra(const pr::RunConfig& cfg) {
  const pr::RunPlan plan(cfg, pr::make_context(cfg));
  return pr::make_spectra(plan, plan.execute());
}

void load_references(Bench& b) {
  for (const pr::RunConfig& cfg : b.w.configs) {
    b.envs.push_back(read_envelope(b.opt.repo_root +
                                   "/tests/golden/accuracy_envelope_" +
                                   cfg.preset + ".txt"));
    if (b.opt.smoke) {
      // No committed reference at smoke sizes: compute it here.
      b.refs.push_back(raw(spectra_of(compute_spectra(reference_config(cfg)))));
    } else {
      b.refs.push_back(read_reference(b.opt.repo_root +
                                      "/perfbench/reference/" +
                                      config_label(cfg) + ".txt"));
    }
  }
}

/// The worst error over the workload's configs; fails the run when any
/// config leaves its envelope or ceiling.
AccuracyReport check_accuracy(const Bench& b,
                              const std::vector<Spectra>& runs) {
  AccuracyReport worst;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const AccuracyReport r = compare(raw(runs[i]), b.refs[i], b.envs[i]);
    check(r.ok, config_label(b.w.configs[i]) + ": " + r.failure);
    worst.tt = std::max(worst.tt, r.tt);
    worst.ee = std::max(worst.ee, r.ee);
    worst.te = std::max(worst.te, r.te);
  }
  return worst;
}

/// A serve reply must carry exactly the spectra computed directly
/// (%.17g round-trips every double).
bool payload_matches(const std::string& payload, const pr::SpectrumSet& s) {
  const Spectra p = parse_payload(payload);
  const Spectra d = spectra_of(s);
  const auto from_l2 = [](const std::vector<double>& a,
                          const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin() + 2, a.end(), b.begin() + 2);
  };
  return from_l2(p.tt, d.tt) && from_l2(p.ee, d.ee) && from_l2(p.te, d.te) &&
         p.pol_l_max == d.pol_l_max && p.cobe == d.cobe;
}

bool same_spectra(const pr::SpectrumSet& a, const pr::SpectrumSet& b) {
  return a.temperature.cl == b.temperature.cl &&
         a.polarization.cl == b.polarization.cl && a.cross.cl == b.cross.cl &&
         a.cobe_factor == b.cobe_factor && a.modes_used == b.modes_used &&
         a.polarization_l_max == b.polarization_l_max;
}

/// Write a run's results as the complete journal of its identity.
void write_journal(const std::string& path, const pr::RunPlan& plan,
                   const pp::RunOutput& out) {
  pst::StoreOptions so;
  so.path = path;
  pst::ModeResultStore st(so, plan.identity(), plan.schedule().size());
  for (const auto& [ik, r] : out.results) st.append(ik, r);
  st.flush();
}

std::vector<std::string> distinct_presets(const Workload& w) {
  std::vector<std::string> out;
  for (const auto& cfg : w.configs) {
    if (std::find(out.begin(), out.end(), cfg.preset) == out.end()) {
      out.push_back(cfg.preset);
    }
  }
  return out;
}

const pr::RunConfig& config_of_preset(const Workload& w,
                                      const std::string& preset) {
  for (const auto& cfg : w.configs) {
    if (cfg.preset == preset) return cfg;
  }
  throw std::logic_error("no config for preset " + preset);
}

/// Cold set-up: the contexts of every cosmology and the plans of every
/// config, built from nothing, `reps` times.
void measure_setup(const Workload& w, int reps, std::vector<double>& out) {
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_now();
    std::map<std::string, std::shared_ptr<const pr::RunContext>> ctx;
    for (const auto& preset : distinct_presets(w)) {
      ctx[preset] = pr::make_context(config_of_preset(w, preset));
    }
    for (const auto& cfg : w.configs) {
      const pr::RunPlan plan(cfg, ctx.at(cfg.preset));
      (void)plan;
    }
    out.push_back(wall_now() - t0);
  }
}

/// Iteration pacing: run at least one iteration, and another only while
/// it is expected (from the last one) to end within the run's seconds.
class Pacer {
 public:
  explicit Pacer(double seconds) : end_(wall_now() + seconds) {}
  bool another() const { return n_ == 0 || wall_now() + last_ <= end_; }
  void done(double iteration_s) {
    ++n_;
    last_ = iteration_s;
  }
  int iterations() const { return n_; }

 private:
  double end_;
  double last_ = 0.0;
  int n_ = 0;
};

struct EndToEnd {
  std::vector<double> setup_s, spectrum_s, spectrum_cpu_s, sweep_s, restart_s;
  /// LRU-tier latencies, one vector per block: back-to-back answers for
  /// one config.
  std::vector<std::vector<double>> repeat_blocks;
};

/// An LRU-tier statistic of each block's latencies, averaged over the
/// blocks.  Within a block the latencies agree to a few percent, but the
/// shared host shifts them by up to ~45% between blocks seconds apart; a
/// median pooled over such clusters jumps between them from run to run,
/// where the mean over blocks moves smoothly with the share of slow
/// blocks.  Every probe times one block of every config, so the configs,
/// whose hits cost differently (the RunPlan an LRU hit builds grows with
/// l_max), weigh the same on every seed.
double block_mean(const std::vector<std::vector<double>>& blocks,
                  double (*stat)(const std::vector<double>&)) {
  double sum = 0.0;
  for (const auto& v : blocks) sum += stat(v);
  return sum / static_cast<double>(blocks.size());
}

/// Times the LRU tier.  It holds the service an iteration or sweep last
/// restarted, whose LRU holds every config's reply, until the next one
/// replaces it, so the next iteration can probe it at several points in
/// time: LRU answers are ~10-60 us, and one burst per iteration would
/// sample the host's speed at one moment.
class LruProbe {
 public:
  ~LruProbe() { release(); }

  /// Hold `svc` (journals in `dir`, `replies` per config) and probe it.
  void hold(Bench& b, EndToEnd& e, std::unique_ptr<ps::SpectrumService> svc,
            const std::string& dir, const std::vector<std::string>& replies) {
    release();
    svc_ = std::move(svc);
    dir_ = dir;
    replies_ = replies;
    probe(b, e);
  }

  /// One block of kRepeatsPerBlock back-to-back answers per config; each
  /// must be an LRU hit carrying the config's reply.  Nothing while no
  /// service is held.
  void probe(Bench& b, EndToEnd& e) {
    if (!svc_) return;
    const double t_start = wall_now();
    for (std::size_t i = 0; i < b.w.configs.size(); ++i) {
      std::vector<double> us;
      us.reserve(kRepeatsPerBlock);
      for (std::size_t r = 0; r < kRepeatsPerBlock; ++r) {
        const double t0 = wall_now();
        const ps::Answer a = answer(b, *svc_, b.w.configs[i]);
        us.push_back(1e6 * (wall_now() - t0));
        check(a.tier == ps::Tier::lru && a.body->payload == replies_[i],
              "LRU-tier reply for " + config_label(b.w.configs[i]) +
                  " differs from its journal-tier reply");
      }
      e.repeat_blocks.push_back(std::move(us));
    }
    seconds_ += wall_now() - t_start;
  }

  /// Wall time spent probing so far, which sweep_s leaves out.
  double seconds() const { return seconds_; }

 private:
  void release() {
    svc_.reset();
    std::error_code ec;  // best effort: the work dir is scratch
    if (!dir_.empty()) fs::remove_all(dir_, ec);
  }

  std::unique_ptr<ps::SpectrumService> svc_;
  std::string dir_;
  std::vector<std::string> replies_;
  double seconds_ = 0.0;
};

/// los_lcdm / hier_mdm: each iteration computes the spectrum directly,
/// journals the run, restarts a service over the journal and answers
/// from it, and holds that service for the LRU probe: at the end of the
/// iteration, and at the start and after the spectrum of the next.
void single_iterations(Bench& b, EndToEnd& e, std::vector<Spectra>& runs,
                       Pacer& pacer) {
  const pr::RunConfig& cfg = b.w.configs[0];
  const pr::RunPlan plan(cfg, pr::make_context(cfg));
  std::optional<pr::SpectrumSet> first;
  LruProbe probe;
  while (pacer.another()) {
    const double t_setup = wall_now();
    probe.probe(b, e);
    measure_setup(b.w, kSetupReps, e.setup_s);
    const double t_iter = wall_now();
    const double c0 = process_cpu_now();
    const pp::RunOutput out = plan.execute();
    const pr::SpectrumSet spec = pr::make_spectra(plan, out);
    e.spectrum_s.push_back(wall_now() - t_iter);
    e.spectrum_cpu_s.push_back(process_cpu_now() - c0);
    b.tally.run(out, plan.schedule().size());
    if (!first) {
      first = spec;
      runs.push_back(spectra_of(spec));
    }
    check(same_spectra(spec, *first),
          "repeated execute() changed the spectra");
    const double probed_s = probe.seconds();
    probe.probe(b, e);

    const ps::ServeOptions so = service_options(b.fresh_dir("journal"));
    auto svc = std::make_unique<ps::SpectrumService>(so);
    write_journal(svc->journal_path(plan.identity().value), plan, out);

    const double t0 = wall_now();
    const ps::Answer restart = answer(b, *svc, cfg);
    e.restart_s.push_back(wall_now() - t0);
    check(restart.tier == ps::Tier::journal,
          std::string("restart answered from tier ") +
              ps::tier_name(restart.tier));
    check(payload_matches(restart.body->payload, spec),
          "journal-tier reply differs from the computed spectra");
    e.sweep_s.push_back(wall_now() - t_iter - (probe.seconds() - probed_s));
    probe.hold(b, e, std::move(svc), so.journal_dir,
               {restart.body->payload});
    pacer.done(wall_now() - t_setup);
    std::fprintf(stderr,
                 "iteration %d: spectrum_s %.4f restart_answer_s %.4f "
                 "sweep_s %.4f repeat_answer_us %.2f\n",
                 pacer.iterations(), e.spectrum_s.back(), e.restart_s.back(),
                 e.sweep_s.back(), median(e.repeat_blocks.back()));
  }
}

struct PassResult {
  double compute_s = 0.0, compute_cpu_s = 0.0, journal_s = 0.0;
  std::size_t computes = 0, journals = 0;
};

/// One pass of the request list through a service.  Records every
/// reply's payload per config and checks it byte-identical to the
/// first reply of that config, whatever tier served either.  Calls
/// `after_miss` after every compute- or journal-tier answer.
PassResult serve_pass(Bench& b, ps::SpectrumService& svc,
                      const std::vector<std::size_t>& list,
                      std::vector<std::string>& payloads,
                      const std::function<void()>& after_miss) {
  PassResult r;
  std::set<std::size_t> seen;
  for (const std::size_t idx : list) {
    const double t0 = wall_now();
    const double c0 = process_cpu_now();
    const ps::Answer a = answer(b, svc, b.w.configs[idx]);
    const double dt = wall_now() - t0;
    const bool first_in_pass = seen.insert(idx).second;
    switch (a.tier) {
      case ps::Tier::compute:
        r.compute_s += dt;
        r.compute_cpu_s += process_cpu_now() - c0;
        ++r.computes;
        break;
      case ps::Tier::journal:
        r.journal_s += dt;
        ++r.journals;
        break;
      case ps::Tier::lru:
        break;
    }
    check(first_in_pass != (a.tier == ps::Tier::lru),
          "request " + config_label(b.w.configs[idx]) +
              " answered from tier " + ps::tier_name(a.tier));
    if (payloads[idx].empty()) {
      payloads[idx] = a.body->payload;
    } else {
      check(a.body->payload == payloads[idx],
            std::string("tier ") + ps::tier_name(a.tier) + " reply for " +
                config_label(b.w.configs[idx]) +
                " differs byte-wise from the first reply");
    }
    if (a.tier != ps::Tier::lru) after_miss();
  }
  return r;
}

/// serve_sweep: each sweep sends the list to a fresh service (compute +
/// LRU tiers), rebuilds the service over the same journal directory and
/// replays the list (journal + LRU tiers), then holds the rebuilt service
/// for the LRU probe: at the end of the sweep, and after every compute-
/// or journal-tier answer of the next.  The list's own repeats bunch up
/// after the computes, in ~4 s of a ~10 s sweep, so their latencies are
/// checked but not timed.
void serve_sweeps(Bench& b, EndToEnd& e, std::vector<Spectra>& runs,
                  Pacer& pacer) {
  const auto list = make_request_list(b.w.configs.size(),
                                      kServeRepeatsPerConfig, b.opt.seed);
  std::vector<std::string> payloads(b.w.configs.size());
  LruProbe probe;
  const auto probe_now = [&] { probe.probe(b, e); };
  while (pacer.another()) {
    const double t_setup = wall_now();
    measure_setup(b.w, kSetupRepsServe, e.setup_s);
    const ps::ServeOptions so = service_options(b.fresh_dir("sweep"));
    const double t0 = wall_now();
    const double probed_s = probe.seconds();
    PassResult fresh, restart;
    {
      ps::SpectrumService svc(so);
      fresh = serve_pass(b, svc, list, payloads, probe_now);
    }
    auto svc = std::make_unique<ps::SpectrumService>(so);
    restart = serve_pass(b, *svc, list, payloads, probe_now);
    e.sweep_s.push_back(wall_now() - t0 - (probe.seconds() - probed_s));
    probe.hold(b, e, std::move(svc), so.journal_dir, payloads);
    check(fresh.computes == b.w.configs.size() &&
              restart.journals == fresh.computes,
          "sweep did not compute every config once and restart it from "
          "the journal");
    const auto n = static_cast<double>(fresh.computes);
    e.spectrum_s.push_back(fresh.compute_s / n);
    e.spectrum_cpu_s.push_back(fresh.compute_cpu_s / n);
    e.restart_s.push_back(restart.journal_s / n);
    pacer.done(wall_now() - t_setup);
    std::fprintf(stderr,
                 "sweep %d: spectrum_s %.4f restart_answer_s %.4f "
                 "sweep_s %.4f\n",
                 pacer.iterations(), e.spectrum_s.back(), e.restart_s.back(),
                 e.sweep_s.back());
  }
  for (const std::string& p : payloads) runs.push_back(parse_payload(p));
}

std::vector<Metric> end_to_end(Bench& b) {
  EndToEnd e;
  std::vector<Spectra> runs;
  Pacer pacer(b.opt.seconds);
  if (b.w.serve) {
    serve_sweeps(b, e, runs, pacer);
  } else {
    single_iterations(b, e, runs, pacer);
  }
  const AccuracyReport acc = check_accuracy(b, runs);
  return {
      {"setup_s", median(e.setup_s), "s"},
      {"spectrum_s", median(e.spectrum_s), "s"},
      {"spectrum_cpu_s", median(e.spectrum_cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cl_tt_rel_err", acc.tt, "frac"},
      {"cl_ee_rel_err", acc.ee, "frac"},
      {"cl_te_rel_err", acc.te, "frac"},
      {"sweep_s", median(e.sweep_s), "s"},
      {"restart_answer_s", median(e.restart_s), "s"},
      {"repeat_answer_us",
       block_mean(e.repeat_blocks,
                  [](const std::vector<double>& v) { return median(v); }),
       "us"},
      {"repeat_answer_p90_us",
       block_mean(e.repeat_blocks,
                  [](const std::vector<double>& v) {
                    return percentile(v, 90.0);
                  }),
       "us"},
      {"success_frac", 1.0 - b.tally.failed_frac(), "frac"},
  };
}

// ---------------------------------------------------------------- traced

/// Per-layer counters gathered while replaying.
struct Counts {
  double driver_wall = 0.0, driver_cpu = 0.0, driver_capacity = 0.0,
         tail_idle = 0.0;
  std::uint64_t modes = 0, messages = 0, bytes = 0;
  std::uint64_t rhs = 0, steps = 0, flops = 0;
  double max_mode_cpu = 0.0;
  std::uint64_t samples = 0, tau_points = 0, folds = 0;
};

/// Fine-grid points project_source_table integrates for one table.
std::uint64_t projection_points(const pb::SourceTable& src) {
  std::uint64_t n = 1;
  for (std::size_t j = 0; j + 1 < src.tau.size(); ++j) {
    n += static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(src.k * (src.tau[j + 1] - src.tau[j]) / kProjectionDx)));
  }
  return n;
}

/// make_spectra rebuilt from its public parts, one span per layer call.
pr::SpectrumSet replay_spectra(Ledger& L, const pr::RunPlan& plan,
                               const pp::RunOutput& out, Counts& c) {
  const std::size_t l_max = plan.config().l_max;
  plinger::spectra::PowerLawSpectrum primordial;
  primordial.n_s = plan.config().n_s;
  std::optional<plinger::spectra::ClAccumulator> acc;
  L.span("accumulate", [&] { acc.emplace(l_max, primordial); });
  const auto add = [&](double k, double w, const std::vector<double>& f,
                       const std::vector<double>& g) {
    L.span("accumulate", [&] {
      acc->add_mode(k, w, f);
      acc->add_mode_polarization(k, w, g);
      acc->add_mode_cross(k, w, f, g);
    });
  };
  const pp::KSchedule& schedule = plan.schedule();
  if (plan.setup().los.enabled) {
    std::optional<pb::BesselTable> table;
    L.span("projection.bessel_table", [&] {
      double x_max = 1.0;
      for (const auto& [ik, r] : out.results) {
        (void)ik;
        x_max = std::max(x_max, r.k * r.tau_end);
      }
      table.emplace(l_max + 1, x_max);
    });
    const auto& bg = plan.context().background();
    const auto& rec = plan.context().recombination();
    for (const auto& [ik, r] : out.results) {
      const double w = schedule.weight_of_ik(ik);
      if (r.samples.empty()) {
        add(r.k, w, r.f_gamma, r.g_gamma);
        continue;
      }
      const pb::SourceTable src = L.span("source_table.build", [&] {
        return pb::build_source_table(bg, rec, r);
      });
      const pb::ProjectedMode pm = L.span("projection", [&] {
        return pb::project_source_table(src, l_max, *table);
      });
      add(r.k, w, pm.f_gamma, pm.g_gamma);
      c.samples += src.tau.size();
      const std::uint64_t pts = projection_points(src);
      c.tau_points += pts;
      c.folds += pts * (l_max + 1);
    }
  } else {
    for (const auto& [ik, r] : out.results) {
      add(r.k, schedule.weight_of_ik(ik), r.f_gamma, r.g_gamma);
    }
  }
  return L.span("accumulate", [&] {
    pr::SpectrumSet s;
    s.temperature = acc->temperature();
    s.polarization = acc->polarization();
    s.cross = acc->cross();
    s.modes_used = acc->modes_added();
    s.polarization_l_max = acc->polarization_l_max();
    s.cobe_factor = plinger::spectra::normalize_to_cobe_quadrupole(
        s.temperature, 18e-6, plan.context().params().t_cmb);
    for (double& v : s.polarization.cl) v *= s.cobe_factor;
    for (double& v : s.cross.cl) v *= s.cobe_factor;
    return s;
  });
}

void count_run(const pp::RunOutput& out, int workers, Counts& c) {
  const pp::RunReport rep = pp::make_run_report(*out.trace);
  c.driver_wall += out.wallclock_seconds;
  c.driver_cpu += rep.total_cpu_seconds;
  c.driver_capacity += out.wallclock_seconds * workers;
  c.tail_idle += rep.idle_tail_seconds;
  c.modes += rep.n_modes_completed;
  c.messages += rep.n_messages;
  c.bytes += rep.n_bytes;
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    c.rhs += static_cast<std::uint64_t>(r.stats.n_rhs);
    c.steps += static_cast<std::uint64_t>(r.stats.n_accepted +
                                          r.stats.n_rejected);
    c.flops += r.flops;
    c.max_mode_cpu = std::max(c.max_mode_cpu, r.cpu_seconds);
  }
}

std::vector<Metric> traced(Bench& b) {
  Ledger L;
  const Workload& w = b.w;
  const auto presets = distinct_presets(w);

  // cosmo + run: built one object at a time, as RunContext does.
  std::map<std::string, std::shared_ptr<const pr::RunContext>> ctx;
  for (const auto& preset : presets) {
    ctx[preset] = pr::make_context(config_of_preset(w, preset));
  }
  for (int r = 0; r < kLayerReps; ++r) {
    for (const auto& preset : presets) {
      const pr::RunConfig& cfg = config_of_preset(w, preset);
      const auto bg = L.span("cosmo.background", [&] {
        return std::make_unique<plinger::cosmo::Background>(cfg.cosmology());
      });
      const auto rec = L.span("cosmo.recombination", [&] {
        return std::make_unique<plinger::cosmo::Recombination>(
            *bg, cfg.recombination_options());
      });
      L.span("cosmo.thermo_cache", [&] {
        return std::make_shared<const plinger::cosmo::ThermoCache>(*bg, *rec);
      });
    }
    for (const auto& cfg : w.configs) {
      L.span("run.plan", [&] { return pr::RunPlan(cfg, ctx.at(cfg.preset)); });
    }
  }
  // One repetition builds every cosmology (or plan): median of the sums.
  const auto per_rep = [&](const std::string& name) {
    const std::vector<double> d = L.durations(name);
    const std::size_t per = d.size() / kLayerReps;
    std::vector<double> sums(kLayerReps, 0.0);
    for (std::size_t i = 0; i < d.size(); ++i) sums[i / per] += d[i];
    return median(sums);
  };

  // Traced spectra: execute() with the driver trace on, then the
  // outside-in replay of make_spectra; the replay must match it bitwise
  // and its spans must cover the traced interval.
  Counts c;
  double traced_s = 0.0;
  std::vector<pp::RunOutput> outs;
  std::vector<std::unique_ptr<pr::RunPlan>> plans;
  for (const auto& cfg : w.configs) {
    auto plan = std::make_unique<pr::RunPlan>(cfg, ctx.at(cfg.preset));
    plan->setup().trace.enabled = true;
    const int root = L.open("spectrum");
    pp::RunOutput out =
        L.span("driver.execute", [&] { return plan->execute(); });
    const pr::SpectrumSet replayed = replay_spectra(L, *plan, out, c);
    L.close(root);
    traced_s += L.spans()[static_cast<std::size_t>(root)].duration();
    b.tally.run(out, plan->schedule().size());
    count_run(out, cfg.workers, c);
    check(same_spectra(replayed, pr::make_spectra(*plan, out)),
          config_label(cfg) + ": replay differs from make_spectra");
    outs.push_back(std::move(out));
    plans.push_back(std::move(plan));
  }
  const double unattributed_frac =
      L.self_seconds_by_name().at("spectrum") / traced_s;
  check(unattributed_frac <= kMaxUnattributed,
        "traced replay leaves " + std::to_string(unattributed_frac) +
            " of spectrum_s unattributed");

  // The same spectra untraced: the trace's overhead.
  double untraced_s = 0.0;
  for (const auto& cfg : w.configs) {
    const pr::RunPlan plan(cfg, ctx.at(cfg.preset));
    const double t0 = wall_now();
    const pp::RunOutput out = plan.execute();
    pr::make_spectra(plan, out);
    untraced_s += wall_now() - t0;
    b.tally.run(out, plan.schedule().size());
  }

  // store: append each run to a fresh journal and read it back.  The
  // journals are named as a service names them, so the single-config
  // serve layer below restarts from them.
  double bytes_written = 0.0, bytes_read = 0.0;
  const ps::ServeOptions store_opts = service_options(b.fresh_dir("store"));
  const ps::SpectrumService namer(store_opts);
  for (std::size_t i = 0; i < w.configs.size(); ++i) {
    const std::string path = namer.journal_path(plans[i]->identity().value);
    L.span("store.append", [&] { write_journal(path, *plans[i], outs[i]); });
    bytes_written += static_cast<double>(fs::file_size(path));
    const pst::JournalContents jc =
        L.span("store.read", [&] { return pst::read_journal(path); });
    bytes_read += static_cast<double>(fs::file_size(path));
    check(jc.complete() && jc.results.size() == outs[i].results.size(),
          config_label(w.configs[i]) + ": journal read back incomplete");
  }

  // serve: every tier the workload reaches, one span per answer.
  ps::ServeStats stats;
  const auto add_stats = [&](const ps::ServeStats& s) {
    stats.lru_hits += s.lru_hits;
    stats.journal_hits += s.journal_hits;
    stats.computes += s.computes;
  };
  b.ledger = &L;
  if (w.serve) {
    const auto list = make_request_list(w.configs.size(),
                                        kServeRepeatsPerConfig, b.opt.seed);
    const ps::ServeOptions so = service_options(b.fresh_dir("sweep"));
    std::vector<std::string> payloads(w.configs.size());
    for (int pass = 0; pass < 2; ++pass) {
      ps::SpectrumService svc(so);
      serve_pass(b, svc, list, payloads, [] {});
      add_stats(svc.stats());
    }
  } else {
    ps::SpectrumService svc(store_opts);
    const ps::Answer first = answer(b, svc, w.configs[0]);
    for (std::size_t i = 0; i < kRepeatsPerBlock; ++i) {
      check(answer(b, svc, w.configs[0]).body->payload == first.body->payload,
            "LRU-tier reply differs from the journal-tier reply");
    }
    add_stats(svc.stats());
  }
  b.ledger = nullptr;

  if (!b.opt.spans_out.empty() && !L.write_json(b.opt.spans_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 b.opt.spans_out.c_str());
  }
  const auto self = L.self_seconds_by_name();
  const auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"cosmo.background_s", per_rep("cosmo.background"), "s"},
      {"cosmo.recombination_s", per_rep("cosmo.recombination"), "s"},
      {"cosmo.thermo_cache_s", per_rep("cosmo.thermo_cache"), "s"},
      {"run.plan_s", per_rep("run.plan"), "s"},
      {"driver.wall_s", c.driver_wall, "s"},
      {"driver.busy_cpu_s", c.driver_cpu, "s"},
      {"driver.parallel_efficiency",
       c.driver_capacity > 0.0 ? c.driver_cpu / c.driver_capacity : 0.0,
       "frac"},
      {"driver.tail_idle_s", c.tail_idle, "s"},
      {"driver.modes", u(c.modes), "count"},
      {"mp.messages", u(c.messages), "count"},
      {"mp.bytes", u(c.bytes), "B"},
      {"evolve.rhs_evals", u(c.rhs), "count"},
      {"evolve.steps", u(c.steps), "count"},
      {"evolve.flops", u(c.flops), "count"},
      {"evolve.max_mode_cpu_s", c.max_mode_cpu, "s"},
      {"source_table.build_s", self_of("source_table.build"), "s"},
      {"source_table.samples", u(c.samples), "count"},
      {"projection.s", self_of("projection"), "s"},
      {"projection.bessel_table_s", self_of("projection.bessel_table"), "s"},
      {"projection.tau_points", u(c.tau_points), "count"},
      {"projection.folds", u(c.folds), "count"},
      {"accumulate.s", self_of("accumulate"), "s"},
      {"store.append_s", self_of("store.append"), "s"},
      {"store.bytes_written", bytes_written, "B"},
      {"store.read_s", self_of("store.read"), "s"},
      {"store.bytes_read", bytes_read, "B"},
      {"serve.lru_hits", u(stats.lru_hits), "count"},
      {"serve.journal_hits", u(stats.journal_hits), "count"},
      {"serve.computes", u(stats.computes), "count"},
      {"serve.render_s", median(L.durations("serve.render")), "s"},
      {"trace.spectrum_s", traced_s, "s"},
      {"trace.overhead_frac", traced_s / untraced_s - 1.0, "frac"},
      {"trace.unattributed_frac", unattributed_frac, "frac"},
  };
}

// ---------------------------------------------------------------- output

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, const Tally& t,
                  const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(t.attempted) +
                  ", \"failed\": " + std::to_string(t.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
         json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

void print_table(const Bench& b, const std::vector<Metric>& metrics) {
  std::printf("# perfbench %s seed=%llu trace=%d\n", b.w.name.c_str(),
              static_cast<unsigned long long>(b.opt.seed),
              b.opt.trace ? 1 : 0);
  for (const Metric& m : metrics) {
    std::printf("%-28s %-24s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  if (!b.opt.trace) {
    std::printf("%-28s %-24s %s   (failed %llu of %llu attempted)\n",
                "failed_frac", json_number(b.tally.failed_frac()).c_str(),
                "frac", static_cast<unsigned long long>(b.tally.failed),
                static_cast<unsigned long long>(b.tally.attempted));
    return;
  }
  // What each workload was built to show, read off the traced ledger.
  std::map<std::string, double> v;
  for (const Metric& m : metrics) v[m.name] = m.value;
  const auto yes = [](bool ok) { return ok ? "yes" : "no"; };
  if (b.w.name == "los_lcdm") {
    std::printf("# confirm projection.s is the majority of the traced "
                "spectrum: %s (%.3f)\n",
                yes(v["projection.s"] > 0.5 * v["trace.spectrum_s"]),
                v["projection.s"] / v["trace.spectrum_s"]);
  } else if (b.w.name == "hier_mdm") {
    std::printf("# confirm projection.s == 0 and driver.wall_s >= 0.9 "
                "traced spectrum: %s (%.3f)\n",
                yes(v["projection.s"] == 0.0 &&
                    v["driver.wall_s"] >= 0.9 * v["trace.spectrum_s"]),
                v["driver.wall_s"] / v["trace.spectrum_s"]);
  } else {
    std::printf("# confirm lru, journal and compute tiers all used: %s\n",
                yes(v["serve.lru_hits"] > 0 && v["serve.journal_hits"] > 0 &&
                    v["serve.computes"] > 0));
  }
}

// ---------------------------------------------------------------- main

int regen(const Options& opt) {
  const std::vector<std::string> names =
      opt.workload.empty() ? workload_names()
                           : std::vector<std::string>{opt.workload};
  fs::create_directories(opt.regen_dir);
  for (const auto& name : names) {
    for (const auto& cfg : make_workload(name, opt.smoke).configs) {
      pr::RunConfig ref = reference_config(cfg);
      ref.workers = 3;  // scheduling only: results are worker-independent
      const double t0 = wall_now();
      const Spectra spectra = raw(spectra_of(compute_spectra(ref)));
      const std::string path =
          opt.regen_dir + "/" + config_label(cfg) + ".txt";
      write_reference(
          path, spectra,
          "perfbench reference " + config_label(cfg) +
              ": solver=hierarchy, full per-k polarization tower "
              "(lmax_photon = lmax_polarization = lmax_cap), rtol = " +
              json_number(ref.rtol) + ", grid=cl points_per_osc=2 " +
              "lmax_neutrino=16; raw C_l (COBE factor divided out)");
      std::printf("wrote %s (%.1f s)\n", path.c_str(), wall_now() - t0);
      std::fflush(stdout);
    }
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --repo-root DIR --work-dir DIR "
               "[--spans-out FILE] [--smoke]\n"
               "       perfbench --regen-reference DIR [--workload NAME] "
               "[--smoke]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--repo-root") opt.repo_root = value();
      else if (a == "--work-dir") opt.work_dir = value();
      else if (a == "--spans-out") opt.spans_out = value();
      else if (a == "--regen-reference") opt.regen_dir = value();
      else if (a == "--smoke") opt.smoke = true;
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (!opt.regen_dir.empty()) return regen(opt);
  if (opt.workload.empty() || opt.work_dir.empty()) return usage();

  Bench b;
  b.opt = opt;
  try {
    b.w = make_workload(opt.workload, opt.smoke);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }
  int rc = 0;
  try {
    fs::create_directories(opt.work_dir);
    load_references(b);
    const std::vector<Metric> metrics = opt.trace ? traced(b) : end_to_end(b);
    print_table(b, metrics);
    print_result(true, b.tally, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n",
                 dynamic_cast<const CheckFailed*>(&e) ? "check failed"
                                                      : "error",
                 e.what());
    print_result(false, b.tally, {});
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  return rc;
}
