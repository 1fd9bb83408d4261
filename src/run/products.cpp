#include "run/products.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "boltzmann/source_table.hpp"
#include "common/error.hpp"
#include "io/ascii_table.hpp"
#include "io/fortran_binary.hpp"
#include "plinger/records.hpp"

namespace plinger::run {

parallel::RunOutput output_from_results(
    std::map<std::size_t, boltzmann::ModeResult> results) {
  parallel::RunOutput out;
  out.n_modes_loaded = results.size();
  out.results = std::move(results);
  return out;
}

namespace {

/// Runs produce(0..n-1) on up to n_threads threads, the calling thread
/// among them (the others pull indices from a shared counter), and calls
/// consume(i, value) on the calling thread for i = 0, 1, ..., n-1 in
/// that order, each as soon as its prefix is complete.  Each value is
/// released right after it is consumed.  The first exception produce
/// throws ends further claims; every thread is joined before it is
/// rethrown.  n <= 1 or n_threads <= 1 starts no thread.
template <typename T, typename Produce, typename Consume>
void ordered_parallel(std::size_t n, std::size_t n_threads,
                      const Produce& produce, const Consume& consume) {
  std::vector<std::optional<T>> slots(n);
  std::atomic<std::size_t> next{0};  // set to n to end the claims
  std::mutex mutex;
  std::condition_variable ready;
  std::exception_ptr error;  // the first failure, guarded by mutex
  // Claim one index and produce it; false once nothing is left.
  const auto claim = [&] {
    const std::size_t i = next.fetch_add(1);
    if (i >= n) return false;
    try {
      T value = produce(i);
      const std::lock_guard<std::mutex> lock(mutex);
      slots[i].emplace(std::move(value));
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!error) error = std::current_exception();
      next = n;
    }
    ready.notify_one();  // the calling thread is the only waiter
    return true;
  };

  // Joins the helpers on every exit; an early one (consume threw) first
  // ends the claims so they stop after their current index.
  struct Helpers {
    std::atomic<std::size_t>& next;
    std::size_t n;
    std::vector<std::thread> threads;
    void join() {
      next = n;
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
    ~Helpers() { join(); }
  } helpers{next, n, {}};
  const std::size_t n_helpers =
      std::max<std::size_t>(std::min(n_threads, n), 1) - 1;
  for (std::size_t t = 0; t < n_helpers; ++t) {
    try {
      helpers.threads.emplace_back([&claim] { while (claim()) {} });
    } catch (const std::system_error&) {
      break;  // no thread to spare: the ones running finish the work
    }
  }

  for (std::size_t folded = 0; folded < n;) {
    std::optional<T> value;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (error) break;
      value.swap(slots[folded]);
    }
    if (value) {
      consume(folded++, *value);
    } else if (!claim()) {
      // Nothing left to claim: wait for the next index in order.
      std::unique_lock<std::mutex> lock(mutex);
      ready.wait(lock, [&] { return error || slots[folded].has_value(); });
    }
  }
  helpers.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

SpectrumSet make_spectra(const RunPlan& plan,
                         const parallel::RunOutput& out, std::size_t l_max,
                         double q_rms_ps) {
  if (l_max == 0) l_max = plan.config().l_max;
  spectra::PowerLawSpectrum primordial;
  primordial.n_s = plan.config().n_s;
  spectra::ClAccumulator acc(l_max, primordial);
  const parallel::KSchedule& schedule = plan.schedule();
  // Modes that carry source samples took the line-of-sight branch: each
  // one's SourceTable is built and projected (temperature AND
  // polarization, through one shared Bessel table) on a pool of the
  // run's `workers` threads.  Every other mode (solver=hierarchy, or
  // below the solver=auto crossover) already holds its exact F_l / G_l
  // moments.  Accumulation stays on this thread in ascending ik order,
  // so the C_l do not depend on the pool size.
  std::vector<const boltzmann::ModeResult*> sampled;  // ascending ik
  double x_max = 1.0;
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    if (!r.samples.empty()) sampled.push_back(&r);
    x_max = std::max(x_max, r.k * r.tau_end);
  }
  auto cursor = out.results.begin();  // the next mode to fold
  const auto fold = [&](const std::vector<double>& f,
                        const std::vector<double>& g) {
    const auto& [ik, r] = *cursor++;
    const double w = schedule.weight_of_ik(ik);
    acc.add_mode(r.k, w, f);
    acc.add_mode_polarization(r.k, w, g);
    acc.add_mode_cross(r.k, w, f, g);
  };
  // Fold the evolved modes ahead of `stop` (nullptr: all the rest).
  const auto fold_evolved_until = [&](const boltzmann::ModeResult* stop) {
    while (cursor != out.results.end() && &cursor->second != stop) {
      fold(cursor->second.f_gamma, cursor->second.g_gamma);
    }
  };

  std::optional<boltzmann::BesselTable> table;
  if (!sampled.empty()) table.emplace(l_max + 1, x_max);
  const cosmo::Background& bg = plan.context().background();
  const cosmo::Recombination& rec = plan.context().recombination();
  const std::size_t pool =
      plan.config().driver == "serial"
          ? 1
          : static_cast<std::size_t>(plan.config().workers);
  ordered_parallel<boltzmann::ProjectedMode>(
      sampled.size(), pool,
      [&](std::size_t j) {
        return boltzmann::project_source_table(
            boltzmann::build_source_table(bg, rec, *sampled[j]), l_max,
            *table);
      },
      [&](std::size_t j, const boltzmann::ProjectedMode& projected) {
        fold_evolved_until(sampled[j]);
        fold(projected.f_gamma, projected.g_gamma);
      });
  fold_evolved_until(nullptr);
  // Silent-zero fence: a run that produced modes but never reached an
  // l >= 2 polarization contribution would hand the caller EE/TE
  // columns of zeros with no diagnostic.  Refuse instead — the fix is
  // a taller polarization tower, not downstream zeros.
  if (acc.modes_added() > 0 && acc.polarization_l_max() < 2) {
    throw Error(std::string("make_spectra: no polarization sources "
                            "reached l >= 2 under solver=") +
                plan.config().solver +
                " — C_l^EE/C_l^TE would be silently zero (check "
                "lmax_polarization and the mode results' G towers)");
  }
  SpectrumSet s;
  s.temperature = acc.temperature();
  s.polarization = acc.polarization();
  s.cross = acc.cross();
  s.modes_used = acc.modes_added();
  s.polarization_l_max = acc.polarization_l_max();
  s.cobe_factor = spectra::normalize_to_cobe_quadrupole(
      s.temperature, q_rms_ps, plan.context().params().t_cmb);
  for (double& c : s.polarization.cl) c *= s.cobe_factor;
  for (double& c : s.cross.cl) c *= s.cobe_factor;
  return s;
}

spectra::MatterPower make_matter_power(const parallel::RunOutput& out,
                                       double n_s, double cobe_factor) {
  spectra::PowerLawSpectrum primordial;
  primordial.n_s = n_s;
  spectra::MatterPower mp(primordial);
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    mp.add_mode(r.k, r.final_state.delta_m);
  }
  mp.finalize(cobe_factor);
  return mp;
}

TransferTable make_transfer_table(const parallel::RunOutput& out) {
  TransferTable t;
  t.k.reserve(out.results.size());
  t.rows.reserve(out.results.size());
  // The result map is keyed by work index, which ascends with k.
  for (const auto& [ik, r] : out.results) {
    (void)ik;
    t.k.push_back(r.k);
    t.rows.push_back(r.final_state);
  }
  return t;
}

UnitFileStats write_unit_files(const parallel::RunOutput& out,
                               const std::string& unit1_path,
                               const std::string& unit2_path) {
  // unit_1: the 21-double header records, ASCII (Appendix A: "this data
  // is written to an ascii file").
  std::ofstream u1(unit1_path);
  PLINGER_REQUIRE(u1.is_open(), "cannot write " + unit1_path);
  io::AsciiTableWriter table(
      u1, {"ik", "k", "tau0", "a", "delta_c", "delta_b", "delta_g",
           "delta_nu", "delta_m", "theta_b", "theta_g", "eta", "h",
           "phi", "psi", "steps", "rhs", "flops", "cpu_s", "tau_switch",
           "lmax"});
  // unit_2: ik + moment arrays as Fortran records ("written to a binary
  // file").
  std::ofstream u2(unit2_path, std::ios::binary);
  PLINGER_REQUIRE(u2.is_open(), "cannot write " + unit2_path);
  io::FortranRecordWriter records(u2);

  for (const auto& [ik, r] : out.results) {
    table.row(parallel::pack_header(ik, r));
    records.record(parallel::pack_payload(ik, r));
  }
  return {table.rows_written(), records.records_written()};
}

}  // namespace plinger::run
