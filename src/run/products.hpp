#pragma once

/// Products — the standard outputs assembled from a RunOutput.
///
/// Every example used to re-write the same post-processing: accumulate
/// C_l over the result map, COBE-normalize, feed delta_m into
/// MatterPower, dump the Appendix-A unit_1/unit_2 file pair.  These
/// helpers are that post-processing, once.  Accumulation walks the
/// result map in ascending work-index order — the same order the
/// hand-rolled loops used — so refactored entry points produce
/// bit-identical output.

#include <cstddef>
#include <string>
#include <vector>

#include "plinger/driver.hpp"
#include "run/plan.hpp"
#include "spectra/cl.hpp"
#include "spectra/matterpower.hpp"

namespace plinger::run {

/// COBE-normalized angular spectra of a run.
struct SpectrumSet {
  spectra::AngularSpectrum temperature;   ///< COBE-normalized
  spectra::AngularSpectrum polarization;  ///< scaled by the same factor
  spectra::AngularSpectrum cross;         ///< scaled by the same factor
  double cobe_factor = 1.0;  ///< the normalization applied (feeds P(k))
  std::size_t modes_used = 0;
  /// Highest l the polarization/cross columns are actually populated to
  /// (the tallest G tower the accumulator saw; l_max once any mode is
  /// projected).  Entries above it are structural zeros, not physics.
  std::size_t polarization_l_max = 0;
};

/// Wrap already-settled mode results (a complete checkpoint journal,
/// a cached batch output) as the RunOutput shape the product builders
/// consume — exactly what execute() returns for a fully resumed run:
/// every mode counted as loaded, zero wallclock/CPU/flops.  This is the
/// serve layer's journal warm start: products without a driver spin-up.
parallel::RunOutput output_from_results(
    std::map<std::size_t, boltzmann::ModeResult> results);

/// Assemble C_l^T, C_l^P, C_l^TP from the photon moments and pin the
/// temperature quadrupole to COBE (q_rms_ps in Kelvin; the paper's
/// 18 uK default).  l_max = 0 takes the plan's l_max.
///
/// Every mode that carries source samples (the LOS-routed modes of a
/// solver = auto run) has its SourceTable built and projected here via
/// a shared BesselTable (boltzmann/source_table.hpp): F_l with the Pi
/// correction folded into the quadrupole source, and G_l from the
/// E-mode kernel, so C_l^EE/C_l^TE ride the fast path.  Every other
/// mode is accumulated from its evolved moments directly.  The
/// projections run on a pool of the plan's `workers` threads (1 under
/// driver = serial; the calling thread is one of them, and a result
/// set without samples starts none), while accumulation stays on the
/// calling thread in ascending ik order, so the spectra are bitwise
/// independent of the pool size.  A projection that throws is
/// rethrown here, unchanged, after every pool thread has joined.  The
/// projection is deterministic, so a resumed run reproduces an
/// uninterrupted one bit for bit.  A run whose modes never carry an
/// l >= 2 polarization contribution is refused (no silent zero EE/TE);
/// SpectrumSet::polarization_l_max marks the honest coverage.
SpectrumSet make_spectra(const RunPlan& plan,
                         const parallel::RunOutput& out,
                         std::size_t l_max = 0, double q_rms_ps = 18e-6);

/// Matter power spectrum from each mode's present-day (or tau_end)
/// delta_m.  cobe_factor comes from make_spectra().cobe_factor, or 1.0
/// for shape-only quantities (transfer function, sigma ratios).
spectra::MatterPower make_matter_power(const parallel::RunOutput& out,
                                       double n_s,
                                       double cobe_factor = 1.0);

/// Transfer table: one row per mode, ascending k — the final
/// TransferSample of every result (species overdensities, velocities,
/// metric and Newtonian potentials at tau_end).
struct TransferTable {
  std::vector<double> k;
  std::vector<boltzmann::TransferSample> rows;
};
TransferTable make_transfer_table(const parallel::RunOutput& out);

/// The original LINGER output pair: unit_1, the ASCII stream of
/// 21-value header records, and unit_2, the Fortran-unformatted binary
/// of photon moment arrays.  Byte-identical to the historical
/// linger_cli writer.
struct UnitFileStats {
  std::size_t rows = 0;     ///< unit_1 table rows
  std::size_t records = 0;  ///< unit_2 binary records
};
UnitFileStats write_unit_files(const parallel::RunOutput& out,
                               const std::string& unit1_path,
                               const std::string& unit2_path);

}  // namespace plinger::run
