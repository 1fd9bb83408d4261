#pragma once

/// The correctness gate: spectra of a workload run against the committed
/// independent reference, per l, for TT, EE and TE.
///
/// Errors use the construction of tests/golden/test_accuracy.cpp: TT is
/// a plain relative error; EE and TE divide by max(|ref_l|, 1% of the
/// reference peak) so a spectrum crossing or hugging zero is measured
/// against its own scale there.  All spectra are raw (the COBE factor
/// divided back out), so the normalisation cannot hide a quadrupole
/// error.

#include <cstddef>
#include <string>
#include <vector>

#include "run/products.hpp"

namespace perfbench {

/// Angular spectra indexed by l (entries 0 and 1 unused), scaled by
/// `cobe`: a run's or a reply's spectra carry their COBE factor, raw
/// spectra (references, and what compare() takes) carry 1.
struct Spectra {
  std::vector<double> tt, ee, te;
  /// Highest l the EE/TE columns are populated to; above it they are
  /// structural zeros and are not compared.
  std::size_t pol_l_max = 0;
  double cobe = 1.0;
  std::size_t l_max() const { return tt.empty() ? 0 : tt.size() - 1; }
};

/// The spectra of a run, as computed.
Spectra spectra_of(const plinger::run::SpectrumSet& s);

/// The spectra of a serve reply payload (CL / POL / COBE lines), as
/// served.  Throws std::runtime_error on a malformed payload.
Spectra parse_payload(const std::string& payload);

/// The same spectra with the COBE factor divided back out.
Spectra raw(Spectra s);

/// Reference files: '#' comments (one of them "# pol_l_max N"), then
/// rows "l tt ee te" written with 17 significant digits.
void write_reference(const std::string& path, const Spectra& s,
                     const std::string& comment);
Spectra read_reference(const std::string& path);

/// Per-l ctest envelope (tests/golden/accuracy_envelope_<preset>.txt):
/// env[l] = {tt, ee, te} bounds for l = 2..160.
struct Envelope {
  std::vector<double> tt, ee, te;
};
Envelope read_envelope(const std::string& path);

struct AccuracyReport {
  double tt = 0.0, ee = 0.0, te = 0.0;  ///< max over l of the rel. error
  bool ok = true;
  std::string failure;  ///< first violation, empty when ok
};

/// Compare a run's raw spectra against its reference.  EE/TE are
/// compared up to the smaller polarization coverage of the two.  Fails
/// when a spectrum leaves the envelope at l <= 160 (errors formed exactly
/// as the ctest gate forms them, peak guard taken over l <= 160) or,
/// above 160, the ceilings TT 0.02, EE 0.05, TE 0.25 (about 10x the worst
/// errors the workloads show).
AccuracyReport compare(const Spectra& run, const Spectra& ref,
                       const Envelope& env);

}  // namespace perfbench
