#include "accuracy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/ascii_table.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kEnvelopeLMax = 160;  ///< the ctest gate's range
constexpr double kDenomGuard = 0.01;        ///< of the reference peak
/// Error ceilings above the ctest range.
constexpr double kCeilingTT = 0.02;
constexpr double kCeilingEE = 0.05;
constexpr double kCeilingTE = 0.25;

/// Per-l error against the reference over l = 2..l_hi; with `guard`,
/// the denominator is at least kDenomGuard x the peak of |ref| over
/// l = 2..l_peak.
std::vector<double> rel_errors(const std::vector<double>& run,
                               const std::vector<double>& ref,
                               std::size_t l_hi, bool guard,
                               std::size_t l_peak) {
  double peak = 0.0;
  for (std::size_t l = 2; l <= l_peak; ++l) {
    peak = std::max(peak, std::abs(ref[l]));
  }
  std::vector<double> rel(l_hi + 1, 0.0);
  for (std::size_t l = 2; l <= l_hi; ++l) {
    const double denom =
        guard ? std::max(std::abs(ref[l]), kDenomGuard * peak)
              : std::abs(ref[l]);
    rel[l] = std::abs(run[l] - ref[l]) / denom;
  }
  return rel;
}

}  // namespace

Spectra spectra_of(const plinger::run::SpectrumSet& s) {
  Spectra r;
  r.tt = s.temperature.cl;
  r.ee = s.polarization.cl;
  r.te = s.cross.cl;
  r.pol_l_max = s.polarization_l_max;
  r.cobe = s.cobe_factor;
  return r;
}

Spectra parse_payload(const std::string& payload) {
  Spectra r;
  r.cobe = 0.0;
  std::istringstream is(payload);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "CL") {
      std::size_t l = 0;
      double tt = 0.0, ee = 0.0, te = 0.0;
      if (!(ls >> l >> tt >> ee >> te)) {
        throw std::runtime_error("malformed CL line: " + line);
      }
      for (auto* col : {&r.tt, &r.ee, &r.te}) {
        if (col->size() <= l) col->resize(l + 1, 0.0);
      }
      r.tt[l] = tt;
      r.ee[l] = ee;
      r.te[l] = te;
    } else if (word == "POL") {
      std::string kv;
      ls >> kv;
      r.pol_l_max = std::stoul(kv.substr(kv.find('=') + 1));
    } else if (word == "COBE") {
      ls >> r.cobe;
    }
  }
  if (r.tt.size() < 3 || !(r.cobe > 0.0)) {
    throw std::runtime_error("payload carries no spectrum");
  }
  return r;
}

Spectra raw(Spectra s) {
  for (auto* col : {&s.tt, &s.ee, &s.te}) {
    for (double& c : *col) c /= s.cobe;
  }
  s.cobe = 1.0;
  return s;
}

void write_reference(const std::string& path, const Spectra& s,
                     const std::string& comment) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "# " << comment << "\n";
  os << "# pol_l_max " << s.pol_l_max << "\n";
  os << "# l cl_tt_raw cl_ee_raw cl_te_raw\n";
  char buf[160];
  for (std::size_t l = 2; l <= s.l_max(); ++l) {
    std::snprintf(buf, sizeof buf, "%zu %.17g %.17g %.17g\n", l, s.tt[l],
                  s.ee[l], s.te[l]);
    os << buf;
  }
  if (!os) throw std::runtime_error("write failed: " + path);
}

Spectra read_reference(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("missing reference " + path);
  Spectra r;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("# pol_l_max ", 0) == 0) {
      r.pol_l_max = std::stoul(line.substr(12));
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::size_t l = 0;
    double tt = 0.0, ee = 0.0, te = 0.0;
    if (!(ls >> l >> tt >> ee >> te)) {
      throw std::runtime_error("malformed reference row in " + path);
    }
    for (auto* col : {&r.tt, &r.ee, &r.te}) {
      if (col->size() <= l) col->resize(l + 1, 0.0);
    }
    r.tt[l] = tt;
    r.ee[l] = ee;
    r.te[l] = te;
  }
  if (r.tt.size() < 3) throw std::runtime_error("empty reference " + path);
  return r;
}

Envelope read_envelope(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("missing envelope " + path);
  Envelope env;
  for (const auto& row : plinger::io::read_ascii_table(is)) {
    if (row.size() != 4) throw std::runtime_error("bad envelope " + path);
    const auto l = static_cast<std::size_t>(row[0]);
    for (auto* col : {&env.tt, &env.ee, &env.te}) {
      if (col->size() <= l) col->resize(l + 1, 0.0);
    }
    env.tt[l] = row[1];
    env.ee[l] = row[2];
    env.te[l] = row[3];
  }
  if (env.tt.size() != kEnvelopeLMax + 1) {
    throw std::runtime_error("envelope " + path + " does not cover l <= 160");
  }
  return env;
}

AccuracyReport compare(const Spectra& run, const Spectra& ref,
                       const Envelope& env) {
  AccuracyReport rep;
  if (run.l_max() != ref.l_max()) {
    rep.ok = false;
    rep.failure = "l_max " + std::to_string(run.l_max()) +
                  " differs from the reference's " +
                  std::to_string(ref.l_max());
    return rep;
  }
  const std::size_t l_max = run.l_max();
  const std::size_t l_pol = std::min({run.pol_l_max, ref.pol_l_max, l_max});
  const std::size_t l_env = std::min(l_max, kEnvelopeLMax);
  const std::size_t l_env_pol = std::min(l_pol, kEnvelopeLMax);

  struct Column {
    const char* name;
    const std::vector<double>* run;
    const std::vector<double>* ref;
    const std::vector<double>* env;
    double ceiling;
    bool guard;
    std::size_t l_hi;
    std::size_t l_env;
    double* worst;
  };
  const Column cols[] = {
      {"TT", &run.tt, &ref.tt, &env.tt, kCeilingTT, false, l_max, l_env,
       &rep.tt},
      {"EE", &run.ee, &ref.ee, &env.ee, kCeilingEE, true, l_pol, l_env_pol,
       &rep.ee},
      {"TE", &run.te, &ref.te, &env.te, kCeilingTE, true, l_pol, l_env_pol,
       &rep.te},
  };
  char buf[200];
  for (const Column& c : cols) {
    if (c.l_hi < 2) continue;
    // The reported metric: every compared l, guard over the full range.
    const auto all = rel_errors(*c.run, *c.ref, c.l_hi, c.guard, c.l_hi);
    // The gate below 160: the ctest construction (guard over l <= 160).
    const auto low = rel_errors(*c.run, *c.ref, c.l_env, c.guard, c.l_env);
    for (std::size_t l = 2; l <= c.l_hi; ++l) {
      *c.worst = std::max(*c.worst, all[l]);
      const bool in_env = l <= c.l_env;
      const double err = in_env ? low[l] : all[l];
      const double bound = in_env ? (*c.env)[l] : c.ceiling;
      if (rep.ok && !(err <= bound)) {
        rep.ok = false;
        std::snprintf(buf, sizeof buf,
                      "C_l^%s at l=%zu: rel. error %.4g above the %s %.4g",
                      c.name, l, err, in_env ? "ctest envelope" : "ceiling",
                      bound);
        rep.failure = buf;
      }
    }
  }
  return rep;
}

}  // namespace perfbench
