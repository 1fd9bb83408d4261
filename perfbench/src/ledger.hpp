#pragma once

/// Clocks and the span ledger of the benchmark.
///
/// The ledger records one span per call into a plinger++ layer: a name,
/// a start and end on the benchmark's wall clock, and the span that was
/// open when it started (its parent).  Spans live in memory for the
/// whole run and are written out as JSON when the run ends.  A layer's
/// self time is a span's duration minus the time its child spans cover,
/// so self times of every span under a root sum to the root's duration
/// and the root's own self time is the unattributed remainder.
///
/// All spans are opened on the benchmark's one driving thread; worker
/// threads inside the run drivers are seen through the driver's own
/// trace (RunOutput::trace), never through this ledger.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cmath>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

/// Seconds on a monotonic clock.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU seconds (every thread of the process).
inline double process_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set size of the process so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median of a sample (0 for an empty one).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the ledger's origin
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  double duration() const { return end - start; }
};

class Ledger {
 public:
  Ledger() : origin_(wall_now()) {}

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), wall_now() - origin_, 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = wall_now() - origin_;
    stack_.pop_back();
  }

  /// Run f() inside a span and return its result.
  template <typename F>
  decltype(auto) span(std::string name, F&& f) {
    struct Closer {
      Ledger* ledger;
      int id;
      ~Closer() { ledger->close(id); }
    } closer{this, open(std::move(name))};
    return f();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed self time per span name: each span's duration minus the
  /// time its direct children cover.
  std::map<std::string, double> self_seconds_by_name() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        covered[static_cast<std::size_t>(s.parent)] += s.duration();
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].duration() - covered[i];
    }
    return self;
  }

  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.duration());
    }
    return out;
  }

  /// Write every span as a JSON array of {name, start, end, parent}.
  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os.precision(17);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"start\": " << s.start << ", \"end\": " << s.end
         << ", \"parent\": " << s.parent << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
  }

 private:
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
