// Measurement helpers of the serving benchmark: host clock, in-memory span
// recording with Chrome trace-event export, percentiles and the FNV-1a
// fingerprint of the simulated statistics.
#ifndef SERVEBENCH_LEDGER_H_
#define SERVEBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace servebench {

/// Host wall clock (steady), in seconds since an arbitrary epoch.
double HostNow();

/// \brief In-memory span recorder. Spans are kept until the run ends and
/// written out once as Chrome trace-event JSON. A disabled tracer records
/// nothing and costs one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  ///< HostNow() seconds
    double end = 0;
    int64_t id = 0;
    int64_t parent = -1;  ///< -1: a root span
  };

  /// RAII span: opens on construction (child of the innermost open span),
  /// closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  ///< indices of the currently open spans
};

/// Calls `fn` inside a span named `name`, adds its host seconds to
/// `*seconds` and returns its result.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, double* seconds, Fn&& fn) {
  Tracer::Scope span(tracer, name);
  const double start = HostNow();
  auto out = fn();
  *seconds += HostNow() - start;
  return out;
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

/// Accumulates a 64-bit FNV-1a hash over labelled values. Doubles are
/// folded through their exact 17-digit decimal form, so two runs agree iff
/// every value is bit-identical.
class Fingerprint {
 public:
  void Add(const std::string& label, double value);
  void Add(const std::string& label, uint64_t value);
  std::string Hex() const;

 private:
  void Fold(const std::string& text);
  uint64_t hash_ = 1469598103934665603ull;
};

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Pins this process (and every thread it starts later) to the highest CPU
/// it may run on; false when the affinity cannot be set. On a shared VM the
/// per-run device worker threads otherwise wake on whichever CPU is free,
/// and those cross-CPU hand-offs measure the scheduler, not the program.
bool PinToOneCpu();

/// \brief Expresses host seconds at a fixed reference speed of the host.
///
/// A shared host runs the same code up to twice as fast in one stretch of
/// seconds as in the next: other tenants contend for the caches and memory
/// of the core. There is no CPU steal, so process CPU time drifts with wall
/// time. The gauge times a fixed kernel owned by the benchmark between units
/// of measured work: pseudo-random increments in a hash map of 200k keys,
/// the pointer-chasing access pattern of the program's hash and rule-table
/// updates. Next() returns the factor that turns the host seconds of the
/// unit just measured into seconds at the reference speed, the speed at
/// which the kernel takes kReferenceSeconds: (kReferenceSeconds / g) to the
/// power kElasticity, where g is the mean of the samples taken just before
/// and just after the unit.
class HostScale {
 public:
  static constexpr double kReferenceSeconds = 0.005;
  /// How strongly the workloads' host time follows the gauge: the slope of
  /// log(unit time) on log(gauge time) over the units of one run was
  /// 0.47-0.75 across the three workloads on a shared 4-vCPU VM (log-log
  /// correlation 0.80-0.98). The gauge is more memory-bound than the
  /// program, so a full (power 1) correction overshoots.
  static constexpr double kElasticity = 0.7;

  HostScale();  ///< builds the map and takes the first sample
  double Next();
  /// Host seconds of every gauge sample taken so far.
  const std::vector<double>& samples() const { return samples_; }

 private:
  double Sample();

  std::unordered_map<uint32_t, uint32_t> table_;
  uint32_t sink_ = 0;  ///< keeps the untimed pass from being optimized away
  std::vector<double> samples_;
};

}  // namespace servebench

#endif  // SERVEBENCH_LEDGER_H_
