#pragma once

// Shared plumbing of the ppsim benchmark binary: the host clock, order
// statistics, the metric table a run prints, byte-counting output streams
// and a timing TraceSink wrapper. Everything here is benchmark-side; the
// program under test is only ever called through its public headers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Time of the first static initializer of the benchmark binary, the
/// origin of every `setup_s` (a cold set-up measured from process start).
Clock::time_point process_start();

/// Heap allocations made through operator new since the process started
/// (alloc_count.cc replaces the global allocation functions).
std::uint64_t allocations();

/// The host's current speed, read from a fixed kernel that runs no ppsim
/// code. The speed of the VM this benchmark was tuned on drifts by up to
/// half over minutes, in every program alike (README.md, "Host speed"). The
/// end-to-end times are therefore reported in reference seconds: host
/// seconds times factor(), the kernel's reference time over its time now.
/// Host drift cancels; a change to ppsim's own cost does not, since the
/// kernel's work never changes.
class SpeedGauge {
 public:
  /// `kernel` does its fixed work once and returns the host seconds it
  /// took; `reference_s` is that time on the reference host.
  SpeedGauge(double reference_s, std::function<double()> kernel)
      : reference_s_(reference_s), kernel_(std::move(kernel)) {}

  /// Times the kernel again (the fastest of three runs) when `every`
  /// seconds have passed since the last time; the first call always does.
  void refresh(double every = 0);
  /// Reference seconds per host second, as of the last refresh.
  double factor() const { return reference_s_ / kernel_s_; }

 private:
  double reference_s_;
  std::function<double()> kernel_;
  double kernel_s_ = 1;
  Clock::time_point last_{};
  bool measured_ = false;
};

/// The gauge of the swarm workloads: 10^6 xorshift steps over 128 KiB of
/// counters, the integer, branch and cache work the simulator leans on.
SpeedGauge cpu_gauge();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run reports: the last line of stdout is this object
/// as JSON, preceded by a human-readable table of the same metrics.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // failed checks, printed to stderr

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records a correctness check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (errors.size() < 32) errors.push_back(what);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string tmp_dir;  // scratch directory for post-mortem bundles
};

/// Metrics that are printed for a traced run even when the workload does
/// not exercise their layer (they read 0 there): the fixed per-layer table.
const std::vector<Metric>& per_layer_table();

/// Adds a per-layer metric with its unit from per_layer_table().
void add_per_layer(RunResult& r, const std::string& name, double value);

/// Fills in every per-layer metric `r` does not already carry, with 0, and
/// orders the metrics as the table does.
void complete_per_layer(RunResult& r);

/// A streambuf that discards its input and counts the bytes: the sinks of
/// an observed run write real NDJSON through it, so serialization costs what
/// it costs, without the benchmark measuring the file system.
class CountingStreamBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

class CountingStream final : public std::ostream {
 public:
  CountingStream() : std::ostream(&buf_) {}
  std::uint64_t bytes() const { return buf_.bytes(); }

 private:
  CountingStreamBuf buf_;
};

/// Forwards every event to `inner` and adds up the host time spent there.
class TimedTraceSink final : public ppsim::sim::TraceSink {
 public:
  explicit TimedTraceSink(ppsim::sim::TraceSink& inner) : inner_(inner) {}
  void write(const ppsim::sim::TraceEvent& event) override {
    const Clock::time_point t0 = Clock::now();
    inner_.write(event);
    seconds_ += seconds_since(t0);
  }
  double seconds() const { return seconds_; }

 private:
  ppsim::sim::TraceSink& inner_;
  double seconds_ = 0;
};

/// Repeats `unit` until `seconds` of host time are used: a unit starts only
/// if the previous unit's duration still fits, and at least one always
/// runs.
template <typename Unit>
void run_for(double seconds, Unit&& unit) {
  const Clock::time_point t0 = Clock::now();
  double last = 0;
  do {
    const Clock::time_point u0 = Clock::now();
    unit();
    last = seconds_since(u0);
  } while (seconds_since(t0) + last <= seconds);
}

}  // namespace perfbench
