#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

double kernel_seconds() {
  // 128 KiB of counters: the loop mixes integer work, branches and L1/L2
  // traffic.
  static std::uint32_t table[1 << 15];
  constexpr std::uint64_t kMask = (1 << 15) - 1;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint32_t sink = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & kMask] += static_cast<std::uint32_t>(x >> 40);
    sink += table[(x >> 20) & kMask];
  }
  const double s = seconds_since(t0);
  // Keeps the loop: the table is read once more after the clock stops.
  if (sink == table[0] + 1) table[1] ^= 1;
  return s;
}

}  // namespace

SpeedGauge cpu_gauge() { return SpeedGauge(0.002, kernel_seconds); }

void SpeedGauge::refresh(double every) {
  if (measured_ && seconds_since(last_) < every) return;
  double best = kernel_();
  for (int i = 0; i < 2; ++i) best = std::min(best, kernel_());
  kernel_s_ = best;
  last_ = Clock::now();
  measured_ = true;
}

const std::vector<Metric>& per_layer_table() {
  // Names and units of BENCHMARK.json's per_layer list, in its order.
  // cb.<category>: host time and count of the simulator events of one
  // obs::RunProfiler category; "core" is the untagged audience events and
  // "other" any category not named here.
  static const std::vector<Metric> table = [] {
    std::vector<Metric> t = {
        {"sim.events", 0, "count"},
        {"sim.ns_per_event", 0, "ns"},
        {"sim.peak_queue", 0, "count"},
        {"sim.outside_cb_s", 0, "s"},
    };
    for (const char* c :
         {"net.deliver", "net.transit", "peer.request", "peer.buffermap",
          "peer.gossip", "peer.optimize", "peer.playback", "peer.tracker",
          "peer.sweep", "peer.topup", "peer.join", "peer.send",
          "source.produce", "source.announce", "source.send",
          "source.tracker", "tracker.serve", "core", "obs.sample",
          "fault.begin", "fault.end", "other"}) {
      t.push_back({std::string("cb.") + c + "_s", 0, "s"});
      t.push_back({std::string("cb.") + c + "_n", 0, "count"});
    }
    const std::vector<Metric> rest = {
        {"obs.trace.events", 0, "count"},
        {"obs.trace.write_s", 0, "s"},
        {"obs.trace.bytes", 0, "B"},
        {"obs.spans.write_s", 0, "s"},
        {"obs.samples.bytes", 0, "B"},
        {"obs.metrics.dump_s", 0, "s"},
        {"obs.postmortem.dumps", 0, "count"},
        {"capture.records", 0, "count"},
        {"capture.write_s", 0, "s"},
        {"capture.read_s", 0, "s"},
        {"capture.analyze_s", 0, "s"},
        {"wire.encode_ns", 0, "ns"},
        {"wire.decode_ns", 0, "ns"},
        {"wire.send_ns", 0, "ns"},
        {"wire.dispatch_ns", 0, "ns"},
        {"wire.polls_per_dgram", 0, "ratio"},
        {"wire.allocs_per_dgram", 0, "ratio"},
        {"wire.dgrams_per_s", 0, "1/s"},
        {"wire.rtt_p99_us", 0, "us"},
        {"trace.overhead_pct", 0, "%"},
        {"trace.base_run_s", 0, "s"},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
  }();
  return table;
}

void add_per_layer(RunResult& r, const std::string& name, double value) {
  const auto& t = per_layer_table();
  const auto it = std::find_if(t.begin(), t.end(),
                               [&](const Metric& m) { return m.name == name; });
  if (it == t.end()) {
    std::fprintf(stderr, "ppsim_perfbench: no per-layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  r.add(name, value, it->unit);
}

void complete_per_layer(RunResult& r) {
  std::vector<Metric> ordered;
  for (const Metric& m : per_layer_table()) {
    const auto it =
        std::find_if(r.metrics.begin(), r.metrics.end(),
                     [&](const Metric& x) { return x.name == m.name; });
    ordered.push_back(it == r.metrics.end() ? m : *it);
  }
  r.metrics = std::move(ordered);
}

}  // namespace perfbench
