// The two simulated-swarm workloads.
//
// One measured unit is what a study of the paper's kind does per run:
// core::run_experiment on the workload's config, then, for every probe,
// archive its packet capture (capture::write_trace), read the archive back
// (capture::read_trace) and analyze the read-back (capture::analyze_trace).
// A run repeats fresh units of the same config and reports medians, which
// keeps the VM's second-to-second speed swings out of the figures.

#include "swarm.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "capture/analyzer.h"
#include "capture/trace_io.h"
#include "core/experiment.h"
#include "faults/plan.h"
#include "net/asn_db.h"
#include "net/isp.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/resource_probe.h"
#include "obs/span_tracker.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "wire/codec.h"
#include "workload/scenario.h"

namespace perfbench {

namespace {

using namespace ppsim;

// swarm-popular: the paper's popular channel at about 1000 viewers with the
// CLI's default TELE probe. The audience arrives over 12 sim-s and the probe
// joins at 10 sim-s. A unit simulates 28 s, about 3 s of host
// time on a 4-core VM, so a 30 s run holds three rounds.
constexpr int kPopularViewers = 1000;
// swarm-observed: a smaller popular swarm under the CI fault plan, scaled to
// a 34 s run, with every observability sink armed.
constexpr int kObservedViewers = 500;
// Each round runs one unit of each of this many swarms, all made from the
// run's seed. The amount of work a swarm makes varies by a few percent from
// seed to seed; reporting the mean over the swarms of each swarm's median
// takes most of that out of the run-to-run spread.
constexpr int kSwarmsPerRound = 3;

struct SwarmWorkload {
  bool observed = false;
  core::ExperimentConfig config;  // observability sinks are armed per unit
};

SwarmWorkload make_workload(const Args& args, int index) {
  SwarmWorkload w;
  w.observed = args.workload == "swarm-observed";
  sim::Rng rng =
      sim::Rng(args.seed ^ 0x7377'6172'6d00ULL).fork(static_cast<std::uint64_t>(index));
  core::ExperimentConfig& c = w.config;
  c.scenario = workload::popular_channel();
  c.scenario.seed = rng.next_u64();
  c.scenario.arrival_ramp = sim::Time::seconds(12);
  c.probes = {core::tele_probe()};
  c.probe_join_at = sim::Time::seconds(10);
  c.keep_traces = true;
  if (!w.observed) {
    c.scenario.viewers = kPopularViewers;
    c.scenario.duration = sim::Time::seconds(28);
    return w;
  }
  c.scenario.viewers = kObservedViewers;
  c.scenario.duration = sim::Time::seconds(34);
  // The CI smoke plan (tracker outage overlapping a TELE<->CNC degrade,
  // then a churn burst), shifted by up to 4 s from the seed.
  const double j = static_cast<double>(rng.next_below(5));
  faults::FaultWindow outage;
  outage.kind = faults::FaultKind::kTrackerOutage;
  outage.start = sim::Time::from_seconds(16 + j);
  outage.end = sim::Time::from_seconds(28 + j);
  outage.tracker_group = -1;
  outage.label = "bench-dark";
  faults::FaultWindow degrade;
  degrade.kind = faults::FaultKind::kLinkDegrade;
  degrade.start = sim::Time::from_seconds(20 + j);
  degrade.end = sim::Time::from_seconds(28 + j);
  degrade.category_a = net::IspCategory::kTele;
  degrade.category_b = net::IspCategory::kCnc;
  degrade.loss = 0.3;
  degrade.added_rtt = sim::Time::millis(150);
  faults::FaultWindow burst;
  burst.kind = faults::FaultKind::kChurnBurst;
  burst.start = burst.end = sim::Time::from_seconds(24 + j);
  burst.fraction = 0.2;
  burst.label = "bench-burst";
  c.faults.plan.windows = {outage, degrade, burst};
  c.faults.fault_seed = rng.next_u64() | 1;
  return w;
}

/// Every sink of swarm-observed, fresh for each unit. All of them write to
/// counting streams; only post-mortem bundles reach the file system.
class ObservedSinks {
 public:
  ObservedSinks(const std::string& postmortem_dir, bool timed,
                const net::AsnDatabase& asn_db)
      : trace_(trace_os_),
        recorder_(recorder_options(postmortem_dir)),
        spans_(span_options(asn_db)) {
    if (timed) {
      timed_recorder_.emplace(recorder_);
      timed_spans_.emplace(spans_);
      tee_ = std::make_unique<obs::TeeTraceSink>(
          std::initializer_list<obs::TraceSink*>{&*timed_recorder_,
                                                 &*timed_spans_});
    } else {
      // The same fan-out the runner builds for ObservabilityConfig::spans,
      // spelled out so that each branch can be timed on its own.
      tee_ = std::make_unique<obs::TeeTraceSink>(
          std::initializer_list<obs::TraceSink*>{&recorder_, &spans_});
    }
    resource_.bind_metrics(&metrics_);
  }
  ObservedSinks(const ObservedSinks&) = delete;
  ObservedSinks& operator=(const ObservedSinks&) = delete;

  void arm(core::ObservabilityConfig& ob) {
    ob.metrics = &metrics_;
    ob.dispatch_metrics = true;
    ob.trace = tee_.get();
    ob.causal_trace = true;
    ob.recorder = &recorder_;
    ob.health_rules = &rules_;
    ob.resource = &resource_;
    ob.sample_period = sim::Time::seconds(10);
    ob.sample_window = sim::Time::seconds(30);
    ob.samples_stream = &samples_os_;
  }

  /// The end-of-run dumps a user of these sinks writes.
  void finish() {
    const Clock::time_point t0 = Clock::now();
    metrics_.write_ndjson(metrics_os_);
    metrics_dump_s_ = seconds_since(t0);
    spans_.write_ndjson(spans_os_);
  }

  std::uint64_t trace_events() const { return trace_.events_written(); }
  std::uint64_t trace_bytes() const { return trace_os_.bytes(); }
  std::uint64_t samples_bytes() const { return samples_os_.bytes(); }
  double metrics_dump_s() const { return metrics_dump_s_; }
  double trace_write_s() const {
    return timed_recorder_ ? timed_recorder_->seconds() : 0;
  }
  double spans_write_s() const {
    return timed_spans_ ? timed_spans_->seconds() : 0;
  }

 private:
  obs::FlightRecorder::Options recorder_options(const std::string& dir) {
    obs::FlightRecorder::Options o;
    o.dir = dir;
    o.downstream = &trace_;
    o.metrics = &metrics_;
    return o;
  }
  static obs::SpanTracker::Options span_options(
      const net::AsnDatabase& asn_db) {
    obs::SpanTracker::Options o;
    o.isp_of = [&asn_db](std::string_view ip) -> std::string {
      const auto parsed = net::IpAddress::parse(std::string(ip));
      if (!parsed.has_value()) return {};
      return std::string(net::to_string(asn_db.category_or_foreign(*parsed)));
    };
    return o;
  }

  CountingStream trace_os_, samples_os_, metrics_os_, spans_os_;
  obs::MetricsRegistry metrics_;
  obs::NdjsonTraceSink trace_;
  obs::FlightRecorder recorder_;
  obs::SpanTracker spans_;
  std::optional<TimedTraceSink> timed_recorder_, timed_spans_;
  std::unique_ptr<obs::TeeTraceSink> tee_;
  obs::HealthRuleSet rules_ = obs::default_health_rules();
  obs::ResourceProbe resource_;
  double metrics_dump_s_ = 0;
};

/// The simulated outcome of one unit, compared across units and between
/// the traced and untraced run: observers must be passive.
struct Outcome {
  std::array<std::array<std::uint64_t, net::kNumIspCategories>,
             net::kNumIspCategories>
      traffic{};
  std::vector<std::uint64_t> counters;
  std::uint64_t peers_spawned = 0, departures = 0, packets_delivered = 0,
                packets_dropped = 0, events_executed = 0;
  double avg_continuity = 0;

  explicit Outcome(const core::ExperimentResult& r) : traffic(r.traffic.bytes) {
    proto::for_each_field(r.counter_totals, [&](const char*, std::uint64_t v) {
      counters.push_back(v);
    });
    peers_spawned = r.swarm.peers_spawned;
    departures = r.swarm.departures;
    packets_delivered = r.swarm.packets_delivered;
    packets_dropped = r.swarm.packets_dropped;
    events_executed = r.swarm.events_executed;
    avg_continuity = r.swarm.avg_continuity;
  }
  bool operator==(const Outcome&) const = default;
};

/// Host-side figures of one unit.
struct UnitTimes {
  double run_s = 0;       // the whole unit
  double sim_s = 0;       // the run_experiment call
  double write_s = 0, read_s = 0, analyze_s = 0;
  std::uint64_t allocs = 0;
  std::uint64_t records = 0;
  double rtt_us = 0;      // host time per simulated data round trip
  double speed = 1;       // SpeedGauge::factor() just before the unit
  std::map<std::string, double> layers;  // traced units only
};

bool same_histogram(const capture::IspHistogram& a,
                    const capture::IspHistogram& b) {
  return a.counts == b.counts;
}

bool same_samples(const std::vector<capture::ResponseSample>& a,
                  const std::vector<capture::ResponseSample>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.request_time == y.request_time &&
                             x.response_seconds == y.response_seconds &&
                             x.remote == y.remote && x.group == y.group;
                    });
}

bool same_analysis(const capture::TraceAnalysis& a,
                   const capture::TraceAnalysis& b) {
  const bool sources = std::equal(
      a.list_sources.begin(), a.list_sources.end(), b.list_sources.begin(),
      b.list_sources.end(), [](const auto& x, const auto& y) {
        return x.replier_category == y.replier_category &&
               x.replier_is_tracker == y.replier_is_tracker &&
               same_histogram(x.listed, y.listed);
      });
  const bool peers = std::equal(
      a.peers.begin(), a.peers.end(), b.peers.begin(), b.peers.end(),
      [](const auto& x, const auto& y) {
        return x.ip == y.ip && x.category == y.category &&
               x.data_requests_matched == y.data_requests_matched &&
               x.bytes_contributed == y.bytes_contributed &&
               x.min_response_seconds == y.min_response_seconds;
      });
  const bool events = std::equal(
      a.data_events.begin(), a.data_events.end(), b.data_events.begin(),
      b.data_events.end(), [](const auto& x, const auto& y) {
        return x.request_time == y.request_time && x.server == y.server &&
               x.bytes == y.bytes;
      });
  return sources && peers && events &&
         same_histogram(a.returned_addresses, b.returned_addresses) &&
         a.unique_listed_ips == b.unique_listed_ips &&
         a.lists_from_peers == b.lists_from_peers &&
         a.lists_from_trackers == b.lists_from_trackers &&
         same_histogram(a.data_transmissions, b.data_transmissions) &&
         same_histogram(a.data_bytes, b.data_bytes) &&
         same_samples(a.list_responses, b.list_responses) &&
         a.list_requests_unanswered == b.list_requests_unanswered &&
         same_samples(a.data_responses, b.data_responses) &&
         same_histogram(a.unique_data_peers, b.unique_data_peers);
}

/// Record equality, the payload compared through the wire codec: a path
/// independent of the capture module's own text format.
bool same_record(const capture::TraceRecord& a, const capture::TraceRecord& b,
                 std::vector<std::uint8_t>& ea, std::vector<std::uint8_t>& eb) {
  if (a.time != b.time || a.direction != b.direction || a.local != b.local ||
      a.remote != b.remote || a.wire_bytes != b.wire_bytes ||
      a.payload.index() != b.payload.index())
    return false;
  return wire::encode_message(a.payload, 1, &ea) == wire::WireError::kOk &&
         wire::encode_message(b.payload, 1, &eb) == wire::WireError::kOk &&
         ea == eb;
}

bool has_empty_map(const proto::Message& m) {
  if (const auto* c = std::get_if<proto::ConnectReply>(&m)) return c->map.have.empty();
  if (const auto* b = std::get_if<proto::BufferMapAnnounce>(&m))
    return b->map.have.empty();
  return false;
}

/// The one operation of a unit that does not depend on the seed: the text
/// round trip of a rejected ConnectReply, whose buffer map is empty. It
/// fails at this version (capture/trace_io.cc writes an empty hex field
/// that the reader rejects), so it is counted in `failed` every unit.
bool empty_map_round_trip() {
  capture::TraceRecord rec;
  rec.time = sim::Time::seconds(1);
  rec.direction = net::Direction::kIncoming;
  rec.local = net::IpAddress(10, 0, 0, 1);
  rec.remote = net::IpAddress(10, 0, 0, 2);
  rec.payload = proto::ConnectReply{1, false, {}, {}};
  rec.wire_bytes = proto::wire_size(rec.payload);
  std::ostringstream os;
  capture::write_trace(os, capture::PacketTrace{rec});
  std::istringstream is(os.str());
  std::size_t dropped = 0;
  const capture::PacketTrace back = capture::read_trace(is, &dropped);
  std::vector<std::uint8_t> ea, eb;
  return dropped == 0 && back.size() == 1 && same_record(rec, back[0], ea, eb);
}

/// Trackers as the capture shows them: the remotes the probe queried.
std::unordered_set<net::IpAddress> trackers_in(const capture::PacketTrace& t) {
  std::unordered_set<net::IpAddress> ips;
  for (const capture::TraceRecord& r : t) {
    if (r.direction == net::Direction::kOutgoing &&
        std::holds_alternative<proto::TrackerQuery>(r.payload))
      ips.insert(r.remote);
  }
  return ips;
}

class SwarmBench {
 public:
  SwarmBench(const Args& args, RunResult& out)
      : args_(args),
        out_(out),
        first_(kSwarmsPerRound),
        asn_db_(net::AsnDatabase::from_registry(
            net::IspRegistry::standard_topology())) {
    for (int i = 0; i < kSwarmsPerRound; ++i) w_.push_back(make_workload(args, i));
  }

  /// The cold set-up: a zero-duration run of the same config, sinks armed.
  double cold_setup() {
    run_zero_duration(w_[0], w_[0].observed);
    const double host_s = seconds_since(process_start());
    gauge_.refresh();
    return host_s * gauge_.factor();
  }

  /// One unit of swarm `i`.
  UnitTimes unit(int i, bool traced) {
    const SwarmWorkload& w = w_[static_cast<std::size_t>(i)];
    UnitTimes u;
    gauge_.refresh();
    u.speed = gauge_.factor();
    std::optional<ObservedSinks> sinks;
    obs::RunProfiler profiler;
    double zero_s = 0;
    if (traced) {
      const Clock::time_point z0 = Clock::now();
      run_zero_duration(w, false);
      zero_s = seconds_since(z0);
    }
    std::vector<capture::PacketTrace> readback;
    std::vector<capture::TraceAnalysis> analyses;
    std::vector<std::size_t> dropped;

    const std::uint64_t a0 = allocations();
    const Clock::time_point t0 = Clock::now();
    core::ExperimentConfig config = w.config;
    if (w.observed) {
      sinks.emplace(postmortem_dir(), traced, asn_db_);
      sinks->arm(config.observability);
    }
    if (traced) config.observability.profiler = &profiler;
    core::ExperimentResult result = core::run_experiment(config);
    u.sim_s = seconds_since(t0);
    if (sinks) sinks->finish();
    for (const core::ProbeResult& p : result.probes) {
      Clock::time_point c0 = Clock::now();
      std::ostringstream os;
      capture::write_trace(os, *p.trace);
      const std::string text = std::move(os).str();
      u.write_s += seconds_since(c0);
      c0 = Clock::now();
      std::istringstream is(text);
      std::size_t d = 0;
      readback.push_back(capture::read_trace(is, &d));
      dropped.push_back(d);
      u.read_s += seconds_since(c0);
      c0 = Clock::now();
      analyses.push_back(capture::analyze_trace(
          readback.back(), asn_db_, p.ip, trackers_in(readback.back())));
      u.analyze_s += seconds_since(c0);
    }
    u.run_s = seconds_since(t0);
    u.allocs = allocations() - a0;

    check(w, first_[static_cast<std::size_t>(i)], result, readback, analyses,
          dropped, u);
    // Two operations per unit: the study above and the fixed round trip.
    out_.attempted += 2;
    if (!empty_map_round_trip()) ++out_.failed;
    if (traced) layers(u, profiler, zero_s, sinks ? &*sinks : nullptr, result);
    if (sinks) remove_postmortems();
    return u;
  }

 private:
  std::string postmortem_dir() const {
    return args_.tmp_dir + "/postmortem";
  }
  void remove_postmortems() const {
    std::error_code ec;
    std::filesystem::remove_all(postmortem_dir(), ec);
  }

  void run_zero_duration(const SwarmWorkload& w, bool with_sinks) {
    core::ExperimentConfig config = w.config;
    config.scenario.duration = sim::Time::zero();
    std::optional<ObservedSinks> sinks;
    if (with_sinks) {
      sinks.emplace(postmortem_dir(), false, asn_db_);
      sinks->arm(config.observability);
    }
    const core::ExperimentResult r = core::run_experiment(config);
    out_.check(r.swarm.events_executed == 0,
               "a zero-duration run executed events");
    if (sinks) remove_postmortems();
  }

  void check(const SwarmWorkload& w, std::optional<Outcome>& first,
             const core::ExperimentResult& r,
             const std::vector<capture::PacketTrace>& readback,
             const std::vector<capture::TraceAnalysis>& analyses,
             const std::vector<std::size_t>& dropped, UnitTimes& u) {
    RunResult& o = out_;
    o.check(!r.probes.empty(), "no probe results");
    std::vector<std::uint8_t> ea, eb;
    for (std::size_t i = 0; i < r.probes.size(); ++i) {
      const core::ProbeResult& p = r.probes[i];
      const capture::PacketTrace& t = *p.trace;
      u.records += t.size();
      // Records with an empty buffer map do not survive the text format
      // (see empty_map_round_trip); every other record must, in order.
      std::size_t k = 0, lost = 0;
      bool same = true;
      for (const capture::TraceRecord& rec : t) {
        if (has_empty_map(rec.payload)) {
          ++lost;
          if (k < readback[i].size() && same_record(rec, readback[i][k], ea, eb))
            ++k;
          continue;
        }
        same = same && k < readback[i].size() &&
               same_record(rec, readback[i][k], ea, eb);
        ++k;
      }
      o.check(same && k == readback[i].size(),
              "read_trace(write_trace(t)) != t for " + p.label);
      o.check(dropped[i] + readback[i].size() == t.size() && dropped[i] <= lost,
              "read_trace dropped lines of " + p.label);
      o.check(same_analysis(analyses[i], p.analysis),
              "analyze_trace of the read-back differs for " + p.label);
      // What the probe counts as newly downloaded, against the DataReply
      // payload its own capture tap saw arrive.
      std::uint64_t arrived = 0;
      for (const capture::TraceRecord& rec : t) {
        const auto* dr = std::get_if<proto::DataReply>(&rec.payload);
        if (dr != nullptr && rec.direction == net::Direction::kIncoming)
          arrived += dr->payload_bytes;
      }
      o.check(p.counters.bytes_downloaded <= arrived,
              "probe " + p.label + " downloaded more than its capture saw");
    }
    // Swarm workloads have no host round trip of their own; their
    // rtt_p50_us is the host time the simulator spends per simulated
    // DataQuery->DataReply round trip.
    const std::uint64_t replies = r.counter_totals.data_replies_received;
    o.check(replies > 0, "no data replies were received");
    u.rtt_us = replies == 0 ? 0 : u.sim_s / static_cast<double>(replies) * 1e6;

    o.check(r.swarm.avg_continuity > 0 && r.swarm.avg_continuity <= 1,
            "average continuity outside (0, 1]");
    const proto::PeerCounters& c = r.counter_totals;
    o.check(c.connects_accepted + c.connects_rejected + c.connects_timed_out +
                    c.connects_lost_race <=
                c.connects_attempted,
            "connect outcomes exceed connects attempted");
    if (w.observed)
      o.check(r.fault_windows_applied == w.config.faults.plan.windows.size(),
              "fault windows applied != windows in the plan");

    const Outcome outcome(r);
    if (!first.has_value()) first.emplace(outcome);
    o.check(outcome == *first,
            "a unit's simulated outcome differs from the first unit of its "
            "swarm");
  }

  void layers(UnitTimes& u, const obs::RunProfiler& profiler, double zero_s,
              const ObservedSinks* sinks, const core::ExperimentResult& r) {
    auto& L = u.layers;
    L["sim.events"] = static_cast<double>(profiler.events_total());
    L["sim.peak_queue"] = static_cast<double>(profiler.max_queue_depth());
    L["sim.outside_cb_s"] =
        u.sim_s - zero_s - profiler.wall_seconds_total();
    out_.check(profiler.events_total() == r.swarm.events_executed,
               "profiler events != events executed");
    for (const auto& [category, cs] : profiler.categories()) {
      std::string name = category.empty() ? "core" : category;
      if (!has_per_layer("cb." + name + "_s")) name = "other";
      L["cb." + name + "_s"] += cs.wall_seconds;
      L["cb." + name + "_n"] += static_cast<double>(cs.events);
    }
    if (sinks != nullptr) {
      L["obs.trace.events"] = static_cast<double>(sinks->trace_events());
      L["obs.trace.write_s"] = sinks->trace_write_s();
      L["obs.trace.bytes"] = static_cast<double>(sinks->trace_bytes());
      L["obs.spans.write_s"] = sinks->spans_write_s();
      L["obs.samples.bytes"] = static_cast<double>(sinks->samples_bytes());
      L["obs.metrics.dump_s"] = sinks->metrics_dump_s();
      L["obs.postmortem.dumps"] = static_cast<double>(r.postmortem_dumps);
    }
    L["capture.records"] = static_cast<double>(u.records);
    L["capture.write_s"] = u.write_s;
    L["capture.read_s"] = u.read_s;
    L["capture.analyze_s"] = u.analyze_s;
  }

  static bool has_per_layer(const std::string& name) {
    const auto& t = per_layer_table();
    return std::any_of(t.begin(), t.end(),
                       [&](const Metric& m) { return m.name == name; });
  }

  const Args& args_;
  RunResult& out_;
  std::vector<std::optional<Outcome>> first_;  // per swarm
  net::AsnDatabase asn_db_;
  std::vector<SwarmWorkload> w_;
  SpeedGauge gauge_ = cpu_gauge();
};

}  // namespace

RunResult run_swarm(const Args& args) {
  RunResult out;
  SwarmBench bench(args, out);
  const double setup_s = bench.cold_setup();

  // units[i]: the units of swarm i, one per round.
  using Units = std::vector<std::vector<UnitTimes>>;
  Units plain(kSwarmsPerRound), traced(kSwarmsPerRound);
  run_for(args.seconds, [&] {
    for (int i = 0; i < kSwarmsPerRound; ++i) {
      plain[static_cast<std::size_t>(i)].push_back(bench.unit(i, false));
      // The traced run alternates traced and untraced units, so the
      // overhead is taken against units measured under the same machine
      // conditions.
      if (args.trace)
        traced[static_cast<std::size_t>(i)].push_back(bench.unit(i, true));
    }
  });

  // The mean over the swarms of each swarm's median over the rounds.
  auto mean_of_medians = [](const Units& units, auto value) {
    double sum = 0;
    for (const std::vector<UnitTimes>& swarm : units) {
      std::vector<double> xs;
      for (const UnitTimes& u : swarm) xs.push_back(value(u));
      sum += median(xs);
    }
    return sum / static_cast<double>(units.size());
  };
  auto field = [](auto member) {
    return [member](const UnitTimes& u) { return static_cast<double>(u.*member); };
  };
  // End-to-end times in reference seconds (see SpeedGauge).
  auto scaled = [](auto member) {
    return [member](const UnitTimes& u) { return u.*member * u.speed; };
  };
  const double run_s = mean_of_medians(plain, scaled(&UnitTimes::run_s));
  std::fprintf(stderr, "perfbench: host run_s %.6f, reference run_s %.6f\n",
               mean_of_medians(plain, field(&UnitTimes::run_s)), run_s);
  if (!args.trace) {
    out.add("run_s", run_s, "s");
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mb",
            static_cast<double>(obs::ResourceProbe::peak_rss_bytes()) /
                (1024.0 * 1024.0),
            "MB");
    out.add("allocs", mean_of_medians(plain, field(&UnitTimes::allocs)), "count");
    out.add("rtt_p50_us", mean_of_medians(plain, scaled(&UnitTimes::rtt_us)), "us");
    return out;
  }
  std::set<std::string> names;
  for (const std::vector<UnitTimes>& swarm : traced)
    for (const UnitTimes& u : swarm)
      for (const auto& entry : u.layers) names.insert(entry.first);
  for (const std::string& name : names) {
    add_per_layer(out, name, mean_of_medians(traced, [&](const UnitTimes& u) {
                    const auto it = u.layers.find(name);
                    return it == u.layers.end() ? 0.0 : it->second;
                  }));
  }
  double ns_per_event = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    std::vector<double> sim_s, events;
    for (const UnitTimes& u : plain[i]) sim_s.push_back(u.sim_s);
    for (const UnitTimes& u : traced[i]) events.push_back(u.layers.at("sim.events"));
    ns_per_event += median(sim_s) / median(events) * 1e9 /
                    static_cast<double>(plain.size());
  }
  add_per_layer(out, "sim.ns_per_event", ns_per_event);
  add_per_layer(out, "trace.base_run_s", run_s);
  add_per_layer(out, "trace.overhead_pct",
                (mean_of_medians(traced, scaled(&UnitTimes::run_s)) / run_s - 1) *
                    100);
  return out;
}

}  // namespace perfbench
