// The wire-loopback workload: one wire::UdpTransport with two loopback
// hosts in different ISPs (127.1.0.1 in LOOP-TELE, 127.2.0.1 in LOOP-CNC),
// so the codec and the socket path do all the work.
//
// One measured unit has two phases:
//  - burst: host A keeps kWindow operations in flight (a closed loop). The
//    operations come in rounds with the mix a TELE probe of swarm-popular
//    sends: 12 DataQuery->DataReply exchanges, 14 BufferMapAnnounce and one
//    PeerListQuery->PeerListReply gossip exchange, 40 datagrams a round.
//  - ping-pong: kPingPongs DataQuery->DataReply exchanges with one in
//    flight; each one's host round trip is an rtt sample.
// Every datagram is checked on arrival: it is the next one its destination
// expects (so each is delivered exactly once, in order) and it re-encodes to
// the bytes of what was sent.

#include "wire_loopback.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "net/bandwidth.h"
#include "net/ip.h"
#include "net/isp.h"
#include "obs/resource_probe.h"
#include "proto/message.h"
#include "sim/rng.h"
#include "wire/codec.h"
#include "wire/node.h"
#include "wire/udp.h"

namespace perfbench {

namespace {

using namespace ppsim;

constexpr int kWindow = 16;          // burst operations in flight
constexpr int kRoundsPerUnit = 250;  // burst rounds per unit
constexpr int kPingPongs = 1000;     // ping-pong exchanges per unit
constexpr int kPoolRounds = 16;      // distinct rounds made from the seed
constexpr int kStallPolls = 20;      // empty 100 ms polls before giving up
constexpr std::uint16_t kEpoch = 1;
constexpr std::uint32_t kSubpieces = 4;
constexpr std::uint32_t kPayloadBytes = 5520;  // 4 x 1380-byte sub-pieces
// SocketKernel's time on the reference host.
constexpr double kSocketKernelReferenceSeconds = 0.0008;

const net::IpAddress kHostA(127, 1, 0, 1);
const net::IpAddress kHostB(127, 2, 0, 1);

struct Op {
  proto::Message query;  // A -> B
  std::vector<std::uint8_t> query_bytes;
  std::vector<std::uint8_t> reply_bytes;  // B -> A, as B builds it
};

/// B's answer to a query, built from the query alone.
std::optional<proto::Message> reply_to(
    const proto::Message& q,
    const std::vector<std::vector<net::IpAddress>>& lists) {
  if (const auto* d = std::get_if<proto::DataQuery>(&q))
    return proto::Message{
        proto::DataReply{d->channel, d->chunk, kSubpieces, kPayloadBytes, {}}};
  if (const auto* g = std::get_if<proto::PeerListQuery>(&q))
    return proto::Message{proto::PeerListReply{
        g->channel, lists[g->my_peers.size() % lists.size()], {}}};
  return std::nullopt;
}

net::IpAddress random_ip(sim::Rng& rng) {
  return net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()) | 1u);
}

std::vector<std::uint8_t> encode(const proto::Message& m) {
  std::vector<std::uint8_t> out;
  if (wire::encode_message(m, kEpoch, &out) != wire::WireError::kOk) {
    std::fprintf(stderr, "ppsim_perfbench: unencodable generated message\n");
    std::abort();
  }
  return out;
}

/// A free UDP port on both loopback hosts, found by binding port 0.
std::uint16_t free_port() {
  for (int attempt = 0; attempt < 16; ++attempt) {
    std::uint16_t port = 0;
    bool ok = true;
    int fds[2] = {-1, -1};
    for (int h = 0; h < 2 && ok; ++h) {
      fds[h] = ::socket(AF_INET, SOCK_DGRAM, 0);
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_port = htons(port);
      sa.sin_addr.s_addr = htonl((h == 0 ? kHostA : kHostB).value());
      socklen_t len = sizeof(sa);
      ok = fds[h] >= 0 &&
           ::bind(fds[h], reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0 &&
           ::getsockname(fds[h], reinterpret_cast<sockaddr*>(&sa), &len) == 0;
      if (ok) port = ntohs(sa.sin_port);
    }
    for (int fd : fds)
      if (fd >= 0) ::close(fd);
    if (ok && port != 0) return port;
  }
  return 0;
}

/// The gauge of this workload: 200 round trips of a 64-byte datagram over
/// a loopback socket pair of its own (127.3.0.1 <-> 127.3.0.2), the kernel's
/// share of the work with no ppsim code. Returns 1 s if a socket fails, which
/// the speed factor turns into an implausible figure rather than hiding.
class SocketKernel {
 public:
  SocketKernel() {
    for (int h = 0; h < 2; ++h) {
      fd_[h] = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
      addr_[h].sin_family = AF_INET;
      addr_[h].sin_addr.s_addr =
          htonl(net::IpAddress(127, 3, 0, static_cast<std::uint8_t>(h + 1)).value());
      socklen_t len = sizeof(addr_[h]);
      ok_ = ok_ && fd_[h] >= 0 &&
            ::bind(fd_[h], reinterpret_cast<sockaddr*>(&addr_[h]),
                   sizeof(addr_[h])) == 0 &&
            ::getsockname(fd_[h], reinterpret_cast<sockaddr*>(&addr_[h]),
                          &len) == 0;
    }
  }
  ~SocketKernel() {
    for (int fd : fd_)
      if (fd >= 0) ::close(fd);
  }
  SocketKernel(const SocketKernel&) = delete;
  SocketKernel& operator=(const SocketKernel&) = delete;

  double operator()() {
    std::uint8_t buf[64] = {};
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 200 && ok_; ++i) {
      for (int h = 0; h < 2 && ok_; ++h) {
        const sockaddr_in& to = addr_[1 - h];
        ok_ = ::sendto(fd_[h], buf, sizeof(buf), 0,
                       reinterpret_cast<const sockaddr*>(&to), sizeof(to)) ==
                  sizeof(buf) &&
              ::recv(fd_[1 - h], buf, sizeof(buf), 0) == sizeof(buf);
      }
    }
    return ok_ ? seconds_since(t0) : 1.0;
  }

 private:
  int fd_[2] = {-1, -1};
  sockaddr_in addr_[2] = {};
  bool ok_ = true;
};

/// Host figures of one unit; the traced fields are filled in traced units.
struct UnitTimes {
  double run_s = 0;
  double burst_s = 0;
  std::uint64_t allocs = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t burst_datagrams = 0;
  double rtt_p50_us = 0, rtt_p99_us = 0;  // over the unit's ping-pongs
  double speed = 1;  // SpeedGauge::factor() when the unit started
  // traced units only
  double send_s = 0, dispatch_s = 0, handler_s = 0;
  std::uint64_t sends = 0, polls = 0;
};

class WireBench {
 public:
  WireBench(const Args& args, RunResult& out) : out_(out) {
    sim::Rng rng(args.seed ^ 0x7769'7265'0000ULL);
    for (int l = 0; l < 8; ++l) {
      std::vector<net::IpAddress> list(10 + rng.next_below(51));
      for (auto& ip : list) ip = random_ip(rng);
      lists_.push_back(std::move(list));
    }
    const proto::ChunkSeq base = 1000 + rng.next_below(1u << 20);
    proto::ChunkSeq chunk = base;
    for (int r = 0; r < kPoolRounds; ++r) {
      std::vector<proto::Message> round;
      for (int i = 0; i < 12; ++i)
        round.push_back(proto::DataQuery{1, chunk++, {}});
      for (int i = 0; i < 14; ++i) {
        proto::BufferMap map;
        map.base = chunk - rng.next_below(64);
        map.have.resize(32 + rng.next_below(89));
        for (std::size_t b = 0; b < map.have.size(); ++b)
          map.have[b] = rng.chance(0.8);
        round.push_back(proto::BufferMapAnnounce{1, std::move(map), {}});
      }
      std::vector<net::IpAddress> mine(rng.next_below(31));
      for (auto& ip : mine) ip = random_ip(rng);
      round.push_back(proto::PeerListQuery{1, std::move(mine), {}});
      // Fisher-Yates from the seed: the order of the mix within a round.
      for (std::size_t i = round.size() - 1; i > 0; --i)
        std::swap(round[i], round[rng.next_below(i + 1)]);
      for (proto::Message& m : round) burst_.push_back(make_op(std::move(m)));
    }
    for (int i = 0; i < 64; ++i)
      ping_.push_back(make_op(proto::DataQuery{1, chunk++, {}}));
  }

  /// Binding and attaching both hosts: the cold set-up of this workload.
  void set_up() {
    const std::uint16_t port = free_port();
    out_.check(port != 0, "no free UDP port on the loopback hosts");
    if (port == 0) return;
    wire::UdpTransport::Config config;
    config.port = port;
    config.epoch = kEpoch;
    transport_.emplace(config);
    const net::IspRegistry registry = wire::loopback_registry();
    const net::AccessProfile profile;
    transport_->attach(kHostA,
                       registry.in_category(net::IspCategory::kTele).at(0),
                       net::IspCategory::kTele, profile,
                       [this](const wire::UdpTransport::Delivery& d) {
                         at_a(d);
                       });
    transport_->attach(kHostB,
                       registry.in_category(net::IspCategory::kCnc).at(0),
                       net::IspCategory::kCnc, profile,
                       [this](const wire::UdpTransport::Delivery& d) {
                         at_b(d);
                       });
  }
  bool ready() const { return transport_.has_value(); }

  /// A set-up time in reference seconds.
  double scaled_setup(double host_s) {
    gauge_.refresh();
    return host_s * gauge_.factor();
  }

  UnitTimes unit(bool traced) {
    UnitTimes u;
    gauge_.refresh(0.5);
    u.speed = gauge_.factor();
    unit_ = &u;
    traced_ = traced;
    const std::uint64_t a0 = allocations();
    const std::uint64_t d0 = delivered_;
    const Clock::time_point t0 = Clock::now();

    std::size_t issued = 0;
    const std::size_t burst_ops = std::size_t{kRoundsPerUnit} * 27;
    completed_ = 0;
    while (completed_ < burst_ops && !stalled_) {
      while (issued - completed_ < kWindow && issued < burst_ops)
        issue(burst_[issued++ % burst_.size()]);
      pump();
    }
    u.burst_s = seconds_since(t0);
    u.burst_datagrams = delivered_ - d0;
    std::size_t done = completed_;

    rtt_us_.clear();
    for (int i = 0; i < kPingPongs && !stalled_; ++i) {
      completed_ = 0;
      const Clock::time_point p0 = Clock::now();
      issue(ping_[static_cast<std::size_t>(i) % ping_.size()]);
      while (completed_ < 1 && !stalled_) pump();
      rtt_us_.push_back(seconds_since(p0) * 1e6);
      done += completed_;
    }

    u.run_s = seconds_since(t0);
    u.allocs = allocations() - a0;
    u.datagrams = delivered_ - d0;
    u.rtt_p50_us = quantile(rtt_us_, 0.5);
    u.rtt_p99_us = quantile(rtt_us_, 0.99);
    // Every burst and ping-pong operation of the unit is one attempt.
    out_.attempted += burst_ops + kPingPongs;
    if (stalled_) {
      // A datagram was lost: the operations that did not complete failed.
      // Start the next unit clean.
      out_.failed += burst_ops + kPingPongs - done;
      to_b_.clear();
      to_a_.clear();
      stalled_ = false;
    }
    unit_ = nullptr;
    return u;
  }

  /// End-of-run checks against the transport's own accounting.
  void check_totals() {
    const wire::UdpTransport::Stats& s = transport_->stats();
    out_.check(transport_->rx_errors().total() == 0,
               "the transport rejected datagrams (rx_errors)");
    out_.check(s.packets_sent == sent_ && s.packets_delivered == delivered_ &&
                   (out_.failed > 0 || sent_ == delivered_),
               "datagrams sent != datagrams delivered");
    out_.check(s.uplink_drops + s.downlink_drops + s.dead_destination_drops ==
                   0,
               "the transport dropped datagrams");
    out_.check(bytes_delivered_ == bytes_expected_,
               "delivered wire_bytes != sum of wire_size over messages sent");
  }

  /// Host time per message of encode_message and decode_message over one
  /// unit's message mix.
  void codec_times(double* encode_ns, double* decode_ns) {
    std::vector<const proto::Message*> mix;
    for (int r = 0; r < kRoundsPerUnit; ++r)
      for (int i = 0; i < 27; ++i)
        mix.push_back(&burst_[(static_cast<std::size_t>(r) * 27 + i) %
                              burst_.size()].query);
    std::vector<std::uint8_t> buf;
    double enc = 0, dec = 0;
    bool ok = true;
    for (const proto::Message* m : mix) {
      Clock::time_point t0 = Clock::now();
      ok = ok && wire::encode_message(*m, kEpoch, &buf) == wire::WireError::kOk;
      enc += seconds_since(t0);
      t0 = Clock::now();
      const wire::DecodeResult d = wire::decode_message(buf.data(), buf.size(),
                                                        kEpoch);
      dec += seconds_since(t0);
      ok = ok && d.error == wire::WireError::kOk;
    }
    out_.check(ok, "encode/decode of the message mix failed");
    *encode_ns = enc / static_cast<double>(mix.size()) * 1e9;
    *decode_ns = dec / static_cast<double>(mix.size()) * 1e9;
  }

 private:
  Op make_op(proto::Message q) {
    Op op;
    op.query_bytes = encode(q);
    if (auto r = reply_to(q, lists_)) op.reply_bytes = encode(*r);
    op.query = std::move(q);
    return op;
  }

  void send(net::IpAddress from, net::IpAddress to, const proto::Message& m) {
    const std::uint64_t size = proto::wire_size(m);
    bytes_expected_ += size;
    ++sent_;
    if (!traced_) {
      out_.check(transport_->send(from, to, m, size), "send() failed");
      return;
    }
    const Clock::time_point t0 = Clock::now();
    const bool ok = transport_->send(from, to, m, size);
    unit_->send_s += seconds_since(t0);
    ++unit_->sends;
    out_.check(ok, "send() failed");
  }

  void issue(const Op& op) {
    to_b_.push_back(&op);
    send(kHostA, kHostB, op.query);
  }

  void pump() {
    const int got = transport_->poll(100);
    if (traced_) ++unit_->polls;
    if (got == 0 && transport_->rx_queue_depth() == 0) {
      if (++empty_polls_ >= kStallPolls) stalled_ = true;
      return;
    }
    empty_polls_ = 0;
    const Clock::time_point d0 = traced_ ? Clock::now() : Clock::time_point{};
    transport_->dispatch(sim::Time::zero());
    if (traced_) unit_->dispatch_s += seconds_since(d0);
  }

  /// Arrival at B: the next query A sent, byte for byte.
  void at_b(const wire::UdpTransport::Delivery& d) {
    const Clock::time_point t0 = traced_ ? Clock::now() : Clock::time_point{};
    const double send_before = traced_ ? unit_->send_s : 0;
    note_delivery(d);
    const Op* op = to_b_.empty() ? nullptr : to_b_.front();
    out_.check(op != nullptr && d.from == kHostA &&
                   reencodes_to(d.payload, op->query_bytes),
               "a datagram at B is not the query A sent next");
    if (op == nullptr) return;
    to_b_.pop_front();
    if (auto r = reply_to(d.payload, lists_)) {
      to_a_.push_back(op);
      send(kHostB, kHostA, *r);
    } else {
      ++completed_;
    }
    if (traced_)
      unit_->handler_s += seconds_since(t0) - (unit_->send_s - send_before);
  }

  /// Arrival at A: the reply to the oldest query awaiting one.
  void at_a(const wire::UdpTransport::Delivery& d) {
    const Clock::time_point t0 = traced_ ? Clock::now() : Clock::time_point{};
    note_delivery(d);
    const Op* op = to_a_.empty() ? nullptr : to_a_.front();
    out_.check(op != nullptr && d.from == kHostB &&
                   reencodes_to(d.payload, op->reply_bytes) && matches(*op, d.payload),
               "a datagram at A is not the reply to its oldest query");
    if (op != nullptr) {
      to_a_.pop_front();
      ++completed_;
    }
    if (traced_) unit_->handler_s += seconds_since(t0);
  }

  static bool matches(const Op& op, const proto::Message& reply) {
    if (const auto* q = std::get_if<proto::DataQuery>(&op.query)) {
      const auto* r = std::get_if<proto::DataReply>(&reply);
      return r != nullptr && r->chunk == q->chunk && r->channel == q->channel;
    }
    const auto* q = std::get_if<proto::PeerListQuery>(&op.query);
    const auto* r = std::get_if<proto::PeerListReply>(&reply);
    return q != nullptr && r != nullptr && r->channel == q->channel;
  }

  bool reencodes_to(const proto::Message& m,
                    const std::vector<std::uint8_t>& bytes) {
    return wire::encode_message(m, kEpoch, &scratch_) == wire::WireError::kOk &&
           scratch_ == bytes;
  }

  void note_delivery(const wire::UdpTransport::Delivery& d) {
    ++delivered_;
    bytes_delivered_ += d.wire_bytes;
  }

  RunResult& out_;
  std::vector<std::vector<net::IpAddress>> lists_;
  std::vector<Op> burst_, ping_;
  std::optional<wire::UdpTransport> transport_;
  std::deque<const Op*> to_b_, to_a_;  // operations awaiting each host
  std::vector<std::uint8_t> scratch_;
  std::vector<double> rtt_us_;  // the current unit's ping-pong samples
  std::size_t completed_ = 0;
  int empty_polls_ = 0;
  bool stalled_ = false;
  bool traced_ = false;
  UnitTimes* unit_ = nullptr;
  SocketKernel socket_kernel_;
  SpeedGauge gauge_{kSocketKernelReferenceSeconds,
                    [this] { return socket_kernel_(); }};
  std::uint64_t sent_ = 0, delivered_ = 0;
  std::uint64_t bytes_expected_ = 0, bytes_delivered_ = 0;
};

}  // namespace

RunResult run_wire_loopback(const Args& args) {
  RunResult out;
  WireBench bench(args, out);
  bench.set_up();
  const double setup_s = bench.scaled_setup(seconds_since(process_start()));
  if (!bench.ready()) return out;

  std::vector<UnitTimes> plain, traced;
  run_for(args.seconds, [&] {
    plain.push_back(bench.unit(false));
    if (args.trace) traced.push_back(bench.unit(true));
  });
  bench.check_totals();

  auto med = [](const std::vector<UnitTimes>& v, auto field) {
    std::vector<double> xs;
    for (const UnitTimes& u : v) xs.push_back(static_cast<double>(u.*field));
    return median(xs);
  };
  // End-to-end times in reference seconds (see SpeedGauge), as medians
  // over the units.
  auto scaled = [](const std::vector<UnitTimes>& v, double UnitTimes::*field) {
    std::vector<double> xs;
    for (const UnitTimes& u : v) xs.push_back(u.*field * u.speed);
    return median(xs);
  };
  const double run_s = scaled(plain, &UnitTimes::run_s);
  std::fprintf(stderr, "perfbench: host run_s %.6f, reference run_s %.6f\n",
               med(plain, &UnitTimes::run_s), run_s);
  if (!args.trace) {
    out.add("run_s", run_s, "s");
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mb",
            static_cast<double>(obs::ResourceProbe::peak_rss_bytes()) /
                (1024.0 * 1024.0),
            "MB");
    out.add("allocs", med(plain, &UnitTimes::allocs), "count");
    out.add("rtt_p50_us", scaled(plain, &UnitTimes::rtt_p50_us), "us");
    return out;
  }
  double sends = 0, send_s = 0, polls = 0, dgrams = 0, dispatch_s = 0,
         allocs = 0, burst_dgrams = 0, burst_s = 0;
  for (const UnitTimes& u : traced) {
    sends += static_cast<double>(u.sends);
    send_s += u.send_s;
    polls += static_cast<double>(u.polls);
    dgrams += static_cast<double>(u.datagrams);
    dispatch_s += u.dispatch_s - u.handler_s;
    allocs += static_cast<double>(u.allocs);
    burst_dgrams += static_cast<double>(u.burst_datagrams);
    burst_s += u.burst_s;
  }
  double encode_ns = 0, decode_ns = 0;
  bench.codec_times(&encode_ns, &decode_ns);
  add_per_layer(out, "wire.encode_ns", encode_ns);
  add_per_layer(out, "wire.decode_ns", decode_ns);
  add_per_layer(out, "wire.send_ns", send_s / sends * 1e9);
  add_per_layer(out, "wire.dispatch_ns", dispatch_s / dgrams * 1e9);
  add_per_layer(out, "wire.polls_per_dgram", polls / dgrams);
  add_per_layer(out, "wire.allocs_per_dgram", allocs / dgrams);
  add_per_layer(out, "wire.dgrams_per_s", burst_dgrams / burst_s);
  add_per_layer(out, "wire.rtt_p99_us", med(traced, &UnitTimes::rtt_p99_us));
  add_per_layer(out, "trace.base_run_s", run_s);
  add_per_layer(out, "trace.overhead_pct",
                (scaled(traced, &UnitTimes::run_s) / run_s - 1) * 100);
  return out;
}

}  // namespace perfbench
