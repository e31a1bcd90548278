#include "proto/message.h"

#include <algorithm>
#include <iterator>

namespace ppsim::proto {

namespace {

constexpr std::uint64_t kIpUdpHeader = 28;

struct SizeVisitor {
  std::uint64_t operator()(const ChannelListQuery&) const { return 8; }
  std::uint64_t operator()(const ChannelListReply& m) const {
    return 8 + 4 * m.channels.size();
  }
  std::uint64_t operator()(const JoinQuery&) const { return 12; }
  std::uint64_t operator()(const JoinReply& m) const {
    return 16 + 6 * m.trackers.size();
  }
  std::uint64_t operator()(const TrackerQuery&) const { return 16; }
  std::uint64_t operator()(const TrackerReply& m) const {
    return 12 + 6 * m.peers.size();
  }
  std::uint64_t operator()(const PeerListQuery& m) const {
    return 12 + 6 * m.my_peers.size();
  }
  std::uint64_t operator()(const PeerListReply& m) const {
    return 12 + 6 * m.peers.size();
  }
  std::uint64_t operator()(const ConnectQuery&) const { return 16; }
  std::uint64_t operator()(const ConnectReply& m) const {
    return 20 + (m.map.have.size() + 7) / 8;
  }
  std::uint64_t operator()(const BufferMapAnnounce& m) const {
    return 20 + (m.map.have.size() + 7) / 8;
  }
  std::uint64_t operator()(const DataQuery&) const { return 20; }
  std::uint64_t operator()(const DataReply& m) const {
    // One header per sub-piece packet the chunk is carried in.
    return m.payload_bytes + 12 + kIpUdpHeader * (m.subpieces > 0
                                                      ? m.subpieces - 1
                                                      : 0);
  }
  std::uint64_t operator()(const Goodbye&) const { return 12; }
};

/// Message names, indexed by variant index.
constexpr std::string_view kNames[] = {
    "ChannelListQuery",
    "ChannelListReply",
    "JoinQuery",
    "JoinReply",
    "TrackerQuery",
    "TrackerReply",
    "PeerListQuery",
    "PeerListReply",
    "ConnectQuery",
    "ConnectReply",
    "BufferMapAnnounce",
    "DataQuery",
    "DataReply",
    "Goodbye",
};
static_assert(std::size(kNames) == std::variant_size_v<Message>,
              "every Message alternative needs a name, in variant order");

}  // namespace

std::uint64_t wire_size(const Message& m) {
  return kIpUdpHeader + std::visit(SizeVisitor{}, m);
}

std::string_view message_name(const Message& m) { return kNames[m.index()]; }

std::optional<std::size_t> message_index(std::string_view name) {
  const auto* it = std::ranges::find(kNames, name);
  if (it == std::end(kNames)) return std::nullopt;
  return static_cast<std::size_t>(it - std::begin(kNames));
}

}  // namespace ppsim::proto
