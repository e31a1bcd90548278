#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "net/ip.h"
#include "proto/channel.h"
#include "proto/chunk_store.h"

namespace ppsim::proto {

/// Wire messages of the simulated protocol, modeled after the PPLive 1.9
/// exchanges the paper reverse-engineers (Figure 1, steps 1-8):
/// bootstrap/channel discovery, tracker membership, neighbor-referral
/// peer-list gossip, connection handshake, buffer maps, and chunk data.

/// Causal-tracing context carried by every protocol message. `id` names the
/// operation this message belongs to; `parent` names the operation that
/// caused it (the received message or local action it reacted to). Ids come
/// from Simulator::allocate_span_id() — a deterministic monotonic counter —
/// and are only assigned when causal tracing is enabled; both stay 0
/// otherwise. Spans are trace metadata, not wire payload: they do not
/// contribute to wire_size() and never influence protocol behavior.
struct SpanContext {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// Step (1): client asks the bootstrap/channel server for active channels.
struct ChannelListQuery {
  SpanContext span{};
};

/// Step (2): the channel list.
struct ChannelListReply {
  std::vector<ChannelId> channels;
  SpanContext span{};
};

/// Step (3): client asks for a channel's playlink + tracker set.
struct JoinQuery {
  ChannelId channel = 0;
  SpanContext span{};
};

/// Step (4): playlink (stream source) and one tracker per tracker group.
struct JoinReply {
  ChannelId channel = 0;
  net::IpAddress source;
  std::vector<net::IpAddress> trackers;
  SpanContext span{};
};

/// Client -> tracker: request active peers; also (re)announces the sender
/// as an active member of the channel.
struct TrackerQuery {
  ChannelId channel = 0;
  SpanContext span{};
};

/// Tracker -> client: random sample of active members (no locality logic;
/// the paper finds trackers act as plain databases of active peers).
struct TrackerReply {
  ChannelId channel = 0;
  std::vector<net::IpAddress> peers;
  SpanContext span{};
};

/// Steps (5)/(7): gossip query to a connected neighbor. The requester
/// encloses its own peer list, as observed in PPLive.
struct PeerListQuery {
  ChannelId channel = 0;
  std::vector<net::IpAddress> my_peers;
  SpanContext span{};
};

/// Steps (6)/(8): up to 60 of the replier's recently-connected neighbors.
struct PeerListReply {
  ChannelId channel = 0;
  std::vector<net::IpAddress> peers;
  SpanContext span{};
};

/// Connection handshake.
struct ConnectQuery {
  ChannelId channel = 0;
  SpanContext span{};
};

struct ConnectReply {
  ChannelId channel = 0;
  bool accepted = false;
  BufferMap map;  // replier's availability, so data can flow immediately
  SpanContext span{};
};

/// Periodic availability announcement to connected neighbors.
struct BufferMapAnnounce {
  ChannelId channel = 0;
  BufferMap map;
  SpanContext span{};
};

/// Request for one chunk (carried on the wire as subpieces_per_chunk
/// sub-piece requests; accounted as one transmission).
struct DataQuery {
  ChannelId channel = 0;
  ChunkSeq chunk = 0;
  SpanContext span{};
};

struct DataReply {
  ChannelId channel = 0;
  ChunkSeq chunk = 0;
  std::uint32_t subpieces = 0;
  std::uint32_t payload_bytes = 0;
  SpanContext span{};
};

/// Graceful departure notice to neighbors.
struct Goodbye {
  ChannelId channel = 0;
  SpanContext span{};
};

/// The one list of message types. Every per-type table (names, wire size,
/// wire codec bodies, capture fields) is derived from it, so adding an
/// alternative without its entries fails to compile at each table.
using Message =
    std::variant<ChannelListQuery, ChannelListReply, JoinQuery, JoinReply,
                 TrackerQuery, TrackerReply, PeerListQuery, PeerListReply,
                 ConnectQuery, ConnectReply, BufferMapAnnounce, DataQuery,
                 DataReply, Goodbye>;

static_assert(
    []<std::size_t... I>(std::index_sequence<I...>) {
      return (std::is_same_v<
                  decltype(std::variant_alternative_t<I, Message>::span),
                  SpanContext> &&
              ...);
    }(std::make_index_sequence<std::variant_size_v<Message>>{}),
    "every Message alternative carries a `SpanContext span` member");

/// A table with one entry per Message alternative, in variant order:
/// entry i is `make(std::type_identity<alternative i>{})`. Dispatching on
/// m.index() through such a table needs no per-type list of its own.
template <class Make>
constexpr auto per_message_type(Make make) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return std::array{
        make(std::type_identity<std::variant_alternative_t<I, Message>>{})...};
  }(std::make_index_sequence<std::variant_size_v<Message>>{});
}

/// Bytes this message occupies on the wire (IP+UDP header plus a
/// protocol-shaped payload estimate). Drives access-link serialization.
std::uint64_t wire_size(const Message& m);

/// Short name for traces and debugging, e.g. "DataQuery".
std::string_view message_name(const Message& m);

/// The variant index of the type named `name` (message_name's inverse), or
/// nullopt for a name no alternative has.
std::optional<std::size_t> message_index(std::string_view name);

}  // namespace ppsim::proto
