#include "wire/codec.h"

#include <cassert>
#include <optional>
#include <type_traits>

namespace ppsim::wire {

namespace {

// Big-endian (network order) primitives. The format is explicit about byte
// order so heterogenous hosts interoperate; loopback tests exercise the
// same paths.
void put_u16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v));
}

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) |
                                    std::uint16_t{p[1]});
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (std::uint32_t{get_u16(p)} << 16) | get_u16(p + 2);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return (std::uint64_t{get_u32(p)} << 32) | get_u32(p + 4);
}

/// Addresses travel as 6 bytes — IPv4 + a 2-byte port slot, the shape real
/// peer-list entries have. The deployment binds every node to one shared
/// port (docs/WIRE.md), so the slot is written zero and must read zero.
void put_addr(std::vector<std::uint8_t>* out, net::IpAddress ip) {
  put_u32(out, ip.value());
  put_u16(out, 0);
}

/// aux bit assignments for the bitmap-carrying variants: bits 0-2 hold the
/// trailing-bit count of the last bitmap byte (have.size() % 8), bit 15
/// holds ConnectReply::accepted. All other aux bits are undefined in v1 and
/// must be zero.
constexpr std::uint16_t kAuxTrailingMask = 0x0007;
constexpr std::uint16_t kAuxAcceptedBit = 0x8000;

void put_bitmap(std::vector<std::uint8_t>* out,
                const std::vector<bool>& have) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < have.size(); ++i) {
    if (have[i]) acc |= static_cast<std::uint8_t>(1u << (7 - i % 8));
    if (i % 8 == 7) {
      out->push_back(acc);
      acc = 0;
    }
  }
  if (have.size() % 8 != 0) out->push_back(acc);
}

/// Reconstructs a bitmap from `bytes` bitmap bytes whose last byte carries
/// `trailing` significant bits (0 meaning a full 8). Returns false when the
/// padding bits of the last byte are not zero.
bool get_bitmap(const std::uint8_t* p, std::size_t bytes,
                std::uint16_t trailing, std::vector<bool>* have) {
  if (bytes == 0) return true;
  const std::size_t n =
      (bytes - 1) * 8 + (trailing == 0 ? 8 : static_cast<std::size_t>(trailing));
  have->reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    have->push_back((p[i / 8] >> (7 - i % 8)) & 1u);
  // Unused low-order bits of the last byte are padding and must be zero.
  if (trailing != 0) {
    const std::uint8_t pad_mask =
        static_cast<std::uint8_t>(0xFFu >> trailing);
    if ((p[bytes - 1] & pad_mask) != 0) return false;
  }
  return true;
}

/// Body layouts that several message types share are written once, as a
/// template constrained to exactly those types.
template <class T, class... U>
concept OneOf = (std::is_same_v<T, U> || ...);

// Body encoders, one overload per body layout. Each appends the body after
// the header and returns the header's aux bits, or nullopt when the
// message has no v1 encoding. A message type without an overload fails to
// compile in encode_message.

using Aux = std::optional<std::uint16_t>;

Aux put_body(const proto::ChannelListQuery&, std::vector<std::uint8_t>*) {
  return 0;
}

Aux put_body(const proto::ChannelListReply& m,
             std::vector<std::uint8_t>* out) {
  for (const auto c : m.channels) put_u32(out, c);
  return 0;
}

/// u32 channel.
template <OneOf<proto::JoinQuery, proto::Goodbye> T>
Aux put_body(const T& m, std::vector<std::uint8_t>* out) {
  put_u32(out, m.channel);
  return 0;
}

Aux put_body(const proto::JoinReply& m, std::vector<std::uint8_t>* out) {
  put_u32(out, m.channel);
  put_u32(out, m.source.value());
  for (const auto t : m.trackers) put_addr(out, t);
  return 0;
}

/// u32 channel, u32 reserved.
template <OneOf<proto::TrackerQuery, proto::ConnectQuery> T>
Aux put_body(const T& m, std::vector<std::uint8_t>* out) {
  put_u32(out, m.channel);
  put_u32(out, 0);
  return 0;
}

/// u32 channel, address list.
template <OneOf<proto::TrackerReply, proto::PeerListQuery,
                proto::PeerListReply> T>
Aux put_body(const T& m, std::vector<std::uint8_t>* out) {
  [[maybe_unused]] const auto& [channel, addrs, span] = m;
  put_u32(out, channel);
  for (const auto a : addrs) put_addr(out, a);
  return 0;
}

/// u32 channel, u64 map base, bitmap; returns the trailing-bit count.
std::uint16_t put_map_body(proto::ChannelId channel,
                           const proto::BufferMap& map,
                           std::vector<std::uint8_t>* out) {
  put_u32(out, channel);
  put_u64(out, map.base);
  put_bitmap(out, map.have);
  return static_cast<std::uint16_t>(map.have.size() % 8);
}

Aux put_body(const proto::ConnectReply& m, std::vector<std::uint8_t>* out) {
  return static_cast<std::uint16_t>(put_map_body(m.channel, m.map, out) |
                                    (m.accepted ? kAuxAcceptedBit : 0));
}

Aux put_body(const proto::BufferMapAnnounce& m,
             std::vector<std::uint8_t>* out) {
  return put_map_body(m.channel, m.map, out);
}

Aux put_body(const proto::DataQuery& m, std::vector<std::uint8_t>* out) {
  put_u32(out, m.channel);
  put_u64(out, m.chunk);
  return 0;
}

Aux put_body(const proto::DataReply& m, std::vector<std::uint8_t>* out) {
  // The sim charges payload + one 12-byte protocol header + one extra
  // IP+UDP header per additional sub-piece; the v1 datagram spends 28
  // bytes on real fields and zero-fills the rest of that budget. A reply
  // whose budget is below the fixed fields (payload_bytes < 16 with at
  // most one sub-piece — never produced by the protocol) has no encoding.
  const std::uint64_t total =
      12 + m.payload_bytes +
      kIpUdpHeader * (m.subpieces > 0 ? m.subpieces - 1 : 0);
  if (total < kHeaderBytes + 20 || total > kMaxDatagram) return std::nullopt;
  put_u32(out, m.channel);
  put_u64(out, m.chunk);
  put_u32(out, m.subpieces);
  put_u32(out, m.payload_bytes);
  out->resize(static_cast<std::size_t>(total), 0);
  return 0;
}

// Body decoders, one overload per body layout, filling the message in
// place. `p` points at the body (after the header) and `len` is its length
// in bytes; the header, aux included, arrives validated. A message type
// without an overload fails to compile in kDecoders.

/// The aux bits a message type defines; all others must be zero.
template <class T>
constexpr std::uint16_t kAuxBits = 0;
template <>
constexpr std::uint16_t kAuxBits<proto::ConnectReply> =
    kAuxAcceptedBit | kAuxTrailingMask;
template <>
constexpr std::uint16_t kAuxBits<proto::BufferMapAnnounce> = kAuxTrailingMask;

WireError get_body(const std::uint8_t*, std::size_t len, std::uint16_t,
                   proto::ChannelListQuery*) {
  return len == 0 ? WireError::kOk : WireError::kBadLength;
}

WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t,
                   proto::ChannelListReply* m) {
  if (len % 4 != 0) return WireError::kBadLength;
  m->channels.reserve(len / 4);
  for (std::size_t i = 0; i < len; i += 4) m->channels.push_back(get_u32(p + i));
  return WireError::kOk;
}

template <OneOf<proto::JoinQuery, proto::Goodbye> T>
WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t,
                   T* m) {
  if (len != 4) return WireError::kBadLength;
  m->channel = get_u32(p);
  return WireError::kOk;
}

/// Shared 6-byte address-list tail of JoinReply/TrackerReply/PeerList*.
WireError get_addr_list(const std::uint8_t* p, std::size_t len,
                        std::vector<net::IpAddress>* out) {
  if (len % 6 != 0) return WireError::kBadLength;
  out->reserve(len / 6);
  for (std::size_t i = 0; i < len; i += 6) {
    if (get_u16(p + i + 4) != 0) return WireError::kBadReserved;
    out->push_back(net::IpAddress(get_u32(p + i)));
  }
  return WireError::kOk;
}

WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t,
                   proto::JoinReply* m) {
  if (len < 8) return WireError::kTruncated;
  m->channel = get_u32(p);
  m->source = net::IpAddress(get_u32(p + 4));
  return get_addr_list(p + 8, len - 8, &m->trackers);
}

template <OneOf<proto::TrackerQuery, proto::ConnectQuery> T>
WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t,
                   T* m) {
  if (len != 8) return WireError::kBadLength;
  if (get_u32(p + 4) != 0) return WireError::kBadReserved;
  m->channel = get_u32(p);
  return WireError::kOk;
}

template <OneOf<proto::TrackerReply, proto::PeerListQuery,
                proto::PeerListReply> T>
WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t,
                   T* m) {
  if (len < 4) return WireError::kTruncated;
  [[maybe_unused]] auto& [channel, addrs, span] = *m;
  channel = get_u32(p);
  return get_addr_list(p + 4, len - 4, &addrs);
}

WireError get_map_body(const std::uint8_t* p, std::size_t len,
                       std::uint16_t trailing, proto::ChannelId* channel,
                       proto::BufferMap* map) {
  if (len < 12) return WireError::kTruncated;
  const std::size_t bitmap_bytes = len - 12;
  if (bitmap_bytes == 0 && trailing != 0) return WireError::kBadLength;
  *channel = get_u32(p);
  map->base = get_u64(p + 4);
  if (!get_bitmap(p + 12, bitmap_bytes, trailing, &map->have))
    return WireError::kBadReserved;
  return WireError::kOk;
}

WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t aux,
                   proto::ConnectReply* m) {
  m->accepted = (aux & kAuxAcceptedBit) != 0;
  return get_map_body(p, len, aux & kAuxTrailingMask, &m->channel, &m->map);
}

WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t aux,
                   proto::BufferMapAnnounce* m) {
  return get_map_body(p, len, aux, &m->channel, &m->map);
}

WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t,
                   proto::DataQuery* m) {
  if (len != 12) return WireError::kBadLength;
  m->channel = get_u32(p);
  m->chunk = get_u64(p + 4);
  return WireError::kOk;
}

WireError get_body(const std::uint8_t* p, std::size_t len, std::uint16_t,
                   proto::DataReply* m) {
  if (len < 20) return WireError::kTruncated;
  m->channel = get_u32(p);
  m->chunk = get_u64(p + 4);
  m->subpieces = get_u32(p + 12);
  m->payload_bytes = get_u32(p + 16);
  const std::uint64_t expected =
      4 + m->payload_bytes +
      kIpUdpHeader * (m->subpieces > 0 ? m->subpieces - 1 : 0);
  if (expected != len) return WireError::kBadLength;
  for (std::size_t i = 20; i < len; ++i)
    if (p[i] != 0) return WireError::kBadReserved;
  return WireError::kOk;
}

using BodyDecoder = WireError (*)(const std::uint8_t*, std::size_t,
                                  std::uint16_t, proto::Message*);

template <class T>
WireError decode_as(const std::uint8_t* p, std::size_t len, std::uint16_t aux,
                    proto::Message* m) {
  if ((aux & ~kAuxBits<T>) != 0) return WireError::kBadAux;
  return get_body(p, len, aux, &m->emplace<T>());
}

/// Indexed by tag (== variant index).
constexpr auto kDecoders = proto::per_message_type([](auto type) {
  return BodyDecoder{&decode_as<typename decltype(type)::type>};
});

}  // namespace

std::string_view wire_error_name(WireError e) {
  switch (e) {
    case WireError::kOk: return "ok";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadVersion: return "bad-version";
    case WireError::kBadEpoch: return "bad-epoch";
    case WireError::kBadTag: return "bad-tag";
    case WireError::kBadLength: return "bad-length";
    case WireError::kBadAux: return "bad-aux";
    case WireError::kBadReserved: return "bad-reserved";
    case WireError::kUnencodable: return "unencodable";
  }
  return "unknown";
}

WireError encode_message(const proto::Message& m, std::uint16_t epoch,
                         std::vector<std::uint8_t>* out) {
  out->clear();
  put_u16(out, kMagic);
  out->push_back(kVersion);
  out->push_back(static_cast<std::uint8_t>(m.index()));
  put_u16(out, epoch);
  put_u16(out, 0);  // aux, known once the body is written
  const Aux aux =
      std::visit([out](const auto& msg) { return put_body(msg, out); }, m);
  if (!aux) {
    out->clear();
    return WireError::kUnencodable;
  }
  (*out)[6] = static_cast<std::uint8_t>(*aux >> 8);
  (*out)[7] = static_cast<std::uint8_t>(*aux);
  assert(out->size() == proto::wire_size(m) - kIpUdpHeader &&
         "encoded datagram must fill the sim's wire-size budget exactly");
  return WireError::kOk;
}

DecodeResult decode_message(const std::uint8_t* data, std::size_t len,
                            std::uint16_t epoch) {
  DecodeResult result;
  if (len < kHeaderBytes) {
    result.error = WireError::kTruncated;
    return result;
  }
  if (get_u16(data) != kMagic) {
    result.error = WireError::kBadMagic;
    return result;
  }
  if (data[2] != kVersion) {
    result.error = WireError::kBadVersion;
    return result;
  }
  if (get_u16(data + 4) != epoch) {
    result.error = WireError::kBadEpoch;
    return result;
  }
  if (data[3] >= kDecoders.size()) {
    result.error = WireError::kBadTag;
    return result;
  }
  result.error = kDecoders[data[3]](data + kHeaderBytes, len - kHeaderBytes,
                                    get_u16(data + 6), &result.message);
  if (result.error == WireError::kOk) {
    assert(proto::wire_size(result.message) == len + kIpUdpHeader &&
           "decoded message must charge the same wire bytes it arrived in");
  }
  return result;
}

}  // namespace ppsim::wire
