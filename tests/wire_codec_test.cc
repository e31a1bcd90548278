#include "wire/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "proto/message.h"
#include "sim/rng.h"

namespace ppsim::wire {
namespace {

constexpr std::uint16_t kEpoch = 7;

std::vector<std::uint8_t> encode_ok(const proto::Message& m) {
  std::vector<std::uint8_t> out;
  EXPECT_EQ(encode_message(m, kEpoch, &out), WireError::kOk);
  return out;
}

/// Round-trip check without a Message operator==: decode the datagram and
/// re-encode the result; a correct codec reproduces the bytes exactly (the
/// format has a unique encoding per message value).
void expect_round_trip(const proto::Message& m) {
  const std::vector<std::uint8_t> wire = encode_ok(m);
  EXPECT_EQ(wire.size(), proto::wire_size(m) - kIpUdpHeader);
  const DecodeResult decoded = decode_message(wire.data(), wire.size(), kEpoch);
  ASSERT_EQ(decoded.error, WireError::kOk) << proto::message_name(m);
  EXPECT_EQ(decoded.message.index(), m.index());
  const std::vector<std::uint8_t> again = encode_ok(decoded.message);
  EXPECT_EQ(wire, again) << proto::message_name(m);
  // Spans are trace metadata and must never survive the wire.
  std::visit([](const auto& msg) {
    EXPECT_EQ(msg.span.id, 0u);
    EXPECT_EQ(msg.span.parent, 0u);
  }, decoded.message);
}

proto::BufferMap sample_map(proto::ChunkSeq base, std::size_t n) {
  proto::BufferMap map;
  map.base = base;
  for (std::size_t i = 0; i < n; ++i) map.have.push_back(i % 3 == 0);
  return map;
}

// --- one round-trip + encoded-size pin per Message variant ---

TEST(WireCodec, ChannelListQueryRoundTrip) {
  proto::ChannelListQuery m;
  m.span = {5, 6};  // must not be encoded
  EXPECT_EQ(encode_ok(m).size(), 8u);
  expect_round_trip(m);
}

TEST(WireCodec, ChannelListReplyRoundTrip) {
  proto::ChannelListReply m;
  m.channels = {1, 42, 0xFFFFFFFF};
  EXPECT_EQ(encode_ok(m).size(), 8u + 4 * 3);
  expect_round_trip(m);
  expect_round_trip(proto::ChannelListReply{});
}

TEST(WireCodec, JoinQueryRoundTrip) {
  const proto::JoinQuery m{77};
  EXPECT_EQ(encode_ok(m).size(), 12u);
  expect_round_trip(m);
}

TEST(WireCodec, JoinReplyRoundTrip) {
  proto::JoinReply m;
  m.channel = 9;
  m.source = net::IpAddress(127, 1, 0, 3);
  m.trackers = {net::IpAddress(127, 1, 0, 2), net::IpAddress(127, 2, 0, 2)};
  EXPECT_EQ(encode_ok(m).size(), 16u + 6 * 2);
  expect_round_trip(m);
}

TEST(WireCodec, TrackerQueryRoundTrip) {
  const proto::TrackerQuery m{3};
  EXPECT_EQ(encode_ok(m).size(), 16u);
  expect_round_trip(m);
}

TEST(WireCodec, TrackerReplyRoundTrip) {
  proto::TrackerReply m;
  m.channel = 3;
  for (std::uint8_t i = 1; i <= 60; ++i)
    m.peers.push_back(net::IpAddress(127, 2, 1, i));
  EXPECT_EQ(encode_ok(m).size(), 12u + 6 * 60);
  expect_round_trip(m);
}

TEST(WireCodec, PeerListQueryRoundTrip) {
  proto::PeerListQuery m;
  m.channel = 3;
  m.my_peers = {net::IpAddress(127, 5, 0, 1)};
  EXPECT_EQ(encode_ok(m).size(), 12u + 6);
  expect_round_trip(m);
}

TEST(WireCodec, PeerListReplyRoundTrip) {
  proto::PeerListReply m;
  m.channel = 3;
  m.peers = {net::IpAddress(127, 3, 0, 1), net::IpAddress(127, 4, 0, 1)};
  EXPECT_EQ(encode_ok(m).size(), 12u + 6 * 2);
  expect_round_trip(m);
}

TEST(WireCodec, ConnectQueryRoundTrip) {
  const proto::ConnectQuery m{11};
  EXPECT_EQ(encode_ok(m).size(), 16u);
  expect_round_trip(m);
}

TEST(WireCodec, ConnectReplyRoundTrip) {
  proto::ConnectReply m;
  m.channel = 11;
  m.accepted = true;
  m.map = sample_map(1000, 37);  // 37 % 8 == 5 trailing bits
  EXPECT_EQ(encode_ok(m).size(), 20u + (37 + 7) / 8);
  expect_round_trip(m);
  m.accepted = false;
  m.map = sample_map(0, 0);  // rejection with an empty map
  EXPECT_EQ(encode_ok(m).size(), 20u);
  expect_round_trip(m);
  m.map = sample_map(8, 16);  // exact byte multiple (trailing == 0)
  expect_round_trip(m);
}

TEST(WireCodec, BufferMapAnnounceRoundTrip) {
  proto::BufferMapAnnounce m;
  m.channel = 11;
  m.map = sample_map(123456789012345ull, 64);
  EXPECT_EQ(encode_ok(m).size(), 20u + 8);
  expect_round_trip(m);
}

TEST(WireCodec, DataQueryRoundTrip) {
  proto::DataQuery m;
  m.channel = 11;
  m.chunk = 0xDEADBEEFCAFEull;
  EXPECT_EQ(encode_ok(m).size(), 20u);
  expect_round_trip(m);
}

TEST(WireCodec, DataReplyRoundTrip) {
  proto::DataReply m;
  m.channel = 11;
  m.chunk = 99;
  m.subpieces = 4;
  m.payload_bytes = 5520;  // the default 1380 x 4 chunk
  EXPECT_EQ(encode_ok(m).size(), 5520u + 12 + 28 * 3);
  expect_round_trip(m);
}

TEST(WireCodec, GoodbyeRoundTrip) {
  const proto::Goodbye m{11};
  EXPECT_EQ(encode_ok(m).size(), 12u);
  expect_round_trip(m);
}

TEST(WireCodec, DegenerateDataReplyIsUnencodable) {
  // payload budget below the fixed fields: the protocol never produces
  // this shape, and v1 refuses it rather than lying about sizes.
  proto::DataReply m;
  m.subpieces = 1;
  m.payload_bytes = 0;
  std::vector<std::uint8_t> out;
  EXPECT_EQ(encode_message(m, kEpoch, &out), WireError::kUnencodable);
  EXPECT_TRUE(out.empty());
}

// --- exact bytes per variant: round trips alone would pass a codec whose
// encode and decode changed together, so the format itself is pinned ---

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += "0123456789abcdef"[b >> 4];
    out += "0123456789abcdef"[b & 0xF];
  }
  return out;
}

TEST(WireCodec, EncodedBytesPinnedPerVariant) {
  const net::IpAddress a(127, 1, 0, 2), b(127, 2, 0, 3);
  proto::BufferMap map;
  map.base = 40;
  map.have = {true, false, true, true, false};
  const proto::SpanContext span{5, 6};  // never encoded
  const std::pair<proto::Message, std::string> pins[] = {
      {proto::ChannelListQuery{span}, "5057010000070000"},
      {proto::ChannelListReply{{1, 0xABCDEF01}, span},
       "505701010007000000000001abcdef01"},
      {proto::JoinQuery{77, span}, "50570102000700000000004d"},
      {proto::JoinReply{9, b, {a, b}, span},
       "5057010300070000000000097f0200037f01000200007f0200030000"},
      {proto::TrackerQuery{3, span}, "50570104000700000000000300000000"},
      {proto::TrackerReply{3, {a}, span},
       "5057010500070000000000037f0100020000"},
      {proto::PeerListQuery{3, {b, a}, span},
       "5057010600070000000000037f02000300007f0100020000"},
      {proto::PeerListReply{3, {}, span}, "505701070007000000000003"},
      {proto::ConnectQuery{11, span}, "50570108000700000000000b00000000"},
      {proto::ConnectReply{11, true, map, span},
       "50570109000780050000000b0000000000000028b0"},
      {proto::BufferMapAnnounce{11, map, span},
       "5057010a000700050000000b0000000000000028b0"},
      {proto::DataQuery{11, 0x0102030405ull, span},
       "5057010b000700000000000b0000000102030405"},
      {proto::DataReply{11, 42, 1, 20, span},
       "5057010c000700000000000b000000000000002a0000000100000014"
       "00000000"},
      {proto::Goodbye{11, span}, "5057010d000700000000000b"},
  };
  ASSERT_EQ(std::size(pins), std::variant_size_v<proto::Message>);
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    const auto& [m, bytes] = pins[i];
    EXPECT_EQ(m.index(), i);
    EXPECT_EQ(hex(encode_ok(m)), bytes) << proto::message_name(m);
  }
}

// --- malformed-packet rejection, one distinct error per failure shape ---

TEST(WireCodec, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  for (std::size_t len = 0; len < kHeaderBytes; ++len)
    EXPECT_EQ(decode_message(wire.data(), len, kEpoch).error,
              WireError::kTruncated);
}

TEST(WireCodec, RejectsBadMagic) {
  std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  wire[0] ^= 0xFF;
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadMagic);
}

TEST(WireCodec, RejectsBadVersion) {
  std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  wire[2] = kVersion + 1;
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadVersion);
}

TEST(WireCodec, RejectsBadEpoch) {
  const std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch + 1).error,
            WireError::kBadEpoch);
}

TEST(WireCodec, RejectsBadTag) {
  std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  wire[3] = std::variant_size_v<proto::Message>;
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadTag);
}

TEST(WireCodec, RejectsBadLength) {
  std::vector<std::uint8_t> wire = encode_ok(proto::TrackerReply{3, {}, {}});
  wire.push_back(0);  // 6-byte address entries can't cover 1 extra byte
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadLength);
}

TEST(WireCodec, RejectsBadAux) {
  std::vector<std::uint8_t> wire = encode_ok(proto::JoinQuery{1});
  wire[7] = 1;  // JoinQuery defines no aux bits
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadAux);
}

TEST(WireCodec, RejectsBadReserved) {
  std::vector<std::uint8_t> wire = encode_ok(proto::TrackerQuery{3});
  wire.back() = 1;  // reserved tail must be zero
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadReserved);
  // Nonzero port slot in an address list.
  proto::TrackerReply r;
  r.channel = 1;
  r.peers = {net::IpAddress(127, 1, 0, 1)};
  wire = encode_ok(r);
  wire.back() = 9;
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadReserved);
}

TEST(WireCodec, RejectsBitmapPaddingBits) {
  proto::BufferMapAnnounce m;
  m.channel = 1;
  m.map = sample_map(10, 3);  // one bitmap byte, 3 significant bits
  std::vector<std::uint8_t> wire = encode_ok(m);
  wire.back() |= 0x01;  // light up a padding bit
  EXPECT_EQ(decode_message(wire.data(), wire.size(), kEpoch).error,
            WireError::kBadReserved);
}

TEST(WireCodec, ErrorNamesAreDistinct) {
  const WireError all[] = {
      WireError::kOk,        WireError::kTruncated,  WireError::kBadMagic,
      WireError::kBadVersion, WireError::kBadEpoch,  WireError::kBadTag,
      WireError::kBadLength, WireError::kBadAux,     WireError::kBadReserved,
      WireError::kUnencodable};
  for (const auto a : all) {
    for (const auto b : all) {
      if (a != b) {
        EXPECT_NE(wire_error_name(a), wire_error_name(b));
      }
    }
  }
}

// --- seeded fuzz: decode must reject garbage gracefully, never crash ---

TEST(WireCodec, FuzzRandomBuffersNeverCrash) {
  sim::Rng rng(0xF0221);
  std::vector<std::uint8_t> buf;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t len = static_cast<std::size_t>(rng.next_below(600));
    buf.resize(len);
    for (auto& b : buf)
      b = static_cast<std::uint8_t>(rng.next_below(256));
    const DecodeResult r = decode_message(buf.data(), buf.size(), kEpoch);
    if (r.error == WireError::kOk) {
      // A random buffer that decodes must still satisfy the size identity.
      EXPECT_EQ(proto::wire_size(r.message), buf.size() + kIpUdpHeader);
    }
  }
}

TEST(WireCodec, FuzzMutatedValidPacketsNeverCrash) {
  sim::Rng rng(0xF0222);
  proto::TrackerReply tr;
  tr.channel = 5;
  for (std::uint8_t i = 1; i <= 20; ++i)
    tr.peers.push_back(net::IpAddress(127, 1, 0, i));
  proto::BufferMapAnnounce bma;
  bma.channel = 5;
  bma.map = sample_map(40, 100);
  proto::DataReply dr;
  dr.channel = 5;
  dr.chunk = 1;
  dr.subpieces = 4;
  dr.payload_bytes = 5520;
  const proto::Message seeds[] = {tr, bma, dr};
  for (const auto& seed : seeds) {
    const std::vector<std::uint8_t> clean = encode_ok(seed);
    for (int iter = 0; iter < 1000; ++iter) {
      std::vector<std::uint8_t> wire = clean;
      // Truncate, extend, or flip bytes at random.
      switch (rng.next_below(3)) {
        case 0:
          wire.resize(static_cast<std::size_t>(rng.next_below(wire.size())));
          break;
        case 1:
          wire.resize(wire.size() + 1 + rng.next_below(16), 0);
          break;
        default:
          for (int flips = 0; flips < 4; ++flips)
            wire[static_cast<std::size_t>(rng.next_below(wire.size()))] =
                static_cast<std::uint8_t>(rng.next_below(256));
          break;
      }
      const DecodeResult r = decode_message(wire.data(), wire.size(), kEpoch);
      if (r.error == WireError::kOk) {
        EXPECT_EQ(proto::wire_size(r.message), wire.size() + kIpUdpHeader);
      }
    }
  }
}

}  // namespace
}  // namespace ppsim::wire
