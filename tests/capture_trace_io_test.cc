#include "capture/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace ppsim::capture {
namespace {

proto::BufferMap make_map(proto::ChunkSeq base, std::initializer_list<bool> bits) {
  proto::BufferMap m;
  m.base = base;
  m.have.assign(bits);
  return m;
}

PacketTrace sample_trace() {
  PacketTrace trace;
  auto add = [&](std::int64_t us, net::Direction dir, std::uint32_t remote,
                 proto::Message m) {
    TraceRecord rec;
    rec.time = sim::Time::micros(us);
    rec.direction = dir;
    rec.local = net::IpAddress(0x0A000001);
    rec.remote = net::IpAddress(remote);
    rec.wire_bytes = proto::wire_size(m);
    rec.payload = std::move(m);
    trace.push_back(std::move(rec));
  };
  using namespace proto;
  add(100, net::Direction::kOutgoing, 0x14000001, Message{JoinQuery{3}});
  add(250, net::Direction::kIncoming, 0x14000001,
      Message{JoinReply{3, net::IpAddress(0x1E000001),
                        {net::IpAddress(1), net::IpAddress(2)}}});
  add(300, net::Direction::kOutgoing, 0x14000002, Message{TrackerQuery{3}});
  add(400, net::Direction::kIncoming, 0x14000002,
      Message{TrackerReply{3, {net::IpAddress(7)}}});
  add(500, net::Direction::kOutgoing, 7,
      Message{PeerListQuery{3, {net::IpAddress(9), net::IpAddress(11)}}});
  add(700, net::Direction::kIncoming, 7, Message{PeerListReply{3, {}}});
  add(800, net::Direction::kOutgoing, 7, Message{ConnectQuery{3}});
  add(900, net::Direction::kIncoming, 7,
      Message{ConnectReply{3, true, make_map(40, {true, false, true, true,
                                                  false})}});
  add(1000, net::Direction::kIncoming, 7,
      Message{BufferMapAnnounce{3, make_map(42, {true, true})}});
  add(1100, net::Direction::kOutgoing, 7, Message{DataQuery{3, 42}});
  add(1300, net::Direction::kIncoming, 7,
      Message{DataReply{3, 42, 4, 5520}});
  add(1400, net::Direction::kOutgoing, 7, Message{Goodbye{3}});
  add(1500, net::Direction::kOutgoing, 0x14000001,
      Message{ChannelListQuery{}});
  add(1600, net::Direction::kIncoming, 0x14000001,
      Message{ChannelListReply{{1, 2, 3}}});
  return trace;
}

bool records_equal(const TraceRecord& a, const TraceRecord& b) {
  if (a.time != b.time || a.direction != b.direction || a.local != b.local ||
      a.remote != b.remote || a.wire_bytes != b.wire_bytes)
    return false;
  // Compare payloads via their serialized form (Message has no ==).
  std::ostringstream sa, sb;
  PacketTrace ta{a}, tb{b};
  write_trace(sa, ta);
  write_trace(sb, tb);
  return sa.str() == sb.str();
}

TEST(TraceIoTest, RoundTripIdentity) {
  PacketTrace original = sample_trace();
  std::stringstream buffer;
  EXPECT_EQ(write_trace(buffer, original), original.size());

  std::size_t dropped = 99;
  PacketTrace restored = read_trace(buffer, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_TRUE(records_equal(original[i], restored[i])) << "record " << i;
    EXPECT_EQ(proto::message_name(restored[i].payload),
              proto::message_name(original[i].payload));
  }
}

TEST(TraceIoTest, WrittenLinesPinnedPerType) {
  // One record per message type; the exact text pins the archive format,
  // which round trips alone would not (reader and writer could drift
  // together).
  const PacketTrace trace = sample_trace();
  std::vector<bool> seen(std::variant_size_v<proto::Message>, false);
  for (const TraceRecord& rec : trace) seen[rec.payload.index()] = true;
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<std::ptrdiff_t>(seen.size()));
  std::ostringstream out;
  write_trace(out, trace);
  EXPECT_EQ(out.str(),
            "100,out,167772161,335544321,40,JoinQuery,3\n"
            "250,in,167772161,335544321,56,JoinReply,3,503316481,2,1,2\n"
            "300,out,167772161,335544322,44,TrackerQuery,3\n"
            "400,in,167772161,335544322,46,TrackerReply,3,1,7\n"
            "500,out,167772161,7,52,PeerListQuery,3,2,9,11\n"
            "700,in,167772161,7,40,PeerListReply,3,0\n"
            "800,out,167772161,7,44,ConnectQuery,3\n"
            "900,in,167772161,7,49,ConnectReply,3,1,40,5,b0\n"
            "1000,in,167772161,7,49,BufferMapAnnounce,3,42,2,c\n"
            "1100,out,167772161,7,48,DataQuery,3,42\n"
            "1300,in,167772161,7,5644,DataReply,3,42,4,5520\n"
            "1400,out,167772161,7,40,Goodbye,3\n"
            "1500,out,167772161,335544321,36,ChannelListQuery\n"
            "1600,in,167772161,335544321,48,ChannelListReply,3,1,2,3\n");
}

TEST(TraceIoTest, BufferMapBitsSurviveRoundTrip) {
  PacketTrace trace;
  TraceRecord rec;
  rec.time = sim::Time::millis(5);
  rec.direction = net::Direction::kIncoming;
  rec.local = net::IpAddress(1);
  rec.remote = net::IpAddress(2);
  proto::BufferMap map;
  map.base = 1000;
  for (int i = 0; i < 37; ++i) map.have.push_back(i % 3 == 0);
  rec.payload = proto::Message{proto::BufferMapAnnounce{9, map}};
  rec.wire_bytes = proto::wire_size(rec.payload);
  trace.push_back(rec);

  std::stringstream buffer;
  write_trace(buffer, trace);
  auto restored = read_trace(buffer);
  ASSERT_EQ(restored.size(), 1u);
  const auto* ann =
      std::get_if<proto::BufferMapAnnounce>(&restored[0].payload);
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->map.base, 1000u);
  ASSERT_EQ(ann->map.have.size(), 37u);
  for (int i = 0; i < 37; ++i)
    EXPECT_EQ(ann->map.have[static_cast<std::size_t>(i)], i % 3 == 0) << i;
}

TEST(TraceIoTest, MalformedLinesSkippedAndCounted) {
  std::stringstream buffer;
  buffer << "garbage\n";
  buffer << "100,out,1,2,50,DataQuery,3,42\n";  // valid
  buffer << "100,sideways,1,2,50,DataQuery,3,42\n";
  buffer << "100,out,1,2,50,NoSuchMessage,3\n";
  buffer << "100,out,1,2,50,DataQuery\n";  // missing fields
  buffer << "\n";
  // Numbers must fit their field exactly: no signs, no whitespace, no
  // overflow of the field's own width, nothing after the last field.
  buffer << "100,out,1,2,50,DataQuery,-1,42\n";
  buffer << "100,out,1,2,50,DataQuery,+3,42\n";
  buffer << "100,out,1,2,50,DataQuery, 3,42\n";
  buffer << "100,out,1,2,50,DataQuery,3,42 \n";
  buffer << "100,out,1,2,50,DataQuery,4294967297,42\n";  // channel is u32
  buffer << "100,out,4294967296,2,50,DataQuery,3,42\n";  // address is u32
  buffer << "100,out,1,2,50,DataQuery,3,18446744073709551616\n";
  buffer << "100,out,1,2,50,DataReply,3,42,4294967296,5520\n";
  buffer << "100,out,1,2,50,ConnectReply,3,2,40,5,b0\n";  // accepted is 0/1
  buffer << "100,out,1,2,50,DataQuery,3,42,7\n";
  buffer << "100,out,1,2,50,DataQuery,3,42,\n";
  buffer << "100,out,1,2,36,ChannelListQuery,\n";
  std::size_t dropped = 0;
  auto trace = read_trace(buffer, &dropped);
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(dropped, 16u);
}

TEST(TraceIoTest, EmptyBufferMapsRoundTrip) {
  // A rejected ConnectReply carries an empty map; so may an announce.
  PacketTrace trace;
  TraceRecord rec;
  rec.time = sim::Time::micros(1);
  rec.direction = net::Direction::kIncoming;
  rec.local = net::IpAddress(1);
  rec.remote = net::IpAddress(2);
  rec.payload = proto::Message{proto::ConnectReply{1, false, {}, {}}};
  rec.wire_bytes = proto::wire_size(rec.payload);
  trace.push_back(rec);
  rec.payload = proto::Message{proto::BufferMapAnnounce{1, make_map(7, {})}};
  rec.wire_bytes = proto::wire_size(rec.payload);
  trace.push_back(rec);

  std::stringstream buffer;
  write_trace(buffer, trace);
  EXPECT_EQ(buffer.str(),
            "1,in,1,2,48,ConnectReply,1,0,0,0,\n"
            "1,in,1,2,48,BufferMapAnnounce,1,7,0,\n");
  std::size_t dropped = 99;
  const PacketTrace restored = read_trace(buffer, &dropped);
  EXPECT_EQ(dropped, 0u);
  ASSERT_EQ(restored.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_TRUE(records_equal(trace[i], restored[i])) << "record " << i;
  // A nonzero bit count still needs its hex digits.
  EXPECT_FALSE(parse_record("1,in,1,2,40,BufferMapAnnounce,1,7,3,").has_value());
}

TEST(TraceIoTest, HugeCountsRejectedWithoutAllocating) {
  // Element and bit counts come from the file; a count the rest of the line
  // cannot hold is malformed input, not an allocation request.
  std::stringstream buffer;
  buffer << "1,in,1,2,46,TrackerReply,3,99999999999999999\n";
  buffer << "1,in,1,2,46,TrackerReply,3,3,7,8\n";
  buffer << "1,in,1,2,48,ChannelListReply,99999999999999999,1\n";
  buffer << "1,in,1,2,49,BufferMapAnnounce,3,5,999999999999999999,ff\n";
  buffer << "1,in,1,2,49,BufferMapAnnounce,3,5,9,ff\n";
  buffer << "1,in,1,2,46,TrackerReply,3,2,7,8\n";  // valid
  std::size_t dropped = 0;
  const PacketTrace trace = read_trace(buffer, &dropped);
  EXPECT_EQ(dropped, 5u);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(std::get<proto::TrackerReply>(trace[0].payload).peers.size(), 2u);
}

TEST(TraceIoTest, FuzzMutatedLinesNeverCrash) {
  // Seeded mutations of every line of the 14-type sample: truncation,
  // extension, character flips and inserted runs of digits (the shape of
  // an absurd count). Nothing may throw or abort, and whatever parses must
  // write back to a line that parses to the same record.
  std::ostringstream clean;
  write_trace(clean, sample_trace());
  std::vector<std::string> lines;
  std::istringstream split(clean.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), std::variant_size_v<proto::Message>);

  sim::Rng rng(0xF0223);
  const std::string alphabet = "0123456789abcdef,-+ xin";
  auto random_char = [&] {
    return alphabet[static_cast<std::size_t>(rng.next_below(alphabet.size()))];
  };
  std::size_t accepted = 0;
  for (const std::string& seed : lines) {
    for (int iter = 0; iter < 500; ++iter) {
      std::string line = seed;
      const auto at = [&] {
        return static_cast<std::size_t>(rng.next_below(line.size() + 1));
      };
      switch (rng.next_below(4)) {
        case 0:
          line.resize(at());
          break;
        case 1:
          for (std::uint64_t n = 1 + rng.next_below(8); n > 0; --n)
            line += random_char();
          break;
        case 2:
          for (int flips = 0; flips < 3 && !line.empty(); ++flips)
            line[static_cast<std::size_t>(rng.next_below(line.size()))] =
                random_char();
          break;
        default:
          line.insert(at(), std::string(1 + rng.next_below(24), '9'));
          break;
      }
      std::optional<TraceRecord> rec;
      ASSERT_NO_THROW(rec = parse_record(line)) << line;
      if (!rec) continue;
      ++accepted;
      std::ostringstream again;
      write_trace(again, PacketTrace{*rec});
      std::string written = again.str();
      ASSERT_FALSE(written.empty());
      written.pop_back();  // the newline
      const std::optional<TraceRecord> back = parse_record(written);
      ASSERT_TRUE(back.has_value()) << line << " -> " << written;
      EXPECT_TRUE(records_equal(*rec, *back)) << line << " -> " << written;
    }
  }
  EXPECT_GT(accepted, 0u);  // some mutations stay well-formed
}

TEST(TraceIoTest, ParseRecordSingle) {
  auto rec = parse_record("1500000,in,167772161,335544321,5560,DataReply,1,42,4,5520");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->time, sim::Time::millis(1500));
  EXPECT_EQ(rec->direction, net::Direction::kIncoming);
  const auto* dr = std::get_if<proto::DataReply>(&rec->payload);
  ASSERT_NE(dr, nullptr);
  EXPECT_EQ(dr->chunk, 42u);
  EXPECT_EQ(dr->payload_bytes, 5520u);
}

TEST(TraceIoTest, FileRoundTrip) {
  PacketTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/ppsim_trace_test.csv";
  ASSERT_TRUE(write_trace_file(path, original));
  auto restored = read_trace_file(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->size(), original.size());
}

TEST(TraceIoTest, MissingFileIsNull) {
  EXPECT_FALSE(read_trace_file("/nonexistent/dir/trace.csv").has_value());
}

TEST(TraceIoTest, EmptyTrace) {
  std::stringstream buffer;
  EXPECT_EQ(write_trace(buffer, {}), 0u);
  EXPECT_TRUE(read_trace(buffer).empty());
}

}  // namespace
}  // namespace ppsim::capture
