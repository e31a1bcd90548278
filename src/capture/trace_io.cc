#include "capture/trace_io.h"

#include <charconv>
#include <concepts>
#include <fstream>
#include <ostream>
#include <string_view>
#include <system_error>
#include <tuple>
#include <type_traits>
#include <vector>

namespace ppsim::capture {

namespace {

/// The record fields of each message type, in file order. The one list
/// drives both write_trace and parse_record; a message type without a list
/// fails to compile in both.
constexpr auto fields(std::type_identity<proto::ChannelListQuery>) {
  return std::tuple{};
}
constexpr auto fields(std::type_identity<proto::ChannelListReply>) {
  return std::tuple{&proto::ChannelListReply::channels};
}
constexpr auto fields(std::type_identity<proto::JoinQuery>) {
  return std::tuple{&proto::JoinQuery::channel};
}
constexpr auto fields(std::type_identity<proto::JoinReply>) {
  return std::tuple{&proto::JoinReply::channel, &proto::JoinReply::source,
                    &proto::JoinReply::trackers};
}
constexpr auto fields(std::type_identity<proto::TrackerQuery>) {
  return std::tuple{&proto::TrackerQuery::channel};
}
constexpr auto fields(std::type_identity<proto::TrackerReply>) {
  return std::tuple{&proto::TrackerReply::channel,
                    &proto::TrackerReply::peers};
}
constexpr auto fields(std::type_identity<proto::PeerListQuery>) {
  return std::tuple{&proto::PeerListQuery::channel,
                    &proto::PeerListQuery::my_peers};
}
constexpr auto fields(std::type_identity<proto::PeerListReply>) {
  return std::tuple{&proto::PeerListReply::channel,
                    &proto::PeerListReply::peers};
}
constexpr auto fields(std::type_identity<proto::ConnectQuery>) {
  return std::tuple{&proto::ConnectQuery::channel};
}
constexpr auto fields(std::type_identity<proto::ConnectReply>) {
  return std::tuple{&proto::ConnectReply::channel,
                    &proto::ConnectReply::accepted, &proto::ConnectReply::map};
}
constexpr auto fields(std::type_identity<proto::BufferMapAnnounce>) {
  return std::tuple{&proto::BufferMapAnnounce::channel,
                    &proto::BufferMapAnnounce::map};
}
constexpr auto fields(std::type_identity<proto::DataQuery>) {
  return std::tuple{&proto::DataQuery::channel, &proto::DataQuery::chunk};
}
constexpr auto fields(std::type_identity<proto::DataReply>) {
  return std::tuple{&proto::DataReply::channel, &proto::DataReply::chunk,
                    &proto::DataReply::subpieces,
                    &proto::DataReply::payload_bytes};
}
constexpr auto fields(std::type_identity<proto::Goodbye>) {
  return std::tuple{&proto::Goodbye::channel};
}

constexpr char kHexDigits[] = "0123456789abcdef";

// Field writers, one per field type. Numbers (and `accepted`) print in
// decimal, addresses as their u32 value, lists as a count followed by the
// elements.

template <std::integral T>
void write_field(std::ostream& os, T v) {
  os << v;
}

void write_field(std::ostream& os, net::IpAddress ip) { os << ip.value(); }

template <class T>
void write_field(std::ostream& os, const std::vector<T>& list) {
  os << list.size();
  for (const T& x : list) {
    os << ',';
    write_field(os, x);
  }
}

/// base, bit count, then the bits packed MSB-first as hex nibbles to keep
/// lines short (an empty map leaves the last field empty).
void write_field(std::ostream& os, const proto::BufferMap& map) {
  os << map.base << ',' << map.have.size() << ',';
  int nibble = 0, filled = 0;
  for (std::size_t i = 0; i < map.have.size(); ++i) {
    nibble = (nibble << 1) | (map.have[i] ? 1 : 0);
    if (++filled == 4) {
      os << kHexDigits[nibble];
      nibble = 0;
      filled = 0;
    }
  }
  if (filled > 0) os << kHexDigits[nibble << (4 - filled)];
}

/// The comma-separated fields of one record line, read left to right.
class Cursor {
 public:
  explicit Cursor(std::string_view line) : rest_(line) {}

  /// The next field; nullopt past the last one.
  std::optional<std::string_view> next() {
    if (done_) return std::nullopt;
    const std::size_t comma = rest_.find(',');
    const std::string_view field = rest_.substr(0, comma);
    if (comma == std::string_view::npos) {
      done_ = true;
    } else {
      rest_.remove_prefix(comma + 1);
    }
    return field;
  }

  bool at_end() const { return done_; }

  /// How many more nonempty fields the line can hold: the bound on any
  /// element count read from it.
  std::size_t capacity() const { return done_ ? 0 : (rest_.size() + 1) / 2; }

 private:
  std::string_view rest_;
  bool done_ = false;
};

// Field readers, the writers' inverses. A number must be plain decimal
// digits that fit the field's own type: no sign (except a signed field's
// '-'), no whitespace, no overflow.

template <std::integral T>
bool read_field(Cursor& c, T* v) {
  const auto f = c.next();
  if (!f) return false;
  const char* end = f->data() + f->size();
  const auto [ptr, ec] = std::from_chars(f->data(), end, *v);
  return ec == std::errc{} && ptr == end;
}

bool read_field(Cursor& c, bool* v) {
  std::uint8_t bit = 0;
  if (!read_field(c, &bit) || bit > 1) return false;
  *v = bit == 1;
  return true;
}

bool read_field(Cursor& c, net::IpAddress* ip) {
  std::uint32_t v = 0;
  if (!read_field(c, &v)) return false;
  *ip = net::IpAddress(v);
  return true;
}

template <class T>
bool read_field(Cursor& c, std::vector<T>* list) {
  std::size_t n = 0;
  if (!read_field(c, &n) || n > c.capacity()) return false;
  list->resize(n);
  for (T& x : *list)
    if (!read_field(c, &x)) return false;
  return true;
}

bool read_field(Cursor& c, proto::BufferMap* map) {
  std::size_t bits = 0;
  if (!read_field(c, &map->base) || !read_field(c, &bits)) return false;
  // The hex field holds exactly ceil(bits / 4) digits (none for an empty
  // map), so its length bounds the bit count.
  const auto hex = c.next();
  if (!hex || hex->size() != bits / 4 + (bits % 4 != 0 ? 1 : 0)) return false;
  map->have.resize(bits);
  for (std::size_t d = 0; d < hex->size(); ++d) {
    const char ch = (*hex)[d];
    int nib;
    if (ch >= '0' && ch <= '9')
      nib = ch - '0';
    else if (ch >= 'a' && ch <= 'f')
      nib = ch - 'a' + 10;
    else
      return false;
    for (std::size_t i = 4 * d; i < 4 * d + 4; ++i) {
      const bool bit = ((nib >> (3 - static_cast<int>(i % 4))) & 1) != 0;
      if (i < bits)
        map->have[i] = bit;
      else if (bit)
        return false;  // padding bits of the last digit must be zero
    }
  }
  return true;
}

template <class T>
void write_fields(std::ostream& os, const T& m) {
  std::apply(
      [&](auto... field) { ((os << ',', write_field(os, m.*field)), ...); },
      fields(std::type_identity<T>{}));
}

using PayloadParser = bool (*)(Cursor&, proto::Message*);

template <class T>
bool parse_as(Cursor& c, proto::Message* m) {
  T& msg = m->emplace<T>();
  return std::apply(
      [&](auto... field) { return (read_field(c, &(msg.*field)) && ...); },
      fields(std::type_identity<T>{}));
}

/// Indexed by variant index.
constexpr auto kParsers = proto::per_message_type([](auto type) {
  return PayloadParser{&parse_as<typename decltype(type)::type>};
});

}  // namespace

std::size_t write_trace(std::ostream& os, const PacketTrace& trace) {
  for (const auto& rec : trace) {
    os << rec.time.as_micros() << ','
       << (rec.direction == net::Direction::kOutgoing ? "out" : "in") << ','
       << rec.local.value() << ',' << rec.remote.value() << ','
       << rec.wire_bytes << ',' << proto::message_name(rec.payload);
    std::visit([&os](const auto& m) { write_fields(os, m); }, rec.payload);
    os << '\n';
  }
  return trace.size();
}

bool write_trace_file(const std::string& path, const PacketTrace& trace) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace(out, trace);
  return static_cast<bool>(out);
}

std::optional<TraceRecord> parse_record(std::string_view line) {
  Cursor c(line);
  TraceRecord rec;
  std::int64_t time_us = 0;
  if (!read_field(c, &time_us)) return std::nullopt;
  rec.time = sim::Time::micros(time_us);
  const auto dir = c.next();
  if (dir == "out")
    rec.direction = net::Direction::kOutgoing;
  else if (dir == "in")
    rec.direction = net::Direction::kIncoming;
  else
    return std::nullopt;
  if (!read_field(c, &rec.local) || !read_field(c, &rec.remote) ||
      !read_field(c, &rec.wire_bytes))
    return std::nullopt;
  const auto type = c.next();
  const auto index = type ? proto::message_index(*type) : std::nullopt;
  if (!index || !kParsers[*index](c, &rec.payload) || !c.at_end())
    return std::nullopt;
  return rec;
}

PacketTrace read_trace(std::istream& is, std::size_t* dropped) {
  PacketTrace trace;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    auto rec = parse_record(line);
    if (rec)
      trace.push_back(std::move(*rec));
    else
      ++bad;
  }
  if (dropped) *dropped = bad;
  return trace;
}

std::optional<PacketTrace> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  return read_trace(in);
}

}  // namespace ppsim::capture
