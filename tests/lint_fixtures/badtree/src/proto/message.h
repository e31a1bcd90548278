// Fixture: message table with deliberate completeness holes.
#pragma once
#include <cstdint>
#include <string>
#include <variant>

namespace ppsim::proto {

struct SpanContext {
  std::uint64_t id = 0;
};

struct Ping {
  std::uint64_t nonce = 0;
  SpanContext span{};
};

struct Pong {
  std::uint64_t nonce = 0;
  SpanContext span{};
};

struct Stray {  // completeness: variant-membership (not in the variant)
  SpanContext span{};
};

// Ghost: completeness: variant-membership (no struct declares it)
using Message = std::variant<Ping, Pong, Ghost>;

std::size_t wire_size(const Message& m);
std::string message_name(const Message& m);

}  // namespace ppsim::proto
