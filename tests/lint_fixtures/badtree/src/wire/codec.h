// Fixture: the real-wire layer exists, so docs/WIRE.md
// must document its packet table (see docs/WIRE.md for the holes).
#pragma once
#include <cstdint>

#include "proto/message.h"

namespace ppsim::wire {

std::uint8_t encode(const proto::Message& m);

}  // namespace ppsim::wire
