#pragma once

#include "common.h"

namespace perfbench {

/// The wire-loopback workload (see README.md).
RunResult run_wire_loopback(const Args& args);

}  // namespace perfbench
