#pragma once

#include "common.h"

namespace perfbench {

/// The swarm-popular and swarm-observed workloads (see README.md).
RunResult run_swarm(const Args& args);

}  // namespace perfbench
