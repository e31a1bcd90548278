// ppsim_perfbench: one benchmark run of one workload, single process and
// single thread.
//
//   ppsim_perfbench --workload swarm-popular|swarm-observed|wire-loopback
//                   --seed N --seconds S --trace 0|1 --tmp DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that splits the same work into per-layer metrics. Either way
// the run checks the program's outputs, prints a table, and prints as its
// last stdout line one JSON object {correct, attempted, failed, metrics}.
// perfbench/run.py builds this binary and is the command to run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "swarm.h"
#include "wire_loopback.h"

namespace perfbench {

namespace {

// Initialized before any other static object of the binary: the origin of
// the cold set-up times.
__attribute__((init_priority(101))) const Clock::time_point g_process_start =
    Clock::now();

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ppsim_perfbench: %s\nusage: ppsim_perfbench --workload "
               "swarm-popular|swarm-observed|wire-loopback --seed N "
               "--seconds S --trace 0|1 --tmp DIR\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && a.seconds > 0 &&
                     std::isfinite(a.seconds);
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      a.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--tmp") {
      a.tmp_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed needs a non-negative integer");
  if (!have_seconds) usage("--seconds needs a positive number");
  if (!have_trace) usage("--trace needs 0 or 1");
  if (a.tmp_dir.empty()) usage("--tmp is required");
  return a;
}

void print_result(const RunResult& r) {
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  std::printf("%-28s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& m : r.metrics)
    std::printf("%-28s %20.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  RunResult result;
  if (args.workload == "swarm-popular" || args.workload == "swarm-observed") {
    result = run_swarm(args);
  } else if (args.workload == "wire-loopback") {
    result = run_wire_loopback(args);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace) complete_per_layer(result);
  print_result(result);
  return 0;
}
