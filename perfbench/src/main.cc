// perfbench: the user-facing benchmark of xpc. One process, one client
// thread. Usage:
//
//   perfbench --workload contain_cold|sat_warm|stream_route --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// The untraced run (--trace 0) measures the end-to-end metrics; the traced
// run (--trace 1) the per-layer metrics. Either way the last line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}, with
// metrics as name → value; perfbench/run.py picks the ones BENCHMARK.json
// lists and adds their units.
// Running out of address space (the caller's RLIMIT_AS cap) ends the run
// with exit code 3 and the workload named on stderr.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  void (*untraced)(const RunConfig&, Report*);
  void (*traced)(const RunConfig&, Report*);
};

constexpr Workload kWorkloads[] = {
    {"contain_cold", ContainColdUntraced, ContainColdTraced},
    {"sat_warm", SatWarmUntraced, SatWarmTraced},
    {"stream_route", StreamRouteUntraced, StreamRouteTraced},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload contain_cold|sat_warm|stream_route "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

int64_t ParseInt(const char* flag, const char* text, int64_t lo, int64_t hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    std::fprintf(stderr, "perfbench: bad value for %s: '%s'\n", flag, text);
    std::exit(2);
  }
  return v;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = static_cast<uint64_t>(ParseInt("--seed", value, 0, INT64_MAX));
    } else if (flag == "--seconds") {
      config.seconds = static_cast<int>(ParseInt("--seconds", value, 1, 3600));
    } else if (flag == "--trace") {
      config.trace = ParseInt("--trace", value, 0, 1) == 1;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty()) Usage("--workload is required");
  return config;
}

void PrintResult(const Report& report) {
  std::string metrics;
  for (const auto& [name, value] : report.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", metrics.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0);
    metrics += buf;
  }
  for (const std::string& w : report.wrong) std::printf("WRONG: %s\n", w.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig config = ParseArgs(argc, argv);
  Report report;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage(("unknown workload " + config.workload).c_str());
  try {
    (config.trace ? workload->traced : workload->untraced)(config, &report);
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr,
                 "perfbench: workload %s ran out of address space (bad_alloc under the "
                 "RLIMIT_AS cap)\n",
                 config.workload.c_str());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s failed: %s\n", config.workload.c_str(),
                 e.what());
    return 4;
  }
  if (!config.trace) report.Set("peak_rss_mb", PeakRssMb());
  PrintResult(report);
  return report.correct ? 0 : 1;
}
