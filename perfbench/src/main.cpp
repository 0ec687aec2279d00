// nmad_perfbench: runs one workload of the end-to-end benchmark and prints
// its metrics, one line each, then the result object as the last line.
//
//   nmad_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--inject-corrupt]
//
// Exit status: 0 when every request completed OK with the expected bytes,
// 1 when any did not, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

void print_provenance(const Options& options, double shm_memcpy_mbps,
                      double shm_rtt_us) {
  std::printf("provenance {\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  if (shm_memcpy_mbps > 0.0) {
    std::printf(", \"shm_memcpy_MBps\": %.1f, \"shm_rtt_us\": %.3f",
                shm_memcpy_mbps, shm_rtt_us);
  }
  std::printf("}\n");
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload pingpong_small|bulk_layout|"
               "alltoall_sim --seed N --seconds S --trace 0|1 "
               "[--inject-corrupt]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-corrupt") {
      options.inject_corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      continue;
    }
    if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      options.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return usage(argv[0]);
    }
    if (end == value || *end != '\0') return usage(argv[0]);
  }
  if (options.seconds <= 0.0) return usage(argv[0]);

  perfbench::Report report;
  perfbench::Tally tally;
  if (perfbench::is_wall_workload(options.workload)) {
    perfbench::run_wall(options, report, tally);
  } else if (options.workload == "alltoall_sim") {
    perfbench::run_alltoall_sim(options, report, tally);
  } else {
    return usage(argv[0]);
  }
  report.print(tally);
  return tally.failed.load() == 0 && tally.attempted.load() > 0 ? 0 : 1;
}
