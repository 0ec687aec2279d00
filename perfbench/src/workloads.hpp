// The benchmark's workloads. Each builds its inputs from the seed, sets
// up its cluster several times (setup_s), warms up, then measures either
// the untraced timed phase (end-to-end metrics) or, with --trace 1,
// alternating untraced and traced blocks (per-layer metrics plus the
// tracing overhead).
#pragma once

#include <string>

#include "measure.hpp"

namespace perfbench {

// pingpong_small, bulk_layout: two ranks over the shm
// rail on wall-clock time, one driver thread per rank.
[[nodiscard]] bool is_wall_workload(const std::string& name);
void run_wall(const Options& options, Report& report, Tally& tally);

// alltoall_sim: MAD-MPI over the simulated MX fabric, one host thread.
void run_alltoall_sim(const Options& options, Report& report, Tally& tally);

// Prints the provenance fields the program knows (build type, compiler,
// seed and any measured rail caps) as one JSON line.
void print_provenance(const Options& options, double shm_memcpy_mbps,
                      double shm_rtt_us);

}  // namespace perfbench
