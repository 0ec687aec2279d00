// Extension experiment (beyond the paper's figures): overlapped
// small-block all-to-alls on 2–8 ranks.
//
// §7 anticipates real-application impact of aggressive aggregation.
// A single all-to-all sends exactly one block per peer, so there is
// nothing to aggregate and MAD-MPI simply pays its scheduler overhead
// (reported in the depth=1 row — the honest negative case). Composite
// applications, however, keep several operations in flight: with a few
// overlapped all-to-alls (depth > 1), each pair's blocks share the same
// gate and the window coalesces them — per-peer messages collapse and
// MAD-MPI pulls ahead, exactly the multi-flow effect of §2.
#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/stack.hpp"
#include "madmpi/collectives.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace nmad;
using mpi::CollectiveOp;
using mpi::Datatype;
using mpi::kCommWorld;

double alltoall_us(baseline::StackImpl impl, int nodes, size_t block,
                   int depth, int iters) {
  baseline::StackOptions options;
  options.impl = impl;
  options.nodes = static_cast<size_t>(nodes);
  baseline::MpiStack stack(std::move(options));
  const Datatype byte = Datatype::byte_type();

  // `depth` independent all-to-alls kept in flight simultaneously.
  std::vector<std::vector<std::byte>> send(nodes * depth),
      recv(nodes * depth);
  for (int i = 0; i < nodes * depth; ++i) {
    send[i].resize(block * nodes);
    recv[i].resize(block * nodes);
    util::fill_pattern({send[i].data(), send[i].size()}, i);
  }

  auto round = [&]() {
    std::vector<std::unique_ptr<CollectiveOp>> ops;
    for (int d = 0; d < depth; ++d) {
      for (int r = 0; r < nodes; ++r) {
        const int i = d * nodes + r;
        ops.push_back(mpi::ialltoall(stack.ep(r), send[i].data(),
                                     recv[i].data(),
                                     static_cast<int>(block), byte,
                                     kCommWorld));
      }
    }
    for (auto& op : ops) op->wait();
  };

  round();  // warmup
  const double t0 = stack.now_us();
  for (int i = 0; i < iters; ++i) round();
  return (stack.now_us() - t0) / iters;
}

}  // namespace

int main(int argc, char** argv) {
  using Kind = util::CliFlags::Kind;
  util::CliFlags flags;
  flags.define("block", "64", "bytes per rank pair", Kind::kSize);
  flags.define("iters", "10", "iterations", Kind::kInt);
  if (auto st = flags.parse(argc, argv); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    return 2;
  }
  const size_t block = flags.get_size("block");
  const int iters = static_cast<int>(flags.get_int("iters"));

  util::Table table({"ranks", "depth", "madmpi_us", "mpich_us",
                     "openmpi_us", "gain_vs_mpich_%"});
  for (int nodes : {2, 4, 8}) {
    for (int depth : {1, 4, 8}) {
      const double mad = alltoall_us(baseline::StackImpl::kMadMpi, nodes,
                                     block, depth, iters);
      const double mpich = alltoall_us(baseline::StackImpl::kMpich, nodes,
                                       block, depth, iters);
      const double ompi = alltoall_us(baseline::StackImpl::kOpenMpi, nodes,
                                      block, depth, iters);
      table.add_row({std::to_string(nodes), std::to_string(depth),
                     util::format_fixed(mad, 2),
                     util::format_fixed(mpich, 2),
                     util::format_fixed(ompi, 2),
                     util::format_fixed((mpich - mad) / mpich * 100.0, 1)});
    }
  }
  std::printf("## Extension — %s-byte-block all-to-all, `depth` operations "
              "in flight (not a paper figure; §7 outlook)\n",
              util::format_size(block).c_str());
  table.print();
  std::printf(
      "\nreading: depth=1 offers nothing to aggregate (MAD-MPI pays its\n"
      "scheduler, the Fig-2 situation); deeper overlap turns per-peer\n"
      "message streams into aggregation fodder and MAD-MPI wins.\n\n");
  return 0;
}
