// alltoall_sim: MAD-MPI over the simulated MX fabric, 8 ranks driven by
// one host thread. Each round every ordered pair of ranks exchanges one
// message on each of 16 duplicated communicators (sizes 8 B - 1 KiB from
// the seed): all receives are posted first, then all sends, then every
// rank waits for its requests. The simulator is deterministic, so the
// virtual time of a round and the engine counters at a fixed round are a
// function of the seed alone; the host CPU time spent producing them is
// what a host-side optimisation moves.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "madmpi/madmpi.hpp"
#include "util/buffer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using nmad::mpi::Comm;
using nmad::mpi::Datatype;
using nmad::mpi::MadMpiWorld;

constexpr int kRanks = 8;
constexpr int kComms = 16;
constexpr size_t kMinBytes = 8;
constexpr size_t kMaxBytes = 1024;
constexpr size_t kVariants = 2;     // rounds alternate between two inputs
constexpr int kSetups = 100;        // world constructions per run
constexpr int kWarmupRounds = 64;
constexpr int kVirtualRounds = 64;  // fixed prefix: the deterministic part
constexpr double kBlockS = 0.25;    // traced run: alternating block length
constexpr std::byte kPoison{0xA5};
constexpr size_t kPairs = static_cast<size_t>(kRanks) * (kRanks - 1) * kComms;

// Message slot of (src, dst, comm), dst != src.
size_t slot(int src, int dst, int comm) {
  const int peer = dst < src ? dst : dst - 1;
  return (static_cast<size_t>(src) * (kRanks - 1) + static_cast<size_t>(peer)) *
             kComms +
         static_cast<size_t>(comm);
}

// One round's inputs. Payloads live in one arena per variant, and the
// receive side reuses one arena laid out the same way, so the benchmark's
// own memory stays small next to the engine's.
struct Variant {
  std::vector<size_t> bytes;   // [slot]
  std::vector<size_t> offset;  // [slot] into the arenas
  std::vector<std::byte> src;  // sender memory
  uint64_t stream = 0;         // payload of slot s is stream + s
};

uint64_t payload_stream(const Variant& var, size_t s) {
  return var.stream + s;
}

std::vector<Variant> make_variants(uint64_t seed) {
  std::vector<Variant> variants(kVariants);
  for (size_t v = 0; v < kVariants; ++v) {
    Variant& var = variants[v];
    var.stream = mix(seed, v, 0xDA7A);
    var.bytes.resize(kPairs);
    var.offset.resize(kPairs);
    // Each pair's 16 messages take one size from each sixteenth of the
    // range.
    for (size_t pair = 0; pair < kPairs / kComms; ++pair) {
      const std::vector<size_t> sizes = stratified_sizes(
          kComms, kMinBytes, kMaxBytes, mix(seed, v, 0xA11, pair));
      for (size_t c = 0; c < kComms; ++c) {
        var.bytes[pair * kComms + c] = sizes[c];
      }
    }
    size_t total = 0;
    for (size_t s = 0; s < kPairs; ++s) {
      var.offset[s] = total;
      total += var.bytes[s];
    }
    var.src.resize(total);
    for (size_t s = 0; s < kPairs; ++s) {
      nmad::util::fill_pattern({var.src.data() + var.offset[s], var.bytes[s]},
                               payload_stream(var, s));
    }
  }
  return variants;
}

// FNV-1a over the generated inputs: two runs with one seed must agree.
uint64_t digest_inputs(const std::vector<Variant>& variants) {
  uint64_t h = 0xCBF29CE484222325ull;
  const auto feed = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001B3ull;
    }
  };
  for (const Variant& var : variants) {
    feed(var.bytes.data(), var.bytes.size() * sizeof(size_t));
    feed(var.src.data(), var.src.size());
  }
  return h;
}

EngineCounters snapshot(MadMpiWorld& world) {
  EngineCounters e;
  for (int r = 0; r < kRanks; ++r) {
    // The cores share the world's event queue: count its timers once.
    e.add_core(world.cluster().core(static_cast<nmad::simnet::NodeId>(r)),
               r == 0);
  }
  return e;
}

class Alltoall {
 public:
  Alltoall(MadMpiWorld& world, const std::vector<Variant>& variants,
           Tally& tally, bool corrupt)
      : world_(world), variants_(variants), tally_(tally), corrupt_(corrupt),
        rbuf_(std::max_element(variants.begin(), variants.end(),
                               [](const Variant& a, const Variant& b) {
                                 return a.src.size() < b.src.size();
                               })->src.size(),
              kPoison),
        reqs_(kRanks) {
    for (int r = 0; r < kRanks; ++r) {
      for (int c = 0; c < kComms; ++c) {
        comms_[r][c] = world.ep(r).comm_dup(nmad::mpi::kCommWorld);
      }
    }
  }

  // One round; returns its host CPU time in µs and adds its virtual time
  // to `virtual_us`. The round never sleeps or waits for another thread,
  // so its CPU time is its cost; wall time would also count the spells a
  // shared host takes the CPU away, which vary from run to run.
  double round(int64_t index, bool traced, CallDigests& calls,
               double* virtual_us, double* check_cpu_s) {
    const Variant& var = variants_[static_cast<size_t>(index) % kVariants];
    const double v0 = world_.world().now();
    const double t0 = thread_cpu_s();
    for (int dst = 0; dst < kRanks; ++dst) {
      auto& ep = world_.ep(dst);
      reqs_[dst].clear();
      for (int src = 0; src < kRanks; ++src) {
        if (src == dst) continue;
        for (int c = 0; c < kComms; ++c) {
          // Receivers know the counts, as in an alltoallv.
          const size_t s = slot(src, dst, c);
          const double c0 = traced ? now_s() : 0.0;
          reqs_[dst].push_back(ep.irecv(rbuf_.data() + var.offset[s],
                                        static_cast<int>(var.bytes[s]), byte_,
                                        src, 0, comms_[dst][c]));
          if (traced) calls.mpi_irecv_ns.add((now_s() - c0) * 1e9);
        }
      }
    }
    for (int src = 0; src < kRanks; ++src) {
      auto& ep = world_.ep(src);
      for (int dst = 0; dst < kRanks; ++dst) {
        if (src == dst) continue;
        for (int c = 0; c < kComms; ++c) {
          const size_t s = slot(src, dst, c);
          const double c0 = traced ? now_s() : 0.0;
          reqs_[src].push_back(ep.isend(var.src.data() + var.offset[s],
                                        static_cast<int>(var.bytes[s]), byte_,
                                        dst, 0, comms_[src][c]));
          if (traced) calls.mpi_isend_ns.add((now_s() - c0) * 1e9);
        }
      }
    }
    for (int r = 0; r < kRanks; ++r) {
      const double c0 = traced ? now_s() : 0.0;
      world_.ep(r).wait_all(reqs_[r]);
      if (traced) calls.mpi_wait_all_us.add((now_s() - c0) * 1e6);
    }
    // Requests [0, kRanks-1) x kComms of each rank are its receives, in
    // (src, comm) order; the rest are its sends.
    std::vector<bool> recv_ok(kPairs);
    for (int r = 0; r < kRanks; ++r) {
      size_t i = 0;
      for (int src = 0; src < kRanks; ++src) {
        if (src == r) continue;
        for (int c = 0; c < kComms; ++c, ++i) {
          const nmad::mpi::Request* req = reqs_[r][i];
          const size_t s = slot(src, r, c);
          recv_ok[s] = req->status().is_ok() &&
                       req->received_bytes() == var.bytes[s];
        }
      }
      for (; i < reqs_[r].size(); ++i) {
        tally_.request(reqs_[r][i]->status().is_ok());
      }
      for (nmad::mpi::Request* req : reqs_[r]) world_.ep(r).free_request(req);
    }
    const double host_us = (thread_cpu_s() - t0) * 1e6;
    *virtual_us = world_.world().now() - v0;

    const double cpu0 = thread_cpu_s();
    for (size_t s = 0; s < kPairs; ++s) {
      // The expectation is regenerated from the seed, not compared with
      // the sender's memory; the self-check corrupts one of them.
      const bool corrupt = corrupt_ && index % kVariants == 0 && s == 0;
      const nmad::util::MutableBytes got{rbuf_.data() + var.offset[s],
                                         var.bytes[s]};
      tally_.request(recv_ok[s] &&
                     nmad::util::check_pattern(
                         got, payload_stream(var, s) + (corrupt ? 1 : 0)));
      std::memset(got.data(), static_cast<int>(kPoison), got.size());
    }
    *check_cpu_s += thread_cpu_s() - cpu0;
    return host_us;
  }

 private:
  MadMpiWorld& world_;
  const std::vector<Variant>& variants_;
  Tally& tally_;
  bool corrupt_;
  const Datatype byte_ = Datatype::byte_type();
  std::vector<std::byte> rbuf_;  // receive arena, laid out like the variant
  std::vector<std::vector<nmad::mpi::Request*>> reqs_;  // [rank]
  Comm comms_[kRanks][kComms];
};

std::unique_ptr<MadMpiWorld> make_world() {
  nmad::api::ClusterOptions cluster;
  cluster.nodes = kRanks;  // default rail: the MX profile
  return std::make_unique<MadMpiWorld>(cluster);
}

}  // namespace

void run_alltoall_sim(const Options& options, Report& report, Tally& tally) {
  const std::vector<Variant> variants = make_variants(options.seed);
  const uint64_t inputs = digest_inputs(variants);

  Samples setup_s;
  std::unique_ptr<MadMpiWorld> world;
  {
    CpuRotation rotation;  // spread the constructions over every CPU
    for (int k = 0; k < kSetups; ++k) {
      rotation.next();
      world.reset();
      const double t0 = now_s();
      world = make_world();
      setup_s.add(now_s() - t0);
    }
  }
  print_provenance(options, 0.0, 0.0);

  Alltoall alltoall(*world, variants, tally, options.inject_corrupt);
  PhaseResult phase;
  phase.msgs_per_round = static_cast<double>(kPairs);
  double virtual_us = 0.0;
  int64_t index = 0;
  // The host thread moves to the next CPU with every batch of rounds.
  CpuRotation rotation;
  size_t cpu_slot = 0;
  const auto round = [&](bool traced) {
    if (index % static_cast<int64_t>(kRoundsPerBatch) == 0) {
      cpu_slot = rotation.next();
    }
    return alltoall.round(index++, traced, phase.calls, &virtual_us,
                          &phase.check_cpu_s);
  };
  while (index < kWarmupRounds) round(false);
  phase.check_cpu_s = 0.0;

  // The timed phase opens with a fixed number of rounds whose virtual
  // times and counters depend on the seed alone.
  Samples virtual_round_us;
  const EngineCounters start_counters = snapshot(*world);
  const auto deterministic_prefix = [&](double v_us) {
    if (virtual_round_us.size() >= kVirtualRounds) return;
    virtual_round_us.add(v_us);
    if (virtual_round_us.size() < kVirtualRounds) return;
    const EngineCounters d = snapshot(*world).since(start_counters);
    std::printf(
        "determinism {\"inputs\": \"%016llx\", \"virtual_round_us\": %.17g, "
        "\"chunks_sent\": %llu, \"packets_sent\": %llu, "
        "\"chunks_aggregated\": %llu, \"rdv_started\": %llu, "
        "\"wire_tx\": %llu, \"timers_scheduled\": %llu, \"events\": %llu}\n",
        static_cast<unsigned long long>(inputs), virtual_round_us.median(),
        static_cast<unsigned long long>(d.chunks_sent),
        static_cast<unsigned long long>(d.packets_sent),
        static_cast<unsigned long long>(d.chunks_aggregated),
        static_cast<unsigned long long>(d.rdv_started),
        static_cast<unsigned long long>(d.wire_tx),
        static_cast<unsigned long long>(d.timers_scheduled),
        static_cast<unsigned long long>(
            world->world().queue_stats().executed));
  };

  const double bytes_per_variant = [&]() {
    double total = 0.0;
    for (const Variant& var : variants) {
      for (size_t n : var.bytes) total += static_cast<double>(n);
    }
    return total / static_cast<double>(kVariants);
  }();

  if (!options.trace) {
    const ProcUsage u0 = ProcUsage::now();
    const double start = now_s();
    while (virtual_round_us.size() < kVirtualRounds ||
           now_s() - start < options.seconds) {
      const double us = round(false);
      phase.round_us.add(cpu_slot, us);
      deterministic_prefix(virtual_us);
    }
    phase.usage = ProcUsage::now() - u0;
    phase.payload_bytes =
        bytes_per_variant * static_cast<double>(phase.round_us.size());
    report_end_to_end(report, setup_s, phase);
    return;
  }

  RoundTimes untraced_us;
  uint64_t events = 0;
  const double start = now_s();
  for (int k = 0; k < 2 || now_s() - start < options.seconds; ++k) {
    const bool traced = k % 2 == 1;
    const ProcUsage u0 = ProcUsage::now();
    const EngineCounters e0 = snapshot(*world);
    const uint64_t ev0 = world->world().queue_stats().executed;
    const double block_start = now_s();
    while (virtual_round_us.size() < kVirtualRounds ||
           now_s() - block_start < kBlockS) {
      const double us = round(traced);
      (traced ? phase.round_us : untraced_us).add(cpu_slot, us);
      deterministic_prefix(virtual_us);
    }
    if (!traced) continue;
    phase.engine += snapshot(*world).since(e0);
    phase.usage += ProcUsage::now() - u0;
    events += world->world().queue_stats().executed - ev0;
  }

  const CallDigests& c = phase.calls;
  report.add("mpi.isend_ns_p50", c.mpi_isend_ns.p50(), "ns",
             c.mpi_isend_ns.count());
  report.add("mpi.irecv_ns_p50", c.mpi_irecv_ns.p50(), "ns",
             c.mpi_irecv_ns.count());
  report.add("mpi.wait_all_us_p50", c.mpi_wait_all_us.p50(), "us",
             c.mpi_wait_all_us.count());
  report_engine_layers(report, phase, untraced_us);
  const double msgs =
      static_cast<double>(phase.round_us.size()) * phase.msgs_per_round;
  // The event loop runs inside wait_all.
  const double loop_ns = c.mpi_wait_all_us.mean() *
                         static_cast<double>(c.mpi_wait_all_us.count()) * 1e3;
  report.add("simnet.events_per_msg", ratio(static_cast<double>(events), msgs),
             "count", static_cast<uint64_t>(msgs));
  report.add("simnet.host_ns_per_event",
             ratio(loop_ns, static_cast<double>(events)), "ns", events);
  report.add("virtual_round_us", virtual_round_us.median(), "us",
             virtual_round_us.size());
}

}  // namespace perfbench
