// Figure 2 — "Raw point-to-point ping-pong": latency and bandwidth of a
// single-segment ping-pong, 4 B – 2 MB, MAD-MPI vs MPICH vs OpenMPI over
// MX/Myri-10G (2a, 2b) and MAD-MPI vs MPICH over Elan/Quadrics (2c, 2d).
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace nmad;

void run_network(const std::string& net, uint64_t min_size,
                 uint64_t max_size, bool csv, bool plot,
                 double fault_drop, uint64_t fault_seed, bool reliable,
                 bool credits) {
  // On a lossy fabric only MAD-MPI (reliability layer) can finish the
  // exchange; the baseline MPIs assume a lossless interconnect.
  const std::vector<std::string> impls =
      fault_drop > 0.0 ? std::vector<std::string>{"madmpi"}
                       : bench::impls_for_net(net);
  core::CoreConfig core_config;
  simnet::FaultProfile fault;
  core_config.reliability = reliable || fault_drop > 0.0;
  // Ping-pong receives are always pre-posted, so credits are granted but
  // never contended: this measures the scheme's zero-overhead claim.
  core_config.flow_control = credits;
  if (fault_drop > 0.0) {
    fault.frame_drop_prob = fault_drop;
    fault.bulk_drop_prob = fault_drop;
    fault.seed = fault_seed;
  }

  std::vector<std::string> header = {"size"};
  for (const std::string& impl : impls) header.push_back(impl + "_lat_us");
  for (const std::string& impl : impls) header.push_back(impl + "_bw_MBps");
  util::Table table(header);

  std::vector<std::vector<std::pair<double, double>>> lat_series(
      impls.size());
  std::vector<std::vector<std::pair<double, double>>> bw_series(
      impls.size());
  for (uint64_t size : util::doubling_sizes(min_size, max_size)) {
    std::vector<std::string> row = {util::format_size(size)};
    std::vector<double> lats;
    for (const std::string& impl : impls) {
      baseline::MpiStack stack =
          bench::make_stack(impl, net, core_config, fault);
      lats.push_back(bench::pingpong_latency_us(stack, size));
    }
    for (size_t i = 0; i < lats.size(); ++i) {
      row.push_back(util::format_fixed(lats[i], 2));
      lat_series[i].emplace_back(static_cast<double>(size), lats[i]);
      bw_series[i].emplace_back(static_cast<double>(size),
                                static_cast<double>(size) / lats[i]);
    }
    for (double lat : lats) {
      row.push_back(util::format_fixed(static_cast<double>(size) / lat, 1));
    }
    table.add_row(std::move(row));
  }

  if (fault_drop > 0.0) {
    std::printf("## Figure 2 — raw ping-pong over %s "
                "(lossy: drop=%.3f seed=%llu)\n",
                net.c_str(), fault_drop,
                static_cast<unsigned long long>(fault_seed));
  } else {
    std::printf("## Figure 2 — raw ping-pong over %s%s\n", net.c_str(),
                credits ? " (credit flow control on)" : "");
  }
  if (csv) {
    table.print_csv(stdout);
  } else {
    table.print();
  }
  if (plot) {
    const char markers[] = {'m', 'p', 'o'};
    util::AsciiPlot lat_plot("latency (µs) vs message size — " + net);
    util::AsciiPlot bw_plot("bandwidth (MB/s) vs message size — " + net);
    for (size_t i = 0; i < impls.size(); ++i) {
      lat_plot.add_series(impls[i], markers[i % 3], lat_series[i]);
      bw_plot.add_series(impls[i], markers[i % 3], bw_series[i]);
    }
    std::printf("\n");
    lat_plot.render();
    std::printf("\n");
    bw_plot.render();
  }
  std::printf("\n");
}

// Flapping-rail scenario: MAD-MPI on two rails, rail 1 going dark for
// 500µs every 3ms. The heartbeat monitor declares it dead (300µs of
// silence), traffic fails over to rail 0, and the probe/probation
// handshake revives it in the bright gap — over and over, while the
// ping-pong keeps running. The table compares against the same two-rail
// setup with no blackouts, so the penalty column isolates what the
// flapping (and the recovery machinery) actually costs.
void run_rail_flap(const std::string& net, uint64_t min_size,
                   uint64_t max_size, bool csv) {
  core::CoreConfig cfg;
  cfg.rail_health = true;  // implies reliability
  cfg.ack_timeout_us = 200.0;
  cfg.ack_delay_us = 5.0;
  cfg.rail_dead_after = 0;
  cfg.max_retries = 20;
  cfg.heartbeat_interval_us = 50.0;
  cfg.suspect_after_us = 150.0;
  cfg.dead_after_us = 300.0;
  cfg.probe_interval_us = 100.0;
  cfg.probation_replies = 2;

  simnet::NicProfile base_rail;
  if (!simnet::nic_profile_by_name(net, &base_rail)) {
    std::fprintf(stderr, "unknown network: %s\n", net.c_str());
    std::exit(2);
  }
  simnet::NicProfile flap_rail = base_rail;
  for (int i = 0; i < 4000; ++i) {
    const double begin = 2500.0 + 3000.0 * i;
    flap_rail.fault.blackouts.push_back({begin, begin + 500.0});
  }

  util::Table table({"size", "steady_lat_us", "flap_lat_us",
                     "steady_bw_MBps", "flap_bw_MBps", "penalty_pct"});
  for (uint64_t size : util::doubling_sizes(min_size, max_size)) {
    double lat[2] = {0.0, 0.0};
    for (int flap = 0; flap < 2; ++flap) {
      baseline::StackOptions options;
      options.impl = baseline::StackImpl::kMadMpi;
      options.nic = base_rail;
      options.core = cfg;
      options.extra_rails = {flap ? flap_rail : base_rail};
      baseline::MpiStack stack(std::move(options));
      lat[flap] = bench::pingpong_latency_us(stack, size);
      // Settle before the stack destructs: beacons re-arm forever, and a
      // packet mid-flight at teardown would leak its pool chunk.
      for (int r = 0; r < 2; ++r) {
        static_cast<mpi::MadMpiEndpoint&>(stack.ep(r))
            .engine()
            .stop_health_monitors();
      }
      while (stack.world().run_one()) {
      }
    }
    table.add_row({util::format_size(size), util::format_fixed(lat[0], 2),
                   util::format_fixed(lat[1], 2),
                   util::format_fixed(static_cast<double>(size) / lat[0], 1),
                   util::format_fixed(static_cast<double>(size) / lat[1], 1),
                   util::format_fixed(
                       (lat[1] - lat[0]) / lat[0] * 100.0, 1)});
  }

  std::printf("## Flapping-rail ping-pong over %s "
              "(rail 1 dark 500us every 3ms, madmpi only)\n",
              net.c_str());
  if (csv) {
    table.print_csv(stdout);
  } else {
    table.print();
  }
  std::printf("\n");
}

// Machine-readable artifact: every (net, impl, size) row re-measured
// with per-round timing so the JSON carries the tail (p99/p999/max)
// alongside the mean — the file CI checks in as BENCH_fig2.json.
void run_json(const std::string& path, uint64_t min_size, uint64_t max_size,
              int iters) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fig2_pingpong\",\n  \"unit\": \"us\",\n"
               "  \"iters\": %d,\n  \"rows\": [",
               iters);
  bool first = true;
  for (const std::string& net : {std::string("mx"), std::string("quadrics")}) {
    for (const std::string& impl : bench::impls_for_net(net)) {
      for (uint64_t size : util::doubling_sizes(min_size, max_size)) {
        baseline::MpiStack stack = bench::make_stack(impl, net);
        const util::QuantileDigest d =
            bench::pingpong_latency_digest(stack, size, iters);
        std::fprintf(
            f,
            "%s\n    {\"net\": \"%s\", \"impl\": \"%s\", \"size\": %llu, "
            "\"mean_us\": %.3f, \"p99_us\": %.3f, \"p999_us\": %.3f, "
            "\"max_us\": %.3f, \"bw_MBps\": %.1f}",
            first ? "" : ",", net.c_str(), impl.c_str(),
            static_cast<unsigned long long>(size), d.mean(), d.p99(),
            d.p999(), d.max(),
            d.mean() > 0.0 ? static_cast<double>(size) / d.mean() : 0.0);
        first = false;
      }
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using Kind = util::CliFlags::Kind;
  util::CliFlags flags;
  flags.define("net", "all", "network: mx, quadrics, or all");
  flags.define("min", "4", "smallest message size", Kind::kSize);
  flags.define("max", "2M", "largest message size", Kind::kSize);
  flags.define_bool("csv", false, "emit CSV instead of a table");
  flags.define_bool("plot", false, "render ASCII log-log figures");
  flags.define("fault-drop", "0",
               "frame/bulk drop probability (> 0 enables the reliability "
               "layer and restricts to madmpi)",
               Kind::kDouble);
  flags.define("fault-seed", "1", "deterministic fault-injection seed",
               Kind::kInt);
  flags.define_bool("reliable", false,
                    "enable the ack/retransmit layer even with no faults "
                    "(measures its zero-loss overhead)");
  flags.define_bool("credits", false,
                    "enable receiver-driven credit flow control (implies "
                    "the reliability layer; uncontended here, so measures "
                    "its zero-overhead claim)");
  flags.define_bool("rail-flap", false,
                    "two-rail madmpi-only run with rail 1 flapping "
                    "(heartbeat death + epoch-fenced revival mid-bench); "
                    "compares against the same setup with no blackouts");
  flags.define("json", "",
               "write a machine-readable artifact (mean/p99/p999/max per "
               "net x impl x size row) to this path and exit");
  flags.define("iters", "200",
               "per-round samples in --json mode (tail sharpness)",
               Kind::kInt);
  if (auto st = flags.parse(argc, argv); !st.is_ok()) {
    std::fprintf(stderr, "%s\n", st.to_string().c_str());
    flags.print_help(argv[0]);
    return 2;
  }

  const std::string net = flags.get("net");
  const uint64_t min_size = flags.get_size("min");
  const uint64_t max_size = flags.get_size("max");
  const bool csv = flags.get_bool("csv");
  const bool plot = flags.get_bool("plot");
  const double fault_drop = flags.get_double("fault-drop");
  const auto fault_seed = static_cast<uint64_t>(flags.get_int("fault-seed"));
  const bool reliable = flags.get_bool("reliable");
  const bool credits = flags.get_bool("credits");

  if (!flags.get("json").empty()) {
    run_json(flags.get("json"), min_size, max_size,
             flags.get_int("iters"));
    return 0;
  }
  if (flags.get_bool("rail-flap")) {
    run_rail_flap(net == "all" ? "mx" : net, min_size, max_size, csv);
    return 0;
  }
  if (net == "all") {
    run_network("mx", min_size, max_size, csv, plot, fault_drop,
                fault_seed, reliable, credits);
    run_network("quadrics", min_size, max_size, csv, plot, fault_drop,
                fault_seed, reliable, credits);
  } else {
    run_network(net, min_size, max_size, csv, plot, fault_drop, fault_seed,
                reliable, credits);
  }
  return 0;
}
