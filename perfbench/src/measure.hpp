// Measurement plumbing shared by every workload of the benchmark program:
// exact sample sets for the end-to-end timings, process CPU snapshots,
// per-call digests for the traced run, engine counter snapshots, request
// accounting and the result report.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "nmad/core/core.hpp"
#include "util/stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-check: flip one byte of one expected payload, so verification
  // must fail the run.
  bool inject_corrupt = false;
};

// Monotonic wall clock, seconds.
double now_s();
// CPU time of the calling thread, seconds.
double thread_cpu_s();

// 64-bit mix of several words: derives independent streams (payload
// contents, sizes) from the run seed.
uint64_t mix(uint64_t a, uint64_t b, uint64_t c = 0, uint64_t d = 0);

// `n` message sizes in [lo, hi], one drawn from each of n equal strata and
// shuffled, all from `stream`: the sizes vary with the seed while their
// total stays nearly the same, so throughput compares across seeds.
std::vector<size_t> stratified_sizes(size_t n, size_t lo, size_t hi,
                                     uint64_t stream);

// Every sample kept, so quantiles are exact (no bucket rounding that would
// make a timing read the same on every run).
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void append(const Samples& other);
  [[nodiscard]] size_t size() const { return values_.size(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  // Means of consecutive groups of `per_batch` samples (a trailing partial
  // group is dropped).
  [[nodiscard]] Samples batch_means(size_t per_batch) const;

 private:
  std::vector<double> values_;
};

// Process-wide resource usage (all threads): CPU split and context
// switches.
struct ProcUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  uint64_t ctx_switches = 0;

  static ProcUsage now();
  ProcUsage& operator+=(const ProcUsage& o);
  friend ProcUsage operator-(const ProcUsage& a, const ProcUsage& b);
};

// Engine counters summed over the cores of one cluster. Sums are monotone,
// so a delta between two snapshots is the work of the phase in between;
// rx_stored_hwm is a high-water mark and is carried, not subtracted.
struct EngineCounters {
  uint64_t chunks_sent = 0;
  uint64_t chunks_received = 0;
  uint64_t chunks_aggregated = 0;
  uint64_t packets_sent = 0;
  uint64_t packets_prebuilt = 0;
  uint64_t rdv_started = 0;
  uint64_t unexpected_chunks = 0;
  uint64_t bulk_bytes = 0;
  uint64_t wire_tx = 0;
  uint64_t retransmits = 0;
  uint64_t rx_stored_hwm = 0;
  uint64_t timers_scheduled = 0;
  uint64_t timers_cancelled = 0;
  uint64_t pool_grows = 0;  // engine pools + timer-queue slabs
  uint64_t fn_spills = 0;   // process-wide InlineFunction heap spills

  // Adds one core. `with_timers` is false for every core but the first
  // when the cores share one timer queue (the simulator's event loop).
  void add_core(const nmad::core::Core& core, bool with_timers);
  [[nodiscard]] EngineCounters since(const EngineCounters& before) const;
  EngineCounters& operator+=(const EngineCounters& o);
};

// One digest per traced public call.
struct CallDigests {
  nmad::util::QuantileDigest post_send_ns;
  nmad::util::QuantileDigest post_recv_ns;
  nmad::util::QuantileDigest release_ns;
  nmad::util::QuantileDigest wait_us;
  nmad::util::QuantileDigest lock_ns;
  nmad::util::QuantileDigest mpi_isend_ns;
  nmad::util::QuantileDigest mpi_irecv_ns;
  nmad::util::QuantileDigest mpi_wait_all_us;

  void merge(const CallDigests& o);
};

// Requests attempted and failed (non-OK status, wrong length or a payload
// that differs from the seed-derived expectation). Shared by the rank
// threads.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void request(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

// Named metrics in emission order, with the sample count behind each.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  // Writes one human-readable line per metric, then the result object as
  // the last line of stdout.
  void print(const Tally& tally) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Metric> metrics_;
};

// a / b, or 0 when b is 0 (a ratio with nothing to divide by).
double ratio(double a, double b);

// Rounds per latency sample. On the sleep-polling wait a single round's
// time is bimodal (whether one more sleep was needed), so the median of
// single rounds jumps between the modes from run to run; the median of
// short batches of rounds does not.
inline constexpr size_t kRoundsPerBatch = 16;

// Host time of each round, grouped by the CPU the measuring thread was
// pinned to (a single group unless it rotates over CPUs, see CpuRotation).
class RoundTimes {
 public:
  void add(size_t cpu_slot, double us);
  void append(const RoundTimes& other);
  [[nodiscard]] size_t size() const { return all_.size(); }
  [[nodiscard]] const Samples& all() const { return all_; }
  // The typical round: per CPU slot the median of batch means, averaged
  // over the slots.
  [[nodiscard]] double typical_us() const;

 private:
  std::vector<Samples> slots_;
  Samples all_;
};

// Pins the calling thread to each CPU it may run on, in turn. A lone busy
// thread otherwise stays where it started, and the CPUs of a shared host
// run at different speeds, so its run would measure one CPU by chance.
// Restores the thread's CPU mask when destroyed.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Moves to the next CPU; returns its index among the CPUs it may use
  // (always 0 when the mask cannot be read or set).
  size_t next();

 private:
  void pin(const std::vector<int>& cpus);

  std::vector<int> cpus_;  // the CPUs the thread may run on
  bool rotating_ = false;  // false when the mask cannot be read or set
  size_t at_ = 0;
};

// What a workload measured, in the form the end-to-end and per-layer
// metrics are computed from.
struct PhaseResult {
  RoundTimes round_us;
  // Latency is half a round for pingpong-shaped rounds (one way of a
  // round trip), the whole round otherwise.
  double latency_share = 1.0;
  double msgs_per_round = 0;
  double payload_bytes = 0;  // over all rounds
  // CPU the benchmark spends checking receives and waiting for the other
  // rank's check; taken out of cpu_us_per_msg.
  double check_cpu_s = 0;
  ProcUsage usage;
  EngineCounters engine;
  CallDigests calls;
};

// The end-to-end metrics of an untraced timed phase.
void report_end_to_end(Report& report, const Samples& setup_s,
                       const PhaseResult& phase);

// The per-layer metrics every workload shares (single-round tail latency,
// collect, schedule, transfer, runtime, alloc, proc, trace overhead).
void report_engine_layers(Report& report, const PhaseResult& traced,
                          const RoundTimes& untraced_round_us);

}  // namespace perfbench
