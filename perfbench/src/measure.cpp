#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t mix(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  // splitmix64 finalizer folded over the words.
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (uint64_t w : {a, b, c, d}) {
    h ^= w + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    h ^= h >> 31;
  }
  return h;
}

std::vector<size_t> stratified_sizes(size_t n, size_t lo, size_t hi,
                                     uint64_t stream) {
  const size_t span = hi - lo + 1;
  std::vector<size_t> sizes(n);
  for (size_t k = 0; k < n; ++k) {
    const size_t first = lo + k * span / n;
    const size_t width = lo + (k + 1) * span / n - first;
    sizes[k] = first + mix(stream, k) % width;
  }
  for (size_t k = n; k > 1; --k) {
    std::swap(sizes[k - 1], sizes[mix(stream, 0x5B, k) % k]);
  }
  return sizes;
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Samples Samples::batch_means(size_t per_batch) const {
  Samples out;
  for (size_t i = 0; i + per_batch <= values_.size(); i += per_batch) {
    double sum = 0.0;
    for (size_t j = i; j < i + per_batch; ++j) sum += values_[j];
    out.add(sum / static_cast<double>(per_batch));
  }
  return out;
}

void RoundTimes::add(size_t cpu_slot, double us) {
  if (slots_.size() <= cpu_slot) slots_.resize(cpu_slot + 1);
  slots_[cpu_slot].add(us);
  all_.add(us);
}

void RoundTimes::append(const RoundTimes& other) {
  for (size_t i = 0; i < other.slots_.size(); ++i) {
    if (slots_.size() <= i) slots_.resize(i + 1);
    slots_[i].append(other.slots_[i]);
  }
  all_.append(other.all_);
}

double RoundTimes::typical_us() const {
  double sum = 0.0;
  size_t used = 0;
  for (const Samples& slot : slots_) {
    const Samples batches = slot.batch_means(kRoundsPerBatch);
    if (batches.size() == 0) continue;
    sum += batches.median();
    ++used;
  }
  return used > 0 ? sum / static_cast<double>(used) : all_.median();
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
  rotating_ = !cpus_.empty();
}

CpuRotation::~CpuRotation() {
  if (rotating_) pin(cpus_);
}

void CpuRotation::pin(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu : cpus) CPU_SET(cpu, &mask);
  if (sched_setaffinity(0, sizeof(mask), &mask) != 0) rotating_ = false;
}

size_t CpuRotation::next() {
  if (!rotating_) return 0;
  at_ = (at_ + 1) % cpus_.size();
  pin({cpus_[at_]});
  if (rotating_) return at_;
  pin(cpus_);  // not allowed here: back to the whole mask, unpinned
  return 0;
}

ProcUsage ProcUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

ProcUsage& ProcUsage::operator+=(const ProcUsage& o) {
  user_s += o.user_s;
  sys_s += o.sys_s;
  ctx_switches += o.ctx_switches;
  return *this;
}

ProcUsage operator-(const ProcUsage& a, const ProcUsage& b) {
  ProcUsage d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.ctx_switches = a.ctx_switches - b.ctx_switches;
  return d;
}

void EngineCounters::add_core(const nmad::core::Core& core,
                              bool with_timers) {
  const nmad::core::CoreStats& s = core.stats();
  chunks_sent += s.chunks_sent;
  chunks_received += s.chunks_received;
  chunks_aggregated += s.chunks_aggregated;
  packets_sent += s.packets_sent;
  packets_prebuilt += s.packets_prebuilt;
  rdv_started += s.rdv_started;
  unexpected_chunks += s.unexpected_chunks;
  bulk_bytes += s.bulk_bytes;
  wire_tx += s.ev_wire_tx;
  retransmits += s.packets_retransmitted + s.bulk_retransmitted;
  rx_stored_hwm = std::max(rx_stored_hwm, s.rx_stored_hwm);

  const nmad::core::Core::AllocStats a = core.alloc_stats();
  pool_grows += a.chunk_pool_grows + a.bulk_pool_grows + a.send_pool_grows +
                a.recv_pool_grows;
  if (with_timers) {
    timers_scheduled += a.queue.scheduled;
    timers_cancelled += a.queue.cancelled;
    pool_grows += a.queue.node_slabs;
  }
  fn_spills = a.inline_fn_heap_allocs;  // global, not per core
}

EngineCounters EngineCounters::since(const EngineCounters& b) const {
  EngineCounters d;
  d.chunks_sent = chunks_sent - b.chunks_sent;
  d.chunks_received = chunks_received - b.chunks_received;
  d.chunks_aggregated = chunks_aggregated - b.chunks_aggregated;
  d.packets_sent = packets_sent - b.packets_sent;
  d.packets_prebuilt = packets_prebuilt - b.packets_prebuilt;
  d.rdv_started = rdv_started - b.rdv_started;
  d.unexpected_chunks = unexpected_chunks - b.unexpected_chunks;
  d.bulk_bytes = bulk_bytes - b.bulk_bytes;
  d.wire_tx = wire_tx - b.wire_tx;
  d.retransmits = retransmits - b.retransmits;
  d.rx_stored_hwm = rx_stored_hwm;
  d.timers_scheduled = timers_scheduled - b.timers_scheduled;
  d.timers_cancelled = timers_cancelled - b.timers_cancelled;
  d.pool_grows = pool_grows - b.pool_grows;
  d.fn_spills = fn_spills - b.fn_spills;
  return d;
}

EngineCounters& EngineCounters::operator+=(const EngineCounters& o) {
  chunks_sent += o.chunks_sent;
  chunks_received += o.chunks_received;
  chunks_aggregated += o.chunks_aggregated;
  packets_sent += o.packets_sent;
  packets_prebuilt += o.packets_prebuilt;
  rdv_started += o.rdv_started;
  unexpected_chunks += o.unexpected_chunks;
  bulk_bytes += o.bulk_bytes;
  wire_tx += o.wire_tx;
  retransmits += o.retransmits;
  rx_stored_hwm = std::max(rx_stored_hwm, o.rx_stored_hwm);
  timers_scheduled += o.timers_scheduled;
  timers_cancelled += o.timers_cancelled;
  pool_grows += o.pool_grows;
  fn_spills += o.fn_spills;
  return *this;
}

void CallDigests::merge(const CallDigests& o) {
  post_send_ns.merge(o.post_send_ns);
  post_recv_ns.merge(o.post_recv_ns);
  release_ns.merge(o.release_ns);
  wait_us.merge(o.wait_us);
  lock_ns.merge(o.lock_ns);
  mpi_isend_ns.merge(o.mpi_isend_ns);
  mpi_irecv_ns.merge(o.mpi_irecv_ns);
  mpi_wait_all_us.merge(o.mpi_wait_all_us);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit,
                            samples});
}

void Report::print(const Tally& tally) const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-28s %18.6f %-10s samples=%llu\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  const uint64_t attempted = tally.attempted.load();
  const uint64_t failed = tally.failed.load();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

void report_end_to_end(Report& report, const Samples& setup_s,
                       const PhaseResult& phase) {
  const double rounds = static_cast<double>(phase.round_us.size());
  const double msgs = rounds * phase.msgs_per_round;
  const double round_s = phase.round_us.typical_us() * 1e-6;
  const double cpu_s =
      phase.usage.user_s + phase.usage.sys_s - phase.check_cpu_s;
  const auto n = static_cast<uint64_t>(rounds);

  report.add("setup_s", setup_s.median(), "s", setup_s.size());
  report.add("lat_p50_us", round_s * 1e6 * phase.latency_share, "us", n);
  report.add("msgs_per_s", ratio(phase.msgs_per_round, round_s), "1/s", n);
  report.add("goodput_MBps",
             ratio(ratio(phase.payload_bytes, rounds), round_s) * 1e-6,
             "MB/s", n);
  report.add("cpu_us_per_msg", ratio(cpu_s * 1e6, msgs), "us",
             static_cast<uint64_t>(msgs));
}

void report_engine_layers(Report& report, const PhaseResult& traced,
                          const RoundTimes& untraced_round_us) {
  const EngineCounters& e = traced.engine;
  const double msgs =
      static_cast<double>(traced.round_us.size()) * traced.msgs_per_round;
  const auto n = static_cast<uint64_t>(msgs);
  const double cpu_s = traced.usage.user_s + traced.usage.sys_s;
  const auto d = [](uint64_t v) { return static_cast<double>(v); };

  report.add("lat_p99_us",
             untraced_round_us.all().quantile(0.99) * traced.latency_share,
             "us",
             untraced_round_us.size());
  report.add("collect.unexpected_frac",
             ratio(d(e.unexpected_chunks), d(e.chunks_received)), "ratio",
             e.chunks_received);
  report.add("collect.rx_stored_hwm_bytes", d(e.rx_stored_hwm), "B", 1);
  report.add("sched.chunks_per_packet",
             ratio(d(e.chunks_sent), d(e.packets_sent)), "count",
             e.packets_sent);
  report.add("sched.aggregated_frac",
             ratio(d(e.chunks_aggregated), d(e.chunks_sent)), "ratio",
             e.chunks_sent);
  report.add("sched.packets_per_msg", ratio(d(e.packets_sent), msgs),
             "count", n);
  report.add("sched.prebuilt_frac",
             ratio(d(e.packets_prebuilt), d(e.packets_sent)), "ratio",
             e.packets_sent);
  report.add("sched.rdv_per_msg", ratio(d(e.rdv_started), msgs), "count", n);
  report.add("xfer.wire_tx_per_msg", ratio(d(e.wire_tx), msgs), "count", n);
  report.add("xfer.bulk_bytes_per_msg", ratio(d(e.bulk_bytes), msgs), "B", n);
  report.add("xfer.retransmits", d(e.retransmits), "count", n);
  report.add("rt.timers_per_msg", ratio(d(e.timers_scheduled), msgs),
             "count", n);
  report.add("rt.timers_cancelled_frac",
             ratio(d(e.timers_cancelled), d(e.timers_scheduled)), "ratio",
             e.timers_scheduled);
  report.add("alloc.steady_pool_grows", d(e.pool_grows), "count", n);
  report.add("alloc.fn_heap_spills", d(e.fn_spills), "count", n);
  report.add("proc.ctx_switches_per_msg",
             ratio(d(traced.usage.ctx_switches), msgs), "count", n);
  report.add("proc.sys_cpu_frac", ratio(traced.usage.sys_s, cpu_s), "ratio",
             n);
  report.add("trace.overhead_frac",
             ratio(traced.round_us.typical_us(),
                   untraced_round_us.typical_us()) -
                 1.0,
             "ratio", traced.round_us.size());
}

}  // namespace perfbench
