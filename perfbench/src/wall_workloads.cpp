// The two wall-clock workloads: two ranks of one process joined by the
// threaded shm rail, one driver thread per rank, each calling only into
// its own node. Rank 0 leads every round (its send is the "ping"), rank 1
// answers with the mirrored message (the "pong"). Every receive is posted
// before its matching send, and each round closes the loop.
//
// Verification runs outside the timed part of a round: rank 0 stops its
// clock, checks its receives, then waits until rank 1 has checked its own
// before it starts the next round. Checked buffers are poisoned again, so
// a receive that delivers nothing cannot pass on stale bytes.
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "nmad/api/wall_session.hpp"
#include "util/buffer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using nmad::api::WallCluster;
using nmad::core::Core;
using nmad::core::DestLayout;
using nmad::core::GateId;
using nmad::core::RecvRequest;
using nmad::core::Request;
using nmad::core::SourceLayout;
using nmad::core::Tag;

constexpr Tag kTag = 100;
constexpr std::byte kPoison{0xA5};     // unwritten receive memory
constexpr std::byte kSenderGap{0x5A};  // sender bytes that must not travel
constexpr int kSetups = 15;            // cluster constructions per run
constexpr double kWarmupS = 0.5;
constexpr double kBlockS = 0.25;       // traced run: alternating block length

// Payload bytes inside a message's memory span, in logical order.
struct Block {
  size_t offset = 0;
  size_t len = 0;
};

// One message of one direction in one round variant.
struct Message {
  size_t payload = 0;
  std::vector<std::byte> src;     // sender memory
  std::vector<std::byte> expect;  // receiver memory once delivered
  SourceLayout layout;            // over src (scattered shape only)
};

// What the workload sends. Rounds cycle through `variants`; each holds
// both directions' messages.
struct Shape {
  size_t recv_span = 0;   // receive memory per message
  bool scattered = false; // layouts through Core::isend/irecv
  std::vector<Block> blocks;  // scattered placement (shared by all)
  // [variant][direction]; direction 0 is rank 0 -> rank 1.
  std::vector<std::vector<Message>> variants;
};

void place_payload(Message& m, const std::vector<Block>& blocks,
                   size_t span, size_t recv_span, uint64_t stream) {
  std::vector<std::byte> payload(m.payload);
  nmad::util::fill_pattern({payload.data(), payload.size()}, stream);
  m.src.assign(span, kSenderGap);
  m.expect.assign(recv_span, kPoison);
  size_t at = 0;
  for (const Block& b : blocks) {
    std::memcpy(m.src.data() + b.offset, payload.data() + at, b.len);
    std::memcpy(m.expect.data() + b.offset, payload.data() + at, b.len);
    at += b.len;
  }
}

Shape make_shape(const std::string& name, uint64_t seed) {
  Shape s;
  size_t variants = 4;
  if (name == "pingpong_small") {
    s.recv_span = 8;
    s.blocks.push_back({0, s.recv_span});
  } else {  // bulk_layout: 4 x {64 B block, 64 B gap, 256 KiB block}
    s.scattered = true;
    variants = 2;
    constexpr size_t kSmall = 64, kGap = 64, kLarge = 256 * 1024;
    for (size_t j = 0; j < 4; ++j) {
      const size_t base = j * (kSmall + kGap + kLarge);
      s.blocks.push_back({base, kSmall});
      s.blocks.push_back({base + kSmall + kGap, kLarge});
    }
    s.recv_span = 4 * (kSmall + kGap + kLarge);
  }

  s.variants.resize(variants);
  for (size_t v = 0; v < variants; ++v) {
    s.variants[v].resize(2);
    for (size_t dir = 0; dir < 2; ++dir) {
      Message& m = s.variants[v][dir];
      for (const Block& b : s.blocks) m.payload += b.len;
      place_payload(m, s.blocks, s.recv_span, s.recv_span, mix(seed, v, dir));
      if (s.scattered) {
        std::vector<SourceLayout::Block> blocks;
        size_t logical = 0;
        for (const Block& b : s.blocks) {
          blocks.push_back({logical, {m.src.data() + b.offset, b.len}});
          logical += b.len;
        }
        m.layout = SourceLayout::scattered(std::move(blocks));
      }
    }
  }
  return s;
}

// Flips one payload byte the engine will deliver intact, so the check
// must report it.
void corrupt_one_expectation(Shape& s) {
  s.variants[0][0].expect[s.blocks[0].offset] ^= std::byte{0xFF};
}

// Times one call into a digest when tracing; free otherwise.
class CallTimer {
 public:
  CallTimer(nmad::util::QuantileDigest* digest, double units_per_s)
      : digest_(digest),
        units_per_s_(units_per_s),
        start_(digest != nullptr ? now_s() : 0.0) {}
  ~CallTimer() {
    if (digest_ != nullptr) digest_->add((now_s() - start_) * units_per_s_);
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  nmad::util::QuantileDigest* digest_;
  double units_per_s_;
  double start_;
};

struct Session {
  double seconds = 0.0;
  bool traced = false;
};

struct SessionOut {
  RoundTimes round_us;
  double payload_bytes = 0.0;
  double check_cpu_s = 0.0;
  CallDigests calls;
};

// Hand-offs between the two rank threads of one session.
struct Sync {
  std::atomic<bool> ready{false};     // rank 1 posted its first receives
  std::atomic<int64_t> last{-1};      // final round, set by rank 0
  std::atomic<int64_t> verified{-1};  // last round rank 1 has checked
};

class Rank {
 public:
  Rank(WallCluster& cluster, const Shape& shape, Tally& tally, size_t node,
       bool traced)
      : cluster_(cluster),
        shape_(shape),
        tally_(tally),
        node_(node),
        gate_(cluster.gate(node, 1 - node)),
        traced_(traced) {
    for (size_t p = 0; p < 2; ++p) {
      rbuf_[p].assign(shape.recv_span, kPoison);
      dest_[p] = make_dest(rbuf_[p]);
    }
  }

  // Rank 0.
  void lead(Sync& sync, const Session& session) {
    while (!sync.ready.load()) std::this_thread::yield();
    const double start = now_s();
    for (int64_t i = 0;; ++i) {
      const bool last = i > 0 && now_s() - start >= session.seconds;
      if (last) sync.last.store(i);
      const size_t v = static_cast<size_t>(i) % shape_.variants.size();
      const size_t p = static_cast<size_t>(i) & 1;
      const double t0 = now_s();
      post_recv(p);
      send_and_wait(shape_.variants[v][0]);
      wait_recv(shape_.variants[v][1]);
      out_.round_us.add(0, (now_s() - t0) * 1e6);
      probe_lock();
      check(p, shape_.variants[v][1]);
      const double c0 = thread_cpu_s();
      while (sync.verified.load() < i) std::this_thread::yield();
      out_.check_cpu_s += thread_cpu_s() - c0;
      if (last) break;
    }
  }

  // Rank 1.
  void answer(Sync& sync) {
    post_recv(0);
    sync.ready.store(true);
    for (int64_t i = 0;; ++i) {
      const size_t v = static_cast<size_t>(i) % shape_.variants.size();
      const size_t p = static_cast<size_t>(i) & 1;
      wait_recv(shape_.variants[v][0]);
      const bool last = sync.last.load() == i;
      if (!last) post_recv(p ^ 1);
      send_and_wait(shape_.variants[v][1]);
      probe_lock();
      check(p, shape_.variants[v][0]);
      sync.verified.store(i);
      if (last) break;
    }
  }

  [[nodiscard]] SessionOut& out() { return out_; }

 private:
  DestLayout make_dest(std::vector<std::byte>& buf) const {
    if (!shape_.scattered) {
      return DestLayout::contiguous({buf.data(), buf.size()});
    }
    std::vector<DestLayout::Block> blocks;
    size_t logical = 0;
    for (const Block& b : shape_.blocks) {
      blocks.push_back({logical, {buf.data() + b.offset, b.len}});
      logical += b.len;
    }
    return DestLayout::scattered(std::move(blocks));
  }

  nmad::util::QuantileDigest* digest(nmad::util::QuantileDigest& d) {
    return traced_ ? &d : nullptr;
  }

  void post_recv(size_t p) {
    CallTimer t(digest(out_.calls.post_recv_ns), 1e9);
    if (shape_.scattered) {
      rreq_ = cluster_.locked(node_, [&](Core& core) -> Request* {
        return core.irecv(gate_, kTag, dest_[p]);
      });
    } else {
      rreq_ = cluster_.post_recv(node_, gate_, kTag,
                                 {rbuf_[p].data(), shape_.recv_span});
    }
  }

  void send_and_wait(const Message& m) {
    Request* sreq = nullptr;
    {
      CallTimer t(digest(out_.calls.post_send_ns), 1e9);
      if (shape_.scattered) {
        sreq = cluster_.locked(node_, [&](Core& core) -> Request* {
          return core.isend(gate_, kTag, m.layout);
        });
      } else {
        sreq = cluster_.post_send(node_, gate_, kTag,
                                  {m.src.data(), m.payload});
      }
    }
    out_.payload_bytes += static_cast<double>(m.payload);
    wait(sreq);
    tally_.request(sreq->status().is_ok());
    release(sreq);
  }

  void wait_recv(const Message& m) {
    wait(rreq_);
    const auto* r = static_cast<const RecvRequest*>(rreq_);
    rok_ = r->status().is_ok() && r->received_bytes() == m.payload;
    release(rreq_);
  }

  void wait(Request* req) {
    CallTimer t(digest(out_.calls.wait_us), 1e6);
    cluster_.wait(node_, req);
  }

  void release(Request* req) {
    CallTimer t(digest(out_.calls.release_ns), 1e9);
    cluster_.release(node_, req);
  }

  // An empty critical section: the price of taking the exec lock that
  // every engine entry pays.
  void probe_lock() {
    if (!traced_) return;
    CallTimer t(&out_.calls.lock_ns, 1e9);
    cluster_.locked(node_, [](Core&) {});
  }

  void check(size_t p, const Message& m) {
    const double t0 = thread_cpu_s();
    std::vector<std::byte>& buf = rbuf_[p];
    const bool same =
        std::memcmp(buf.data(), m.expect.data(), buf.size()) == 0;
    tally_.request(rok_ && same);
    std::memset(buf.data(), static_cast<int>(kPoison), buf.size());
    out_.check_cpu_s += thread_cpu_s() - t0;
  }

  WallCluster& cluster_;
  const Shape& shape_;
  Tally& tally_;
  size_t node_;
  GateId gate_;
  bool traced_;
  std::vector<std::byte> rbuf_[2];  // receive memory, by round parity
  DestLayout dest_[2];
  Request* rreq_ = nullptr;
  bool rok_ = false;  // status and length of the receive
  SessionOut out_;
};

SessionOut run_session(WallCluster& cluster, const Shape& shape,
                       Tally& tally, const Session& session) {
  Rank lead(cluster, shape, tally, 0, session.traced);
  Rank answer(cluster, shape, tally, 1, session.traced);
  Sync sync;
  std::thread t1([&]() { answer.answer(sync); });
  std::thread t0([&]() { lead.lead(sync, session); });
  t0.join();
  t1.join();
  SessionOut out = std::move(lead.out());
  out.payload_bytes += answer.out().payload_bytes;
  out.check_cpu_s += answer.out().check_cpu_s;
  out.calls.merge(answer.out().calls);
  return out;
}

EngineCounters snapshot(WallCluster& cluster) {
  EngineCounters e;
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    cluster.locked(n, [&](Core& core) { e.add_core(core, true); });
  }
  return e;
}

void add_session(PhaseResult& phase, SessionOut& out) {
  phase.round_us.append(out.round_us);
  phase.payload_bytes += out.payload_bytes;
  phase.check_cpu_s += out.check_cpu_s;
  phase.calls.merge(out.calls);
}

}  // namespace

bool is_wall_workload(const std::string& name) {
  return name == "pingpong_small" || name == "bulk_layout";
}

void run_wall(const Options& options, Report& report, Tally& tally) {
  Shape shape = make_shape(options.workload, options.seed);
  if (options.inject_corrupt) corrupt_one_expectation(shape);

  Samples setup_s;
  std::unique_ptr<WallCluster> cluster;
  for (int k = 0; k < kSetups; ++k) {
    cluster.reset();
    const double t0 = now_s();
    cluster = std::make_unique<WallCluster>(WallCluster::Options{});
    setup_s.add(now_s() - t0);
  }
  const nmad::core::RailInfo caps =
      cluster->locked(0, [](Core& core) { return core.rail_info(0); });
  const double rtt_us = 2.0 * caps.latency_us;
  print_provenance(options, caps.bandwidth_mbps, rtt_us);

  // Fills pools, timer slabs and caches before anything is measured.
  run_session(*cluster, shape, tally, Session{kWarmupS, false});

  PhaseResult phase;
  phase.msgs_per_round = 2.0;
  phase.latency_share = 0.5;
  if (!options.trace) {
    const ProcUsage u0 = ProcUsage::now();
    SessionOut out =
        run_session(*cluster, shape, tally, Session{options.seconds, false});
    phase.usage = ProcUsage::now() - u0;
    add_session(phase, out);
    report_end_to_end(report, setup_s, phase);
    return;
  }

  RoundTimes untraced_us;
  const double start = now_s();
  for (int k = 0; k < 2 || now_s() - start < options.seconds; ++k) {
    if (k % 2 == 0) {
      untraced_us.append(
          run_session(*cluster, shape, tally, Session{kBlockS, false})
              .round_us);
      continue;
    }
    const ProcUsage u0 = ProcUsage::now();
    const EngineCounters e0 = snapshot(*cluster);
    SessionOut out =
        run_session(*cluster, shape, tally, Session{kBlockS, true});
    phase.engine += snapshot(*cluster).since(e0);
    phase.usage += ProcUsage::now() - u0;
    add_session(phase, out);
  }

  const CallDigests& c = phase.calls;
  report.add("api.post_send_ns_p50", c.post_send_ns.p50(), "ns",
             c.post_send_ns.count());
  report.add("api.post_recv_ns_p50", c.post_recv_ns.p50(), "ns",
             c.post_recv_ns.count());
  report.add("api.release_ns_p50", c.release_ns.p50(), "ns",
             c.release_ns.count());
  report.add("api.wait_us_p50", c.wait_us.p50(), "us", c.wait_us.count());
  report.add("api.wait_us_p99", c.wait_us.p99(), "us", c.wait_us.count());
  report.add("api.lock_ns_p50", c.lock_ns.p50(), "ns", c.lock_ns.count());
  report_engine_layers(report, phase, untraced_us);

  // Payload per round over the untraced round time, against the rail's
  // self-measured memcpy bandwidth (bytes/us = MB/s).
  const double goodput_mbps =
      ratio(ratio(phase.payload_bytes,
                  static_cast<double>(phase.round_us.size())),
            untraced_us.typical_us());
  report.add("shm.caps_memcpy_MBps", caps.bandwidth_mbps, "MB/s", 1);
  report.add("shm.caps_rtt_us", rtt_us, "us", 1);
  report.add("shm.goodput_vs_memcpy", ratio(goodput_mbps, caps.bandwidth_mbps),
             "ratio", phase.round_us.size());
}

}  // namespace perfbench
