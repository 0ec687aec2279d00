// Wall-clock shm stack: the same engine Core running on real time, real
// threads and the shared-memory rail — no simulation anywhere.
//
// The fig2 ping-pong size sweep runs under the protocol delivery oracle
// (FIFO matching, payload checksums, exactly-once completion), crossing
// the eager→rendezvous switch on the way up, both from one thread that
// drives every node and from two threads that each wait on their own
// node. The steady-state allocation contract of test_alloc_churn carries
// over: after warm-up, ping-pong traffic touches neither the engine
// pools, nor the timer wheel's slabs, nor the InlineFunction heap. A
// drain under the exec lock makes its own progress.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/oracle.hpp"
#include "nmad/api/wall_session.hpp"
#include "util/buffer.hpp"
#include "util/inline_fn.hpp"
#include "util/units.hpp"

namespace nmad::core {
namespace {

using api::WallCluster;

TEST(WallShm, Fig2SizeSweepUnderOracle) {
  WallCluster cluster(WallCluster::Options{});
  harness::ProtocolOracle oracle;

  uint64_t tag = 1;
  for (uint64_t size : util::doubling_sizes(4, 1 << 20)) {
    std::vector<std::byte> out(size), back(size), in(size), echo(size);
    util::fill_pattern({out.data(), size}, tag);
    util::fill_pattern({back.data(), size}, tag + 1);

    // A → B.
    const size_t si = oracle.send_posted(0, 1, tag, {out.data(), size});
    const size_t ri = oracle.recv_posted(1, 0, tag, {in.data(), size});
    Request* s = cluster.post_send(0, cluster.gate(0, 1), tag,
                                   util::ConstBytes{out.data(), size});
    Request* r = cluster.post_recv(1, cluster.gate(1, 0), tag,
                                   util::MutableBytes{in.data(), size});
    cluster.wait(0, s);
    cluster.wait(1, r);
    oracle.send_completed(0, 1, tag, si, s->status());
    oracle.recv_completed(1, 0, tag, ri, r->status(), size);
    cluster.release(0, s);
    cluster.release(1, r);

    // B → A (the pong).
    const size_t sj = oracle.send_posted(1, 0, tag, {back.data(), size});
    const size_t rj = oracle.recv_posted(0, 1, tag, {echo.data(), size});
    s = cluster.post_send(1, cluster.gate(1, 0), tag,
                          util::ConstBytes{back.data(), size});
    r = cluster.post_recv(0, cluster.gate(0, 1), tag,
                          util::MutableBytes{echo.data(), size});
    cluster.wait(1, s);
    cluster.wait(0, r);
    oracle.send_completed(1, 0, tag, sj, s->status());
    oracle.recv_completed(0, 1, tag, rj, r->status(), size);
    cluster.release(1, s);
    cluster.release(0, r);

    EXPECT_TRUE(util::check_pattern({in.data(), size}, tag)) << size;
    EXPECT_TRUE(util::check_pattern({echo.data(), size}, tag + 1)) << size;
    ++tag;
  }

  EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    cluster.locked(n, [n](Core& core) {
      std::vector<std::string> failures;
      EXPECT_TRUE(core.check_invariants(&failures))
          << "node " << n << ": "
          << (failures.empty() ? std::string() : failures.front());
    });
  }
  // The big sizes went rendezvous: the wall path exercised sink posting,
  // direct-deposit slices and completion, not just eager frames.
  const uint64_t rdv = cluster.locked(
      0, [](Core& core) { return core.stats().rdv_started; });
  EXPECT_GT(rdv, 0u);
}

// One rank of a two-thread ping-pong in the perfbench shape: the thread
// posts and waits only on its own node; the oracle is shared, so its
// calls take `mu`.
void pingpong_rank(WallCluster& cluster, harness::ProtocolOracle& oracle,
                   std::mutex& mu, int node, size_t size, uint64_t rounds) {
  const int peer = 1 - node;
  const GateId gate = cluster.gate(node, peer);
  std::vector<std::byte> out(size), in(size);
  for (uint64_t tag = 1; tag <= rounds; ++tag) {
    // Rank 0 pings, rank 1 pongs; each payload is unique per direction.
    util::fill_pattern({out.data(), size}, tag * 2 + node);
    size_t ri = 0;
    size_t si = 0;
    Request* r = nullptr;
    Request* s = nullptr;
    auto post_recv = [&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        ri = oracle.recv_posted(node, peer, tag, {in.data(), size});
      }
      r = cluster.post_recv(node, gate, tag, {in.data(), size});
    };
    auto send = [&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        si = oracle.send_posted(node, peer, tag, {out.data(), size});
      }
      s = cluster.post_send(node, gate, tag, {out.data(), size});
      cluster.wait(node, s);
      std::lock_guard<std::mutex> lock(mu);
      oracle.send_completed(node, peer, tag, si, s->status());
    };
    auto wait_recv = [&] {
      cluster.wait(node, r);
      std::lock_guard<std::mutex> lock(mu);
      oracle.recv_completed(node, peer, tag, ri, r->status(), size);
    };
    post_recv();
    if (node == 0) {
      send();
      wait_recv();
    } else {
      wait_recv();
      send();
    }
    EXPECT_TRUE(util::check_pattern({in.data(), size}, tag * 2 + peer))
        << "node " << node << " size " << size << " round " << tag;
    cluster.release(node, s);
    cluster.release(node, r);
  }
}

TEST(WallShm, TwoThreadPingPongUnderOracle) {
  struct Case {
    size_t size;
    uint64_t rounds;
  };
  // 8 B rides eager frames; 1 MiB goes rendezvous with bulk deposits.
  for (const Case c : {Case{8, 200}, Case{1 << 20, 8}}) {
    WallCluster cluster(WallCluster::Options{});
    harness::ProtocolOracle oracle;
    std::mutex mu;
    std::thread t1(
        [&] { pingpong_rank(cluster, oracle, mu, 1, c.size, c.rounds); });
    std::thread t0(
        [&] { pingpong_rank(cluster, oracle, mu, 0, c.size, c.rounds); });
    t0.join();
    t1.join();
    EXPECT_TRUE(oracle.ok()) << oracle.violations().front();
    for (size_t n = 0; n < cluster.node_count(); ++n) {
      cluster.locked(n, [n](Core& core) {
        std::vector<std::string> failures;
        EXPECT_TRUE(core.check_invariants(&failures))
            << "node " << n << ": "
            << (failures.empty() ? std::string() : failures.front());
      });
    }
  }
}

// Drain drives the engine it drains: with a 1 MiB rendezvous send in
// flight and a second thread waiting on the matching receive, a drain
// under node 0's exec lock polls node 0's rail itself, and returns OK
// only once the send has really left — not merely its window.
TEST(WallShm, DrainUnderTheExecLockFlushesARendezvousInFlight) {
  WallCluster cluster(WallCluster::Options{});
  const size_t size = 1 << 20;
  const Tag tag = 7;
  std::vector<std::byte> out(size), in(size);
  util::fill_pattern({out.data(), size}, tag);
  Request* s = cluster.post_send(0, cluster.gate(0, 1), tag,
                                 util::ConstBytes{out.data(), size});
  std::thread receiver([&] {
    Request* r = cluster.post_recv(1, cluster.gate(1, 0), tag,
                                   util::MutableBytes{in.data(), size});
    cluster.wait(1, r);
    EXPECT_TRUE(r->status().is_ok());
    cluster.release(1, r);
  });
  const util::Status st =
      cluster.locked(0, [](Core& core) { return core.drain(5e6); });
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_TRUE(cluster.locked(0, [s](Core&) { return s->done(); }))
      << "drain returned with the send still in flight";
  receiver.join();
  EXPECT_TRUE(util::check_pattern({in.data(), size}, tag));
  cluster.wait(0, s);
  cluster.release(0, s);
}

// Steady-state witnesses across the whole wall-clock cluster: every
// pool's capacity/grow counters, the timer wheel's slab/slot capacities
// and the global InlineFunction spill count — all monotone, so flat
// across the measured phase is exactly zero hot-path allocations.
struct WallAllocSnapshot {
  size_t pool_capacity = 0;
  size_t pool_grows = 0;
  size_t wheel_slabs = 0;
  size_t wheel_node_capacity = 0;
  size_t wheel_slot_capacity = 0;
  uint64_t wheel_resizes = 0;
  uint64_t fn_spills = 0;
};

WallAllocSnapshot snapshot(WallCluster& cluster) {
  WallAllocSnapshot s;
  for (size_t n = 0; n < cluster.node_count(); ++n) {
    const Core::AllocStats a =
        cluster.locked(n, [](Core& core) { return core.alloc_stats(); });
    s.pool_capacity += a.chunk_pool_capacity + a.bulk_pool_capacity +
                       a.send_pool_capacity + a.recv_pool_capacity;
    s.pool_grows += a.chunk_pool_grows + a.bulk_pool_grows +
                    a.send_pool_grows + a.recv_pool_grows;
    s.wheel_slabs += a.queue.node_slabs;
    s.wheel_node_capacity += a.queue.node_capacity;
    s.wheel_slot_capacity += a.queue.slot_capacity;
    s.wheel_resizes += a.queue.resizes;
  }
  s.fn_spills = util::inline_fn_heap_allocs();
  return s;
}

void pingpong_round(WallCluster& cluster, std::vector<std::byte>& buf,
                    uint64_t round) {
  const uint64_t tag = round;
  Request* s0 = cluster.post_send(0, cluster.gate(0, 1), tag,
                                  util::ConstBytes{buf.data(), buf.size()});
  Request* r0 = cluster.post_recv(1, cluster.gate(1, 0), tag,
                                  util::MutableBytes{buf.data(), buf.size()});
  cluster.wait(0, s0);
  cluster.wait(1, r0);
  cluster.release(0, s0);
  cluster.release(1, r0);
  Request* s1 = cluster.post_send(1, cluster.gate(1, 0), tag,
                                  util::ConstBytes{buf.data(), buf.size()});
  Request* r1 = cluster.post_recv(0, cluster.gate(0, 1), tag,
                                  util::MutableBytes{buf.data(), buf.size()});
  cluster.wait(1, s1);
  cluster.wait(0, r1);
  cluster.release(1, s1);
  cluster.release(0, r1);
}

TEST(WallShm, SteadyPingPongIsAllocationFree) {
  WallCluster cluster(WallCluster::Options{});
  std::vector<std::byte> buf(4096);
  for (uint64_t r = 0; r < 50; ++r) pingpong_round(cluster, buf, r);
  const WallAllocSnapshot warm = snapshot(cluster);

  for (uint64_t r = 50; r < 350; ++r) pingpong_round(cluster, buf, r);
  const WallAllocSnapshot steady = snapshot(cluster);

  EXPECT_EQ(steady.pool_capacity, warm.pool_capacity)
      << "an engine pool grew during steady state";
  EXPECT_EQ(steady.pool_grows, warm.pool_grows);
  EXPECT_EQ(steady.wheel_slabs, warm.wheel_slabs)
      << "the timer wheel allocated a node slab during steady state";
  EXPECT_EQ(steady.wheel_node_capacity, warm.wheel_node_capacity);
  EXPECT_EQ(steady.wheel_slot_capacity, warm.wheel_slot_capacity);
  EXPECT_EQ(steady.wheel_resizes, warm.wheel_resizes);
  EXPECT_EQ(steady.fn_spills, warm.fn_spills)
      << "a callback spilled out of its inline buffer";
}

// The self-measured rail figures flow into RailInfo and debug_dump —
// a shm rail reports real, non-zero latency and bandwidth.
TEST(WallShm, SelfMeasuredCapsSurface) {
  WallCluster cluster(WallCluster::Options{});
  cluster.locked(0, [](Core& core) {
    const RailInfo& info = core.rail_info(0);
    EXPECT_GT(info.bandwidth_mbps, 0.0);
    EXPECT_GT(info.latency_us, 0.0);
    std::ostringstream dump;
    core.debug_dump(dump);
    EXPECT_NE(dump.str().find("lat="), std::string::npos);
    EXPECT_NE(dump.str().find("bw="), std::string::npos);
    return 0;
  });
}

}  // namespace
}  // namespace nmad::core
