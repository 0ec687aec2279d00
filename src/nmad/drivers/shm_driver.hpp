// ShmDriver: the first wall-clock transport — shared-memory rails inside
// one process.
//
// A ShmHub is one rail's fabric: for every directed endpoint pair it owns
// a bounded SPSC ring of fixed-size frame slots (util::SpscRing), and for
// every endpoint a registry of posted bulk sinks. Track-0 packets are
// gather-copied into a ring slot by the sender and copied out by the
// receiver's poll() — the ring *is* the wire. Track-1 rendezvous slices
// exploit the shared address space like RDMA exploits the remote one: the
// sender copies the body straight into the posted sink region (under the
// hub's sink-registry lock) and enqueues a payload-free "deposit note";
// the receiver's poll() then runs the sink's interval-merge and ack
// machinery. A slice whose sink is gone at send time travels as an orphan
// note, surfacing through the same orphan hook the simulated NIC uses.
//
// Threading: the driver owns no thread. poll() is the paper's poll entry
// point: it drains the inbound rings and fires tx-done completions on the
// caller's thread, which already holds the endpoint's exec lock (the
// thread waiting on the endpoint drives it through Core::poll). Tx-done
// completions fire when the *receiver* consumes the frame: the consuming
// poll pushes a token into the sender's MPSC completion ring and the
// sender's own poll fires the callback. send_* never invoke the engine
// reentrantly, and — because the engine keeps a single packet in flight
// per rail — no directed ring ever holds more than one un-acked frame,
// so a full ring cannot wedge two flooding endpoints against each other.
//
// Steady-state sends and deliveries touch only the preallocated rings and
// the engine's pools; the per-packet handoff stays allocation-free
// through the InlineFunction seam.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "nmad/drivers/driver.hpp"
#include "util/ring.hpp"

namespace nmad::drivers {

// One wire frame slot. Packets carry their bytes inline; bulk notes are
// headers only (the payload went directly into the sink region).
struct ShmFrame {
  enum class Kind : uint8_t { kPacket, kBulkNote };

  PeerAddr from = 0;
  Kind kind = Kind::kPacket;
  // Bulk notes: slice identity, plus whether the sink was already gone
  // when the sender looked (the slice then carried no bytes).
  bool orphan = false;
  uint64_t cookie = 0;
  size_t offset = 0;
  size_t len = 0;
  std::array<std::byte, 32 * 1024> payload;  // packets only, first `len`
};

class ShmHub {
 public:
  struct Options {
    size_t ring_slots = 64;  // frames per directed pair (power of two)
    // Nominal figures reported before init() self-measures real ones.
    double latency_us = 1.0;
    double bandwidth_mbps = 4000.0;
  };

  explicit ShmHub(size_t endpoints);
  ShmHub(size_t endpoints, Options options);

  [[nodiscard]] size_t endpoint_count() const { return sinks_.size(); }
  [[nodiscard]] const Options& options() const { return options_; }

  [[nodiscard]] util::SpscRing<ShmFrame>& ring(PeerAddr from, PeerAddr to);

  // Tx-done tokens for endpoint `at`: every poll that consumes one of
  // its frames pushes here (hence multi-producer), its own poll drains.
  [[nodiscard]] util::MpscRing<PeerAddr>& token_ring(PeerAddr at);

  // Sink registry (one per destination endpoint, lock per endpoint).
  void post_sink(PeerAddr at, BulkSink* sink);
  void remove_sink(PeerAddr at, uint64_t cookie);
  [[nodiscard]] BulkSink* find_sink(PeerAddr at, uint64_t cookie);
  // Copies `segments` into the sink region at `offset`, holding the
  // registry lock so the region cannot be cancelled out from under the
  // copy. False when no sink is posted under `cookie` (orphan slice).
  [[nodiscard]] bool deposit(PeerAddr at, uint64_t cookie, size_t offset,
                             const util::SegmentVec& segments);

 private:
  struct Endpoint {
    std::mutex mu;
    std::map<uint64_t, BulkSink*> sinks;
  };

  Options options_;
  size_t n_;
  // [from * n_ + to]; unique_ptr because rings are not movable.
  std::vector<std::unique_ptr<util::SpscRing<ShmFrame>>> rings_;
  std::vector<std::unique_ptr<util::MpscRing<PeerAddr>>> tokens_;
  std::vector<std::unique_ptr<Endpoint>> sinks_;
};

class ShmDriver final : public Driver {
 public:
  ShmDriver(ShmHub& hub, PeerAddr self);
  ~ShmDriver() override;

  [[nodiscard]] const DriverCaps& caps() const override { return caps_; }

  // Self-measures the rail's real figures — memcpy bandwidth and
  // cross-thread wake latency — into caps().
  [[nodiscard]] util::Status init() override;
  void shutdown() override;

  [[nodiscard]] bool tx_idle() const override { return !tx_armed_; }

  util::Status send_packet(PeerAddr to, const util::SegmentVec& segments,
                           CompletionFn on_tx_done) override;
  util::Status send_bulk(PeerAddr to, uint64_t cookie, size_t offset,
                         const util::SegmentVec& segments,
                         CompletionFn on_tx_done) override;
  util::Status post_bulk_recv(BulkSink* sink) override;
  void cancel_bulk_recv(uint64_t cookie) override;

  void set_rx_handler(RxHandler handler) override;
  void set_bulk_orphan_handler(BulkOrphanHandler handler) override;
  void set_bulk_rx_handler(BulkRxHandler handler) override;

  // Fires the tx-done completions whose consume token came back, then
  // delivers every inbound frame. Caller holds the exec lock.
  void poll() override;

 private:
  // Claims a slot in the self→to ring, spinning out the (rare) full-ring
  // backpressure window.
  ShmFrame* claim_slot(PeerAddr to);
  void arm_tx_done(CompletionFn on_tx_done);
  void measure_caps();

  ShmHub& hub_;
  const PeerAddr self_;
  DriverCaps caps_;

  RxHandler rx_handler_;
  BulkOrphanHandler bulk_orphan_;
  BulkRxHandler bulk_rx_;

  // Single in-flight tx (the engine only elects into an idle NIC). Armed
  // by send_*, disarmed by poll() once the consume token comes back —
  // both under this endpoint's exec lock; the token ring orders the
  // receiver's consume before the disarm.
  bool tx_armed_ = false;
  CompletionFn tx_done_;

  bool open_ = false;
};

}  // namespace nmad::drivers
