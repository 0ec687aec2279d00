// Hashed timer wheel for the wall-clock runtime.
//
// The same contract as the simulation's calendar queue — timers pop in
// (deadline, insertion-order) order, cancel is O(1) through generation-
// stamped slots, nodes come from grow-only slabs so the steady-state hot
// path never allocates — but tuned for wall-clock use: fixed-width time
// buckets (`tick_us`), a cursor that walks virtual buckets, and a
// pop-based API (`pop_due`) so a callback runs with the wheel already
// consistent and may schedule or cancel freely. Single-threaded:
// WallClockRuntime guards it with the exec lock and pops it from
// advance().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nmad/runtime/runtime.hpp"

namespace nmad::runtime {

class TimerWheel {
 public:
  explicit TimerWheel(double tick_us = 50.0);
  ~TimerWheel();

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms `fn` at absolute time `at` (µs, same clock the caller pops
  // with). Returns a generation-stamped id; never 0.
  TimerId schedule_at(double at, TimerFn fn);

  // O(1) lazy cancel; a stale id (fired / cancelled / recycled slot) is
  // fenced. Returns whether a live timer was cancelled.
  bool cancel(TimerId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] size_t size() const { return live_; }

  // Deadline of the earliest pending timer; +infinity when empty.
  // Non-const: lazily reaps cancelled nodes and advances the cursor.
  [[nodiscard]] double next_deadline();

  // Extracts the earliest timer with deadline <= now into `out` without
  // running it. False when nothing is due.
  bool pop_due(double now, TimerFn* out);

  [[nodiscard]] TimerStats stats() const;

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr size_t kMinBuckets = 64;
  static constexpr size_t kSlabNodes = 128;

  struct Node {
    double at = 0.0;
    uint64_t seq = 0;
    uint64_t vb = 0;  // virtual bucket: floor(at / tick), cursor-clamped
    Node* next = nullptr;
    uint32_t slot = kNoSlot;
    bool cancelled = false;
    TimerFn fn;
  };
  struct SlotRec {
    uint32_t gen = 1;  // starts at 1 so a TimerId is never zero
    Node* node = nullptr;
  };

  static bool before(const Node& a, const Node& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  Node* acquire_node();
  void release_node(Node* node);
  void retire_slot(uint32_t slot);
  void insert_node(Node* node);
  // Drops leading cancelled nodes of `bucket`, returning the live head.
  Node* clean_head(size_t bucket);
  // Walks the wheel from the cursor to the earliest live node; advances
  // the cursor over exhausted virtual buckets. nullptr when empty.
  Node* find_min();
  void resize(size_t want_buckets);

  std::vector<Node*> buckets_;
  size_t mask_ = 0;
  double tick_us_;
  uint64_t cur_vb_ = 0;  // next virtual bucket to scan

  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_nodes_ = nullptr;

  std::vector<SlotRec> slots_;
  std::vector<uint32_t> free_slots_;

  size_t live_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t scheduled_ = 0;
  uint64_t executed_ = 0;
  uint64_t cancelled_count_ = 0;
  uint64_t resizes_ = 0;
  uint64_t direct_searches_ = 0;
};

}  // namespace nmad::runtime
