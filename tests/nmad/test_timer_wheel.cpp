// Property suite for the wall-clock timer wheel — the same contract the
// simulation's calendar queue is held to in test_event_queue_property:
// pop in (deadline, insertion-order) order, O(1) generation-fenced
// cancel, allocation-free steady state. The wheel is single-threaded by
// itself, so a seeded differential run against a sorted reference model
// pins the ordering exactly; WallClockRuntime fires timers only in
// advance(), pumped here by the test, so its schedule/cancel/defer
// surface is deterministic too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "nmad/runtime/timer_wheel.hpp"
#include "nmad/runtime/wallclock_runtime.hpp"
#include "util/inline_fn.hpp"
#include "util/rng.hpp"

namespace nmad::runtime {
namespace {

// Reference model: a plain vector ordered on demand by (at, seq).
struct ModelTimer {
  double at = 0.0;
  uint64_t seq = 0;
  uint64_t label = 0;
};

struct DiffResult {
  bool ok = true;
  size_t fail_op = 0;
  std::string what;
};

DiffResult run_diff(uint64_t seed, size_t nops, double tick_us) {
  util::Rng rng(seed);
  TimerWheel wheel(tick_us);
  std::vector<ModelTimer> model;
  std::vector<uint64_t> popped;
  std::vector<TimerId> ids;  // parallel to `model`
  double now = 0.0;
  uint64_t next_label = 0;
  uint64_t next_seq = 1;

  auto fail = [](size_t op, std::string what) {
    return DiffResult{false, op, std::move(what)};
  };
  auto model_min = [&model]() {
    return std::min_element(model.begin(), model.end(),
                            [](const ModelTimer& a, const ModelTimer& b) {
                              if (a.at != b.at) return a.at < b.at;
                              return a.seq < b.seq;
                            });
  };

  for (size_t op = 0; op < nops; ++op) {
    const uint64_t dice = rng.next_below(100);
    if (dice < 50 || model.empty()) {
      // Deadline shapes: near future, an exact tie with a pending timer,
      // already-due (at or before `now` — the wheel clamps these to the
      // cursor bucket), and rare far-future outliers many buckets out.
      double at;
      const uint64_t shape = rng.next_below(10);
      if (shape < 5 || model.empty()) {
        at = now + static_cast<double>(rng.next_below(1000)) * 0.25;
      } else if (shape < 7) {
        at = model[rng.next_below(model.size())].at;  // exact tie
        if (at < now) at = now;
      } else if (shape == 7) {
        at = now;  // due immediately, behind already-pending peers
      } else if (shape == 8) {
        at = now * 0.5;  // in the past: must still fire, clamped forward
      } else {
        at = now + 1e6 + static_cast<double>(rng.next_below(1000)) * 50.0;
      }
      const uint64_t label = next_label++;
      const TimerId id = wheel.schedule_at(
          at, [&popped, label] { popped.push_back(label); });
      if (id == 0) return fail(op, "schedule_at returned the 0 sentinel");
      ids.push_back(id);
      // The wheel keeps the raw deadline: clamping only moves the node
      // onto the cursor bucket, ordering stays (at, seq) over raw `at`.
      model.push_back(ModelTimer{at, next_seq++, label});
    } else if (dice < 70) {
      // Cancel a random pending timer.
      const size_t pick = rng.next_below(model.size());
      if (!wheel.cancel(ids[pick])) {
        return fail(op, "cancel of a live timer reported fenced");
      }
      ids[pick] = ids.back();
      ids.pop_back();
      model[pick] = model.back();
      model.pop_back();
    } else {
      // Pop one due timer, advancing the clock to the earliest deadline.
      const double deadline = wheel.next_deadline();
      if (model.empty()) {
        if (deadline != std::numeric_limits<double>::infinity()) {
          return fail(op, "next_deadline() finite on an empty wheel");
        }
      } else {
        const auto expect = model_min();
        if (deadline != expect->at) return fail(op, "next_deadline diverged");
        now = std::max(now, deadline);
        TimerFn fn;
        if (!wheel.pop_due(now, &fn)) {
          return fail(op, "pop_due refused a due timer");
        }
        fn();
        if (popped.empty() || popped.back() != expect->label) {
          return fail(op, "pop order diverged");
        }
        const size_t pick = static_cast<size_t>(expect - model.begin());
        ids[pick] = ids.back();
        ids.pop_back();
        model[pick] = model.back();
        model.pop_back();
      }
    }
    if (wheel.size() != model.size()) return fail(op, "size() diverged");
    if (wheel.empty() != model.empty()) return fail(op, "empty() diverged");
  }

  // Drain completely in deadline order.
  while (!model.empty()) {
    const auto expect = model_min();
    const double deadline = wheel.next_deadline();
    if (deadline != expect->at) return fail(nops, "drain deadline diverged");
    now = std::max(now, deadline);
    TimerFn fn;
    if (!wheel.pop_due(now, &fn)) return fail(nops, "drain pop_due refused");
    fn();
    if (popped.back() != expect->label) {
      return fail(nops, "drain pop order diverged");
    }
    model.erase(expect);
  }
  TimerFn leftover;
  if (wheel.pop_due(std::numeric_limits<double>::max(), &leftover)) {
    return fail(nops, "wheel still had timers after the model drained");
  }
  return DiffResult{};
}

TEST(TimerWheelProperty, DifferentialAgainstSortedModel) {
  for (uint64_t s = 0; s < 20; ++s) {
    const uint64_t seed = 0x9E3779B97F4A7C15ull * (s + 1);
    for (const double tick : {1.0, 50.0}) {
      const DiffResult full = run_diff(seed, 3000, tick);
      if (full.ok) continue;
      // Shrink to the shortest failing prefix for a minimal replay.
      size_t lo = 1;
      size_t hi = full.fail_op + 1;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (run_diff(seed, mid, tick).ok) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      FAIL() << "timer wheel diverged from the model: " << full.what
             << "\n  replay: run_diff(/*seed=*/" << seed << "u, /*nops=*/"
             << lo << ", /*tick_us=*/" << tick << ")";
    }
  }
}

// The engine's dominant shape: retransmit/deadline timers armed on every
// packet and almost always cancelled before firing.
TEST(TimerWheelProperty, CancelHeavyWorkload) {
  TimerWheel wheel(50.0);
  util::Rng rng(42);
  std::vector<uint64_t> fired;
  std::vector<uint64_t> expected;
  constexpr size_t kTimers = 50000;
  for (uint64_t i = 0; i < kTimers; ++i) {
    const double at = 100.0 + static_cast<double>(i) * 0.01;
    const TimerId id =
        wheel.schedule_at(at, [&fired, i] { fired.push_back(i); });
    if (rng.next_bool(0.95)) {
      EXPECT_TRUE(wheel.cancel(id));
    } else {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(wheel.size(), expected.size());
  TimerFn fn;
  while (wheel.pop_due(std::numeric_limits<double>::max(), &fn)) fn();
  EXPECT_EQ(fired, expected);
  const TimerStats stats = wheel.stats();
  EXPECT_EQ(stats.scheduled, kTimers);
  EXPECT_EQ(stats.executed, expected.size());
  EXPECT_EQ(stats.cancelled, kTimers - expected.size());
  EXPECT_EQ(stats.pending, 0u);
}

// Generation stamps fence every form of dead id: double cancel, cancel
// after fire, and a stale id whose slot was recycled by a newer timer.
TEST(TimerWheelProperty, CancelFencing) {
  TimerWheel wheel(50.0);
  int fired_a = 0;
  int fired_b = 0;

  const TimerId dup = wheel.schedule_at(1.0, [] {});
  EXPECT_TRUE(wheel.cancel(dup));
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_FALSE(wheel.cancel(dup));  // double cancel: fenced

  const TimerId fires = wheel.schedule_at(2.0, [&fired_a] { ++fired_a; });
  TimerFn fn;
  ASSERT_TRUE(wheel.pop_due(2.0, &fn));
  fn();
  EXPECT_EQ(fired_a, 1);
  EXPECT_FALSE(wheel.cancel(fires));  // already fired: fenced

  const TimerId fresh = wheel.schedule_at(3.0, [&fired_b] { ++fired_b; });
  ASSERT_NE(fresh, fires);
  EXPECT_FALSE(wheel.cancel(fires));  // stale generation: fenced
  EXPECT_EQ(wheel.size(), 1u);
  ASSERT_TRUE(wheel.pop_due(3.0, &fn));
  fn();
  EXPECT_EQ(fired_b, 1);

  EXPECT_NE(wheel.schedule_at(4.0, [] {}), 0u);  // ids are never zero
}

// Same-deadline bursts pop in submission order even when the burst
// forces bucket-array rebuilds.
TEST(TimerWheelProperty, TiesSurviveResize) {
  TimerWheel wheel(50.0);
  std::vector<int> order;
  constexpr int kBurst = 1000;
  for (int i = 0; i < kBurst; ++i) {
    wheel.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_GE(wheel.stats().resizes, 1u);
  TimerFn fn;
  while (wheel.pop_due(5.0, &fn)) fn();
  ASSERT_EQ(order.size(), static_cast<size_t>(kBurst));
  for (int i = 0; i < kBurst; ++i) EXPECT_EQ(order[i], i);
}

// Steady state is allocation-free once the slabs cover the population.
TEST(TimerWheelProperty, SteadyStateIsAllocationFree) {
  TimerWheel wheel(50.0);
  util::Rng rng(7);
  double now = 0.0;
  constexpr size_t kPending = 1024;
  for (size_t i = 0; i < kPending; ++i) {
    wheel.schedule_at(now + static_cast<double>(rng.next_below(5000)), [] {});
  }
  auto churn = [&](int rounds) {
    TimerFn fn;
    for (int i = 0; i < rounds; ++i) {
      now = wheel.next_deadline();
      ASSERT_TRUE(wheel.pop_due(now, &fn));
      fn();
      wheel.schedule_at(
          now + static_cast<double>(rng.next_below(5000)) + 0.1, [] {});
    }
  };
  churn(2000);
  const TimerStats warm = wheel.stats();
  const uint64_t spills = util::inline_fn_heap_allocs();
  churn(100000);
  const TimerStats steady = wheel.stats();
  EXPECT_EQ(steady.node_slabs, warm.node_slabs);
  EXPECT_EQ(steady.node_capacity, warm.node_capacity);
  EXPECT_EQ(steady.slot_capacity, warm.slot_capacity);
  EXPECT_EQ(steady.buckets, warm.buckets);
  EXPECT_EQ(steady.resizes, warm.resizes);
  EXPECT_EQ(util::inline_fn_heap_allocs(), spills);
  EXPECT_EQ(steady.pending, kPending);
}

// ---------------------------------------------------------------------
// WallClockRuntime: the IRuntime surface over the wheel, pumped
// deterministically by the test through advance().
// ---------------------------------------------------------------------

TEST(WallClockRuntime, ThreadlessScheduleCancelDefer) {
  WallClockRuntime rt;
  std::vector<int> order;

  // defer() is a timer dated now_us(); a timer dated 0.0 (the epoch,
  // i.e. further in the past) is due ahead of it despite being
  // submitted later — ordering is (deadline, submission).
  rt.defer([&order] { order.push_back(0); });
  rt.defer([&order] { order.push_back(1); });
  rt.schedule_at(0.0, [&order] { order.push_back(2); });
  const TimerId victim = rt.schedule_at(0.0, [&order] { order.push_back(99); });
  rt.cancel(victim);
  rt.cancel(victim);  // double cancel: fenced, no effect

  EXPECT_TRUE(rt.advance());
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));

  // A far-future timer does not fire until real time reaches it.
  const TimerId far = rt.schedule_after(60e6, [&order] { order.push_back(3); });
  rt.advance();
  EXPECT_EQ(order.size(), 3u);
  rt.cancel(far);
  rt.advance();
  EXPECT_EQ(order.size(), 3u);

  const TimerStats stats = rt.timer_stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.cancelled, 2u);
}

// A timer a callback arms for "now" waits for the next advance(): one
// call fires only what was due when it started, so a self-re-arming
// callback cannot pin the caller.
TEST(WallClockRuntime, AdvanceFiresOnlyWhatWasDueAtEntry) {
  WallClockRuntime rt;
  int fired = 0;
  rt.defer([&] {
    ++fired;
    rt.defer([&fired] { ++fired; });
  });
  rt.advance();
  EXPECT_EQ(fired, 1);
  rt.advance();
  EXPECT_EQ(fired, 2);
}

TEST(WallClockRuntime, ThreadlessNowIsMonotone) {
  WallClockRuntime rt;
  double last = rt.now_us();
  EXPECT_GE(last, 0.0);
  for (int i = 0; i < 1000; ++i) {
    const double now = rt.now_us();
    EXPECT_GE(now, last);
    last = now;
  }
}

// A timer scheduled slightly ahead fires once real time passes it, on
// the thread that calls advance().
TEST(WallClockRuntime, ThreadlessTimerFiresWhenDue) {
  WallClockRuntime rt;
  bool fired = false;
  rt.schedule_after(200.0, [&fired] { fired = true; });
  const double deadline = rt.now_us() + 5e6;
  while (!fired) {
    ASSERT_LT(rt.now_us(), deadline) << "timer never became due";
    rt.advance();
  }
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace nmad::runtime
