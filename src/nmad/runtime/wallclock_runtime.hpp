// WallClockRuntime: real time for real transports.
//
// now_us() is steady_clock microseconds since construction; timers live
// in a hashed TimerWheel. There is no background thread: timers fire in
// advance(), on the thread that drives the engine (a waiter or a drain),
// so wall-clock timers — acks, heartbeats, deadlines — run only while
// some thread waits on or drains this endpoint.
//
// The runtime also provides the exec lock (IExecLock) of its endpoint.
// Every engine entry — isend/irecv/release, Core::poll, advance() — holds
// it, so the engine stays single-threaded by contract: exactly one thread
// is ever inside a Core. The lock only serialises waiters that run at
// once; try_lock lets a waiter help another endpoint without queueing.
//
// Host cost modelling is a no-op here: the host really performs the
// memcpys, so charge()/charge_memcpy() just return the current time.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

#include "nmad/runtime/runtime.hpp"
#include "nmad/runtime/timer_wheel.hpp"

namespace nmad::runtime {

class WallClockRuntime final : public IRuntime, public IExecLock {
 public:
  struct Options {
    double tick_us = 50.0;  // timer-wheel bucket width
    uint32_t local_id = 0;
    uint32_t incarnation = 0;
  };

  WallClockRuntime() : WallClockRuntime(Options{}) {}
  explicit WallClockRuntime(Options options);

  WallClockRuntime(const WallClockRuntime&) = delete;
  WallClockRuntime& operator=(const WallClockRuntime&) = delete;

  // IRuntime: every call below expects the exec lock held (or a single
  // thread owning the endpoint outright).
  [[nodiscard]] double now_us() const override;
  TimerId schedule_at(double at_us, TimerFn fn) override;
  TimerId schedule_after(double delay_us, TimerFn fn) override;
  void defer(TimerFn fn) override;
  void cancel(TimerId id) override;
  [[nodiscard]] uint32_t local_id() const override { return local_id_; }
  [[nodiscard]] uint32_t incarnation() const override {
    return incarnation_;
  }
  [[nodiscard]] ICpuCharge& cpu() override { return cpu_; }
  [[nodiscard]] TimerStats timer_stats() const override {
    return wheel_.stats();
  }
  // Fires, in place, every timer due when the call starts; a timer a
  // callback arms for "now" waits for the next call. Real time passes on
  // its own, so the answer is always "maybe more progress": callers
  // bound their waits with deadlines, not with this return value.
  bool advance() override;

  // IExecLock (plus try_lock, so the runtime is a std Lockable).
  void lock() override { exec_mu_.lock(); }
  void unlock() override { exec_mu_.unlock(); }
  [[nodiscard]] bool try_lock() { return exec_mu_.try_lock(); }

 private:
  class NullCpu final : public ICpuCharge {
   public:
    explicit NullCpu(WallClockRuntime& rt) : rt_(rt) {}
    double charge(double) override { return rt_.now_us(); }
    double charge_memcpy(size_t) override { return rt_.now_us(); }

   private:
    WallClockRuntime& rt_;
  };

  const std::chrono::steady_clock::time_point epoch_;
  const uint32_t local_id_;
  const uint32_t incarnation_;
  NullCpu cpu_;
  TimerWheel wheel_;     // guarded by exec_mu_, like the engine
  std::mutex exec_mu_;   // serializes all engine entry (see header)
};

}  // namespace nmad::runtime
