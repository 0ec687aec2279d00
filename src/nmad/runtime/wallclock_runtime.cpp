#include "nmad/runtime/wallclock_runtime.hpp"

#include <algorithm>

namespace nmad::runtime {

WallClockRuntime::WallClockRuntime(Options options)
    : epoch_(std::chrono::steady_clock::now()),
      local_id_(options.local_id),
      incarnation_(options.incarnation),
      cpu_(*this),
      wheel_(options.tick_us) {}

double WallClockRuntime::now_us() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(dt).count();
}

TimerId WallClockRuntime::schedule_at(double at_us, TimerFn fn) {
  return wheel_.schedule_at(std::max(at_us, 0.0), std::move(fn));
}

TimerId WallClockRuntime::schedule_after(double delay_us, TimerFn fn) {
  return schedule_at(now_us() + std::max(delay_us, 0.0), std::move(fn));
}

void WallClockRuntime::defer(TimerFn fn) {
  // A zero-delay timer: fires on the next advance(), off the caller's
  // stack.
  schedule_at(now_us(), std::move(fn));
}

void WallClockRuntime::cancel(TimerId id) { wheel_.cancel(id); }

bool WallClockRuntime::advance() {
  // Popping one timer at a time keeps sim-equivalent cancel semantics: a
  // callback cancelling a not-yet-fired due timer really stops it.
  const double now = now_us();
  for (;;) {
    TimerFn fn;
    if (!wheel_.pop_due(now, &fn)) return true;
    fn();
  }
}

}  // namespace nmad::runtime
