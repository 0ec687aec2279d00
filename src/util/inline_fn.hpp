// Small-buffer-optimized move-only callable, the event-queue hot path's
// replacement for std::function<void()>.
//
// Every simulated frame delivery, tx-done and timer is one heap-allocated
// std::function with type-erased dispatch; at millions of events per
// second the allocator dominates. InlineFunction stores captures up to
// `Capacity` bytes inline (the engine's hot lambdas are measured under 64
// bytes) and falls back to the heap only for oversized captures — counted
// globally so the allocation-regression tests can assert the hot path
// never falls back.
//
// The signature is a template parameter (`InlineFunction<C, R(Args...)>`)
// so the driver seam's typed handoffs (rx packets, bulk deposits) share
// the same allocation-free machinery; `InlineFunction<C>` stays the
// historical void() shorthand used by the event queue.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace nmad::util {

// Number of InlineFunction constructions that spilled to the heap since
// process start. Relaxed atomic: wall-clock runs construct callables from
// every thread that waits on an endpoint, and the regression tests only
// compare snapshots taken at quiescent points.
inline std::atomic<uint64_t> g_inline_fn_heap_allocs{0};
[[nodiscard]] inline uint64_t inline_fn_heap_allocs() {
  return g_inline_fn_heap_allocs.load(std::memory_order_relaxed);
}

template <size_t Capacity, typename Sig = void()>
class InlineFunction;

template <size_t Capacity, typename R, typename... Args>
class InlineFunction<Capacity, R(Args...)> {
 public:
  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= Capacity &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      g_inline_fn_heap_allocs.fetch_add(1, std::memory_order_relaxed);
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args...);
    // Move-constructs dst from src and ends src's ownership; after
    // relocate only dst needs destroy().
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s, Args... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s, Args... args) -> R {
        return (**reinterpret_cast<Fn**>(s))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      [](void* s) { delete *reinterpret_cast<Fn**>(s); },
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[Capacity];
};

}  // namespace nmad::util
