#pragma once

/// \file task.hpp
/// C++20 coroutine task type for the simulation. Model code (transactions,
/// protocol exchanges, disk requests) is written as straight-line coroutines
/// that `co_await` simulated delays, locks, messages, and CPU work. The
/// entire simulation is single-threaded; no synchronization is needed.

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"

namespace dclue::sim {

template <typename T = void>
class Task;

namespace detail {

/// Routes coroutine-frame allocation through the thread-local FramePool.
/// Declared on the promise types, so the compiler's frame new/delete calls
/// recycle frames instead of hitting malloc per spawned activity (the
/// datapath creates several per simulated segment). The sized delete gives
/// the pool the class back without a header.
///
/// Both are defined out of line (task.cpp), so a coroutine's ramp and its
/// cleanup path call this pair by name. Inlined, the pool's ::operator new
/// would meet the class-scope delete in the ramp's cleanup, a pairing that
/// GCC reports as a mismatched new/delete.
struct PooledFrame {
  static void* operator new(std::size_t n);
  static void operator delete(void* p, std::size_t n) noexcept;
};

struct PromiseBase : PooledFrame {
  std::coroutine_handle<> continuation;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }

  std::exception_ptr exception;
};

}  // namespace detail

/// A lazily-started coroutine returning T. Awaiting it starts it and resumes
/// the awaiter when it completes (symmetric transfer, so long co_await chains
/// do not grow the machine stack).
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  T await_resume() {
    if (handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
    return std::move(*handle_.promise().value);
  }

 private:
  friend class TaskRunner;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) handle_.destroy();
  }
  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    if (handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
  }

 private:
  friend struct DetachedTask;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) handle_.destroy();
  }
  std::coroutine_handle<promise_type> handle_;
};

/// Fire-and-forget root coroutine: owns a Task<void> to completion and then
/// destroys itself. An unhandled exception in detached model code is a bug in
/// the model, so it terminates the process with the active exception visible.
struct DetachedTask {
  struct promise_type : detail::PooledFrame {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

/// Start \p task now as an independent activity (the moral equivalent of
/// spawning a process in OPNET). The task body runs until its first suspend.
inline DetachedTask spawn(Task<void> task) {
  co_await std::move(task);
}

/// Awaitable that suspends the current coroutine for \p delay simulated
/// seconds: `co_await delay_for(engine, 5_ms);`
class DelayAwaiter {
 public:
  DelayAwaiter(Engine& engine, Duration delay) : engine_(engine), delay_(delay) {}
  bool await_ready() const noexcept { return delay_ <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) {
    engine_.after(delay_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Engine& engine_;
  Duration delay_;
};

inline DelayAwaiter delay_for(Engine& engine, Duration delay) {
  return DelayAwaiter{engine, delay};
}

}  // namespace dclue::sim
