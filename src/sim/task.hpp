#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

// The poisoning macros expand to nothing unless AddressSanitizer is on.
#include <sanitizer/asan_interface.h>

namespace gemsd::sim {

class Scheduler;

namespace detail {

/// Coroutine-frame allocator owned by one Scheduler. Frames come from
/// size-class free lists carved out of 64 KiB chunks, so a steady-state run
/// recycles its frames instead of calling the global allocator for every
/// `Task` call. The pool serves frames only while its Scheduler is running
/// (FramePool::Use, set by run_until/run_all); a frame created outside a run,
/// or larger than the biggest size class, comes from the global heap. Each
/// block starts with a 16-byte header naming the pool that owns it (null for
/// the global heap), so a frame always goes back where it came from, whatever
/// pool is current when it is destroyed. Chunks are freed only with the pool:
/// nothing is shared between runs.
class FramePool {
 public:
  FramePool() = default;
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Makes `pool` the source of new frames on this thread for the lifetime
  /// of the guard; the previous one is restored on exit, so Schedulers that
  /// run nested or interleaved on one thread each keep their own frames.
  class Use {
   public:
    explicit Use(FramePool& pool) noexcept : prev_(current_) {
      current_ = &pool;
    }
    ~Use() { current_ = prev_; }
    Use(const Use&) = delete;
    Use& operator=(const Use&) = delete;

   private:
    FramePool* prev_;
  };

  static void* allocate(std::size_t n) {
    const std::size_t total = n + sizeof(Header);
    FramePool* pool = current_;
    Header* h;
    if (pool != nullptr && total <= kMaxBlock) {
      h = pool->take(size_class(total));
    } else {
      h = static_cast<Header*>(::operator new(total));
      pool = nullptr;
    }
    h->owner = pool;
    unpoison(h + 1, n);
    return h + 1;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    Header* h = static_cast<Header*>(p) - 1;
    const std::size_t total = n + sizeof(Header);
    if (h->owner == nullptr) {
      ::operator delete(h, total);
      return;
    }
    const std::size_t cls = size_class(total);
    poison(p, block_size(cls) - sizeof(Header));
    h->next_free = h->owner->free_[cls];
    h->owner->free_[cls] = h;
  }

  /// Chunks allocated so far.
  std::size_t chunks() const { return chunks_.size(); }
  /// The pool a live frame came from; null for the global heap.
  static const FramePool* owner(const void* frame) {
    return (static_cast<const Header*>(frame) - 1)->owner;
  }

 private:
  struct alignas(16) Header {
    FramePool* owner;   ///< null: the block came from the global heap
    Header* next_free;  ///< free-list link while the block is unused
  };

  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 32;
  static constexpr std::size_t kMaxBlock = kGranule * kClasses;  // 2 KiB
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  static std::size_t size_class(std::size_t total) {
    return (total - 1) / kGranule;
  }
  static std::size_t block_size(std::size_t cls) {
    return (cls + 1) * kGranule;
  }

  Header* take(std::size_t cls) {
    Header* h = free_[cls];
    if (h != nullptr) {
      free_[cls] = h->next_free;
      return h;
    }
    const std::size_t bytes = block_size(cls);
    if (static_cast<std::size_t>(end_ - bump_) < bytes) new_chunk();
    h = reinterpret_cast<Header*>(bump_);
    bump_ += bytes;
    unpoison(h, sizeof(Header));
    return h;
  }
  void new_chunk();

  // Under AddressSanitizer an unused block is poisoned, so touching a
  // destroyed frame is reported even though its memory stays in the pool.
  static void poison(void* p, std::size_t n) {
    ASAN_POISON_MEMORY_REGION(p, n);
  }
  static void unpoison(void* p, std::size_t n) {
    ASAN_UNPOISON_MEMORY_REGION(p, n);
  }

  static inline thread_local FramePool* current_ = nullptr;

  Header* free_[kClasses] = {};
  char* bump_ = nullptr;
  char* end_ = nullptr;
  std::vector<void*> chunks_;
};

/// Shared part of every task promise: the continuation to resume when the
/// coroutine finishes, or (for root processes) the scheduler that reaps the
/// finished frame and the links of its intrusive list of live roots.
class PromiseBase {
 public:
  std::coroutine_handle<> continuation;
  Scheduler* reaper = nullptr;  // set only on root (spawned) tasks
  PromiseBase* prev_root = nullptr;
  PromiseBase* next_root = nullptr;

  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept;
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  /// Simulation model code must not leak exceptions across scheduling
  /// boundaries; an escaping exception is a programming error.
  [[noreturn]] void unhandled_exception() noexcept {
    std::fputs("gemsd: unhandled exception escaped a simulation task\n",
               stderr);
    std::abort();
  }
};

}  // namespace detail

/// A lazily-started coroutine returning T. `co_await` on a Task starts it and
/// suspends the awaiter until the task completes; the result is moved out.
/// The Task object owns the coroutine frame (destroyed with the Task), so a
/// frame that awaits child tasks transitively owns them — destroying a
/// suspended root frame cascades cleanly at simulation teardown.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Transfer ownership of the frame (used by Scheduler::spawn).
  handle_type release() { return std::exchange(h_, {}); }

  bool valid() const { return static_cast<bool>(h_); }

  auto operator co_await() && {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // start the child coroutine
      }
      T await_resume() { return std::move(*h.promise().value); }
    };
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  handle_type h_{};
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
  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  handle_type release() { return std::exchange(h_, {}); }
  bool valid() const { return static_cast<bool>(h_); }

  auto operator co_await() && {
    struct Awaiter {
      handle_type h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() noexcept {}
    };
    return Awaiter{h_};
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  handle_type h_{};
};

}  // namespace gemsd::sim
