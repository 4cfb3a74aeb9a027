#pragma once

#include <cstdint>

namespace perfbench {

/// Counts calls to the global operator new (every form: plain, array,
/// nothrow, aligned) made by the calling thread while counting is on. The
/// benchmark binary replaces the global allocation functions
/// (alloc_counter.cpp), so the count covers the simulator library and the
/// standard library alike. The simulator runs on the benchmark's main
/// thread (sequential engine), which is the only thread that counts.
class AllocCounter {
 public:
  /// Starts counting from zero.
  static void start();
  /// Stops counting and returns the allocations since start().
  static std::uint64_t stop();
};

/// RAII form: counts over the enclosing scope and stores the result.
class AllocScope {
 public:
  explicit AllocScope(std::uint64_t& out) : out_(out) { AllocCounter::start(); }
  ~AllocScope() { out_ = AllocCounter::stop(); }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  std::uint64_t& out_;
};

}  // namespace perfbench
