// Cooperative fibers: one per simulated cluster node (plus one per request
// server).  The discrete-event engine is the only scheduler -- a fiber runs
// until it yields, so the simulation is single-threaded and deterministic.
//
// Context switching: one hand-rolled x86-64 SysV switch serves every build,
// sanitized or not, so x86-64 Linux is the supported host.  It saves only
// the callee-saved registers (~30ns); libc's context switch costs two
// rt_sigprocmask syscalls per switch, which dominated simulator sys time at
// 256+ nodes.
// The sanitizers learn of each switch from annotations (ASan's
// __sanitizer_*_switch_fiber, TSan's __tsan_*_fiber).
//
// Exceptions thrown inside a fiber are captured and rethrown on the
// engine's context when the fiber is reaped.
#pragma once

#if !defined(__x86_64__) || !defined(__linux__)
#error "sim::Fiber's context switch is x86-64 SysV (Linux) only"
#endif

#if defined(__has_feature)
#define REPSEQ_HAS_FEATURE(x) __has_feature(x)
#else
#define REPSEQ_HAS_FEATURE(x) 0
#endif

// AddressSanitizer tracks which stack is running (and, with
// detect_stack_use_after_return, each stack's fake frames); an unannotated
// switch loses track of it, and ASan cannot report on fiber frames.
#if defined(__SANITIZE_ADDRESS__) || REPSEQ_HAS_FEATURE(address_sanitizer)
#define REPSEQ_FIBER_ASAN 1
#include <sanitizer/common_interface_defs.h>
#else
#define REPSEQ_FIBER_ASAN 0
#endif

// ThreadSanitizer tracks a shadow stack per thread; an unannotated switch
// would corrupt it and report every fiber-to-fiber data flow as a race.
// The __tsan_*_fiber annotations tell it about each switch, so TSan runs
// see the simulator's fibers as what they are: one thread, many stacks.
#if defined(__SANITIZE_THREAD__) || REPSEQ_HAS_FEATURE(thread_sanitizer)
#define REPSEQ_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#else
#define REPSEQ_FIBER_TSAN 0
#endif

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace repseq::sim {

class Fiber {
 public:
  using Fn = std::function<void()>;

  static constexpr std::size_t kStackBytes = 512 * 1024;

  Fiber(std::string name, Fn fn);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from the engine context into this fiber.  Returns when the
  /// fiber yields or finishes.  Must not be called from inside a fiber.
  void resume();

  /// Switches from the current fiber back to the engine.  Must be called
  /// from inside a fiber.
  static void yield();

  /// The fiber currently executing, or nullptr when on the engine context.
  static Fiber* current() { return current_; }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Fiber-local storage slot: the DSM layer hangs the owning node's
  /// runtime here so application code can find "its" node without plumbing
  /// a context parameter through every call.
  void set_user_data(void* p) { user_data_ = p; }
  [[nodiscard]] void* user_data() const { return user_data_; }

  /// Perfetto process this fiber's trace events belong to (node id + 1; 0 =
  /// the cluster-global process).  Set alongside user_data by the DSM layer;
  /// kept separate because the engine cannot interpret user_data.
  void set_trace_pid(std::int32_t pid) { trace_pid_ = pid; }
  [[nodiscard]] std::int32_t trace_pid() const { return trace_pid_; }

  /// Rethrows the exception (if any) that escaped the fiber body.
  void rethrow_if_failed();

 private:
  friend void fiber_trampoline(Fiber*);
  // The fiber running now; nullptr on the engine's stack.  Single-threaded
  // by design.  Inline, so asking is a thread-local load, not a call.
  static inline thread_local Fiber* current_ = nullptr;

  /// Lays out the initial frame so the first switch "returns" into the
  /// trampoline with this fiber as its argument.
  void init_context();

  void* switch_sp_ = nullptr;  // saved stack pointer while suspended
  void* return_sp_ = nullptr;  // engine-side stack pointer while running
#if REPSEQ_FIBER_ASAN
  // The engine's stack, which yield() and the final switch hand back to
  // ASan; learned from the first switch into this fiber.
  const void* asan_return_bottom_ = nullptr;
  std::size_t asan_return_size_ = 0;
#endif
#if REPSEQ_FIBER_TSAN
  void* tsan_fiber_ = nullptr;         // TSan's per-fiber shadow state
  void* tsan_return_fiber_ = nullptr;  // the context resume() switched from
#endif

  std::string name_;
  Fn fn_;
  // Uninitialized on purpose: a zero-filled std::vector would touch (and
  // memset) every stack page up front, which at 1024 nodes x 512KB is real
  // startup cost; malloc leaves large blocks as lazily-mapped zero pages.
  std::unique_ptr<char[]> stack_;
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr failure_{};
  void* user_data_ = nullptr;
  std::int32_t trace_pid_ = 0;
};

}  // namespace repseq::sim
