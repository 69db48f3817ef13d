#include "sim/fiber.hpp"

#include <cstdint>

#include "util/check.hpp"

namespace repseq::sim {

void fiber_trampoline(Fiber* self);

// repseq_ctx_swap(void** save_sp, void* to_sp): pushes the SysV callee-saved
// registers plus the FPU/SSE control words onto the current stack, parks the
// resulting stack pointer in *save_sp, switches to to_sp and unwinds the
// same frame there.  Everything caller-saved is dead across the call by the
// ABI, so this is a complete context switch -- without the two
// rt_sigprocmask syscalls libc's context switch performs.
//
// repseq_ctx_entry is the ret target of a freshly initialized frame: it
// moves the Fiber* (planted in the r12 slot) into the argument register,
// realigns the stack and enters the C++ trampoline, which never returns.
asm(R"(
.text
.globl repseq_ctx_swap
.type repseq_ctx_swap,@function
.align 16
repseq_ctx_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq  $8, %rsp
    stmxcsr 4(%rsp)
    fnstcw  (%rsp)
    movq  %rsp, (%rdi)
    movq  %rsi, %rsp
    fldcw   (%rsp)
    ldmxcsr 4(%rsp)
    addq  $8, %rsp
    popq  %r15
    popq  %r14
    popq  %r13
    popq  %r12
    popq  %rbx
    popq  %rbp
    retq
.size repseq_ctx_swap,.-repseq_ctx_swap

.globl repseq_ctx_entry
.type repseq_ctx_entry,@function
.align 16
repseq_ctx_entry:
    movq  %r12, %rdi
    andq  $-16, %rsp
    callq repseq_fiber_trampoline
    ud2
.size repseq_ctx_entry,.-repseq_ctx_entry
)");

extern "C" {
void repseq_ctx_swap(void** save_sp, void* to_sp);
void repseq_ctx_entry();

void repseq_fiber_trampoline(repseq::sim::Fiber* self) { fiber_trampoline(self); }
}

void fiber_trampoline(Fiber* self) {
#if REPSEQ_FIBER_ASAN
  // First run on this stack: completes resume()'s switch and learns the
  // engine's stack, the one every later yield() returns to.
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_return_bottom_, &self->asan_return_size_);
#endif
  try {
    self->fn_();
  } catch (...) {
    self->failure_ = std::current_exception();
  }
  self->finished_ = true;
  // Final switch back to the engine; this frame is abandoned.  A null
  // fake-stack slot tells ASan the fiber is done, so it frees the fiber's
  // fake stack.
#if REPSEQ_FIBER_ASAN
  __sanitizer_start_switch_fiber(nullptr, self->asan_return_bottom_, self->asan_return_size_);
#endif
#if REPSEQ_FIBER_TSAN
  __tsan_switch_to_fiber(self->tsan_return_fiber_, 0);
#endif
  void* dead = nullptr;
  repseq_ctx_swap(&dead, self->return_sp_);
  REPSEQ_CHECK(false, "finished fiber resumed");
}

void Fiber::init_context() {
  // Frame layout consumed by repseq_ctx_swap's restore path, from the
  // switch stack pointer upward: [fcw|mxcsr] r15 r14 r13 r12 rbx rbp ret.
  auto top =
      reinterpret_cast<std::uintptr_t>(stack_.get() + kStackBytes) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uintptr_t*>(top) - 8;
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  frame[0] = static_cast<std::uintptr_t>(fcw) | (static_cast<std::uintptr_t>(mxcsr) << 32);
  frame[1] = 0;                                      // r15
  frame[2] = 0;                                      // r14
  frame[3] = 0;                                      // r13
  frame[4] = reinterpret_cast<std::uintptr_t>(this); // r12 -> trampoline argument
  frame[5] = 0;                                      // rbx
  frame[6] = 0;                                      // rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&repseq_ctx_entry);
  switch_sp_ = frame;
}

Fiber::Fiber(std::string name, Fn fn)
    : name_(std::move(name)), fn_(std::move(fn)), stack_(new char[kStackBytes]) {
  REPSEQ_CHECK(fn_ != nullptr, "fiber requires a body");
}

Fiber::~Fiber() {
  // A fiber destroyed while suspended simply abandons its stack; the engine
  // only does this after `run()` has drained, so no cleanup runs mid-flight.
#if REPSEQ_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::resume() {
  REPSEQ_CHECK(current_ == nullptr, "resume() must be called from the engine context");
  REPSEQ_CHECK(!finished_, "cannot resume a finished fiber: " + name_);
  if (!started_) {
    started_ = true;
    init_context();
  }
  current_ = this;
#if REPSEQ_FIBER_TSAN
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  tsan_return_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if REPSEQ_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, stack_.get(), kStackBytes);
#endif
  repseq_ctx_swap(&return_sp_, switch_sp_);
#if REPSEQ_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  current_ = nullptr;
}

void Fiber::yield() {
  Fiber* self = current_;
  REPSEQ_CHECK(self != nullptr, "yield() must be called from inside a fiber");
  current_ = nullptr;
#if REPSEQ_FIBER_TSAN
  __tsan_switch_to_fiber(self->tsan_return_fiber_, 0);
#endif
#if REPSEQ_FIBER_ASAN
  void* fake = nullptr;
  __sanitizer_start_switch_fiber(&fake, self->asan_return_bottom_, self->asan_return_size_);
#endif
  repseq_ctx_swap(&self->switch_sp_, self->return_sp_);
#if REPSEQ_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  current_ = self;
}

void Fiber::rethrow_if_failed() {
  if (failure_) {
    std::exception_ptr e = failure_;
    failure_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace repseq::sim
