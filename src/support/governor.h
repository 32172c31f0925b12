// Cooperative resource governors (DESIGN.md §5.9).
//
// Per-file budgets for the scan pipeline: a wall-clock deadline plus the
// size/depth/node caps declared in ScanOptions. Overruns raise
// ResourceLimitError, which the engine's per-file sandboxes convert into a
// quarantined FileFailure of kind kResourceLimit — no thread is ever
// killed, so locks, caches and the thread pool stay healthy.
//
// The deadline is thread-local: the sandbox running one file's parse or
// checking installs a ScopedDeadline, and the long loops underneath
// (parser statements, CFG lowering, per-function checking) poll it with
// CheckDeadline. Polls amortise the clock read over 8 calls; with the
// deadline disarmed a poll is one thread-local flag test.

#ifndef REFSCAN_SUPPORT_GOVERNOR_H_
#define REFSCAN_SUPPORT_GOVERNOR_H_

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace refscan {

// A per-file resource cap was exceeded (deadline, input size, AST depth or
// node count). Quarantined as FailureKind::kResourceLimit.
class ResourceLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class DeadlineExceeded : public ResourceLimitError {
 public:
  using ResourceLimitError::ResourceLimitError;
};

namespace governor_detail {

struct DeadlineState {
  std::chrono::steady_clock::time_point deadline{};
  bool armed = false;
  uint32_t tick = 0;
};

// constinit: a constant-initialized thread_local needs no dynamic-init
// wrapper, so every access is a plain TLS load (and UBSan sees no null
// wrapper result).
extern constinit thread_local DeadlineState g_deadline;

[[noreturn]] void ThrowDeadlineExceeded(const char* where);

}  // namespace governor_detail

// Installs a wall-clock budget for the current thread; 0 = no deadline.
// Nests: the previous state is restored on destruction.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(uint32_t budget_ms) : saved_(governor_detail::g_deadline) {
    if (budget_ms > 0) {
      governor_detail::g_deadline.deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
      governor_detail::g_deadline.armed = true;
      governor_detail::g_deadline.tick = 0;
    }
  }
  ~ScopedDeadline() { governor_detail::g_deadline = saved_; }

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  governor_detail::DeadlineState saved_;
};

// Cooperative poll. `where` names the loop for the diagnostic ("parser",
// "cfg", "checker").
inline void CheckDeadline(const char* where) {
  auto& st = governor_detail::g_deadline;
  if (!st.armed) {
    return;
  }
  if ((++st.tick & 7u) != 0) {
    return;
  }
  if (std::chrono::steady_clock::now() >= st.deadline) {
    governor_detail::ThrowDeadlineExceeded(where);
  }
}

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_GOVERNOR_H_
