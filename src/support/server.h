// Connection bookkeeping for the Unix-socket daemon (DESIGN.md §5.14).
//
// The resident scan service (`refscan serve`, src/serve) is an accept loop
// fanning connections out to threads, and it needs two lifecycle moves:
//
//   Stop   tear everything down now (tests, destructors): SHUT_RDWR every
//          live connection, join.
//   Drain  the SIGTERM path: stop accepting, let requests already received
//          finish and flush their replies, wake idle readers with SHUT_RD
//          (reads fail, in-flight writes still go out — no client is ever
//          left holding a half-written frame), bound the wait, escalate to
//          SHUT_RDWR only past the deadline.
//
// ConnectionRegistry owns that bookkeeping: live fds, their threads, and a
// condition variable counting active connection bodies so the drain wait is
// a timed wait, not a thread join (std::thread cannot timed-join). A thread
// whose body has returned is joined at the next Launch: until it is joined
// its stack stays mapped, so a daemon that kept every connection's thread
// until shutdown grew by the touched stack of each request it served.
//
// Contract: Launch/Add are only called while the owner's accept loop runs;
// the owner stops accepting before WaitIdle/JoinAll, so the thread list is
// stable by the time anyone joins it.

#ifndef REFSCAN_SUPPORT_SERVER_H_
#define REFSCAN_SUPPORT_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace refscan {

class ConnectionRegistry {
 public:
  ConnectionRegistry() = default;
  ConnectionRegistry(const ConnectionRegistry&) = delete;
  ConnectionRegistry& operator=(const ConnectionRegistry&) = delete;

  // Tracks a connection's raw fd for ShutdownAll. The fd must outlive its
  // registration: Remove before the owning OwnedFd closes, so a shutdown
  // never lands on a recycled descriptor.
  void Add(int fd);
  void Remove(int fd);

  // Spawns and tracks one connection thread. `body` runs on the new thread;
  // its completion is what WaitIdle observes. A template because the bodies
  // capture move-only OwnedFds, which std::function cannot hold.
  template <typename Body>
  void Launch(Body&& body) {
    for (std::thread& t : TakeFinished()) {
      t.join();  // its body has returned: this only reclaims the stack
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++active_;
    threads_.emplace_back([this, body = std::forward<Body>(body)]() mutable {
      body();
      std::lock_guard<std::mutex> done(mu_);
      --active_;
      finished_.push_back(std::this_thread::get_id());
      idle_cv_.notify_all();
    });
  }

  // shutdown(2) every registered fd with `how` (SHUT_RD to drain — wakes
  // parked readers while replies still flush — or SHUT_RDWR to cut hard).
  void ShutdownAll(int how);

  // Waits until every launched body has returned, at most `timeout_ms`
  // (0 = no wait, just poll). True = all idle.
  bool WaitIdle(uint32_t timeout_ms);

  // Joins every launched thread. Call only after the owner stopped
  // launching; blocks until the bodies return (pair with ShutdownAll).
  void JoinAll();

  size_t live_connections() const;

  // Threads launched and not yet joined (finished ones included).
  size_t tracked_threads() const;

 private:
  // Removes and returns the threads whose bodies have returned.
  std::vector<std::thread> TakeFinished();

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::vector<int> fds_;
  std::vector<std::thread> threads_;
  std::vector<std::thread::id> finished_;  // bodies returned, not yet joined
  size_t active_ = 0;
};

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_SERVER_H_
