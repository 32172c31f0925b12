#include "src/support/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace refscan {

void ConnectionRegistry::Add(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  fds_.push_back(fd);
}

void ConnectionRegistry::Remove(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  fds_.erase(std::remove(fds_.begin(), fds_.end(), fd), fds_.end());
}

void ConnectionRegistry::ShutdownAll(int how) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const int fd : fds_) {
    ::shutdown(fd, how);
  }
}

bool ConnectionRegistry::WaitIdle(uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] { return active_ == 0; });
}

void ConnectionRegistry::JoinAll() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
    finished_.clear();
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

std::vector<std::thread> ConnectionRegistry::TakeFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::thread> done;
  for (const std::thread::id id : finished_) {
    const auto it = std::find_if(threads_.begin(), threads_.end(),
                                 [id](const std::thread& t) { return t.get_id() == id; });
    if (it != threads_.end()) {
      done.push_back(std::move(*it));
      threads_.erase(it);
    }
  }
  finished_.clear();
  return done;
}

size_t ConnectionRegistry::live_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

size_t ConnectionRegistry::tracked_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

}  // namespace refscan
