// Work-stealing thread pool and data-parallel helpers.
//
// The scan pipeline is embarrassingly parallel per file (parse, CFG/CPG
// build, checking), so the engine fans work out over a pool of workers and
// merges results in a deterministic order. The pool is general-purpose:
//
//   * `ThreadPool(n)` owns `n - 1` background workers; the thread calling
//     `ParallelFor`/`ParallelMap` participates as the n-th worker, so a
//     pool of parallelism 1 spawns no threads and runs everything inline
//     (zero overhead for the serial path, and trivially sanitizer-clean).
//   * Each worker owns a deque: `Submit` distributes round-robin, workers
//     pop their own deque LIFO and steal FIFO from victims when empty —
//     the classic work-stealing layout (Blumofe–Leiserson) that keeps hot
//     tasks cache-local while idle workers drain the longest queues.
//   * `ParallelFor(pool, begin, end, fn)` balances loop iterations over
//     the workers through a shared atomic cursor, so uneven per-item cost
//     (a 10-line header vs. a 4k-line driver) cannot stall the batch.
//
// `Submit`-level tasks must not throw (an escaping exception terminates);
// `ParallelFor`/`ParallelMap` iterations MAY throw: every iteration still
// runs, the barrier collects every exception, and one aggregate
// ParallelForError is raised after the batch completes — so a mid-batch
// throw can never leave a result vector partially spliced or a sibling
// iteration skipped. The scan pipeline additionally sandboxes per-file work
// (see engine.cc); the aggregate rethrow here is the backstop for internal
// bugs, not the primary failure channel.

#ifndef REFSCAN_SUPPORT_THREADPOOL_H_
#define REFSCAN_SUPPORT_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace refscan {

// Aggregate of every exception thrown by a ParallelFor batch. Raised only
// after all iterations have run (the barrier is never broken early), with
// the failing iterations listed in index order — deterministic at every
// thread count.
class ParallelForError : public std::runtime_error {
 public:
  ParallelForError(std::string what, std::vector<std::pair<size_t, std::string>> failures)
      : std::runtime_error(std::move(what)), failures_(std::move(failures)) {}

  // (iteration index, exception message), sorted by index.
  const std::vector<std::pair<size_t, std::string>>& failures() const { return failures_; }

 private:
  std::vector<std::pair<size_t, std::string>> failures_;
};

// The largest thread or process count a user may ask for (--jobs,
// --workers, serve's --jobs/--sessions/--max-pending). The CLI rejects
// anything above it as a usage error, so no flag can ask the pool for 2^64
// threads or wrap serve's admission arithmetic.
inline constexpr size_t kMaxParallelism = 1024;

class ThreadPool {
 public:
  // `parallelism` = total number of threads doing work, counting the caller
  // of ParallelFor/ParallelMap; 0 means one per hardware thread.
  explicit ThreadPool(size_t parallelism = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t parallelism() const { return parallelism_; }

  // Enqueues one task for the background workers. With parallelism 1 there
  // are no workers and the task runs inline, in the caller.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished.
  void WaitIdle();

  // Maps a `jobs` option to an effective parallelism: 0 becomes the
  // hardware thread count, anything else is clamped to >= 1.
  static size_t ResolveJobs(size_t jobs);

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> queue;
  };

  void WorkerLoop(size_t self);
  // Pops own work LIFO, else steals FIFO from another worker. Returns an
  // empty function when every queue is empty.
  std::function<void()> NextTask(size_t self);

  size_t parallelism_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> submit_cursor_{0};
  std::atomic<size_t> inflight_{0};  // queued + running tasks
  size_t ready_ = 0;                 // queued-not-yet-claimed; guarded by wake_mutex_
  bool stopping_ = false;
};

// Runs fn(i) for every i in [begin, end), spread over the pool's workers
// plus the calling thread. Iterations are claimed one at a time from a
// shared cursor, so long items load-balance; the call returns once every
// iteration has finished. fn must be safe to invoke concurrently. A
// throwing iteration does not stop the batch: every other iteration still
// runs, and the collected exceptions surface as one ParallelForError after
// the barrier (identical behaviour at parallelism 1).
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

// ParallelFor that materialises fn(i) into slot i of the result vector —
// output order is index order regardless of execution order, which is what
// keeps parallel scans byte-identical to serial ones.
template <typename Fn>
auto ParallelMap(ThreadPool& pool, size_t count, const Fn& fn)
    -> std::vector<decltype(fn(size_t{0}))> {
  std::vector<decltype(fn(size_t{0}))> out(count);
  ParallelFor(pool, 0, count, [&out, &fn](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace refscan

#endif  // REFSCAN_SUPPORT_THREADPOOL_H_
