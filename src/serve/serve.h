// `refscan serve` — the crash-tolerant resident scan service (DESIGN.md
// §5.14).
//
// A long-lived daemon that keeps the expensive per-tree state hot in one
// process — the content-addressed artifact store (KB snapshots, discovery
// facts, report shards in a MemoryStore) — and answers scan requests over
// the shared Unix-socket framing. The robustness envelope:
//
//   isolation     every request runs under the §5.9 per-file sandbox
//                 (deadlines, governors, quarantine) plus a per-request
//                 catch-all: a request that throws gets a kServeErr reply
//                 and the connection lives on; the resident store and every
//                 other request are untouched. Client-supplied fault specs
//                 and cache locations are stripped server-side — a tenant
//                 cannot arm faults in, or point I/O out of, the server —
//                 and a request's `jobs` is capped at ServeConfig::jobs.
//   deadlines     ServeConfig::request_timeout_ms folds into each request's
//                 per-file deadline (cooperative), and a watchdog thread
//                 backstops hung requests: past the deadline it sends
//                 kServeErr, marks the request answered, and severs the
//                 connection — the stuck session thread's eventual result
//                 is discarded (no thread is killed).
//   backpressure  at most `sessions` requests execute concurrently;
//                 `max_pending` more connections may wait. Beyond that the
//                 accept loop sheds with an immediate kServeBusy so clients
//                 back off instead of queueing unboundedly.
//   drain         Drain() stops accepting, lets in-flight requests finish
//                 and flush their replies (SHUT_RD leaves the write side
//                 open), and escalates to a hard close after
//                 drain_timeout_ms. The CLI runs it on SIGTERM/SIGINT.
//
// Fault-injection sites: `serve.accept` (accept loop, subject = decimal
// accept counter) drops the incoming connection; `serve.request` (dispatch,
// subject = request name) fails that one request with kServeErr.

#ifndef REFSCAN_SERVE_SERVE_H_
#define REFSCAN_SERVE_SERVE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/store.h"
#include "src/checkers/engine.h"
#include "src/support/ipc.h"
#include "src/support/server.h"

namespace refscan {

struct ServeConfig {
  std::string socket_path;
  size_t sessions = 2;             // concurrently executing requests
  size_t max_pending = 8;          // connections admitted beyond the sessions
  uint32_t request_timeout_ms = 0;  // 0 = no per-request deadline
  uint32_t drain_timeout_ms = 5000;
  // Thread cap of every request and of the watch loop (0 = all hardware
  // threads): a tenant's `jobs` never buys more.
  size_t jobs = 0;
};

// Prepares a decoded request's options for this server: attaches `store`,
// strips what a tenant must not control (cache locations, fault spec),
// folds config.request_timeout_ms into the per-file deadline, and resolves
// `jobs` to at most the config's cap (0 or anything above it becomes the
// cap). Pure: it starts no thread.
void SanitizeRequestOptions(ScanOptions& options, const ServeConfig& config,
                            std::shared_ptr<ObjectStore> store);

class ScanServer {
 public:
  explicit ScanServer(ServeConfig config);
  ~ScanServer();

  bool Start(std::string* error = nullptr);

  // Hard stop: sever every connection, join every thread. In-flight
  // requests lose their reply; use Drain for the graceful path.
  void Stop();

  // Graceful shutdown: stop accepting, let in-flight requests complete and
  // flush, escalate to a hard close after drain_timeout_ms. Returns true
  // when every session finished inside the budget. Idempotent with Stop.
  bool Drain();

  // The resident artifact store every request scans against. Exposed so the
  // watch loop and benchmarks share the same warm cache.
  const std::shared_ptr<MemoryStore>& store() const { return store_; }

  struct Counters {
    uint64_t requests = 0;   // frames dispatched (any type)
    uint64_t scans = 0;      // kServeScanReq completed (degraded or not)
    uint64_t shed = 0;       // connections turned away with kServeBusy
    uint64_t faulted = 0;    // requests answered kServeErr from the sandbox
    uint64_t timed_out = 0;  // requests the watchdog gave up on
  };
  Counters counters() const;

  // Stats of the most recent completed scan request (for the stats reply).
  ScanStats last_scan_stats() const;

 private:
  // One per in-flight request: the reply slot the session thread and the
  // watchdog race for. Whoever flips `replied` under the mutex sends the
  // one reply frame; the loser discards.
  struct ReplyState {
    std::mutex mu;
    bool replied = false;
    int fd = -1;
  };
  struct Pending {
    std::shared_ptr<ReplyState> reply;
    std::chrono::steady_clock::time_point deadline;
  };

  void AcceptLoop();
  void WatchdogLoop();
  void ServeConn(OwnedFd conn);
  bool AcquireSession();
  void ReleaseSession();
  void Reply(ReplyState& rs, uint8_t type, const std::string& payload);

  std::string HandleScan(std::string_view payload, uint8_t& type);
  std::string HandleStats() const;
  std::string HandleSummaries(std::string_view payload, uint8_t& type);

  ServeConfig config_;
  std::shared_ptr<MemoryStore> store_;
  OwnedFd listen_fd_;
  std::thread accept_thread_;
  std::thread watchdog_thread_;
  ConnectionRegistry conns_;
  std::atomic<bool> stopping_{false};       // accept loop exits
  std::atomic<bool> watchdog_stop_{false};  // watchdog loop exits
  std::atomic<bool> aborting_{false};       // session waiters bail out
  std::atomic<bool> stopped_{false};        // Stop/Drain already ran

  std::mutex session_mu_;
  std::condition_variable session_cv_;
  size_t active_sessions_ = 0;

  std::mutex pending_mu_;
  std::vector<Pending> pending_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> scans_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> faulted_{0};
  std::atomic<uint64_t> timed_out_{0};

  mutable std::mutex stats_mu_;
  ScanStats last_stats_;
};

}  // namespace refscan

#endif  // REFSCAN_SERVE_SERVE_H_
