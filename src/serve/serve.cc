#include "src/serve/serve.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "src/ipa/summary.h"
#include "src/serve/protocol.h"
#include "src/support/faultinject.h"
#include "src/support/strings.h"
#include "src/support/threadpool.h"

namespace refscan {

namespace {

// How often the accept loop re-checks stopping_ and the watchdog re-checks
// deadlines. Bounds shutdown latency, not request latency.
constexpr int kAcceptPollMs = 200;
constexpr int kWatchdogPollMs = 25;

std::string_view RequestName(uint8_t type) {
  switch (type) {
    case kServeScanReq:
      return "scan";
    case kServeStatsReq:
      return "stats";
    case kServeSummariesReq:
      return "summaries";
    case kServeHealthReq:
      return "health";
    default:
      return "unknown";
  }
}

}  // namespace

ScanServer::ScanServer(ServeConfig config)
    : config_(std::move(config)), store_(std::make_shared<MemoryStore>()) {
  config_.sessions = std::max<size_t>(config_.sessions, 1);
}

ScanServer::~ScanServer() { Stop(); }

bool ScanServer::Start(std::string* error) {
  listen_fd_ = UnixListen(config_.socket_path, error);
  if (!listen_fd_.valid()) {
    return false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  return true;
}

void ScanServer::Stop() {
  if (stopped_.exchange(true)) {
    return;
  }
  stopping_.store(true, std::memory_order_relaxed);
  aborting_.store(true, std::memory_order_relaxed);
  session_cv_.notify_all();
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listen_fd_.Reset();
  ::unlink(config_.socket_path.c_str());
  conns_.ShutdownAll(SHUT_RDWR);
  conns_.JoinAll();
  watchdog_stop_.store(true, std::memory_order_relaxed);
  if (watchdog_thread_.joinable()) {
    watchdog_thread_.join();
  }
}

bool ScanServer::Drain() {
  if (stopped_.exchange(true)) {
    return true;
  }
  stopping_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  listen_fd_.Reset();
  ::unlink(config_.socket_path.c_str());
  // SHUT_RD wakes every idle reader while leaving writes open: requests
  // already received keep draining through the session semaphore and flush
  // their replies. Only past the budget do we cut writes too — and release
  // any session waiter, or JoinAll would park behind it forever.
  conns_.ShutdownAll(SHUT_RD);
  const bool clean = conns_.WaitIdle(config_.drain_timeout_ms);
  if (!clean) {
    aborting_.store(true, std::memory_order_relaxed);
    session_cv_.notify_all();
    conns_.ShutdownAll(SHUT_RDWR);
  }
  conns_.JoinAll();
  watchdog_stop_.store(true, std::memory_order_relaxed);
  if (watchdog_thread_.joinable()) {
    watchdog_thread_.join();
  }
  return clean;
}

ScanServer::Counters ScanServer::counters() const {
  Counters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.scans = scans_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.faulted = faulted_.load(std::memory_order_relaxed);
  c.timed_out = timed_out_.load(std::memory_order_relaxed);
  return c;
}

ScanStats ScanServer::last_scan_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return last_stats_;
}

void ScanServer::AcceptLoop() {
  uint64_t accepted = 0;
  while (!stopping_.load(std::memory_order_relaxed)) {
    OwnedFd conn = UnixAccept(listen_fd_.get(), kAcceptPollMs);
    if (!conn.valid()) {
      continue;  // timeout or transient error; re-check stopping_
    }
    ++accepted;
    try {
      MaybeFault("serve.accept", std::to_string(accepted));
    } catch (const FaultInjected&) {
      continue;  // injected accept failure: drop the connection on the floor
    }
    if (conns_.live_connections() >= config_.sessions + config_.max_pending) {
      // Admission queue full: shed with an explicit busy reply so the
      // client backs off instead of parking in our accept backlog. Count
      // before sending — a client that has the busy reply in hand must
      // already see it in the counters.
      shed_.fetch_add(1, std::memory_order_relaxed);
      SendFrame(conn.get(), kServeBusy, "server busy");
      continue;
    }
    conns_.Add(conn.get());
    conns_.Launch([this, c = std::move(conn)]() mutable { ServeConn(std::move(c)); });
  }
}

void ScanServer::WatchdogLoop() {
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::shared_ptr<ReplyState>> overdue;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      for (const Pending& p : pending_) {
        if (now >= p.deadline) {
          overdue.push_back(p.reply);
        }
      }
    }
    for (const std::shared_ptr<ReplyState>& rs : overdue) {
      std::lock_guard<std::mutex> lock(rs->mu);
      if (rs->replied) {
        continue;
      }
      rs->replied = true;
      // Count before sending: a client holding the deadline reply must
      // already see it in the counters.
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      SendFrame(rs->fd, kServeErr, "request deadline exceeded");
      // Sever the connection: the hung session thread's eventual result is
      // discarded, and the client is not left waiting on a dead session.
      ::shutdown(rs->fd, SHUT_RDWR);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kWatchdogPollMs));
  }
}

bool ScanServer::AcquireSession() {
  std::unique_lock<std::mutex> lock(session_mu_);
  session_cv_.wait(lock, [this] {
    return active_sessions_ < config_.sessions || aborting_.load(std::memory_order_relaxed);
  });
  if (aborting_.load(std::memory_order_relaxed)) {
    return false;
  }
  ++active_sessions_;
  return true;
}

void ScanServer::ReleaseSession() {
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    --active_sessions_;
  }
  session_cv_.notify_one();
}

void ScanServer::Reply(ReplyState& rs, uint8_t type, const std::string& payload) {
  std::lock_guard<std::mutex> lock(rs.mu);
  if (rs.replied) {
    return;  // the watchdog answered (and severed) this one already
  }
  rs.replied = true;
  SendFrame(rs.fd, type, payload);
}

void ScanServer::ServeConn(OwnedFd conn) {
  uint8_t type = 0;
  std::string payload;
  while (RecvFrame(conn.get(), type, payload) == RecvOutcome::kFrame) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    auto rs = std::make_shared<ReplyState>();
    rs->fd = conn.get();
    if (config_.request_timeout_ms > 0) {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_.push_back(Pending{
          rs, std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(config_.request_timeout_ms)});
    }
    if (!AcquireSession()) {
      Reply(*rs, kServeErr, "server draining");
    } else {
      uint8_t reply_type = kServeText;
      std::string reply;
      try {
        MaybeFault("serve.request", std::string(RequestName(type)));
        switch (type) {
          case kServeScanReq:
            reply = HandleScan(payload, reply_type);
            break;
          case kServeStatsReq:
            reply = HandleStats();
            break;
          case kServeSummariesReq:
            reply = HandleSummaries(payload, reply_type);
            break;
          case kServeHealthReq:
            reply = "ok";
            break;
          default:
            reply_type = kServeErr;
            reply = StrFormat("unknown request type %u", type);
            break;
        }
      } catch (const std::exception& e) {
        // Request isolation: whatever escaped the scan sandbox fails THIS
        // request; the store, the connection, and every other session are
        // untouched.
        faulted_.fetch_add(1, std::memory_order_relaxed);
        reply_type = kServeErr;
        reply = e.what();
      } catch (...) {
        faulted_.fetch_add(1, std::memory_order_relaxed);
        reply_type = kServeErr;
        reply = "unknown exception";
      }
      Reply(*rs, reply_type, reply);
      ReleaseSession();
    }
    if (config_.request_timeout_ms > 0) {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                    [&](const Pending& p) { return p.reply == rs; }),
                     pending_.end());
    }
  }
  conns_.Remove(conn.get());
}

void SanitizeRequestOptions(ScanOptions& options, const ServeConfig& config,
                            std::shared_ptr<ObjectStore> store) {
  // Requests scan against the resident store, never a path or socket of
  // the client's choosing, and a client fault spec must not arm sites in
  // the server process beyond its own request... which is exactly what
  // ScanOptions::fault_spec would do (ScopedFaultArm is process-global for
  // the scan's duration). Strip it: fault injection into the server is the
  // server operator's knob (REFSCAN_FAULTS / serve.* sites).
  ClearScanLocations(options);
  options.object_store = std::move(store);
  options.fault_spec.clear();
  if (config.request_timeout_ms > 0) {
    options.file_timeout_ms = options.file_timeout_ms == 0
                                  ? config.request_timeout_ms
                                  : std::min(options.file_timeout_ms, config.request_timeout_ms);
  }
  const size_t cap = ThreadPool::ResolveJobs(config.jobs);
  options.jobs = options.jobs == 0 ? cap : std::min(options.jobs, cap);
}

std::string ScanServer::HandleScan(std::string_view payload, uint8_t& type) {
  SourceTree tree;
  ScanOptions options;
  if (!DecodeScanRequest(payload, tree, options)) {
    type = kServeErr;
    return "malformed scan request";
  }
  SanitizeRequestOptions(options, config_, store_);
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  const ScanResult result = engine.Scan(tree);
  scans_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_stats_ = result.stats;
  }
  type = kServeScanResp;
  return EncodeScanResult(result);
}

std::string ScanServer::HandleStats() const {
  const Counters c = counters();
  const ScanStats stats = last_scan_stats();
  std::string out = "{";
  out += StrFormat("\"requests\":%llu,\"scans\":%llu,\"shed\":%llu,\"faulted\":%llu,",
                   static_cast<unsigned long long>(c.requests),
                   static_cast<unsigned long long>(c.scans),
                   static_cast<unsigned long long>(c.shed),
                   static_cast<unsigned long long>(c.faulted));
  out += StrFormat("\"timed_out\":%llu,\"store_objects\":%zu,\"store_bytes\":%llu,",
                   static_cast<unsigned long long>(c.timed_out), store_->objects(),
                   static_cast<unsigned long long>(store_->bytes()));
  out += "\"last_scan\":{";
  bool first = true;
  for (const ScanStatsField& f : ScanStatsFields()) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrFormat("\"%s\":%zu", f.json_key, stats.*f.member);
  }
  out += "}}\n";
  return out;
}

std::string ScanServer::HandleSummaries(std::string_view payload, uint8_t& type) {
  SourceTree tree;
  ScanOptions options;
  if (!DecodeScanRequest(payload, tree, options)) {
    type = kServeErr;
    return "malformed summaries request";
  }
  // Same front half as `refscan summaries`: the request's dialects,
  // discovery and path cap, exactly as an --ipa scan applies them.
  SanitizeRequestOptions(options, config_, store_);
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  type = kServeText;
  return engine.Summarize(tree, SummariesToJson);
}

}  // namespace refscan
