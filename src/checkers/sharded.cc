#include "src/checkers/sharded.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include "src/cache/cache.h"
#include "src/cache/serial.h"
#include "src/checkers/scan_stages.h"
#include "src/support/faultinject.h"
#include "src/support/ipc.h"
#include "src/support/strings.h"
#include "src/support/threadpool.h"

namespace refscan {

namespace {

// Worker protocol frame types (sharded.h documents the exchange).
constexpr uint8_t kHello = 1;
constexpr uint8_t kJob = 2;
constexpr uint8_t kFacts = 3;
constexpr uint8_t kKb = 4;
constexpr uint8_t kResults = 5;

// How long the coordinator waits for each worker to connect. Generous:
// worker startup is exec + connect, not a scan.
constexpr int kAcceptTimeoutMs = 30000;

// Per-file failure + retried flag, shared by the kFacts and kResults
// payloads. The path never travels: the coordinator knows which global
// index each entry is, and fills paths from its own file list.
void WriteFileMeta(ByteWriter& w, const std::optional<FileFailure>& failure, bool retried) {
  w.Bool(failure.has_value());
  if (failure) {
    w.U8(static_cast<uint8_t>(failure->stage));
    w.U8(static_cast<uint8_t>(failure->kind));
    w.Str(failure->what);
    w.I32(failure->retries);
  }
  w.Bool(retried);
}

void ReadFileMeta(ByteReader& r, std::optional<FileFailure>& failure, bool& retried) {
  failure.reset();
  if (r.Bool()) {
    FileFailure f;
    f.stage = static_cast<FailureStage>(r.U8());
    f.kind = static_cast<FailureKind>(r.U8());
    f.what = r.Str();
    f.retries = r.I32();
    failure = std::move(f);
  }
  retried = r.Bool();
}

// ---- coordinator-side worker bookkeeping ------------------------------

struct WorkerHandle {
  pid_t pid = -1;
  OwnedFd conn;
  bool dead = false;
  std::string why;  // first transport/protocol error, quoted in quarantine
};

void MarkDead(WorkerHandle& w, std::string why) {
  if (!w.dead) {
    w.dead = true;
    w.why = std::move(why);
  }
  w.conn.Reset();
}

// Closes every connection (workers parked on RecvFrame see a clean EOF and
// exit 0) and reaps every child. Destructor-driven so no return path leaks
// zombies or the socket file.
struct FleetGuard {
  std::vector<WorkerHandle>* workers = nullptr;
  std::string socket_path;
  ~FleetGuard() {
    if (workers != nullptr) {
      for (WorkerHandle& w : *workers) {
        w.conn.Reset();
      }
      for (WorkerHandle& w : *workers) {
        if (w.pid > 0) {
          int status = 0;
          ::waitpid(w.pid, &status, 0);
        }
      }
    }
    if (!socket_path.empty()) {
      ::unlink(socket_path.c_str());
    }
  }
};

bool SpawnWorker(const std::string& worker_cmd, const std::string& socket_path, size_t id,
                 pid_t& pid) {
  const std::string id_str = std::to_string(id);
  pid = ::fork();
  if (pid < 0) {
    return false;
  }
  if (pid == 0) {
    ::execl(worker_cmd.c_str(), worker_cmd.c_str(), "worker", "--socket", socket_path.c_str(),
            "--id", id_str.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed; the coordinator sees a dead worker
  }
  return true;
}

// The --workers stage executor. Parse spawns one worker per shard, sends
// each its kJob and fills the engine's states from the kFacts frames; Check
// broadcasts the engine's frozen KB as kKb and fills the shards from the
// kResults frames. A worker that dies mid-protocol marks its whole shard
// lost and the fleet hangs up on the rest (parked workers see a clean EOF
// and exit 0); the engine then rescans the survivors in-process.
class WorkerFleet final : public ScanStageExecutor {
 public:
  WorkerFleet(const ShardedScanConfig& config, const ScanOptions& options, OwnedFd listener,
              std::string socket_path)
      : config_(config), options_(options), listener_(std::move(listener)) {
    guard_.workers = &workers_;
    guard_.socket_path = std::move(socket_path);
  }

  void Parse(const std::vector<const SourceFile*>& files, std::vector<FileScanState>& states,
             const ScanStageContext& ctx) override;
  std::vector<FileShard> Check(const std::vector<const SourceFile*>& files,
                               std::vector<FileScanState>& states, const KnowledgeBase& kb,
                               uint64_t kb_fp, const ScanStageContext& ctx) override;
  std::vector<LostFile> Lost() const override;
  size_t ForeignCorruptLoads() const override { return worker_corrupt_; }

 private:
  void Spawn(const std::vector<const SourceFile*>& files);
  // Receives one kFacts or kResults frame from every live worker, handing
  // each payload and shard to `read`, which returns false when malformed.
  template <typename ReadFn>
  void Collect(uint8_t type, ReadFn&& read);

  const ShardedScanConfig& config_;
  const ScanOptions& options_;
  OwnedFd listener_;
  std::vector<std::vector<size_t>> shards_;
  std::vector<WorkerHandle> workers_;
  FleetGuard guard_;  // declared after workers_: reaps before they go
  size_t worker_corrupt_ = 0;
};

void WorkerFleet::Spawn(const std::vector<const SourceFile*>& files) {
  shards_ = ShardFiles(files, config_.workers);
  const std::string& socket_path = guard_.socket_path;
  workers_.resize(shards_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!SpawnWorker(config_.worker_cmd, socket_path, i, workers_[i].pid)) {
      MarkDead(workers_[i], StrFormat("fork failed: %s", std::strerror(errno)));
    }
  }

  // Accept until every spawned worker has said kHello (they connect in any
  // order; the hello id routes each connection to its shard).
  size_t expected = 0;
  for (const WorkerHandle& w : workers_) {
    expected += w.dead ? 0 : 1;
  }
  std::string ipc_error;
  for (size_t accepted = 0; accepted < expected; ++accepted) {
    OwnedFd conn = UnixAccept(listener_.get(), kAcceptTimeoutMs, &ipc_error);
    if (!conn.valid()) {
      break;  // timeout/error: the workers that never arrived read as dead
    }
    uint8_t type = 0;
    std::string payload;
    if (RecvFrame(conn.get(), type, payload, &ipc_error) != RecvOutcome::kFrame ||
        type != kHello) {
      continue;  // not a worker of ours; drop the connection
    }
    ByteReader r(payload);
    const uint32_t id = r.U32();
    if (!r.ok() || id >= workers_.size() || workers_[id].conn.valid() || workers_[id].dead) {
      continue;
    }
    workers_[id].conn = std::move(conn);
  }
  for (WorkerHandle& w : workers_) {
    if (!w.dead && !w.conn.valid()) {
      MarkDead(w, "never connected");
    }
  }

  // kJob: options + the shard's files, in global order within the shard.
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].dead) {
      continue;
    }
    ByteWriter w;
    WriteScanOptionsWire(w, options_);
    w.U32(static_cast<uint32_t>(shards_[i].size()));
    for (const size_t idx : shards_[i]) {
      w.Str(files[idx]->path());
      w.Str(files[idx]->text());
    }
    if (!SendFrame(workers_[i].conn.get(), kJob, w.bytes(), &ipc_error)) {
      MarkDead(workers_[i], "send job: " + ipc_error);
    }
  }
}

template <typename ReadFn>
void WorkerFleet::Collect(uint8_t type, ReadFn&& read) {
  const char* stage = type == kFacts ? "parse" : "check";
  const char* frame = type == kFacts ? "facts" : "results";
  for (size_t i = 0; i < workers_.size(); ++i) {
    WorkerHandle& worker = workers_[i];
    if (worker.dead) {
      continue;
    }
    uint8_t got = 0;
    std::string payload;
    std::string ipc_error;
    if (RecvFrame(worker.conn.get(), got, payload, &ipc_error) != RecvOutcome::kFrame ||
        got != type) {
      MarkDead(worker, StrFormat("crashed in %s stage", stage));
      continue;
    }
    ByteReader r(payload);
    if (r.Count() != shards_[i].size()) {
      MarkDead(worker, StrFormat("%s frame: wrong file count", frame));
    } else if (!read(r, shards_[i]) || !r.ok()) {
      MarkDead(worker, StrFormat("%s frame: malformed payload", frame));
    }
  }
  if (std::any_of(workers_.begin(), workers_.end(), [](const WorkerHandle& w) { return w.dead; })) {
    for (WorkerHandle& w : workers_) {
      w.conn.Reset();
    }
  }
}

void WorkerFleet::Parse(const std::vector<const SourceFile*>& files,
                        std::vector<FileScanState>& states, const ScanStageContext& /*ctx*/) {
  Spawn(files);
  Collect(kFacts, [&](ByteReader& r, const std::vector<size_t>& shard) {
    for (const size_t idx : shard) {
      FileScanState& st = states[idx];
      ReadFileMeta(r, st.failure, st.retried);
      if (st.failure) {
        st.failure->path = files[idx]->path();
      }
      const std::string facts_bytes = r.Str();
      if (!r.ok()) {
        return false;
      }
      if (!facts_bytes.empty()) {
        std::optional<DiscoveryFacts> facts = DeserializeFacts(facts_bytes);
        if (!facts) {
          return false;
        }
        st.facts = std::move(*facts);
      }
    }
    return true;
  });
}

std::vector<FileShard> WorkerFleet::Check(const std::vector<const SourceFile*>& files,
                                          std::vector<FileScanState>& states,
                                          const KnowledgeBase& kb, uint64_t /*kb_fp*/,
                                          const ScanStageContext& /*ctx*/) {
  const std::string kb_bytes = SerializeKb(kb);
  std::string ipc_error;
  for (WorkerHandle& w : workers_) {
    if (!w.dead && !SendFrame(w.conn.get(), kKb, kb_bytes, &ipc_error)) {
      MarkDead(w, "send kb: " + ipc_error);
    }
  }
  // kResults carries each file's FINAL state: a stage-3 quarantine
  // overwrites what kFacts reported.
  std::vector<FileShard> out(files.size());
  Collect(kResults, [&](ByteReader& r, const std::vector<size_t>& shard) {
    for (const size_t idx : shard) {
      FileScanState& st = states[idx];
      ReadFileMeta(r, st.failure, st.retried);
      if (st.failure) {
        st.failure->path = files[idx]->path();
      }
      st.report_hit = r.Bool();
      st.parsed = r.Bool();
      const std::string reports_bytes = r.Str();
      if (!r.ok()) {
        return false;
      }
      if (!reports_bytes.empty()) {
        std::optional<CachedFileReports> reports = DeserializeReports(reports_bytes);
        if (!reports) {
          return false;
        }
        out[idx].raw = std::move(reports->reports);
        out[idx].functions = static_cast<size_t>(reports->functions);
        out[idx].degraded = std::move(reports->degraded);
      }
    }
    worker_corrupt_ += static_cast<size_t>(r.U64());
    return true;
  });
  return out;
}

std::vector<ScanStageExecutor::LostFile> WorkerFleet::Lost() const {
  std::vector<LostFile> lost;
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].dead) {
      for (const size_t idx : shards_[i]) {
        lost.push_back({idx, StrFormat("shard worker %zu died: %s", i, workers_[i].why.c_str())});
      }
    }
  }
  return lost;
}

}  // namespace

std::vector<std::vector<size_t>> ShardFiles(const std::vector<const SourceFile*>& files,
                                            size_t shards) {
  const size_t n = std::max<size_t>(1, std::min(shards, std::max<size_t>(files.size(), 1)));
  // Largest first (path breaks size ties), each onto the currently lightest
  // shard (index breaks load ties): classic LPT, fully deterministic.
  std::vector<size_t> order(files.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t sa = files[a]->text().size();
    const size_t sb = files[b]->text().size();
    if (sa != sb) {
      return sa > sb;
    }
    return files[a]->path() < files[b]->path();
  });
  std::vector<std::vector<size_t>> out(n);
  std::vector<uint64_t> load(n, 0);
  for (const size_t idx : order) {
    size_t lightest = 0;
    for (size_t s = 1; s < n; ++s) {
      if (load[s] < load[lightest]) {
        lightest = s;
      }
    }
    out[lightest].push_back(idx);
    load[lightest] += files[idx]->text().size();
  }
  for (std::vector<size_t>& shard : out) {
    std::sort(shard.begin(), shard.end());
  }
  return out;
}

ScanResult ShardedScan(const SourceTree& tree, const ScanOptions& options,
                       const ShardedScanConfig& config) {
  CheckerEngine engine(KnowledgeBase::BuiltIn(), options);
  if (tree.size() == 0 || config.workers == 0 || config.worker_cmd.empty()) {
    return engine.Scan(tree);
  }
  const std::string socket_dir = config.socket_dir.empty() ? "/tmp" : config.socket_dir;
  std::string socket_path =
      StrFormat("%s/refscan-shard-%d.sock", socket_dir.c_str(), static_cast<int>(::getpid()));
  std::string ipc_error;
  OwnedFd listener = UnixListen(socket_path, &ipc_error);
  if (!listener.valid()) {
    // Sharding is an execution strategy, not a result: infra trouble falls
    // back to the in-process pipeline rather than failing the scan.
    std::fprintf(stderr, "refscan: sharded scan unavailable (%s); running in-process\n",
                 ipc_error.c_str());
    return engine.Scan(tree);
  }
  WorkerFleet fleet(config, options, std::move(listener), std::move(socket_path));
  return engine.Scan(tree, &fleet);
}

int RunShardWorker(const std::string& socket_path, int worker_id) {
  std::string error;
  OwnedFd conn = UnixConnect(socket_path, &error);
  if (!conn.valid()) {
    std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
    return 1;
  }
  {
    ByteWriter hello;
    hello.U32(static_cast<uint32_t>(worker_id));
    if (!SendFrame(conn.get(), kHello, hello.bytes(), &error)) {
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
    }
  }

  uint8_t type = 0;
  std::string payload;
  switch (RecvFrame(conn.get(), type, payload, &error)) {
    case RecvOutcome::kFrame:
      break;
    case RecvOutcome::kClosed:
      return 0;  // coordinator gave up before assigning work — clean exit
    case RecvOutcome::kError:
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
  }
  if (type != kJob) {
    std::fprintf(stderr, "refscan worker %d: unexpected frame %u\n", worker_id, type);
    return 1;
  }
  ScanOptions options;
  SourceTree tree;
  {
    ByteReader r(payload);
    if (!ReadScanOptionsWire(r, options)) {
      std::fprintf(stderr, "refscan worker %d: malformed job options\n", worker_id);
      return 1;
    }
    const uint32_t nfiles = r.Count();
    for (uint32_t i = 0; r.ok() && i < nfiles; ++i) {
      std::string path = r.Str();
      std::string text = r.Str();
      tree.Add(std::move(path), std::move(text));
    }
    if (!r.ok()) {
      std::fprintf(stderr, "refscan worker %d: malformed job payload\n", worker_id);
      return 1;
    }
  }

  // Arm the coordinator's fault plan so worker-side sites (parser.*,
  // cache.*, checker.run, and the worker.facts / worker.results crash
  // points) fire in this process too. An injected worker.* fault throws out
  // of here to the CLI's fatal handler — indistinguishable from a crash,
  // which is the point. The coordinator's engine validated the spec before
  // any job went out.
  std::optional<ScopedFaultArm> fault_arm;
  if (!options.fault_spec.empty()) {
    fault_arm.emplace(options.fault_spec);
  }

  std::vector<const SourceFile*> files;
  files.reserve(tree.size());
  for (const auto& [path, file] : tree.files()) {
    files.push_back(&file);
  }

  ThreadPool pool(options.jobs);
  ScanCache cache(MakeScanStore(options));
  const ScanStageContext ctx = MakeScanStageContext(options, cache);
  const std::string id_str = std::to_string(worker_id);

  // Stage 1 over the shard: the exact same per-file body the in-process
  // engine runs (scan_stages.cc).
  std::vector<FileScanState> states =
      ParallelMap(pool, files.size(), [&](size_t i) { return RunParseStage(*files[i], ctx); });
  MaybeFault("worker.facts", id_str);
  {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(states.size()));
    for (const FileScanState& st : states) {
      WriteFileMeta(w, st.failure, st.retried);
      w.Str(st.failure || !ctx.want_facts ? std::string() : SerializeFacts(st.facts));
    }
    if (!SendFrame(conn.get(), kFacts, w.bytes(), &error)) {
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
    }
  }

  switch (RecvFrame(conn.get(), type, payload, &error)) {
    case RecvOutcome::kFrame:
      break;
    case RecvOutcome::kClosed:
      return 0;  // coordinator aborted (breaker / sibling crash) — clean exit
    case RecvOutcome::kError:
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
  }
  if (type != kKb) {
    std::fprintf(stderr, "refscan worker %d: unexpected frame %u\n", worker_id, type);
    return 1;
  }
  std::optional<KnowledgeBase> kb = DeserializeKb(payload);
  if (!kb) {
    std::fprintf(stderr, "refscan worker %d: malformed kb frame\n", worker_id);
    return 1;
  }
  const uint64_t kb_fp = ctx.use_cache ? FingerprintKnowledgeBase(*kb) : 0;

  // Stage 3 over the shard, against the coordinator's frozen KB.
  const KnowledgeBase& kb_ref = *kb;
  std::vector<FileShard> shards = ParallelMap(pool, files.size(), [&](size_t i) {
    return RunCheckStage(*files[i], states[i], kb_ref, kb_fp, ctx);
  });
  MaybeFault("worker.results", id_str);
  {
    ByteWriter w;
    w.U32(static_cast<uint32_t>(states.size()));
    for (size_t i = 0; i < states.size(); ++i) {
      const FileScanState& st = states[i];
      WriteFileMeta(w, st.failure, st.retried);
      w.Bool(st.report_hit);
      w.Bool(st.parsed);
      std::string reports_bytes;
      if (!st.failure) {
        CachedFileReports entry;
        entry.reports = std::move(shards[i].raw);
        entry.functions = shards[i].functions;
        entry.degraded = std::move(shards[i].degraded);
        reports_bytes = SerializeReports(entry);
      }
      w.Str(reports_bytes);
    }
    w.U64(static_cast<uint64_t>(cache.corrupt_loads()));
    if (!SendFrame(conn.get(), kResults, w.bytes(), &error)) {
      std::fprintf(stderr, "refscan worker %d: %s\n", worker_id, error.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace refscan
