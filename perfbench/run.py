#!/usr/bin/env python3
"""refscan end-to-end benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny]

Run it from the repository root (or any checkout of it). On its first run
it builds `refscan` and the two benchmark helpers in Release mode under
.bench_build/perfbench, then for the chosen workload it

  1. generates the workload's trees from --seed with the src/corpus
     generator (bench_corpus), writes them under .bench_work/, and does the
     workload's set-up (prime the cache, start the daemon) several times;
  2. runs a closed loop with one client for --seconds seconds: each step
     edits the tree as the workload says, then runs the real `refscan` CLI
     as a child process, timing its wall clock and reading its CPU time and
     peak RSS from wait4(2) rusage;
  3. checks every step's --json output against the generator's ground
     truth: the (file, function, pattern) report set must equal the planted
     bugs plus the planted false positives, and the degraded-function list
     must equal the generator's unparseable functions;
  4. prints provenance and every metric by name with its unit, and as its
     last line one JSON object:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, p50_s, p90_s,
cpu_s, peak_rss_mib). With --trace 1 the same loop runs, and after each
CLI step bench_replica replays that step in-process with a span around
every layer call; its output must be byte-identical to the CLI's, and the
metrics are the per-layer ones. README.md in this directory maps every
metric to its layer and workload.

--scale tiny shrinks every tree to a few modules (the self-test uses it).
The exit code is 0 whenever a result was printed, failed steps included;
it is non-zero, with no result, when the build or the set-up fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 3
OP_TIMEOUT_S = 60
EXPECTED_RC = 2  # kernelish trees plant unparseable functions: always degraded
ALL_PATTERNS = "1,2,3,4,5,6,7,8,9,10,11,12"

# --jobs for every scan. Serial on purpose: on a shared 4-vCPU host the wall
# time of a --jobs 3 scan swung with the host's co-scheduling three to five
# times more than its CPU time did, past any usable bound, while a serial
# scan's wall time tracks its CPU time (README.md, "Baseline observations").
JOBS = 1

# kernelish modules per workload and scale; the base Table 5 corpus
# (147 files, 351 planted bugs, 5 planted false positives) is always there.
WORKLOADS = {
    "kernelish_cold": {"kernelish": {"full": 1200, "tiny": 4}},
    "edit_cached": {"kernelish": {"full": 300, "tiny": 4}},
    "resident_ipa": {"kernelish": {"full": 150, "tiny": 2}, "new_family": True,
                     "wrapper_depths": "2,3"},
}
KB_EDIT_EVERY = 5  # edit_cached: one step in five replaces a wrapper API

END_TO_END = [("setup_s", "s"), ("p50_s", "s"), ("p90_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mib", "MiB")]
CHECKERS = ["checkers.P%d_s" % p for p in range(1, 13)]
PER_LAYER = ([("fs.load_s", "s"), ("fs.bytes", "bytes"), ("lexer.busy_s", "s"),
              ("lexer.tokens", "count"), ("ast.busy_s", "s"), ("ast.functions", "count"),
              ("ast.degraded_functions", "count"), ("kb.seed_s", "s"), ("kb.extract_s", "s"),
              ("kb.replay_s", "s"), ("kb.discovered_apis", "count"), ("cfg.busy_s", "s"),
              ("cfg.blocks", "count"), ("cpg.busy_s", "s"), ("cpg.events", "count")]
             + [(name, "s") for name in CHECKERS]
             + [("checkers.raw_reports", "count"), ("checkers.reports", "count"),
                ("checkers.dedup_ratio", "ratio"), ("report.render_s", "s"),
                ("ipa.callgraph_s", "s"), ("ipa.summaries_s", "s"),
                ("ipa.summarized_functions", "count"), ("cache.load_s", "s"),
                ("cache.store_s", "s"), ("cache.fingerprint_s", "s"), ("cache.hit_ratio", "ratio"),
                ("cache.parse_skip_ratio", "ratio"), ("cache.kb_snapshot_hits", "count"),
                ("cache.disk_mib", "MiB"), ("serve.request_s", "s"), ("serve.bytes_sent", "bytes"),
                ("serve.daemon_cpu_s", "s"), ("sched.worker_busy_s", "s"),
                ("sched.tasks_run", "count"), ("sched.parallel_efficiency", "ratio"),
                ("process.unspanned_s", "s"), ("trace.overhead_s", "s"),
                ("trace.unattributed_share", "ratio")])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(1)


# ------------------------------------------------------------------ build

def build():
    """Configures and builds the Release tree; returns the binaries' paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no refscan sources next to %s; run from a full checkout" % HERE)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "perfbench-build.log")
    # Runs started side by side in one checkout must not build concurrently.
    with open(os.path.join(BUILD_DIR, "perfbench-build.lock"), "w") as lock, \
            open(build_log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "refscan", "bench_corpus",
                      "bench_replica", "-j", str(max(1, min(4, os.cpu_count() or 1)))])
        # The compiler's temporary files stay inside the checkout too.
        tmp = os.path.join(BUILD_DIR, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=env) != 0:
                with open(build_log) as text:
                    log(text.read()[-4000:])
                die("build failed (log: %s)" % build_log)
    bins = {"refscan": os.path.join(BUILD_DIR, "refscan", "tools", "refscan"),
            "corpus": os.path.join(BUILD_DIR, "bench_corpus"),
            "replica": os.path.join(BUILD_DIR, "bench_replica")}
    # Numbers from a non-Release binary are meaningless for comparison, so
    # refuse them the way bench/record_scan_trajectory.sh does.
    build_type = subprocess.run([bins["corpus"], "--build-type"], capture_output=True,
                                text=True).stdout.strip()
    if build_type != "Release" and os.environ.get("PERFBENCH_ALLOW_DEBUG") != "1":
        die("binaries are a '%s' build; results must come from Release "
            "(set PERFBENCH_ALLOW_DEBUG=1 to override)" % build_type)
    return bins, build_type


def provenance(args, build_type, trees):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    compiler = ""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale, "nproc": os.cpu_count(), "jobs": JOBS,
            "clients": 1, "loop": "closed", "commit": commit,
            "source_sha256": digest.hexdigest()[:16], "build_type": build_type,
            "compiler": compiler, "trees": trees}


# ------------------------------------------------------------------ processes

class Child:
    """One finished child process: wall time, rusage and captured output."""

    def __init__(self, wall, cpu, maxrss_mib, rc, stdout, stderr):
        self.wall, self.cpu, self.maxrss_mib = wall, cpu, maxrss_mib
        self.rc, self.stdout, self.stderr = rc, stdout, stderr


def run_child(argv, cwd, timeout=OP_TIMEOUT_S):
    """Runs argv to completion; wall clock around fork..reap, CPU and peak
    RSS from wait4(2). A child past `timeout` is killed (rc < 0). Output
    goes through pipes, so a step writes nothing to disk but its own work."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    output = {}
    readers = [threading.Thread(target=lambda name=name, stream=stream:
                                output.__setitem__(name, stream.read()))
               for name, stream in (("out", proc.stdout), ("err", proc.stderr))]
    for reader in readers:
        reader.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, output["out"], output["err"].decode(errors="replace"))


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mib(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop(proc):
    """SIGTERM, then SIGKILL after 10 s; always reaps."""
    if proc.poll() is not None:
        return
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Daemon:
    """A `refscan serve` process on a socket relative to the work dir."""

    def __init__(self, refscan, work, socket_name):
        self.socket = socket_name
        self.proc = subprocess.Popen([refscan, "serve", socket_name], cwd=work,
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if "listening" not in line:
            stop(self.proc)
            raise RuntimeError("refscan serve did not start: %r" % line)

    def stop(self):
        stop(self.proc)
        self.proc.stdout.close()


class Replica:
    """bench_replica driven over stdin/stdout, one `scan` per step."""

    def __init__(self, binary, work, argv):
        self.work = work
        self.spans = os.path.join(work, "replica-spans.json")
        self.proc = subprocess.Popen([binary] + argv + ["--spans-out", "replica-spans.json"],
                                     cwd=work, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def scan(self, out_name):
        self.proc.stdin.write("scan %s\n" % out_name)
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        with open(os.path.join(self.work, out_name), "rb") as f:
            return reply, f.read()

    def finish(self):
        self.proc.stdin.write("quit\n")
        self.proc.stdin.close()
        self.proc.wait(60)
        self.proc.stdout.close()
        with open(self.spans) as f:
            return json.load(f)["ops"]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# ------------------------------------------------------------------ oracle

class Oracle:
    """Ground truth from the generator, compared without any checker code."""

    def __init__(self, truth, kernelish):
        self.bugs = {(f, fn, p) for f, fn, p in truth["bugs"]}
        self.fps = {(f, fn) for f, fn in truth["false_positives"]}
        # The generator plants one unparseable function in every other
        # kernelish module (even indices), named <module>_unparseable.
        self.degraded = {("drivers/kernelish/kmod%04d.c" % i, "kmod%04d_unparseable" % i)
                         for i in range(0, kernelish, 2)}

    def check(self, stdout):
        """Returns '' when the scan output matches, else what differs."""
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        got = {(r["file"], r["function"], r["anti_pattern"]) for r in doc["reports"]}
        missing = self.bugs - got
        extra = {g for g in got - self.bugs if (g[0], g[1]) not in self.fps}
        fp_missing = self.fps - {(g[0], g[1]) for g in got}
        degraded = {(d["file"], d["function"]) for d in doc["degraded_functions"]}
        problems = []
        if missing:
            problems.append("%d planted bugs unreported, e.g. %s" % (len(missing), min(missing)))
        if extra:
            problems.append("%d unexpected reports, e.g. %s" % (len(extra), min(extra)))
        if fp_missing:
            problems.append("%d planted false positives unreported" % len(fp_missing))
        if degraded != self.degraded:
            problems.append("degraded functions: %d reported, %d planted, %d in common"
                            % (len(degraded), len(self.degraded), len(degraded & self.degraded)))
        if doc["degraded"]:
            problems.append("%d files quarantined" % len(doc["degraded"]))
        return "; ".join(problems)


# ------------------------------------------------------------------ workloads

WRAPPER_BEGIN = "/* perfbench-wrapper-begin */\n"
WRAPPER_END = "/* perfbench-wrapper-end */\n"


class Editor:
    """Seeded single-file edits that always produce content never seen before."""

    def __init__(self, tree, rng, kb_every):
        self.tree = tree
        self.rng = rng
        self.kb_every = kb_every
        self.files = sorted(os.path.relpath(os.path.join(d, f), tree)
                            for d, _, fs in os.walk(tree) for f in fs if f.endswith(".c"))
        self.step = 0
        self.mix = {"comment": 0, "kb_wrapper": 0}

    def edit(self):
        self.step += 1
        path = os.path.join(self.tree, self.rng.choice(self.files))
        nonce = self.rng.getrandbits(32)
        if self.kb_every and self.step % self.kb_every == 0:
            # Replace the file's benchmark wrapper (if any) with a new,
            # uniquely named, unused one: discovery facts change, so the KB
            # fingerprint does too and every cached report shard goes stale.
            with open(path) as f:
                text = f.read()
            begin = text.find(WRAPPER_BEGIN)
            if begin >= 0:
                end = text.index(WRAPPER_END, begin) + len(WRAPPER_END)
                text = text[:begin] + text[end:]
            text += (WRAPPER_BEGIN +
                     "struct device_node *bench_wrap_get_%d_%08x(struct device_node *np)\n"
                     "{\n\treturn of_node_get(np);\n}\n" % (self.step, nonce) + WRAPPER_END)
            with open(path, "w") as f:
                f.write(text)
            self.mix["kb_wrapper"] += 1
        else:
            with open(path, "a") as f:
                f.write("/* perfbench edit %d %08x */\n" % (self.step, nonce))
            self.mix["comment"] += 1


class Bench:
    def __init__(self, args, bins):
        self.args = args
        self.bins = bins
        self.spec = WORKLOADS[args.workload]
        self.kernelish = self.spec["kernelish"][args.scale]
        self.work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        self.rng = random.Random("%s/%d" % (args.workload, args.seed))
        self.daemons = []
        self.daemon = None  # the daemon the timed steps talk to
        self.tree = self.cache = None  # names, under the work dir, of the loop's tree and cache
        self.replica = None
        self.replica_primed = False
        self.cli_trace = []  # per traced step: CLI wall, CPU and its own telemetry
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.trees = {}

    # -- set-up ---------------------------------------------------------

    def generate(self, name):
        tree = os.path.join(self.work, name)
        truth_path = os.path.join(self.work, name + ".truth.json")
        argv = [self.bins["corpus"], "--out", tree, "--truth", truth_path,
                "--seed", str(self.args.seed), "--kernelish", str(self.kernelish)]
        if self.spec.get("new_family"):
            argv.append("--new-family")
        if self.spec.get("wrapper_depths"):
            argv += ["--wrapper-depths", self.spec["wrapper_depths"]]
        if subprocess.call(argv) != 0:
            raise RuntimeError("bench_corpus failed")
        with open(truth_path) as f:
            truth = json.load(f)
        self.trees[name] = {"files": truth["files"], "lines": truth["lines"],
                            "bytes": truth["bytes"], "kernelish_modules": self.kernelish,
                            "planted_bugs": len(truth["bugs"]),
                            "planted_fps": len(truth["false_positives"])}
        return Oracle(truth, self.kernelish)

    def scan_argv(self, tree, cache=None, remote=None):
        argv = [self.bins["refscan"], "scan", tree, "--jobs", str(JOBS), "--json"]
        if cache:
            argv += ["--cache-dir", cache]
        if remote:
            argv += ["--remote", remote, "--ipa", "--patterns", ALL_PATTERNS,
                     "--dialect", "glib", "--dialect", "uacpi"]
        return argv

    def setup_once(self, rep):
        """One full set-up into its own tree{rep}/cache{rep}; returns
        (seconds, oracle). Nothing is deleted before cleanup: freeing disk
        blocks mid-run would make later writes wait on the journal."""
        w = self.args.workload
        tree, cache = "tree%d" % rep, "cache%d" % rep
        start = time.perf_counter()
        oracle = self.generate(tree)
        if w == "edit_cached":
            self.verify(run_child(self.scan_argv(tree, cache=cache), self.work), oracle,
                        "cache priming scan")
        elif w == "resident_ipa":
            daemon = Daemon(self.bins["refscan"], self.work, "serve%d.sock" % rep)
            self.daemons.append(daemon)
            self.verify(run_child(self.scan_argv(tree, remote=daemon.socket), self.work),
                        oracle, "daemon priming request")
        return time.perf_counter() - start, oracle

    def verify(self, child, oracle, what):
        """Raises when a set-up scan is wrong: nothing after it would mean anything."""
        problem = self.op_problem(child, oracle)
        if problem:
            raise RuntimeError("%s failed: %s" % (what, problem))

    def op_problem(self, child, oracle):
        if child.rc < 0:
            return "killed by signal %d (crash or timeout)" % -child.rc
        if child.rc != EXPECTED_RC:
            return "exit code %d, expected %d: %s" % (child.rc, EXPECTED_RC, child.stderr[-300:])
        if "scanning locally" in child.stderr:
            return "daemon unreachable, client fell back to a local scan"
        return oracle.check(child.stdout)

    # -- the loop -------------------------------------------------------

    def step_argv(self):
        w = self.args.workload
        if w == "edit_cached":
            return self.scan_argv(self.tree, cache=self.cache)
        if w == "resident_ipa":
            return self.scan_argv(self.tree, remote=self.daemon.socket)
        return self.scan_argv(self.tree)

    def run(self):
        os.makedirs(self.work)
        reps = SETUP_REPS if not self.args.trace else 1
        setups = []
        oracle = None
        for rep in range(reps):
            seconds, oracle = self.setup_once(rep)
            setups.append(seconds)
        # The loop uses the last set-up; earlier daemons only cost memory.
        self.tree, self.cache = "tree%d" % (reps - 1), "cache%d" % (reps - 1)
        for daemon in self.daemons[:-1]:
            daemon.stop()
        self.daemons = self.daemons[-1:]
        daemon = self.daemon = self.daemons[0] if self.daemons else None
        # Write the set-up's files back now, not while steps are timed.
        os.sync()
        editor = None
        if self.args.workload in ("edit_cached", "resident_ipa"):
            kb_every = KB_EDIT_EVERY if self.args.workload == "edit_cached" else 0
            editor = Editor(os.path.join(self.work, self.tree), self.rng, kb_every)
        if self.args.workload == "kernelish_cold":
            # Page-cache warm-up: every timed scan then reads the same warm tree.
            self.verify(run_child(self.step_argv(), self.work), oracle, "warm-up scan")
        if self.args.trace:
            self.start_replica()

        ops = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < self.args.seconds:
            if editor:
                editor.edit()
            argv = self.step_argv()
            if self.args.trace:
                argv += ["--trace-out", "cli-trace.json", "--metrics-out", "cli-metrics.prom"]
            cpu0 = proc_cpu_s(daemon.proc.pid) if daemon else 0.0
            child = run_child(argv, self.work)
            daemon_cpu = proc_cpu_s(daemon.proc.pid) - cpu0 if daemon else 0.0
            op = {"wall": child.wall, "cpu": child.cpu + daemon_cpu, "rss": child.maxrss_mib}
            problem = self.op_problem(child, oracle)
            if self.args.trace and not problem:
                problem = self.trace_step(child, op)
            self.attempted += 1
            if problem:
                self.failed += 1
                if len(self.notes) < 5:
                    self.notes.append("step %d: %s" % (len(ops) + 1, problem))
            ops.append(op)
        daemon_hwm = proc_hwm_mib(daemon.proc.pid) if daemon else 0.0
        replica_ops = self.finish_replica() if self.args.trace else None
        cache_dir = os.path.join(self.work, self.cache)
        cache_mib = dir_bytes(cache_dir) / 2**20 if os.path.isdir(cache_dir) else 0.0
        return setups, ops, daemon_hwm, replica_ops, cache_mib, editor.mix if editor else None

    # -- traced run -----------------------------------------------------

    def start_replica(self):
        w = self.args.workload
        argv = ["--tree", self.tree, "--jobs", str(JOBS)]
        if w == "edit_cached":
            # Its own cache, primed like the CLI's: both then see the same
            # hits and misses at every step.
            argv += ["--cache-dir", "replica-cache"]
        elif w == "resident_ipa":
            # Its own daemon for the client-side round trip, and its own
            # MemoryStore for the in-process replay of the daemon's scan.
            daemon = Daemon(self.bins["refscan"], self.work, "replica.sock")
            self.daemons.append(daemon)
            argv += ["--remote", "replica.sock", "--daemon-pid", str(daemon.proc.pid),
                     "--memory-store", "--ipa", "--patterns", ALL_PATTERNS,
                     "--dialect", "glib", "--dialect", "uacpi"]
        self.replica = Replica(self.bins["replica"], self.work, argv)
        self.replica_primed = w in ("edit_cached", "resident_ipa")
        if self.replica_primed:
            reply, _ = self.replica.scan("replica-out.json")
            if reply != "done":
                raise RuntimeError("replica priming scan: " + reply)

    def trace_step(self, child, op):
        reply, out = self.replica.scan("replica-out.json")
        if reply != "done":
            return "replica: " + reply
        if out != child.stdout:
            return "replica output differs from the CLI's"
        with open(os.path.join(self.work, "cli-trace.json")) as f:
            events = json.load(f)["traceEvents"]
        staged = sum(e["dur"] for e in events if e["name"].startswith("stage.")) * 1e-6
        metrics = {}
        with open(os.path.join(self.work, "cli-metrics.prom")) as f:
            for line in f:
                if line.startswith("refscan_sched_") and "{" not in line:
                    name, value = line.split()
                    metrics[name] = float(value)
        self.cli_trace.append({"wall": child.wall, "cpu": op["cpu"],
                               "unspanned": child.wall - staged,
                               "busy": metrics.get("refscan_sched_worker_busy_ns", 0.0) * 1e-9,
                               "tasks": metrics.get("refscan_sched_tasks_run", 0.0)})
        return ""

    def finish_replica(self):
        ops = self.replica.finish()
        self.replica = None
        return ops[1:] if self.replica_primed else ops

    def cleanup(self):
        if self.replica is not None:
            self.replica.kill()
        for daemon in self.daemons:
            daemon.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it
        # Settle the deletions now so the next run's set-up does not pay for them.
        os.sync()


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(replica_ops, cli_trace, cache_mib):
    def layer(name):
        return mean([op["layers"][name] for op in replica_ops])

    def count(name):
        return mean([op["counts"][name] for op in replica_ops])

    raw = sum(op["counts"]["checkers.raw_reports"] for op in replica_ops)
    reports = sum(op["counts"]["checkers.reports"] for op in replica_ops)
    hits = sum(op["counts"]["cache.hits"] for op in replica_ops)
    misses = sum(op["counts"]["cache.misses"] for op in replica_ops)
    skips = sum(op["counts"]["cache.parse_skips"] for op in replica_ops)
    files = sum(op["counts"]["fs.files"] for op in replica_ops)
    wall = sum(op["wall_s"] for op in replica_ops)
    covered = sum(op["covered_s"] for op in replica_ops)
    cli_wall = statistics.median(t["wall"] for t in cli_trace)
    cli_cpu = statistics.median(t["cpu"] for t in cli_trace)
    m = {
        "fs.load_s": layer("fs.load"), "fs.bytes": count("fs.bytes"),
        "lexer.busy_s": layer("lexer.tokenize"), "lexer.tokens": count("lexer.tokens"),
        "ast.busy_s": layer("ast.parse") - layer("lexer.tokenize"),
        "ast.functions": count("ast.functions"),
        "ast.degraded_functions": count("ast.degraded_functions"),
        "kb.seed_s": layer("kb.seed"), "kb.extract_s": layer("kb.extract"),
        "kb.replay_s": layer("kb.replay"), "kb.discovered_apis": count("kb.discovered_apis"),
        "cfg.busy_s": layer("cfg.build"), "cfg.blocks": count("cfg.blocks"),
        "cpg.busy_s": layer("cpg.build"), "cpg.events": count("cpg.events"),
        "checkers.raw_reports": raw / len(replica_ops),
        "checkers.reports": reports / len(replica_ops),
        "checkers.dedup_ratio": reports / raw if raw else 0.0,
        "report.render_s": layer("report.render"),
        "ipa.callgraph_s": layer("ipa.callgraph"),
        "ipa.summaries_s": layer("ipa.summaries") - layer("ipa.callgraph"),
        "ipa.summarized_functions": count("ipa.summarized_functions"),
        "cache.load_s": layer("cache.load"), "cache.store_s": layer("cache.store"),
        "cache.fingerprint_s": layer("cache.fingerprint"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.parse_skip_ratio": skips / files if hits + misses else 0.0,
        "cache.kb_snapshot_hits": count("cache.kb_snapshot_hits"),
        "cache.disk_mib": cache_mib,
        "serve.request_s": layer("serve.request"), "serve.bytes_sent": count("serve.bytes_sent"),
        "serve.daemon_cpu_s": mean([op["daemon_cpu_s"] for op in replica_ops]),
        "sched.worker_busy_s": mean([t["busy"] for t in cli_trace]),
        "sched.tasks_run": mean([t["tasks"] for t in cli_trace]),
        "sched.parallel_efficiency": cli_cpu / (JOBS * cli_wall),
        "process.unspanned_s": statistics.median(t["unspanned"] for t in cli_trace),
        "trace.overhead_s": statistics.median(op["client_wall_s"] for op in replica_ops) - cli_wall,
        "trace.unattributed_share": 1.0 - covered / wall if wall else 0.0,
    }
    for p in range(1, 13):
        m["checkers.P%d_s" % p] = layer("checkers.P%d" % p)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args()

    # A driver timeout arrives as SIGTERM: unwind so the daemons and the
    # replica are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    bins, build_type = build()
    load_start = os.getloadavg()
    bench = Bench(args, bins)
    try:
        setups, ops, daemon_hwm, replica_ops, cache_mib, mix = bench.run()
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        die("%s: %s" % (args.workload, e))
    finally:
        bench.cleanup()
    load_end = os.getloadavg()

    prov = provenance(args, build_type, bench.trees)
    prov["loadavg_start"] = [round(x, 2) for x in load_start]
    prov["loadavg_end"] = [round(x, 2) for x in load_end]
    prov["edit_mix"] = mix
    prov["setup_reps"] = len(setups)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    walls = sorted(op["wall"] for op in ops)
    n = len(walls)
    if args.trace:
        if replica_ops and bench.cli_trace:
            values = per_layer_metrics(replica_ops, bench.cli_trace, cache_mib)
        else:
            values = {name: 0.0 for name, _ in PER_LAYER}
        units = PER_LAYER
        print("traced steps: %d (replica steps compared byte-for-byte with the CLI: %d)"
              % (n, len(replica_ops)))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "p50_s": statistics.median(walls),
            "p90_s": statistics.quantiles(walls, n=10)[8] if n >= 2 else walls[0],
            "cpu_s": statistics.median(op["cpu"] for op in ops),
            "peak_rss_mib": daemon_hwm if args.workload == "resident_ipa"
            else max(op["rss"] for op in ops),
        }
        units = END_TO_END
        print("timed steps: %d, samples beyond p90: %d, fail_ratio: %d/%d"
              % (n, sum(1 for w in walls if w > values["p90_s"]), bench.failed, bench.attempted))
    for note in bench.notes:
        print("failed " + note)
    metrics = {}
    for name, unit in units:
        print("%-28s %.6g %s" % (name, values[name], unit))
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
