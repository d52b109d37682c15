"""Process supervision and statistics shared by the benchmark workloads."""

import json
import math
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNS_DIR = os.path.join(BUILD_DIR, "runs")
HARNESS = os.path.join(BUILD_DIR, "cmake", "perfbench_harness")
SERVE = os.path.join(BUILD_DIR, "cmake", "astromlab", "serve", "serve")
NPROC = os.cpu_count() or 1


def log(message):
    sys.stderr.write("[perfbench] %s\n" % message)
    sys.stderr.flush()


class Result:
    """What one workload run reports."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.restarts = 0
        self.lost = 0           # operations in flight when a child died (re-run)
        self.problems = []      # failed correctness checks
        self.unmeasured = []    # end-to-end figures the run could not measure
        self.unmeasured_layers = []  # per-layer figures the traced run could not measure
        self.e2e = {}           # name -> (value, unit)
        self.layer = {}         # name -> (value, unit)
        self.notes = []         # extra human-readable lines

    def check(self, ok, problem):
        if not ok:
            self.correct = False
            self.problems.append(problem)

    def require(self, ok, what):
        """A measurement the end-to-end metrics need (not an output check).
        Returns `ok`, so that a figure is only computed when it can be."""
        if not ok:
            self.unmeasured.append(what)
        return ok

    def require_layer(self, ok, what):
        """The same for a per-layer figure of a traced run."""
        if not ok:
            self.unmeasured_layers.append(what)
        return ok


def percentile(values, q):
    """Nearest-rank percentile (the definition util::metrics uses)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1]


def tail_quantile(n):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (0.99, 0.95, 0.90, 0.75):
        if n * (1.0 - q) >= 10:
            return q
    return 0.5


def median(values):
    return statistics.median(values) if values else 0.0


class Child:
    """One supervised process; its `TAG {json}` stdout lines land in a queue."""

    def __init__(self, argv, stderr_path):
        self.t0 = time.time()
        self.err = open(stderr_path, "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self.err, cwd=ROOT)
        self.lines = queue.Queue()
        self.status = None
        self.killed = False
        self.maxrss_mb = 0.0
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for raw in self.proc.stdout:
            text = raw.decode("utf-8", "replace").rstrip("\n")
            tag, _, body = text.partition(" ")
            try:
                payload = json.loads(body) if body else {}
            except ValueError:
                tag, payload = "TEXT", {"text": text}
            self.lines.put((time.time(), tag, payload))
        self.lines.put(None)

    def kill(self):
        if self.status is None:
            self.killed = True
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass

    def wait(self):
        """Reaps the process; returns (exit code or -signal, peak RSS MB)."""
        if self.status is None:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.status = self.proc.returncode
            self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.reader.join()
        self.proc.stdout.close()
        self.err.close()
        return self.status, self.maxrss_mb


def newest_mtime(directory):
    newest = 0.0
    try:
        for entry in os.scandir(directory):
            newest = max(newest, entry.stat().st_mtime)
    except OSError:
        pass
    return newest


class Supervised:
    """Runs a harness child until it prints `done_tag` and exits 0, restarting
    it whenever it dies or stalls. Every incarnation gets the same argv, so
    the child resumes from its state directory."""

    def __init__(self, name, argv, state, stall_s, hard_end, done_tag="VERIFY"):
        self.events = []        # (incarnation, wall time, tag, payload)
        self.restarts = 0
        self.stalls = 0
        self.peak_rss_mb = 0.0    # peak RSS while measuring (see below)
        self.ready_s = []       # per incarnation: start -> READY
        self.live = []          # per incarnation: (READY time, exit time)
        self.complete = False
        stderr_path = os.path.join(state, name + ".stderr")
        incarnation = 0
        while True:
            child = Child(argv, stderr_path)
            done = False
            ready_at = None
            measured_mb = None
            last = time.time()
            while True:
                try:
                    item = child.lines.get(timeout=0.2)
                except queue.Empty:
                    now = time.time()
                    if child.status is None and not child.killed and (
                            now - max(last, newest_mtime(state)) > stall_s or now > hard_end):
                        if now <= hard_end:
                            self.stalls += 1
                            log("%s: no progress for %.0fs; killing the child" % (name, stall_s))
                        child.kill()
                    continue
                if item is None:
                    break
                t, tag, payload = item
                last = t
                self.events.append((incarnation, t, tag, payload))
                if tag == "READY":
                    self.ready_s.append(t - child.t0)
                    ready_at = t
                if tag == "MEASURED":
                    measured_mb = payload.get("hwm_mb")
                if tag == done_tag:
                    done = True
            status, rss = child.wait()
            if ready_at is not None:
                # A child killed for making no progress stopped working at its
                # last sign of life.
                self.live.append((ready_at, last if child.killed else time.time()))
            # The program's own peak: what the child held when its measured
            # phase ended, or for one that died while measuring, its whole
            # life's peak. Verification-only incarnations do not count.
            if measured_mb is not None:
                self.peak_rss_mb = max(self.peak_rss_mb, measured_mb)
            elif not any(tag == "MEASURED" for i, _, tag, _ in self.events if i < incarnation):
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if done and status == 0:
                self.complete = True
                break
            if time.time() > hard_end:
                log("%s: giving up at the run's time limit (exit %s)" % (name, status))
                break
            self.restarts += 1
            incarnation += 1
            log("%s: child exited with %s; restart %d" % (name, status, self.restarts))

    def tagged(self, tag):
        return [(inc, t, p) for inc, t, g, p in self.events if g == tag]


def run_child(argv, stderr_path, done_tag, attempts=1):
    """Runs a harness child to its end, again (up to `attempts` times) until
    it exits 0 having printed `done_tag`. Returns that run's lines as
    (seconds since its start, tag, payload), or None."""
    for _ in range(attempts):
        child = Child(argv, stderr_path)
        lines = []
        while True:
            item = child.lines.get()
            if item is None:
                break
            lines.append((item[0] - child.t0, item[1], item[2]))
        status, _ = child.wait()
        if status == 0 and any(tag == done_tag for _, tag, _ in lines):
            return lines
    return None


def setup_samples(argv, state, name, count, samples=()):
    """Tops `samples` (start->READY times already observed) up to `count`
    with set-up-only children."""
    samples = list(samples)
    stderr_path = os.path.join(state, name + "-setup.stderr")
    attempts = 0
    while len(samples) < count and attempts < 3 * count:
        attempts += 1
        lines = run_child(argv + ["--setup-only=1"], stderr_path, "READY")
        if lines is not None:
            samples.append(next(t for t, tag, _ in lines if tag == "READY"))
    return samples


def window(state, seconds):
    """The measured window [start, end] the children persisted (empty when
    no child got as far as measuring)."""
    try:
        with open(os.path.join(state, "deadline")) as handle:
            end = float(handle.read().split()[0])
    except OSError:
        return 0.0, 0.0
    return end - seconds, end


def live_bin_rates(stamps, live, start, end, width):
    """Event rate in each `width`-second bin of [start, end] that lies wholly
    inside a live interval (a child between READY and exit): events after
    the first one in the bin over the time from the first to the last."""
    rates = []
    t = start
    while t + width <= end + 1e-9:
        if any(a <= t and t + width <= b for a, b in live):
            inside = sorted(s for s in stamps if t <= s < t + width)
            if len(inside) >= 2 and inside[-1] > inside[0]:
                rates.append((len(inside) - 1) / (inside[-1] - inside[0]))
        t += width
    return rates


def up_time(live, start, end):
    """Seconds of [start, end] during which a child was up (READY to exit)."""
    return sum(max(0.0, min(b, end) - max(a, start)) for a, b in live)


def live_rate(stamps, live, start, end):
    """Events per second of live time in [start, end]: events over the time
    a child was up (READY to exit), so restart downtime is left out while
    the work a crash lost still counts against the rate."""
    up = up_time(live, start, end)
    return sum(1 for s in stamps if start <= s <= end) / up if up > 0 else 0.0


def self_times(trace_paths):
    """Self time per span name (ms) over Chrome trace files: a span's
    duration minus the durations of the spans nested directly inside it on
    the same thread."""
    totals = {}
    for path in trace_paths:
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            continue
        by_thread = {}
        for ev in doc.get("traceEvents", []):
            if ev.get("ph") == "X":
                by_thread.setdefault((ev.get("pid"), ev.get("tid")), []).append(ev)
        for events in by_thread.values():
            events.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack = []  # [end, name, child_time]
            for ev in events:
                while stack and ev["ts"] >= stack[-1][0]:
                    end, name, kids, dur = stack.pop()
                    totals[name] = totals.get(name, 0.0) + (dur - kids)
                if stack:
                    stack[-1][2] += ev["dur"]
                stack.append([ev["ts"] + ev["dur"], ev["name"], 0.0, ev["dur"]])
            while stack:
                end, name, kids, dur = stack.pop()
                totals[name] = totals.get(name, 0.0) + (dur - kids)
    return {name: us / 1000.0 for name, us in totals.items()}


def trace_files(state):
    return sorted(os.path.join(state, f) for f in os.listdir(state)
                  if f.startswith("trace_") and f.endswith(".json"))


def stop_process(proc, timeout=10.0):
    """SIGTERM, then SIGKILL after `timeout`; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
