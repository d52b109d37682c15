"""serve_chat: a supervised `serve` process and the HTTP load generator that
drives it (an open-loop phase at a fixed arrival rate, then a closed-loop
capacity phase), both with nproc connections at most."""

import http.client
import json
import os
import random
import subprocess
import threading
import time

from common import NPROC, SERVE, log, stop_process

# World flags passed to `serve` and to the serve oracle alike.
WORLD_FLAGS = ["--topics=6", "--entities=4", "--facts-per-entity=2",
               "--questions-per-topic=3", "--vocab=512", "--ctx=416", "--seed=2024"]
SERVE_FLAGS = ["--scale=S70", "--paged-kv=1", "--workers=%d" % NPROC, "--queue-depth=16",
               "--port=0", "--log=warn", "--stats-every=3600", "--drain-grace=2"]

MAX_NEW_TOKENS = 16
CHAT_TURNS = 3
# Each connection cycles its conversations through a few session ids, so the
# server's session table stays the same size however long the run is.
SESSION_SLOTS = 2
# Request kinds cycle through this pattern on every connection, so the mix
# is the same for every seed (25% MCQ, 50% chat, 25% one-shot); the seed
# picks the contents.
PATTERN = ("chat", "mcq", "chat", "oneshot")
WORDS = ("galaxy redshift quasar nebula pulsar supernova accretion spectrum halo "
         "cluster lensing metallicity exoplanet transit binary dwarf giant luminosity "
         "magnitude parallax cosmology inflation baryon neutrino photon radio infrared "
         "ultraviolet xray gamma jet disk bulge bar arm star dust gas cloud collapse "
         "orbit period mass radius density temperature pressure field wind flare").split()


class ServerProcess:
    """Keeps one `serve` process up: restarts it (fresh server, new port)
    whenever it dies, and records each start-to-LISTENING time."""

    def __init__(self, state, trace):
        self.state = state
        self.trace = trace
        self.lock = threading.Condition()
        self.port = None
        self.proc = None
        self.generation = 0
        self.restarts = 0
        self.ready_s = []
        self.live = []           # (LISTENING time, exit time) per incarnation
        self.lives = {}          # port -> (LISTENING time, exit time)
        self.peak_rss_mb = 0.0
        self.ready_at = None
        self.stopping = False
        self.stalls = 0
        self.progress_at = time.time()
        self.hung_since = None
        self._start()
        self.monitor = threading.Thread(target=self._watch, daemon=True)
        self.monitor.start()

    def _argv(self):
        argv = [SERVE] + SERVE_FLAGS + WORLD_FLAGS
        if self.trace:
            argv.append("--trace-json=%s" % os.path.join(
                self.state, "trace_serve_%d.json" % self.generation))
        return argv

    def _start(self):
        t0 = time.time()
        err = open(os.path.join(self.state, "serve.stderr"), "ab")
        proc = subprocess.Popen(self._argv(), stdout=subprocess.PIPE, stderr=err)
        err.close()
        port = None
        for raw in proc.stdout:
            line = raw.decode("utf-8", "replace")
            if line.startswith("LISTENING port="):
                port = int(line.split("=", 1)[1])
                break
        with self.lock:
            self.proc = proc
            self.ready_at = None
            if port is not None:
                self.ready_s.append(time.time() - t0)
                self.ready_at = time.time()
                self.port = port
            self.generation += 1
            self.lock.notify_all()

    def _reap(self, proc):
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode

    def _watch(self):
        while True:
            proc = self.proc
            status = self._reap(proc)
            with self.lock:
                if self.ready_at is not None:
                    # A hung server stopped working at its last reply.
                    end = self.hung_since if self.hung_since is not None else time.time()
                    self.live.append((self.ready_at, end))
                    self.lives[self.port] = self.live[-1]
                self.hung_since = None
                self.port = None
                if self.stopping:
                    self.lock.notify_all()
                    return
            self.restarts += 1
            log("serve: server exited with %s; restart %d" % (status, self.restarts))
            self._start()

    def note_progress(self):
        """A request completed: the server is not hung."""
        self.progress_at = time.time()

    def watchdog(self, stall_s, stop):
        """Kills a server that answers nothing for `stall_s` seconds while the
        load runs (a hang rather than a crash); _watch then restarts it."""
        self.progress_at = time.time()
        while not stop.wait(0.2):
            with self.lock:
                proc, port = self.proc, self.port
            if port is not None and time.time() - self.progress_at > stall_s:
                log("serve: no reply for %.0fs; killing the server" % stall_s)
                self.stalls += 1
                self.hung_since = self.progress_at
                proc.kill()
                self.progress_at = time.time()

    def wait_port(self, timeout=30.0):
        end = time.time() + timeout
        with self.lock:
            while self.port is None and time.time() < end:
                self.lock.wait(0.1)
            return self.port

    def stop(self):
        with self.lock:
            self.stopping = True
            proc = self.proc
        stop_process(proc)
        self.monitor.join()


class Connection:
    """Keep-alive HTTP client that follows the server across restarts."""

    def __init__(self, server):
        self.server = server
        self.conn = None
        self.port = None

    def request(self, method, path, body=None):
        """Returns (status, parsed body or text); raises ConnectionError when
        the server died under the request."""
        port = self.server.wait_port()
        if port is None:
            raise ConnectionError("server did not come back")
        if self.conn is None or self.port != port:
            self.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            self.port = port
        # Texts carry the raw bytes of earlier replies (see Traffic), so the
        # body goes out as those bytes, not as escaped surrogates.
        data = (json.dumps(body, ensure_ascii=False).encode("utf-8", "surrogateescape")
                if body is not None else None)
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            # surrogateescape keeps generated bytes that are not UTF-8 exact,
            # so a reply's text can be handed to the oracle byte for byte.
            raw = response.read().decode("utf-8", "surrogateescape")
        except (OSError, http.client.HTTPException) as error:
            self.close()
            raise ConnectionError(str(error))
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return response.status, raw

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Traffic:
    """Seeded request stream for one connection: MCQs by index, multi-turn
    sessioned conversations that resend the growing history, and one-shot
    generates with short unshared prompts."""

    def __init__(self, seed, lane, questions):
        self.rng = random.Random(seed * 1000003 + lane)
        self.lane = lane
        self.sent = lane
        self.questions = questions
        self.conversation = 0
        self.turn = 0
        self.history = ""

    def _words(self, lo, hi):
        return " ".join(self.rng.choice(WORDS) for _ in range(self.rng.randint(lo, hi)))

    def next(self):
        kind = PATTERN[self.sent % len(PATTERN)]
        self.sent += 1
        if kind == "mcq":
            return {"kind": "mcq", "path": "/v1/mcq",
                    "body": {"question_index": self.rng.randrange(self.questions)}}
        if kind == "chat":
            if self.turn == CHAT_TURNS:
                self.conversation += 1
                self.turn = 0
                self.history = ""
            prompt = self.history + "User: " + self._words(6, 12) + "\nAssistant:"
            session = "s%d-%d" % (self.lane, self.conversation % SESSION_SLOTS)
            return {"kind": "chat", "path": "/v1/generate", "turn": self.turn,
                    "body": {"prompt": prompt, "max_new_tokens": MAX_NEW_TOKENS,
                             "session": session}}
        return {"kind": "oneshot", "path": "/v1/generate",
                "body": {"prompt": self._words(3, 8), "max_new_tokens": MAX_NEW_TOKENS}}

    def completed(self, req, reply):
        if req["kind"] == "chat":
            self.history = req["body"]["prompt"] + reply.get("text", "") + "\n"
            self.turn += 1


def send(conn, req, records, lost):
    """Sends one request, resending it after a server restart; appends the
    record of the attempt that completed."""
    while True:
        sent = time.time()
        try:
            status, reply = conn.request("POST", req["path"], req["body"])
        except ConnectionError:
            lost.append(req["kind"])
            if conn.server.wait_port() is None:
                return None
            continue
        done = time.time()
        conn.server.note_progress()
        record = dict(req, sent=sent, done=done, status=status,
                      reply=reply if isinstance(reply, dict) else {"raw": reply})
        records.append(record)
        return record


def open_loop(server, traffic, rate, start, end):
    """Request i is due at start + i / rate and goes out on connection
    i mod nproc; latency is timed from the due time."""
    records, lost = [], []
    due_count = int((end - start) * rate)

    def lane(k):
        conn = Connection(server)
        for i in range(k, due_count, NPROC):
            due = start + i / rate
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            req = traffic[k].next()
            req["due"] = due
            record = send(conn, req, records, lost)
            if record is not None and record["status"] == 200:
                traffic[k].completed(req, record["reply"])
        conn.close()

    threads = [threading.Thread(target=lane, args=(k,)) for k in range(NPROC)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, lost


def closed_loop(server, traffic, end):
    """nproc connections, each sending its next request as soon as the
    previous one completes, until `end`."""
    records, lost = [], []

    def lane(k):
        conn = Connection(server)
        while time.time() < end:
            req = traffic[k].next()
            record = send(conn, req, records, lost)
            if record is not None and record["status"] == 200:
                traffic[k].completed(req, record["reply"])
        conn.close()

    threads = [threading.Thread(target=lane, args=(k,)) for k in range(NPROC)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, lost


class MetricsScraper:
    """Polls GET /metrics while the load runs and keeps the last scrape of
    every server incarnation, keyed by its port (a restart starts its
    counters at zero)."""

    def __init__(self, server, period=0.5):
        self.server = server
        self.period = period
        self.by_port = {}
        self.stopping = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        conn = Connection(self.server)
        while not self.stopping.wait(self.period):
            values = scrape_metrics(conn)
            if values:
                self.by_port[conn.port] = values
        conn.close()

    def stop(self):
        self.stopping.set()
        self.thread.join()
        return self.by_port


def scrape_metrics(conn):
    """GET /metrics as {name: value} ({} when the server is down)."""
    try:
        status, text = conn.request("GET", "/metrics")
    except ConnectionError:
        return {}
    values = {}
    if status == 200 and isinstance(text, str):
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                pass
    return values


def session_followups(server, seed, count=2):
    """A sessioned follow-up turn must report reused_prefix_tokens > 0 and
    return the same text as the same prompt sent without a session. The
    opening turn asks for no reply, so the resent conversation re-tokenises
    to exactly the ids the session caches (a decoded reply need not). A
    server restart mid-check starts the check over."""
    for _ in range(5):
        try:
            return _session_followups(server, seed, count)
        except ConnectionError:
            continue
    return ["sessioned follow-up check never completed"]


def _session_followups(server, seed, count):
    rng = random.Random(seed * 7919 + 1)
    problems = []
    conn = Connection(server)
    for c in range(count):
        session = "followup-%d" % c
        first = "User: " + " ".join(rng.choice(WORDS) for _ in range(8)) + "\nAssistant:"
        conn.request("POST", "/v1/generate", {
            "prompt": first, "max_new_tokens": 0, "session": session})
        second = first + "\nUser: " + " ".join(
            rng.choice(WORDS) for _ in range(6)) + "\nAssistant:"
        _, with_session = conn.request("POST", "/v1/generate", {
            "prompt": second, "max_new_tokens": MAX_NEW_TOKENS, "session": session})
        _, without = conn.request("POST", "/v1/generate", {
            "prompt": second, "max_new_tokens": MAX_NEW_TOKENS})
        if not with_session.get("reused_prefix_tokens", 0) > 0:
            problems.append("sessioned follow-up reused no prefix tokens")
        if with_session.get("text") != without.get("text"):
            problems.append("sessioned follow-up text differs from the sessionless answer")
    conn.close()
    return problems
