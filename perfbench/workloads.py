"""The four workloads. Each function runs one workload for `seconds` of
measurement and returns a common.Result with its end-to-end metrics (and,
when traced, its per-layer metrics). A traced run with `lead_in` > 0 keeps
its first `lead_in` seconds untraced and reports util.trace_overhead_ratio
from the two parts; a figure that a run cannot measure is left out and
named in Result.unmeasured or Result.unmeasured_layers."""

import json
import os
import random
import threading
import time

from common import (BUILD_DIR, HARNESS, NPROC, Result, Supervised, live_bin_rates, live_rate,
                    log, median, percentile, run_child, self_times, setup_samples, tail_quantile,
                    trace_files, up_time, window)
from serve_load import (MAX_NEW_TOKENS, WORLD_FLAGS, Connection, MetricsScraper, ServerProcess,
                        Traffic, closed_loop, open_loop, session_followups)

SETUP_SAMPLES = 3          # set-ups per run; setup_s is their median
# A run gives up (and reports incorrect) past this point, so that it ends
# within the 180 s a run may take; run.py sets it when the run starts.
RUN_DEADLINE = [time.time() + 160.0]


def hard_end():
    return RUN_DEADLINE[0]


def harness_argv(command, seed, seconds, state, trace, lead_in=0.0):
    return [HARNESS, command, "--seed=%d" % seed, "--seconds=%r" % seconds,
            "--state=%s" % state, "--trace=%d" % int(trace), "--lead-in=%r" % lead_in]


def finish_setup(result, sup, argv, state, name, setup_runs):
    # Every start of the child is one set-up; restarts after a crash supply
    # samples too, and set-up-only starts top them up.
    samples = setup_samples(argv, state, name, setup_runs, sup.ready_s)
    result.e2e["setup_s"] = (median(samples), "s")
    result.e2e["peak_rss_mb"] = (sup.peak_rss_mb, "MB")
    result.restarts = sup.restarts
    result.layer["util.process_restarts"] = (sup.restarts, "count")
    result.check(sup.complete, "%s child did not finish within the run's time limit" % name)
    if sup.stalls:
        result.notes.append("%d restart(s) were stalls (no progress), not crashes" % sup.stalls)


def verify_lines(result, sup):
    verdicts = sup.tagged("VERIFY")
    result.check(bool(verdicts), "no verification verdict")
    if verdicts:
        verdict = verdicts[-1][2]
        result.check(verdict.get("ok", False), "oracle check failed")
        for problem in verdict.get("problems", []):
            result.problems.append(problem)
        return verdict
    return {}


# ---------------------------------------------------------------- mcq_eval

def mcq_eval(seed, seconds, state, trace, lead_in=0.0, setup_runs=SETUP_SAMPLES):
    result = Result()
    argv = harness_argv("mcq", seed, seconds, state, trace, lead_in)
    sup = Supervised("mcq", argv, state, stall_s=5.0, hard_end=hard_end())
    finish_setup(result, sup, argv, state, "mcq", setup_runs)
    verdict = verify_lines(result, sup)

    # A pass runs from its first PASS_BEGIN to its PASS_END. Its time is the
    # child's up-time in that span: the work a crash lost counts against the
    # pass, the restart downtime does not (restarts are reported apart).
    begins = {}
    passes = {}
    for _, _, p in sup.tagged("PASS_BEGIN"):
        begins.setdefault((p["round"], p["method"]), p["t"])
    for _, _, p in sup.tagged("PASS_END"):
        key = (p["round"], p["method"])
        p["wall"] = up_time(sup.live, begins[key], p["t"])
        p["elapsed"] = p["t"] - begins[key]
        passes[key] = p
    token = [p for k, p in sorted(passes.items()) if k[1] == "token"]
    instruct = [p for k, p in sorted(passes.items()) if k[1] == "instruct"]
    rounds = [(passes[(r, "token")], passes[(r, "instruct")])
              for r, m in sorted(passes) if m == "token" and (r, "instruct") in passes]
    round_rates = [(a["questions"] + b["questions"]) / (a["wall"] + b["wall"]) for a, b in rounds]
    result.attempted = int(sum(p["questions"] for p in passes.values()))
    result.lost = sup.restarts * NPROC  # upper bound: nproc questions in flight
    result.require(bool(rounds), "no complete round of both methods")
    full = [p for p in instruct if p["fresh"] >= 20]
    result.e2e["work_per_s"] = (median(round_rates), "1/s")
    result.e2e["latency_p50_ms"] = (median([p["p50_s"] * 1000 for p in full]), "ms")
    result.e2e["latency_tail_ms"] = (median([p["p95_s"] * 1000 for p in full]), "ms")
    elapsed = sum(p["elapsed"] for p in passes.values())
    result.notes.append("mcq: %d rounds of %.0f questions x 2 methods; tail = median of the "
                        "per-pass p95; %.1f questions/s counting restart downtime"
                        % (len(rounds), token[0]["questions"] if token else 0,
                           result.attempted / elapsed if elapsed else 0.0))
    result.notes.append("mcq verification: %s token answers and %s instruct generations "
                        "checked, %s ties, %.2fs"
                        % (verdict.get("token_checked"), verdict.get("instruct_checked"),
                           verdict.get("ties"), verdict.get("seconds", 0.0)))
    if not trace:
        return result

    traced = [p for p in passes.values() if p["traced"]]
    untraced = [p for p in passes.values() if not p["traced"]]
    layer = result.layer

    def rate(ps):
        return sum(p["questions"] for p in ps) / sum(p["wall"] for p in ps)

    def per_question(ps, key):
        return sum(p["counters"].get(key, 0) for p in ps) / sum(p["questions"] for p in ps)

    tr_tok = [p for p in traced if p["method"] == "token"]
    tr_ins = [p for p in traced if p["method"] == "instruct"]
    if not result.require_layer(bool(tr_tok and tr_ins), "a traced pass of each method"):
        return result
    layer["eval.token_questions_per_s"] = (rate(tr_tok), "1/s")
    layer["eval.instruct_questions_per_s"] = (rate(tr_ins), "1/s")
    layer["eval.token_question_ms_p50"] = (median([p["p50_s"] * 1000 for p in tr_tok]), "ms")
    layer["eval.instruct_question_ms_p50"] = (median([p["p50_s"] * 1000 for p in tr_ins]), "ms")
    prompt_tokens = sum(p["cache_prompt_tokens"] for p in token)
    reused = sum(p["cache_reused_tokens"] for p in token)
    layer["eval.prefix_reuse_ratio"] = (reused / prompt_tokens, "ratio")
    layer["eval.prefix_cache_hits"] = (per_question(traced, "prefix_cache.hits"), "count")
    layer["eval.prefix_cache_misses"] = (per_question(traced, "prefix_cache.misses"), "count")
    busy = sum(p["busy_s"] for p in traced)
    wall = sum(p["wall"] for p in traced)
    layer["eval.worker_busy_ratio"] = (busy / (NPROC * wall), "ratio")
    layer["eval.generated_tokens_per_question"] = (
        per_question(tr_ins, "nn.generated_tokens"), "tokens")
    layer["eval.retries"] = (sum(p["retries"] for p in passes.values()), "count")
    layer["eval.degraded"] = (sum(p["degraded"] for p in passes.values()), "count")
    # Prompt tokens actually fed per token-method question (prompt minus the
    # forked prefix). Each fed token computes a full logit row and only the
    # last row is read.
    fed = (prompt_tokens - reused) / sum(p["questions"] for p in token)
    layer["nn.prefill_tokens"] = (fed, "count")
    layer["nn.logit_rows_used_ratio"] = (1.0 / fed, "computed")
    layer["tensor.gemv_calls"] = (per_question(traced, "gemm.gemv_calls"), "count")
    layer["tensor.multi_gemv_calls"] = (per_question(traced, "gemm.multi_gemv_calls"), "count")
    layer["tensor.gemm_calls"] = (per_question(traced, "gemm.calls"), "count")
    layer["util.pool_tasks"] = (per_question(traced, "pool.tasks_submitted"), "count")
    # Trace overhead from per-question latency: pass rates would also count
    # the work crashes lose, and tracing changes how often the pool crashes.
    un_tok = [p["p50_s"] for p in untraced if p["method"] == "token"]
    un_ins = [p["p50_s"] for p in untraced if p["method"] == "instruct"]
    if lead_in > 0 and result.require_layer(bool(un_tok and un_ins),
                                            "an untraced pass of each method"):
        layer["util.trace_overhead_ratio"] = (
            (median([p["p50_s"] for p in tr_tok]) + median([p["p50_s"] for p in tr_ins]))
            / (median(un_tok) + median(un_ins)) - 1.0, "ratio")
    if result.require_layer("peak_tracked_bytes" in verdict, "tracked memory peak"):
        layer["util.peak_tracked_mb"] = (verdict["peak_tracked_bytes"] / 1e6, "MB")
    layer["core.build_world_s"] = (sup.tagged("READY")[0][2]["build_world_s"], "s")
    add_self_times(result, state)
    return result


def add_self_times(result, state, top=8):
    times = self_times(trace_files(state))
    for name, ms in sorted(times.items(), key=lambda kv: -kv[1])[:top]:
        result.notes.append("self time %-28s %10.1f ms" % (name, ms))


# ------------------------------------------------------------ decode_bound

DECODE_BIN_S = 1.5


def decode_bound(seed, seconds, state, trace, lead_in=0.0, setup_runs=SETUP_SAMPLES):
    result = Result()
    argv = harness_argv("decode", seed, seconds, state, trace, lead_in) + [
        "--model-cache=%s" % os.path.join(BUILD_DIR, "models", "decode_bound.ckpt")]
    sup = Supervised("decode", argv, state, stall_s=15.0, hard_end=hard_end())
    finish_setup(result, sup, argv, state, "decode", setup_runs)
    verdict = verify_lines(result, sup)

    seqs = [p for _, _, p in sup.tagged("SEQ")]
    start, end = window(state, seconds)
    stamps, gaps = [], []
    for p in seqs:
        t = p["t0"] + p["admit_ms"] / 1000.0
        stamps.append(t)
        for gap in p["gaps_ms"]:
            t += gap / 1000.0
            stamps.append(t)
        gaps.extend(p["gaps_ms"])
    rates = live_bin_rates(stamps, sup.live, start, end, DECODE_BIN_S)
    started_log = os.path.join(state, "started.log")
    started = len(open(started_log).read().split()) if os.path.exists(started_log) else 0
    result.attempted = len(seqs)
    result.lost = started - len(seqs)
    result.require(bool(rates), "no live measurement interval")
    result.e2e["work_per_s"] = (median(rates), "1/s")
    result.e2e["latency_p50_ms"] = (percentile(gaps, 0.5), "ms")
    result.e2e["latency_tail_ms"] = (percentile(gaps, tail_quantile(len(gaps))), "ms")
    result.notes.append("decode: %d sequences, %d token gaps, %d live %.1fs bins, "
                        "tail quantile p%d" % (len(seqs), len(gaps), len(rates), DECODE_BIN_S,
                                               round(100 * tail_quantile(len(gaps)))))
    result.notes.append("decode verification: %s sequences vs serial GptInference, %s tokens "
                        "vs the oracle, %s ties, %.1fs" % (
                            verdict.get("sequences"), verdict.get("oracle_tokens"),
                            verdict.get("ties"), verdict.get("seconds", 0.0)))
    if not trace:
        return result
    layer = result.layer
    traced = [p for p in seqs if p["traced"]]
    if result.require_layer(bool(traced), "a traced sequence"):
        layer["nn.engine_admit_wait_ms_p50"] = (
            percentile([p["admit_ms"] for p in traced], 0.5), "ms")
    if lead_in > 0:
        traced_rate = median(live_bin_rates([t for t in stamps if t >= start + lead_in],
                                            sup.live, start + lead_in, end, DECODE_BIN_S))
        untraced_rate = median(live_bin_rates([t for t in stamps if t < start + lead_in],
                                              sup.live, start, start + lead_in, DECODE_BIN_S))
        if result.require_layer(traced_rate > 0 and untraced_rate > 0,
                                "decode rates with and without tracing"):
            layer["util.trace_overhead_ratio"] = (untraced_rate / traced_rate - 1.0, "ratio")
    ready = sup.tagged("READY")
    if result.require_layer(bool(ready), "a child that became ready"):
        layer["core.model_init_s"] = (ready[0][2]["model_init_s"], "s")
    # Engine counters restart with each child: take the last snapshot of the
    # child that completed the most sequences, per sequence it completed.
    per_child = {}
    for inc, _, p in sup.tagged("SEQ"):
        count, _ = per_child.get(inc, (0, None))
        per_child[inc] = (count + 1, p["engine"])
    if result.require_layer(bool(per_child and ready), "engine counters of a completed sequence"):
        done, m = max(per_child.values(), key=lambda v: v[0])
        layer["nn.engine_batch_occupancy"] = (m["occupancy_mean"], "tokens/step")
        layer["nn.engine_steps"] = (m["steps"] / done, "count")
        layer["tensor.gemv_calls"] = (m["gemm.gemv_calls"] / done, "count")
        layer["tensor.multi_gemv_calls"] = (m["gemm.multi_gemv_calls"] / done, "count")
        layer["tensor.gemm_calls"] = (m["gemm.calls"] / done, "count")
        layer["util.pool_tasks"] = (m["pool.tasks_submitted"] / done, "count")
        layer["util.peak_tracked_mb"] = (m["memory.peak_bytes"] / 1e6, "MB")
        # Weight bytes streamed per generated token: every step reads the
        # whole bf16 weight set once for all the sequences in the batch.
        layer["tensor.decode_weight_bytes_per_token"] = (
            2.0 * ready[0][2]["params"] / m["occupancy_mean"], "bytes.computed")
    add_self_times(result, state)
    return result


# --------------------------------------------------------------- cpt_train

CPT_BIN_S = 3.0
CPT_LOSS_WINDOW = 5
# A 30 s window holds about 40 step gaps without a snapshot, so the tail
# with ten samples beyond it is p75. It is fixed rather than taken from
# each run's count, which crashes vary, so that every run reports the
# same quantile.
CPT_TAIL_Q = 0.75


def step_gaps(events):
    """Optimiser-step gaps (ms) between consecutive STEP lines of one child
    and one epoch, split by whether the Trainer wrote a snapshot inside the
    gap: [(gap, after_snapshot, traced, previous payload, payload)]."""
    out = []
    previous = {}
    for inc, t, p in events:
        key = (inc, p["epoch"])
        last = previous.get(key)
        if last is not None and p["step"] == last[1]["step"] + 1:
            out.append(((t - last[0]) * 1000.0, last[1]["snapshot"], p["traced"], last[1], p))
        previous[key] = (t, p)
    return out


def cpt_train(seed, seconds, state, trace, lead_in=0.0, setup_runs=SETUP_SAMPLES):
    result = Result()
    argv = harness_argv("cpt", seed, seconds, state, trace, lead_in)
    sup = Supervised("cpt", argv, state, stall_s=4.0, hard_end=hard_end())
    finish_setup(result, sup, argv, state, "cpt", setup_runs)
    verdict = verify_lines(result, sup)

    events = sup.tagged("STEP")
    steps = {(p["epoch"], p["step"]): p for _, _, p in events}
    ordered = [steps[k] for k in sorted(steps)]
    losses = [p["loss"] for p in ordered]
    result.check(all(p["finite"] for p in ordered), "a training loss is not finite")
    first, last = losses[:CPT_LOSS_WINDOW], losses[-CPT_LOSS_WINDOW:]
    result.check(len(losses) >= 2 * CPT_LOSS_WINDOW, "fewer than %d optimiser steps"
                 % (2 * CPT_LOSS_WINDOW))
    if first and last:
        result.check(sum(last) / len(last) < sum(first) / len(first),
                     "mean loss of the last window is not below the first")
    epochs = [p for _, _, p in sup.tagged("EPOCH")]
    for p in epochs:
        result.check(p["tokens_processed"] == p["steps"] * p["tokens_per_step"],
                     "epoch %d: tokens_processed != steps x micro-batch x seq" % p["epoch"])
    # Step time leaves out the gaps in which the Trainer wrote a snapshot;
    # those are reported apart (nn.train_snapshot_ms), as is the epoch
    # boundary. Throughput counts everything.
    gaps = step_gaps(events)
    plain = [g for g, snap, _, _, _ in gaps if not snap]
    ready = sup.tagged("READY")
    per_step = ready[0][2]["tokens_per_step"] if ready else 0
    start, end = window(state, seconds)
    rates = live_bin_rates([t for _, t, _ in events], sup.live, start, end, CPT_BIN_S)
    result.attempted = len(steps)
    result.lost = len(events) - len(steps) + sup.restarts
    result.require(bool(rates), "no live measurement interval")
    result.e2e["work_per_s"] = (median(rates) * per_step, "1/s")
    result.e2e["latency_p50_ms"] = (percentile(plain, 0.5), "ms")
    result.e2e["latency_tail_ms"] = (percentile(plain, CPT_TAIL_Q), "ms")
    result.notes.append("cpt: %d steps (%d epochs of %s completed), %d step gaps without a "
                        "snapshot (tail p%d), loss %.3f -> %.3f (first/last %d-step means), "
                        "oracle loss %.3f -> %.3f" % (
                            len(steps), len(epochs), ready[0][2]["epoch_steps"] if ready else "?",
                            len(plain), round(100 * CPT_TAIL_Q),
                            sum(first) / max(1, len(first)), sum(last) / max(1, len(last)),
                            CPT_LOSS_WINDOW, verdict.get("loss_before", 0),
                            verdict.get("loss_after", 0)))
    result.notes.append("cpt verification: tokens_processed checked on %d finished epochs%s"
                        % (len(epochs), " and on the last snapshot (step %d)"
                           % verdict["snapshot_steps"] if "snapshot_steps" in verdict else ""))
    if not trace:
        return result
    layer = result.layer
    if result.require_layer(bool(ready), "a child that became ready"):
        layer["corpus.cpt_corpus_s"] = (ready[0][2]["cpt_corpus_s"], "s")
    traced_plain = [g for g, snap, traced, _, _ in gaps if traced and not snap]
    untraced_plain = [g for g, snap, traced, _, _ in gaps if not traced and not snap]
    snapshot_gaps = [g for g, snap, _, _, _ in gaps if snap]
    if result.require_layer(bool(traced_plain), "traced step gaps without a snapshot"):
        layer["nn.train_step_ms"] = (percentile(traced_plain, 0.5), "ms")
    if result.require_layer(bool(snapshot_gaps), "step gaps with a snapshot"):
        layer["nn.train_snapshot_ms"] = (
            percentile(snapshot_gaps, 0.5) - percentile(plain, 0.5), "ms")
    if lead_in > 0 and result.require_layer(bool(traced_plain and untraced_plain),
                                            "step gaps with and without tracing"):
        layer["util.trace_overhead_ratio"] = (
            percentile(traced_plain, 0.5) / percentile(untraced_plain, 0.5) - 1.0, "ratio")

    def per_step_count(name):
        return median([p["counters"][name] - q["counters"][name] for _, _, _, q, p in gaps])

    if result.require_layer(bool(gaps), "consecutive optimiser steps"):
        layer["tensor.gemv_calls"] = (per_step_count("gemm.gemv_calls"), "count")
        layer["tensor.multi_gemv_calls"] = (per_step_count("gemm.multi_gemv_calls"), "count")
        layer["tensor.gemm_calls"] = (per_step_count("gemm.calls"), "count")
        layer["util.pool_tasks"] = (per_step_count("pool.tasks_submitted"), "count")
    if result.require_layer("peak_tracked_bytes" in verdict, "tracked memory peak"):
        layer["util.peak_tracked_mb"] = (verdict["peak_tracked_bytes"] / 1e6, "MB")
    add_self_times(result, state)
    return result


# -------------------------------------------------------------- serve_chat

SERVE_OPEN_RATE = 40.0     # requests/s in the fixed-rate phase (~30% of capacity)
SERVE_OPEN_SHARE = 0.5     # share of the measured window at the fixed rate
SERVE_ORACLE_GENERATES = 12
SERVE_STALL_S = 5.0        # no reply for this long while loaded: a hung server


def hexbytes(text):
    """The raw bytes of a text read with surrogateescape, as hex."""
    return text.encode("utf-8", "surrogateescape").hex()


def serve_setup_sample(state):
    """One set-up of a fresh server: start until LISTENING, then stop it."""
    server = ServerProcess(state, False)
    server.stop()
    return server.ready_s[0] if server.ready_s else None


def run_serve_oracle(observations, state):
    path = os.path.join(state, "serve_observations.json")
    with open(path, "w") as handle:
        json.dump(observations, handle)
    argv = [HARNESS, "serve-oracle", "--in=%s" % path] + WORLD_FLAGS
    lines = run_child(argv, os.path.join(state, "serve-oracle.stderr"), "VERIFY", attempts=5)
    return [p for _, tag, p in lines if tag == "VERIFY"][-1] if lines else None


def untraced_capacity(seed, seconds, state):
    """Closed-loop capacity of an untraced server, for the trace overhead."""
    server = ServerProcess(state, False)
    try:
        _, health = Connection(server).request("GET", "/healthz")
        traffic = [Traffic(seed + 1, k, int(health.get("benchmark_questions", 1)))
                   for k in range(NPROC)]
        start = time.time()
        records, _ = closed_loop(server, traffic, start + seconds)
        stop = time.time()
    finally:
        server.stop()
    return live_rate([r["done"] for r in records], server.live, start, stop)


def serve_chat(seed, seconds, state, trace, lead_in=0.0, setup_runs=SETUP_SAMPLES):
    result = Result()
    untraced_rate = untraced_capacity(seed, lead_in, state) if trace and lead_in > 0 else 0.0
    server = ServerProcess(state, trace)
    try:
        port = server.wait_port()
        result.check(port is not None, "serve never printed LISTENING")
        _, health = Connection(server).request("GET", "/healthz")
        questions = int(health.get("benchmark_questions", 1))
        traffic = [Traffic(seed, k, questions) for k in range(NPROC)]
        scraper = MetricsScraper(server) if trace else None
        stop_watchdog = threading.Event()
        watchdog = threading.Thread(target=server.watchdog, args=(SERVE_STALL_S, stop_watchdog),
                                    daemon=True)
        watchdog.start()
        open_start = time.time()
        open_end = open_start + seconds * SERVE_OPEN_SHARE
        open_records, open_lost = open_loop(server, traffic, SERVE_OPEN_RATE, open_start,
                                            open_end)
        cap_start = time.time()
        cap_end = open_start + seconds
        cap_records, cap_lost = closed_loop(server, traffic, cap_end)
        cap_stop = time.time()
        stop_watchdog.set()
        watchdog.join()
        scraped = scraper.stop() if scraper else {}
        for problem in session_followups(server, seed):
            result.check(False, problem)
    finally:
        server.stop()
    samples = list(server.ready_s)
    for _ in range(3 * setup_runs):
        if len(samples) >= setup_runs:
            break
        sample = serve_setup_sample(state)
        if sample is not None:
            samples.append(sample)
    result.e2e["setup_s"] = (median(samples), "s")
    result.e2e["peak_rss_mb"] = (server.peak_rss_mb, "MB")
    result.restarts = server.restarts
    result.layer["util.process_restarts"] = (server.restarts, "count")
    if server.stalls:
        result.notes.append("%d restart(s) were hangs (no reply), not crashes" % server.stalls)

    records = open_records + cap_records
    bad = [r for r in records if r["status"] != 200]
    result.check(not bad, "%d requests failed with HTTP %s" % (
        len(bad), sorted(set(r["status"] for r in bad))))
    answers = {}
    for r in records:
        if r["kind"] == "mcq" and r["status"] == 200:
            answers.setdefault(r["body"]["question_index"], set()).add(r["reply"].get("answer"))
    result.check(all(len(a) == 1 for a in answers.values()),
                 "/v1/mcq answered one question two ways")
    generates = [r for r in records if r["kind"] != "mcq" and r["status"] == 200]
    picker = random.Random(seed)
    sample = picker.sample(generates, min(SERVE_ORACLE_GENERATES, len(generates)))
    verdict = run_serve_oracle({
        "mcq": [{"index": q, "answer": sorted(a)[0]} for q, a in sorted(answers.items())],
        "generate": [{"prompt_hex": hexbytes(r["body"]["prompt"]),
                      "max_new_tokens": MAX_NEW_TOKENS,
                      "text_hex": hexbytes(r["reply"].get("text", "ratio"))} for r in sample],
        "sessioned": [hexbytes(r["body"]["prompt"]) for r in records
                      if r["kind"] == "chat" and r["status"] == 200],
    }, state)
    result.check(verdict is not None and verdict.get("ok"), "serve oracle check failed")
    for problem in (verdict or {}).get("problems", []):
        result.problems.append(problem)

    # Fixed-rate latency counts requests that were due and answered within one
    # server incarnation; those held up by a restart are reported apart.
    def within_one_life(r):
        return any(a <= r["due"] and r["done"] <= b for a, b in server.live)

    steady = [r for r in open_records if r["status"] == 200 and within_one_life(r)]
    delayed = [r for r in open_records if r["status"] == 200 and not within_one_life(r)]
    latencies = [(r["done"] - r["due"]) * 1000.0 for r in steady]
    capacity = live_rate([r["done"] for r in cap_records], server.live, cap_start,
                         min(cap_end, cap_stop))
    result.attempted = len(records)
    result.lost = len(open_lost) + len(cap_lost)
    result.require(capacity > 0, "no live capacity interval")
    result.e2e["work_per_s"] = (capacity, "1/s")
    result.e2e["latency_p50_ms"] = (percentile(latencies, 0.5), "ms")
    tail_q = tail_quantile(len(latencies))
    result.e2e["latency_tail_ms"] = (percentile(latencies, tail_q), "ms")
    result.notes.append("serve: %d fixed-rate requests at %.0f/s (tail p%d; %d more held up "
                        "by a restart, p50 %.0f ms), %d capacity requests, oracle checked %s "
                        "MCQ answers and %s generations" % (
                            len(steady), SERVE_OPEN_RATE, round(100 * tail_q), len(delayed),
                            percentile([(r["done"] - r["due"]) * 1000.0 for r in delayed], 0.5),
                            len(cap_records), (verdict or {}).get("mcq_checked"),
                            (verdict or {}).get("generate_checked")))
    if trace:
        serve_layers(result, records, open_records, scraped, server, verdict or {}, state)
        if lead_in > 0 and result.require_layer(capacity > 0 and untraced_rate > 0,
                                                "capacity with and without tracing"):
            result.layer["util.trace_overhead_ratio"] = (untraced_rate / capacity - 1.0, "ratio")
    return result


def serve_layers(result, records, open_records, scraped, server, verdict, state):
    """Per-layer figures from the server's /metrics (counters summed over
    incarnations; latency percentiles from the incarnation that served the
    most requests, set against the client's view of that same incarnation)."""
    layer = result.layer
    if not result.require_layer(bool(scraped), "a /metrics scrape"):
        return
    totals = {}
    for values in scraped.values():
        for name, value in values.items():
            totals[name] = totals.get(name, 0.0) + value
    port, main = max(scraped.items(), key=lambda kv: kv[1].get("serve.http_requests", 0))
    life = server.lives.get(port)
    client = [(r["done"] - r["sent"]) * 1000.0 for r in records if r["status"] == 200
              and (life is None or life[0] <= r["sent"] and r["done"] <= life[1])]
    for name, key in (("serve.server_ms_p50", "serve.request_latency_ms_p50"),
                      ("serve.mcq_ms_p50", "serve.mcq_latency_ms_p50"),
                      ("serve.generate_ms_p50", "serve.generate_latency_ms_p50")):
        if result.require_layer(key in main, "/metrics " + key):
            layer[name] = (main[key], "ms")
    if result.require_layer(bool(client) and "serve.request_latency_ms_p50" in main,
                            "client latencies of the scraped server"):
        layer["serve.outside_ms_p50"] = (
            percentile(client, 0.5) - main["serve.request_latency_ms_p50"], "ms")
    per_token = [(r["done"] - r["sent"]) * 1000.0 / r["reply"]["tokens_generated"]
                 for r in records if r["kind"] != "mcq" and r["status"] == 200
                 and r["reply"].get("tokens_generated")]
    if result.require_layer(bool(per_token), "a generate reply with tokens"):
        layer["serve.generate_ms_per_token_p50"] = (percentile(per_token, 0.5), "ms")
    reused = sum(r["reply"].get("reused_prefix_tokens", 0) for r in records
                 if r["kind"] == "chat" and r["status"] == 200)
    prompt_tokens = verdict.get("sessioned_prompt_tokens", 0)
    if result.require_layer(prompt_tokens > 0, "sessioned prompt tokens"):
        layer["serve.session_reuse_ratio"] = (reused / prompt_tokens, "ratio")
    layer["serve.session_hits"] = (totals.get("serve.session_hits", 0.0), "count")
    layer["serve.session_misses"] = (totals.get("serve.session_misses", 0.0), "count")
    layer["serve.session_evictions"] = (
        totals.get("serve.session_capacity_evictions", 0.0), "count")
    layer["serve.shed_429"] = (totals.get("serve.responses_429", 0.0), "count")
    layer["serve.shed_503"] = (totals.get("serve.responses_503", 0.0), "count")
    layer["serve.expired_504"] = (totals.get("serve.responses_504", 0.0), "count")
    sessions = main.get("serve.sessions", 0.0)
    if result.require_layer(sessions > 0 and "memory.kv_bytes" in main, "live sessions' KV bytes"):
        layer["nn.kv_bytes_per_session"] = (main["memory.kv_bytes"] / sessions, "bytes")
    lags = [(r["sent"] - r["due"]) * 1000.0 for r in open_records]
    if result.require_layer(bool(lags), "fixed-rate requests"):
        layer["loadgen.send_lag_ms_p99"] = (percentile(lags, 0.99), "ms")
    requests = totals.get("serve.http_requests", 0.0) or 1.0
    layer["tensor.gemv_calls"] = (totals.get("gemm.gemv_calls", 0.0) / requests, "count")
    layer["tensor.multi_gemv_calls"] = (
        totals.get("gemm.multi_gemv_calls", 0.0) / requests, "count")
    layer["tensor.gemm_calls"] = (totals.get("gemm.calls", 0.0) / requests, "count")
    layer["util.pool_tasks"] = (totals.get("pool.tasks_submitted", 0.0) / requests, "count")
    layer["util.peak_tracked_mb"] = (
        max(v.get("memory.peak_bytes", 0.0) for v in scraped.values()) / 1e6, "MB")
    add_self_times(result, state)


WORKLOADS = {
    "mcq_eval": mcq_eval,
    "decode_bound": decode_bound,
    "cpt_train": cpt_train,
    "serve_chat": serve_chat,
}


# Companion slices: long enough for one traced round of each workload, and
# for cpt_train a step after its first snapshot (decode_bound's model takes
# seconds to load before its slice starts).
COMPANION_S = {"mcq_eval": 8.0, "decode_bound": 10.0, "cpt_train": 6.0, "serve_chat": 4.0}
# decode_bound's child can crash before its first sequence completes, so a
# slice is retried while the run's time allows: a retry needs its slice plus
# this much for model reloads after crashes, checks, the remaining slices
# and the probes (a 10 s decode_bound slice took 17-39 s in all).
COMPANION_ATTEMPTS = 6
COMPANION_RESERVE_S = 60.0


def traced_run(workload, seed, seconds, state):
    """The traced run: `workload` traced for `seconds` (after an untraced
    lead-in that gives util.trace_overhead_ratio), then a short traced slice
    of each other workload so that every per-layer metric is measured, then
    the per-layer probes. Figures of `workload` itself take precedence. A
    slice that a crash leaves without some of its figures is run again while
    the run's time allows."""
    lead_in = max(1.0, seconds / 3.0)
    own_state = os.path.join(state, workload)
    os.makedirs(own_state)
    result = WORKLOADS[workload](seed, seconds, own_state, True, lead_in)
    for other in sorted(WORKLOADS):
        if other == workload:
            continue
        for attempt in range(COMPANION_ATTEMPTS):
            sub_state = os.path.join(state, "%s-%d" % (other, attempt))
            os.makedirs(sub_state)
            companion = WORKLOADS[other](seed, COMPANION_S[other], sub_state, True, 0.0, 1)
            if companion.correct and not companion.unmeasured_layers:
                break
            if time.time() + COMPANION_S[other] + COMPANION_RESERVE_S > hard_end():
                break
            log("companion %s left out %s; running it again"
                % (other, companion.unmeasured_layers))
        result.check(companion.correct, "companion slice %s failed its checks" % other)
        result.problems.extend(companion.problems)
        for name, value in companion.layer.items():
            result.layer.setdefault(name, value)
        result.notes.append("companion %s: %d operations, %d restarts, %d attempts"
                            % (other, companion.attempted, companion.restarts, attempt + 1))
    for name, value in run_probes(seed, state).items():
        result.layer.setdefault(name, value)
    return result


def run_probes(seed, state):
    argv = [HARNESS, "probes", "--seed=%d" % seed, "--state=%s" % state]
    lines = run_child(argv, os.path.join(state, "probes.stderr"), "VERIFY", attempts=5)
    return {p["name"]: (p["value"], p["unit"]) for _, tag, p in lines or [] if tag == "PROBE"}
