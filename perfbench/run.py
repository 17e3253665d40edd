#!/usr/bin/env python3
"""End-to-end benchmark of the fairness certificate server, measured from
outside the process.

    python3 perfbench/run.py --workload cold --seed 7 --seconds 55 --trace 0

Run it from the root of a checkout.  It builds bin/fairness_cli.exe with
dune, starts `fairness serve` (one worker, one domain) on a socket under
.perfbench/, and drives it with one closed-loop client on one persistent
connection: the next query is sent when the previous answer has arrived.
Every query is a certificate search for E1 at budget 2000.

Workloads (inputs derive from --seed only):
  cold  a fresh seed per query: every query misses the cache, races the
        adversary space and runs about 2000 trials
  hit   8 seeds computed before timing starts, then asked in random order:
        every timed query is answered from the cache

Every answer is checked: its frame, its verdict against its body, and its
body's identity (experiment, seed, budget); hits must repeat the bytes of
the computed answer exactly; one answer per run must equal the bytes the
CLI computes inline (`query --no-daemon`), and the last computed answer
must come back as a cache hit with the same bytes.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1
runs with the server's query log on and reports per-layer metrics.  See
perfbench/README.md for what each metric means.
"""

import argparse
import itertools
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
from array import array

sys.dont_write_bytecode = True
import client  # noqa: E402

TARGET = "bin/fairness_cli.exe"
BIN = os.path.join("_build", "default", "bin", "fairness_cli.exe")
RUN_DIR = ".perfbench"
EXPERIMENT, BUDGET = "E1", 2000  # the query shape of both workloads
HIT_KEYS = 8  # the hit workload's working set, far below the cache's 256
SETUP_REPS = 15  # server starts per untraced run; setup_s is their median
WARMUP = 5  # untimed computed queries before the cold window
HIT_WARMUP = 1000  # untimed cache hits before the hit window
RUN_LIMIT_S = 165  # hard stop after the build, under the 180 s budget


class CheckFailed(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")  # no writes outside the checkout
    subprocess.run(cmd + ["build", "--root", ".", TARGET], check=True, env=env,
                   stdout=sys.stderr, timeout=880)


class Server:
    """`fairness serve` as a child process; [start_s] is spawn to first pong."""

    def __init__(self, sock, qlog):
        if os.path.exists(sock):
            os.unlink(sock)
        cmd = [BIN, "serve", "--socket", sock, "--jobs", "1", "--workers", "1"]
        if qlog:
            cmd += ["--qlog", qlog]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.conn = self.drain = None
        try:
            # The server prints one "serve.start" line once it is listening.
            line = b"-"
            while line and b'"serve.start"' not in line:
                line = self.proc.stderr.readline()
            if not line:
                raise CheckFailed("server exited before listening")
            self.conn = client.Conn(sock)
            if self.conn.request("ping")[0] != "pong":
                raise CheckFailed("ping not answered with pong")
        except BaseException:
            self.stop(kill=True)
            raise
        self.start_s = time.perf_counter() - t0
        # Keep draining stderr so the server can never block on a full pipe.
        self.drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self.drain.start()

    def stop(self, kill=False):
        if self.conn:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.drain:
            self.drain.join(timeout=10)
        self.proc.stderr.close()


def counters(conn):
    tag, doc = conn.request("stats")
    if tag != "stats":
        raise CheckFailed("stats request answered with %r" % tag)
    return doc["metrics"]["counters"]


def result(payload):
    tag, doc = client.decode(payload)
    if tag != "result":
        raise CheckFailed("%s frame: %s" % (tag, json.dumps(doc)))
    return doc


def check_answer(seed, doc, cached):
    """Structural checks on one decoded result frame."""
    if doc["cached"] != cached:
        raise CheckFailed("seed %d: cached=%s, expected %s" % (seed, doc["cached"], cached))
    cert = json.loads(doc["body"])
    if (cert["experiment"], cert["seed"], cert["budget"]) != (EXPERIMENT, seed, BUDGET):
        raise CheckFailed("seed %d: certificate does not match its query" % seed)
    if not 0 < cert["spent"] <= BUDGET:
        raise CheckFailed("seed %d: certificate spent %r of %d" % (seed, cert["spent"], BUDGET))
    if doc["ok"] != cert["within_bound"]:
        raise CheckFailed("seed %d: frame verdict %s contradicts body" % (seed, doc["ok"]))


def inline_body(seed):
    """The bytes the CLI computes in-process for the same query."""
    out = subprocess.run(
        [BIN, "query", EXPERIMENT, "-b", str(BUDGET), "--seed", str(seed), "--no-daemon",
         "--jobs", "1"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=60)
    return out.stdout


class Run:
    """One run's timed queries and its tally of checks."""

    def __init__(self, conn, trace_base):
        self.conn = conn
        self.attempted = self.failed = self.progress = 0
        self.errors = []
        self.lat = array("d")  # seconds, one per timed query, in order
        # Traced runs give timed query i the trace id trace_base + i, so its
        # query-log event pairs back to lat[i].
        self.trace_base = trace_base

    def ask(self, seed, trace_id=None):
        self.attempted += 1
        return self.conn.ask(client.search_frame(EXPERIMENT, BUDGET, seed, trace_id))

    def timed(self, seed):
        """One timed query; returns (its trace id or None, its final payload)."""
        tid = None if self.trace_base is None else "%032x" % (self.trace_base + len(self.lat))
        dt, progress, payload = self.ask(seed, tid)
        self.lat.append(dt)
        self.progress += progress
        return tid, payload

    def fail(self, err):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(str(err))


def drive_cold(run, rng, seconds):
    """Every query has a fresh seed, so every query is computed."""
    seeds = itertools.count(rng.randrange(1, 1 << 30))
    for _ in range(WARMUP):
        seed = next(seeds)
        check_answer(seed, result(run.ask(seed)[2]), cached=False)
    before = counters(run.conn)
    answers = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        seed = next(seeds)
        answers.append((seed, run.timed(seed)[1]))
    wall = time.perf_counter() - t0
    after = counters(run.conn)
    bodies = {}
    for seed, payload in answers:
        try:
            doc = result(payload)
            check_answer(seed, doc, cached=False)
            bodies[seed] = doc["body"]
        except (CheckFailed, KeyError, ValueError) as e:
            run.fail(e)
    # The most recent answer is still cached: asking again must hit and
    # return the same bytes.
    last = answers[-1][0]
    doc = result(run.ask(last)[2])
    check_answer(last, doc, cached=True)
    if doc["body"] != bodies.get(last):
        raise CheckFailed("seed %d: cache hit differs from the computed answer" % last)
    return wall, before, after, answers[0][0], bodies.get(answers[0][0])


def drive_hit(run, rng, seconds):
    """A fixed working set computed up front; every timed query hits."""
    keys = rng.sample(range(1, 1 << 30), HIT_KEYS)
    bodies, frames = {}, {}
    for seed in keys:
        doc = result(run.ask(seed)[2])
        check_answer(seed, doc, cached=False)
        bodies[seed] = doc["body"]
        frames[seed] = run.ask(seed)[2]
        doc = result(frames[seed])
        check_answer(seed, doc, cached=True)
        if doc["body"] != bodies[seed]:
            raise CheckFailed("seed %d: cache hit differs from the computed answer" % seed)
    for _ in range(HIT_WARMUP):
        seed = rng.choice(keys)
        if run.ask(seed)[2] != frames[seed]:
            raise CheckFailed("seed %d: warm-up hit changed bytes" % seed)
    before = counters(run.conn)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        seed = rng.choice(keys)
        tid, payload = run.timed(seed)
        if tid is None:
            if payload != frames[seed]:  # untraced hits repeat the exact frame
                run.fail("seed %d: hit frame differs from the first hit" % seed)
            continue
        try:  # a traced answer echoes its trace id, so compare the body
            doc = result(payload)
            if not doc["cached"] or doc["body"] != bodies[seed] or doc["trace_id"] != tid:
                run.fail("seed %d: traced hit differs from the computed answer" % seed)
        except (CheckFailed, KeyError, ValueError) as e:
            run.fail(e)
    wall = time.perf_counter() - t0
    after = counters(run.conn)
    return wall, before, after, keys[0], bodies[keys[0]]


WORKLOADS = {"cold": drive_cold, "hit": drive_hit}


def deciles(lat):
    return statistics.quantiles(lat, n=10, method="inclusive")


def end_to_end(run, setup):
    # The fast tenth, not the median: the host's CPUs slow down by about
    # 1.5x in phases of seconds, so a run's median lands in whichever mode
    # the phases favoured, while its 10th percentile stays in the fast one
    # (README.md has the measured spreads).
    return {
        "p10_ms": (1e3 * deciles(run.lat)[0], "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(run, delta, qlog, per_execution):
    n = len(run.lat)
    server = [None] * n  # query-log wall time: frame received -> answer written
    with open(qlog) as f:
        for line in f:
            ev = json.loads(line)
            i = int(ev["trace_id"], 16) - run.trace_base if ev["trace_id"] else -1
            if 0 <= i < n:
                server[i] = ev["wall_s"]
    if None in server:
        raise CheckFailed("%d timed queries have no query-log event" % server.count(None))
    execs = delta["engine.executions"]
    client_s, server_s = statistics.fmean(run.lat), statistics.fmean(server)
    dec = deciles(run.lat)
    probes = delta["service.cache.hits"] + delta["service.cache.misses"]
    return {
        "client.p10_ms": (1e3 * dec[0], "ms"),
        "client.p90_ms": (1e3 * dec[-1], "ms"),
        "client.mean_ms": (1e3 * client_s, "ms"),
        "server.mean_ms": (1e3 * server_s, "ms"),
        "transport.mean_us": (1e6 * (client_s - server_s), "us"),
        "server.us_per_work": (1e6 * server_s * n / (execs if per_execution else n), "us"),
        "cache.hit_ratio": (delta["service.cache.hits"] / probes, "ratio"),
        "engine.executions_per_query": (execs / n, "count"),
        "engine.rounds_per_execution": (delta["engine.rounds"] / max(execs, 1), "count"),
        "engine.messages_per_execution": (delta["engine.messages"] / max(execs, 1), "count"),
        "race.rounds_per_query": (delta["race.rounds"] / n, "count"),
        "progress.frames_per_query": (run.progress / n, "count"),
        "queries": (n, "count"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isfile("bin/fairness_cli.ml")):
        log("run from the root of a fair-protocol checkout (no dune-project/bin here)")
        return 2
    build()

    def over_time(*_):
        raise TimeoutError("run exceeded %d s" % RUN_LIMIT_S)

    signal.signal(signal.SIGALRM, over_time)
    signal.alarm(RUN_LIMIT_S)

    os.makedirs(RUN_DIR, exist_ok=True)
    name = os.path.join(RUN_DIR, "%s-%d" % (args.workload, os.getpid()))
    sock, qlog = name + ".sock", (name + ".qlog" if args.trace else None)

    def starts(k):
        """k throwaway server starts: the set-up samples."""
        out = []
        for _ in range(k):
            s = Server(sock, qlog)
            out.append(s.start_s)
            s.stop(kill=True)
        return out

    # Set-up is sampled before and after the timed window, so one slow
    # phase of the host cannot set a run's whole median.  A traced run
    # reports no setup_s and skips the samples.
    setup = [] if args.trace else starts(SETUP_REPS // 2)
    server = Server(sock, qlog)
    setup.append(server.start_s)

    trace_base = random.Random("trace:%d" % args.seed).getrandbits(96) if args.trace else None
    run = Run(server.conn, trace_base)
    try:
        wall, before, after, probe_seed, probe_body = WORKLOADS[args.workload](
            run, random.Random(args.seed), args.seconds)
    finally:
        server.stop()
    delta = {k: v - before.get(k, 0) for k, v in after.items()}
    if not args.trace:
        setup += starts(SETUP_REPS - len(setup))

    run.attempted += 1
    if probe_body is None or inline_body(probe_seed) != probe_body.encode():
        run.fail("seed %d: served bytes differ from the inline computation" % probe_seed)

    if args.trace:
        metrics = per_layer(run, delta, qlog, per_execution=args.workload == "cold")
    else:
        metrics = end_to_end(run, setup)
    for path in (sock, qlog):
        if path and os.path.exists(path):
            os.unlink(path)
    signal.alarm(0)
    for err in run.errors:
        log("check failed: " + err)
    log("%s: %d timed queries in %.1f s, %d failed" % (
        args.workload, len(run.lat), wall, run.failed))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (CheckFailed, subprocess.SubprocessError, OSError) as e:
        log("failed: %s" % e)
        sys.exit(1)
