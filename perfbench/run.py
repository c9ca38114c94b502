#!/usr/bin/env python3
"""Open-loop latency benchmark of the real semilocal_serve / semilocal_router.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload + max-rate sweep, full report
    python3 perfbench/run.py --selftest     # the benchmark's own checks

It builds the servers and the benchmark client from source (CMake, into
.bench_build/), starts the servers with their default flags, sets them up
(setup_s is the median of several spawn-to-ready set-ups), then drives one
timed window of the workload's seeded open-loop schedule and checks every
answer. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones (the
same window plus a traced in-process replay of the stream).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
CLIENT = os.path.join(BUILD, "perfbench_client")
SERVE = os.path.join(BUILD, "semilocal", "tools", "semilocal_serve")
ROUTER = os.path.join(BUILD, "semilocal", "tools", "semilocal_router")
WORK = os.path.join(".bench_build", "run")

WORKLOADS = ["warm_queries", "cold_compute", "corpus_mixed", "sharded_warm"]
# Set-ups per run (setup_s is their median): at least SETUPS, and more while
# they have taken under SETUP_BUDGET_S, so millisecond set-ups get a median
# of many samples.
SETUPS = 5
MAX_SETUPS = 100
SETUP_BUDGET_S = 3.0
DEADLINE_S = 170    # a run must end within 180 s
NOMINAL_RPS = {"warm_queries": 2000, "cold_compute": 100, "sharded_warm": 2000}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(REPO, "src")
    ):
        raise BenchError("no repository sources next to perfbench/: nothing to build")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target",
         "perfbench_client", "semilocal_serve", "semilocal_router"],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
    )


class Server:
    """One server process; its port is the first line it prints."""

    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise BenchError(f"{argv[0]} did not announce a port")
        self.port = int(line)
        self.pid = self.proc.pid

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Fleet:
    """The server processes a workload runs against."""

    def __init__(self, workload, corpus_dir):
        self.backends = []
        self.servers = []  # the front server (router or serve) first
        try:
            if workload == "sharded_warm":
                for _ in range(2):
                    self.backends.append(Server([SERVE, "--port", "0"]))
                    self.servers.append(self.backends[-1])
                spec = ",".join(str(b.port) for b in self.backends)
                self.servers.insert(0, Server([ROUTER, "--port", "0", "--shards", spec]))
            elif workload == "corpus_mixed":
                self.servers.append(Server([SERVE, "--port", "0", "--corpus-dir", corpus_dir]))
            else:
                self.servers.append(Server([SERVE, "--port", "0"]))
        except BaseException:
            self.stop()
            raise
        self.front = self.servers[0]

    def stop(self, keep_backends=False):
        for s in self.servers:
            if not (keep_backends and s in self.backends):
                s.stop()


class Client:
    def __init__(self, argv):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        )

    def expect(self, word):
        line = self.proc.stdout.readline()
        if not line.startswith(word):
            raise BenchError(f"client: expected '{word}', got '{line.strip()}'")
        return line.split()[1:]

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def provenance(seed, dispatch):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel_dispatch": dispatch,
        "env": {k: v for k, v in os.environ.items() if k.startswith(("OMP_", "SEMILOCAL_"))},
        "commit": source_commit(),
    }


def source_commit():
    """The git commit when there is one, else a digest of the sources built."""
    try:
        out = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            h.update(os.path.relpath(name, REPO).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def stat_deltas(before, after):
    """Numeric field deltas between two stats JSON documents."""
    b, a = json.loads(before), json.loads(after)
    return {k: a[k] - b.get(k, 0) for k, v in a.items() if isinstance(v, (int, float))}


def ratio(num, den):
    return num / den if den else 0.0


def run_once(workload, seed, seconds, trace, rate_scale=1.0, one_setup=False):
    """One benchmark run; returns the client's result document. With
    one_setup (or trace) the servers are set up once, not SETUPS times."""
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, f"{workload}-{seed}.json")
    corpus_dir = os.path.abspath(os.path.join(WORK, "corpus"))
    replay_dir = os.path.abspath(os.path.join(WORK, "replay_corpus"))
    for d in (corpus_dir, replay_dir, replay_dir + "_plain"):
        shutil.rmtree(d, ignore_errors=True)
    argv = [CLIENT, "drive", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", out_path, "--replay-dir", replay_dir,
            "--rate-scale", str(rate_scale)]
    if trace:
        argv.append("--trace")
    client = Client(argv)
    fleet = None
    try:
        client.expect("ready")
        setup_s = []
        started = time.monotonic()
        while True:
            shutil.rmtree(corpus_dir, ignore_errors=True)
            t_spawn = time.monotonic_ns()
            fleet = Fleet(workload, corpus_dir)
            client.send(f"setup {fleet.front.port}")
            (done_ns,) = client.expect("setup_done")
            setup_s.append((int(done_ns) - t_spawn) * 1e-9)
            more = len(setup_s) < SETUPS or time.monotonic() - started < SETUP_BUDGET_S
            if trace or one_setup or len(setup_s) == MAX_SETUPS or not more:
                break
            fleet.stop()
            fleet = None
        pids = ",".join(str(s.pid) for s in fleet.servers)
        ports = ",".join(str(s.port) for s in fleet.servers)
        client.send(f"measure {fleet.front.port} {pids} {ports} {corpus_dir}")
        if trace:
            client.expect("window_done")
            fleet.stop(keep_backends=True)
            client.send("replay " + ",".join(str(b.port) for b in fleet.backends))
        client.expect("done")
        if client.proc.wait(timeout=30) != 0:
            raise BenchError("client failed")
    finally:
        if fleet is not None:
            fleet.stop()
        client.stop()
    with open(out_path) as f:
        result = json.load(f)
    result["setup_s"] = setup_s
    return result


def end_to_end(r):
    return {
        "setup_s": {"value": statistics.median(r["setup_s"]), "unit": "s"},
        "cpu_ms_per_req": {"value": ratio(r["cpu_s"] * 1e3, r["ok"]), "unit": "ms"},
        "server_rss_mb": {"value": r["server_rss_mb"], "unit": "MB"},
    }


def per_layer(r):
    engines = [stat_deltas(b, a) for b, a in zip(r["stats_before"], r["stats_after"])]
    front = engines[0]
    eng = {}
    for d in engines:
        if "requests" in d and "router_requests" not in d:
            for k, v in d.items():
                eng[k] = eng.get(k, 0) + v
    reports = [json.loads(t) for t in r["upsert_reports"]]
    chunks = sum(x["chunks_computed"] for x in reports)
    reused = sum(x["chunks_reused"] for x in reports)
    prefix = sum(x["prefix_reused"] for x in reports)
    rep = r["replay"]
    cls = r["per_class"]
    inline = front.get("frontend_inline_answers", 0)
    pump = front.get("frontend_pump_answers", 0)
    m = {
        "protocol.decode_us": (rep["protocol.decode_us"], "us"),
        "protocol.encode_us": (rep["protocol.encode_us"], "us"),
        "protocol.bytes_per_req": (r["bytes_per_req"], "bytes"),
        "frontend.inline_frac": (ratio(inline, inline + pump), "ratio"),
        "frontend.retry_after": (front.get("frontend_retry_after_sent", 0), "count"),
        "frontend.unattributed_us": (r["latency"]["p50_ms"] * 1e3 - rep["trace.request_p50_us"], "us"),
        "key.digest_us": (rep["key.digest_us"], "us"),
        "key.bytes_hashed": (rep["key.bytes_hashed"], "bytes"),
        "kernel_store.hit_frac": (ratio(eng.get("cache_hits", 0), eng.get("requests", 0)), "ratio"),
        "kernel_store.find_us": (rep["kernel_store.find_us"], "us"),
        "kernel_store.evictions": (eng.get("cache_evictions", 0), "count"),
        "kernel_store.promotions": (eng.get("promotions", 0), "count"),
        "scheduler.resolve_ms": (rep["scheduler.resolve_ms"], "ms"),
        "scheduler.wait_ms": (rep["scheduler.wait_ms"], "ms"),
        "scheduler.mean_batch": (ratio(eng.get("computed", 0), eng.get("batches", 0)), "jobs"),
        "scheduler.coalesced": (eng.get("coalesced", 0), "count"),
        "scheduler.rejected": (eng.get("rejected", 0), "count"),
        "core.comb_ns_per_cell": (rep["core.comb_ns_per_cell"], "ns"),
        "core.cells": (rep["core.cells"], "count"),
        "query.index_build_ms": (rep["query.index_build_ms"], "ms"),
        "query.ns_per_window": (rep["query.ns_per_window"], "ns"),
        "query.windows": (eng.get("queries_indexed", 0) + eng.get("queries_scanned", 0)
                          + eng.get("queries_compressed", 0), "count"),
        "query.scanned": (eng.get("queries_scanned", 0), "count"),
        "plot.windows_per_s": (rep["plot.windows_per_s"], "1/s"),
        "plot.reused_descent_frac": (ratio(eng.get("plot_reused_descents", 0),
                                           eng.get("plot_windows", 0)), "ratio"),
        "plot.strip_computes": (rep["plot.strip_computes"], "count"),
        "corpus.upsert_ms": (rep["corpus.upsert_ms"], "ms"),
        "corpus.chunks_computed": (chunks, "count"),
        "corpus.prefix_reused_frac": (ratio(prefix, chunks + reused + prefix), "ratio"),
        "corpus.composes": (sum(x["composes"] for x in reports), "count"),
        "shard.hop_us": (rep["shard.hop_us"], "us"),
        "shard.failovers": (front.get("router_failovers", 0), "count"),
        "shard.hedges": (front.get("router_hedges", 0), "count"),
        "server.idle_cpu_frac": (r["idle_cpu_frac"], "cores"),
        "loadgen.late_p99_ms": (r["late_p99_ms"], "ms"),
        "loadgen.p50_ms": (r["latency"]["p50_ms"], "ms"),
        "loadgen.p99_ms": (r["latency"]["p99_ms"] or 0.0, "ms"),
        "loadgen.failed_frac": (ratio(r["failed"], r["attempted"]), "ratio"),
        "plot.p50_ms": (cls.get("plot", {}).get("p50_ms", 0.0), "ms"),
        "plot.p90_ms": (cls.get("plot", {}).get("p90_ms") or 0.0, "ms"),
        "corpus.upsert_p50_ms": (cls.get("upsert", {}).get("p50_ms", 0.0), "ms"),
        "corpus.upsert_p90_ms": (cls.get("upsert", {}).get("p90_ms") or 0.0, "ms"),
        "trace.overhead_frac": (rep["trace.overhead_frac"], "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def verdict(r):
    """(correct, reasons): wrong answers or an unkept schedule make a run
    invalid."""
    reasons = []
    if r["wrong"]:
        reasons.append(f"{int(r['wrong'])} wrong answers")
    if r["published_mismatches"]:
        reasons.append(f"{int(r['published_mismatches'])} published corpus mismatches")
    if not r["schedule_kept"]:
        reasons.append(f"generator fell behind its schedule (late p99 {r['late_p99_ms']:.3f} ms)")
    return not reasons, reasons


def report(workload, r):
    """Every end-to-end metric by name, with unit and sample count."""
    lat = r["latency"]
    lines = [f"# {workload}: rate {r['rate_rps']:g} req/s, {int(r['attempted'])} requests"]
    lines.append(f"  setup_s        {statistics.median(r['setup_s']):.4f} s   (median of {len(r['setup_s'])})")
    lines.append(f"  p50_ms         {lat['p50_ms']:.4f} ms  (n={int(lat['n'])})")
    p99 = "n/a" if lat["p99_ms"] is None else f"{lat['p99_ms']:.4f}"
    lines.append(f"  p99_ms         {p99} ms  (n={int(lat['n'])})")
    lines.append(f"  failed_frac    {ratio(r['failed'], r['attempted']):.6f}    "
                 f"({int(r['failed'])}/{int(r['attempted'])}: {int(r['overloaded'])} retry-after, "
                 f"{int(r['errors'])} error, {int(r['unanswered'])} unanswered, {int(r['wrong'])} wrong)")
    lines.append(f"  cpu_ms_per_req {ratio(r['cpu_s'] * 1e3, r['ok']):.4f} ms  (n={int(r['ok'])} ok)")
    lines.append(f"  server_rss_mb  {r['server_rss_mb']:.1f} MB")
    for cls in ("plot", "upsert"):
        c = r["per_class"].get(cls)
        if c:
            p90 = "n/a" if c["p90_ms"] is None else f"{c['p90_ms']:.3f}"
            lines.append(f"  {cls}_p50_ms  {c['p50_ms']:.3f} ms  (n={int(c['n'])})")
            lines.append(f"  {cls}_p90_ms  {p90} ms  (n={int(c['n'])})")
    lines.append(f"  loadgen.late_p99_ms {r['late_p99_ms']:.4f} ms; checked {json.dumps(r['checked'])}")
    return "\n".join(lines)


def max_rate(workload, seed):
    """Highest offered rate (nominal x 1.25^k) whose window (at least 5 s
    and 1100 requests, so p99 is supported) keeps p99 <= limit,
    failed_frac <= 0.001 and the generator's schedule. A step sets the
    servers up once: the sweep does not report setup_s. Returns the rate
    and the requests its window sent, or (None, 0)."""
    best, n = None, 0
    scale = 1.0
    while scale <= 64:
        seconds = max(5.0, 1100 / (NOMINAL_RPS[workload] * scale))
        r = run_once(workload, seed, seconds, False, scale, one_setup=True)
        lat = r["latency"]
        ok = (r["schedule_kept"] and lat["p99_ms"] is not None and lat["p99_ms"] <= r["limit_ms"]
              and ratio(r["failed"], r["attempted"]) <= 0.001 and not r["wrong"])
        log(f"  {workload} at {r['rate_rps']:g} req/s: p99 {lat['p99_ms']} ms, "
            f"failed {int(r['failed'])}, late p99 {r['late_p99_ms']:.3f} ms -> {'ok' if ok else 'over'}")
        if not ok:
            break
        best, n = r["rate_rps"], int(r["attempted"])
        scale *= 1.25
    return best, n


def on_deadline(*_):
    raise BenchError("run deadline passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, sweep max_rate_rps and print every metric")
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's self-tests")
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, on_deadline)
    try:
        build()
        if args.selftest:
            return subprocess.run([CLIENT, "selftest"]).returncode
        if args.all:
            ok = True
            r = None
            for w in WORKLOADS:
                r = run_once(w, args.seed, args.seconds, False)
                correct, reasons = verdict(r)
                ok = ok and correct
                print(report(w, r) + ("" if correct else f"\n  INVALID: {'; '.join(reasons)}"))
                if w in NOMINAL_RPS:
                    rate, n = max_rate(w, args.seed)
                    print(f"  max_rate_rps   {rate} req/s  (n={n})")
            print(json.dumps({"provenance": provenance(args.seed, r["kernel_dispatch"])}))
            return 0 if ok else 1
        if not args.workload:
            ap.error("--workload is required")
        signal.alarm(DEADLINE_S)
        r = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
        signal.alarm(0)
        correct, reasons = verdict(r)
        if reasons:
            log("invalid run: " + "; ".join(reasons))
        metrics = per_layer(r) if args.trace else end_to_end(r)
        if not args.trace:
            print(report(args.workload, r))
        print(json.dumps({"provenance": provenance(args.seed, r["kernel_dispatch"])}))
        print(json.dumps({"correct": correct, "attempted": int(r["attempted"]),
                          "failed": int(r["failed"]), "metrics": metrics}))
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
