"""The repository's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pb_er --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run; ``BENCHMARK.json`` lists
both.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
product is checked against the scipy oracle.  See perfbench/README.md
for what each workload and metric means.

The program is used from source (``src/``); the process writes only
under ``.perfbench/`` of the checkout: the JIT cache, temporary and
spill files, traces and full result records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("pb_er", "grid_rmat", "serve_mix")
RATE_NAMES = ("low", "mid", "high")

#: serve_mix latency limit of ``max_rate_ok``, as a multiple of the same
#: run's median latency at ``low``, where a request almost never waits
#: for another.  The tail at ``high`` measured 3-7.4x that median, on a
#: quiet and on a 3x slowed machine alike (README), so the limit is
#: crossed when queueing, not the machine's speed, grows the tail.
TAIL_GROWTH_LIMIT = 8.0

#: Set-up samples per run (launch to READY), reported as their median.
SETUP_SAMPLES = 5

#: Whole-run deadline; the contract allows 180 s.
DEADLINE_S = 170.0

#: Memory sampling period of the process tree.  Reading PSS walks page
#: tables; at 25 ms the sampler alone added 10-20% to serve_mix latency
#: on a 2-CPU machine, at 100 ms about 5% or less.
RSS_PERIOD_S = 0.1


class Failure(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _env(work: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_JIT_CACHE_DIR"] = os.path.join(work, "jit")
    env["REPRO_PLAN_CACHE_DIR"] = os.path.join(work, "plan")
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["PYTHONUNBUFFERED"] = "1"
    for d in ("jit", "plan", "tmp"):
        os.makedirs(os.path.join(work, d), exist_ok=True)
    return env


def _kill_group(proc) -> None:
    import signal

    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


class Child:
    """A worker process in its own process group, so every process it
    starts (server, pool workers, shards) is stopped with it."""

    def __init__(self, argv: list, env: dict, deadline: float, sample_rss: bool):
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + argv,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            start_new_session=True,
        )
        self.deadline = deadline
        self.peak_pss = 0
        self._lock = threading.Lock()
        self._epoch = 0  # bumped when the worker marks its memory baseline
        self._stop = threading.Event()
        self._sampler = None
        if sample_rss:
            self._sampler = threading.Thread(target=self._sample, daemon=True)
            self._sampler.start()

    def _sample(self) -> None:
        while not self._stop.is_set():
            epoch = self._epoch
            pss = common.tree_pss_bytes(self.proc.pid)
            with self._lock:
                if epoch == self._epoch:  # not taken before the baseline
                    self.peak_pss = max(self.peak_pss, pss)
            self._stop.wait(RSS_PERIOD_S)

    def _restart_peak(self) -> None:
        with self._lock:
            self._epoch += 1
            self.peak_pss = 0

    def _readline(self) -> str:
        line = self.proc.stdout.readline()
        if time.perf_counter() > self.deadline:
            raise Failure("deadline exceeded")
        return line

    def wait_ready(self) -> float:
        while True:
            line = self._readline()
            if not line:
                raise Failure(f"worker exited before READY (code {self.proc.wait()})")
            if line.strip() == "READY":
                return time.perf_counter() - self.t_launch

    def result(self) -> dict:
        last = ""
        for line in iter(self._readline, ""):
            if line.strip() == "BASELINE":
                self._restart_peak()
            elif line.strip():
                last = line
        code = self.proc.wait()
        if code != 0:
            raise Failure(f"worker exited with code {code}")
        try:
            return json.loads(last)
        except ValueError as exc:
            raise Failure(f"worker printed no result: {exc}") from None

    def close(self) -> None:
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()
        if self.proc.poll() is None:
            _kill_group(self.proc)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _watchdog(children: list, deadline: float) -> threading.Timer:
    """Kill every live child at the deadline, so a stuck worker cannot
    hold the run past the contract's limit."""
    def fire():
        for child in children:
            if child.proc.poll() is None:
                _kill_group(child.proc)

    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), fire)
    timer.daemon = True
    timer.start()
    return timer


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _tail(values) -> float:
    return common.tail(values)[0]


def _m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(workload: str, res: dict, setup: list, peak_bytes: int) -> dict:
    counts = res["counts"]
    attempted = max(counts["attempted"], 1)
    m = {
        "setup_s": _m(statistics.median(setup), "s"),
        "peak_rss_mb": _m(peak_bytes / 2**20, "MB"),
        "ok_ratio": _m(1.0 - counts["failed"] / attempted, "ratio"),
    }
    if workload == "serve_mix":
        rates = res["rates"]
        for name in RATE_NAMES:
            lat = rates[name]["latency_s"]
            m[f"op_s.p50.{name}"] = _m(common.p50(lat), "s")
            m[f"op_s.tail.{name}"] = _m(_tail(lat), "s")
        # ``low`` is the reference of the limit, so it always counts.
        limit = TAIL_GROWTH_LIMIT * common.p50(rates["low"]["latency_s"])
        best = rates["low"]["rate"]
        for name in RATE_NAMES[1:]:
            r = rates[name]
            # A failed request misses any limit: count it as infinite.
            worst = _tail(r["latency_s"] + [float("inf")] * r["failed"])
            # Requests unanswered at the end of a window, median over the
            # rate's windows: by Little's law at most rate x limit when
            # the limit holds; more means the backlog grows.
            backlog = statistics.median(r["backlog"])
            if worst <= limit and backlog <= max(1.0, r["rate"] * limit):
                best = max(best, r["rate"])
        # The op time of a request that (almost) never waits for another.
        m["op_s.p50"] = m["op_s.p50.low"]
        m["op_s.tail"] = m["op_s.tail.low"]
        m["max_rate_ok"] = _m(best, "1/s")
        compute = sum(sum(rates[n]["compute_s"]) for n in RATE_NAMES)
        flop = sum(rates[n]["flop"] for n in RATE_NAMES)
        m["gflop_s"] = _m(flop / compute / 1e9 if compute else 0.0, "GFLOP/s")
    else:
        secs = [t for t, _ in res["op_s"]]
        p, t = common.p50(secs), _tail(secs)
        m["op_s.p50"] = _m(p, "s")
        m["op_s.tail"] = _m(t, "s")
        # One closed-loop caller never queues: the per-rate latencies are
        # the op time itself, and the sustained rate is its throughput.
        for name in RATE_NAMES:
            m[f"op_s.p50.{name}"] = _m(p, "s")
            m[f"op_s.tail.{name}"] = _m(t, "s")
        m["max_rate_ok"] = _m(len(secs) / sum(secs), "1/s")
        m["gflop_s"] = _m(common.p50([f / t for t, f in res["op_s"]]) / 1e9, "GFLOP/s")
    return m


def per_layer(workload: str, res: dict, stream: dict) -> dict:
    copy = stream["copy_gbs"]
    m = {"stream.copy_gbs": _m(copy, "GB/s")}
    if workload == "serve_mix":
        lay = {}
        stats = res["server_stats"]  # one snapshot per server instance
        untraced = common.p50(res["mid_untraced"]["latency_s"])
        traced = common.p50(res["rates"]["mid"]["latency_s"])
    else:
        lay = res["layers"]
        stats = []
        untraced = common.p50([t for t, _ in res["op_s_untraced"]])
        traced = common.p50([t for t, _ in res["op_s"]])
    m["trace.overhead_frac"] = _m(traced / untraced - 1.0 if untraced else 0.0, "ratio")
    nops = lay.get("nops", 1)

    def per_op(key):
        return lay.get(key, 0) / nops

    for name in ("coerce", "symbolic", "expand", "distribute", "sort", "compress"):
        m[f"{name}.s"] = _m(per_op(f"{name}.self_s"), "s")
    for name in ("expand", "distribute", "sort", "compress"):
        dur = lay.get(f"{name}.dur_s", 0.0)
        gbs = lay.get(f"{name}.bytes", 0) / dur / 1e9 if dur else 0.0
        m[f"{name}.gbs"] = _m(gbs, "GB/s")
        m[f"{name}.stream_frac"] = _m(gbs / copy if copy else 0.0, "ratio")
    m["sort.calls"] = _m(per_op("sort.calls"), "count")
    m["radix_passes"] = _m(lay.get("sort_passes_max", 0), "count")
    cin = lay.get("compress_in", 0)
    m["compress.ratio"] = _m(lay.get("compress_out", 0) / cin if cin else 0.0, "ratio")
    m["convert.s"] = _m(per_op("pb.self_s"), "s")
    m["tuples"] = _m(per_op("flop"), "count")
    m["nnz_c"] = _m(per_op("nnz_c"), "count")
    m["nbins"] = _m(lay.get("nbins_median", 0), "count")

    calls = lay.get("shard_calls", [])
    launched = sum(c["shards"] for c in calls)
    recovered = sum(c["recovered"] for c in calls)
    imb = [c["busy_max_s"] / c["busy_mean_s"] for c in calls if c["busy_mean_s"] > 0]
    m["shard.s"] = _m(per_op("shard.self_s"), "s")
    m["shard.busy_s.max"] = _m(sum(c["busy_max_s"] for c in calls) / nops, "s")
    m["shard.imbalance"] = _m(float(np.mean(imb)) if imb else 0.0, "ratio")
    m["shard.broadcast_mb"] = _m(sum(c["broadcast_bytes"] for c in calls) / nops / 2**20, "MB")
    m["shard.returned_mb"] = _m(sum(c["returned_bytes"] for c in calls) / nops / 2**20, "MB")
    m["shard.recovered"] = _m(recovered / nops, "count")
    m["shard.fallback"] = _m(sum(1 for c in calls if c["fallback"]) / nops, "count")
    m["shard.useful_ratio"] = _m((launched - recovered) / launched if launched else 0.0, "ratio")
    m["shard.peak_rss_mb.max"] = _m(max((c["shard_peak_rss"] for c in calls), default=0) / 2**20, "MB")
    m["tile.count"] = _m((sum(c["tiles"] for c in calls) + lay.get("tiles_inline", 0)) / nops, "count")
    m["tile.spilled"] = _m((sum(c["spilled_tiles"] for c in calls)
                            + lay.get("parent_spilled_entries", 0)) / nops, "count")
    m["spill.mb"] = _m((sum(c["spilled_bytes"] for c in calls)
                        + lay.get("parent_spilled_bytes", 0)) / nops / 2**20, "MB")
    m["spill.s"] = _m(per_op("spill.self_s"), "s")
    m["merge.s"] = _m(per_op("merge.self_s"), "s")

    def total(path: tuple) -> float:
        """Sum of one counter over the server instances' stats."""
        out = 0
        for snap in stats:
            for key in path:
                snap = (snap or {}).get(key)
            out += snap or 0
        return out

    leases = total(("session", "arena_pool", "leases"))
    m["pool.spawns"] = _m(total(("session", "engine_spawns")), "count")
    m["pool.restarts"] = _m(total(("session", "engine_restarts")), "count")
    m["arena.leases"] = _m(leases, "count")
    m["arena.recycle_ratio"] = _m(total(("session", "arena_pool", "hits")) / leases
                                  if leases else 0.0, "ratio")

    rates = [res["rates"][n] for n in RATE_NAMES] if workload == "serve_mix" else []
    enc = res.get("layers", {}).get("serve.encode", [])
    dec = res.get("layers", {}).get("serve.decode", [])
    qw = [x for r in rates for x in r["queue_wait_s"]]
    served = sum(len(r["latency_s"]) for r in rates)
    waves = sum(r["waves"] for r in rates)
    m["serve.encode_s"] = _m(float(np.mean(enc)) if enc else 0.0, "s")
    m["serve.decode_s"] = _m(float(np.mean(dec)) if dec else 0.0, "s")
    m["serve.queue_wait_s.p50"] = _m(common.p50(qw), "s")
    m["serve.queue_wait_s.tail"] = _m(_tail(qw), "s")
    m["serve.wave_s.p50"] = _m(common.p50([x for r in rates for x in r["wave_s"]]), "s")
    m["serve.compute_s.p50"] = _m(common.p50([x for r in rates for x in r["compute_s"]]), "s")
    m["serve.wave_size.mean"] = _m(served / waves if waves else 0.0, "count")
    m["serve.fused_ratio"] = _m(sum(r["fused"] for r in rates) / served if served else 0.0, "ratio")
    m["serve.rejected"] = _m(total(("server", "counters", "rejected")), "count")
    m["serve.errors"] = _m(total(("server", "counters", "responses_error")), "count")
    m["gen.lag_s.tail"] = _m(_tail([x for r in rates for x in r["lag_s"]]), "s")
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(args) -> dict:
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise Failure(f"no program source under {os.path.join(ROOT, 'src')}")
    work = os.path.join(ROOT, ".perfbench")
    env = _env(work)
    jit_dir = env["REPRO_JIT_CACHE_DIR"]
    jit_cache = "warm" if any(f.endswith(".so") for f in os.listdir(jit_dir)) else "cold"

    machine = {
        "nproc": os.cpu_count(),
        "llc_bytes": common.llc_bytes(),
        "mem_available_bytes": common.mem_available_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jit_cache": jit_cache,
    }
    stream = None
    if args.trace:
        stream = common.stream_copy_gbs()
        machine["stream"] = stream

    base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    children: list = []
    watchdog = _watchdog(children, deadline)
    setup = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            child = Child(base + ["--setup-only"], env, deadline, sample_rss=False)
            children.append(child)
            try:
                setup.append(child.wait_ready())
                child.proc.wait()
            finally:
                child.close()
        trace_file = os.path.join(work, "traces", f"{args.workload}-seed{args.seed}.json")
        argv = base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--trace-file", trace_file, "--corrupt", str(args.corrupt)]
        child = Child(argv, env, deadline, sample_rss=True)
        children.append(child)
        try:
            setup.append(child.wait_ready())
            res = child.result()
        finally:
            child.close()
    finally:
        watchdog.cancel()
    machine["jit"] = res.get("jit")
    counts = res["counts"]
    if args.trace:
        metrics = per_layer(args.workload, res, stream)
    else:
        # Memory above what the worker held once its inputs and reference
        # products were built.  The worker's own peak is exact; sampling
        # catches the rest of the tree (shards, server, pool) at
        # RSS_PERIOD_S.
        peak = max(child.peak_pss - res["mem_baseline"]["pss"],
                   res["self_peak_above_baseline_bytes"])
        metrics = end_to_end(args.workload, res, setup, peak)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine,
        "setup_s": setup, "counts": counts, "metrics": metrics,
        "samples": _samples(res),
        "trace_file": trace_file if args.trace else None,
        "wall_s": time.perf_counter() - start,
    }
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    with open(os.path.join(work, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**record, "raw": res}, fh)
    return record


def _samples(res: dict) -> dict:
    """Timed sample count and tail percentile of each latency series."""
    series = {name: r["latency_s"] for name, r in res.get("rates", {}).items()}
    if "op_s" in res:
        series["op"] = [t for t, _ in res["op_s"]]
    return {name: {"n": len(v), "tail_pct": round(common.tail(v)[1], 1)}
            for name, v in series.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="PB-SpGEMM repository benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes: 'tiny' only smoke-tests the benchmark")
    p.add_argument("--corrupt", type=int, default=0, metavar="K",
                   help="test hook: corrupt every K-th product after it returns")
    args = p.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    try:
        rec = run(args)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    counts = rec["counts"]
    m = rec["metrics"]
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"timed samples {rec['samples']}; counts {counts}")
    print("machine " + json.dumps(rec["machine"], sort_keys=True))
    for name in sorted(m):
        print(f"  {name:28s} {m[name]['value']:.6g} {m[name]['unit']}")
    correct = counts["mismatched"] == 0 and counts["errors"] == 0
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": m}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
