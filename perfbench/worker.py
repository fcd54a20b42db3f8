"""One workload process of the benchmark.

``run.py`` launches this file once per set-up sample and once for the
measured run.  The process first sets up exactly what a user of the
workload pays for before the first op -- importing ``repro``, the JIT
warm-up, and for ``serve_mix`` starting ``repro serve`` and waiting for
its first ``ping`` -- then prints ``READY``.  ``run.py`` times launch to
``READY`` as ``setup_s``.  Only after that does it generate the seeded
inputs and their reference products, run the timed ops, check every
product, and print one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import common  # noqa: E402

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` only
#: exercises every code path quickly (the benchmark's own tests).
SIZES = {
    "full": {
        # 2^13 x 2^13 ER, 16 nnz/row: flop ~2.1 M, compression ~1.01,
        # expanded stream ~34 MB (8x the 4 MiB L2 of a core).
        "er_scale": 13, "er_nnz": 16,
        # R-MAT scale 12, edge factor 8: flop ~2.3 M, compression ~2.
        # 16 MiB per shard plans 2 shards x 7 column panels (square).
        "rmat_scale": 12, "rmat_ef": 8, "budget_mib": 16, "rmat_instances": 4,
        # serve_mix request mix: ER 2^6..2^9 rows x 4..8 nnz/row.
        "serve_scales": (6, 7, 8, 9), "serve_nnz": (4, 5, 6, 8),
    },
    "tiny": {
        "er_scale": 9, "er_nnz": 8,
        "rmat_scale": 9, "rmat_ef": 8, "budget_mib": 1, "rmat_instances": 2,
        "serve_scales": (5, 6), "serve_nnz": (2, 4),
    },
}

#: Fewest timed ops per window, whatever ``--seconds`` says.
MIN_OPS = 3


# ---------------------------------------------------------------------------
# Layer bindings of the traced run
# ---------------------------------------------------------------------------

def _pb_result(span, args, kwargs, result):
    span.attrs.update(flop=int(result.flop), nnz_c=int(result.nnz_c),
                      nbins=int(result.layout.nbins))


def _sort_result(span, args, kwargs, result):
    span.attrs.update(tuples=int(len(args[0])), passes=int(result[2]))


def _compress_result(span, args, kwargs, result):
    span.attrs.update(tuples_in=int(len(args[0])), tuples_out=int(len(result[0])))


def _sharded_result(span, args, kwargs, result):
    stats = result.shard_stats
    secs = [s.seconds for s in stats]
    span.attrs.update(
        shards=len(stats),
        busy_max_s=max(secs, default=0.0),
        busy_mean_s=float(np.mean(secs)) if secs else 0.0,
        broadcast_bytes=int(result.broadcast_bytes),
        returned_bytes=int(result.returned_bytes),
        recovered=int(result.recovered_shards),
        recovered_stats=sum(1 for s in stats if s.recovered),
        fallback=result.fallback,
        shard_peak_rss=int(result.max_shard_peak_rss),
        tiles=sum(s.tiles_computed for s in stats if not s.recovered),
        spilled_tiles=sum(s.spilled_tiles for s in stats),
        spilled_bytes=sum(s.spilled_bytes for s in stats),
    )


def _spill_put(span, args, kwargs, result):
    store = args[0]  # the counters are running totals of this store
    span.attrs.update(store=id(store), spilled_entries=int(store.spilled_entries),
                      spilled_bytes=int(store.spilled_bytes))


def bind_layers(tracer) -> None:
    """Wrap each layer's entry point where its caller looks it up."""
    w = tracer.wrap
    w("repro.api._coerce", "coerce")
    w("repro.core.pb_spgemm.pb_spgemm_detailed", "pb", on_result=_pb_result)
    w("repro.core.pb_spgemm.symbolic_phase", "symbolic")
    w("repro.core.pb_spgemm.expand_arena", "expand", count_bytes=True)
    w("repro.core.pb_spgemm.distribute_packed", "distribute", count_bytes=True)
    w("repro.core.pb_spgemm.distribute_plan", "distribute", count_bytes=True)
    w("repro.core.pb_spgemm.sort_tuples", "sort", count_bytes=True,
      on_result=_sort_result)
    w("repro.core.pb_spgemm.compress_keyed", "compress", count_bytes=True,
      on_result=_compress_result)
    w("repro.core.sharded.sharded_spgemm_detailed", "shard",
      on_result=_sharded_result)
    w("repro.core.sharded.hstack_tiles", "merge")
    w("repro.kernels.tile_merge.accumulate_partials", "merge")
    w("repro.core.tiled.SpillStore.put", "spill", on_result=_spill_put)
    w("repro.core.tiled.SpillStore.pop", "spill")
    w("repro.serve.client.encode_matrix", "serve.encode")
    w("repro.serve.client.decode_matrix", "serve.decode")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _csr(mat):
    from repro.matrix.csr import CSRMatrix

    return CSRMatrix.from_scipy(mat)


def _oracle(a, b):
    """Reference product through the program's own independent oracle
    (scipy), computed once per input, outside any timed region."""
    from repro.kernels.reference import scipy_spgemm_oracle

    return scipy_spgemm_oracle(_csr(a).to_csc(), _csr(b))


def _instance(pairs) -> dict:
    """Operands, reference products and flop of one op: a list of
    (A, B) products."""
    return {
        "operands": [(_csr(x), _csr(y)) for x, y in pairs],
        "refs": [_oracle(x, y) for x, y in pairs],
        "flop": sum(common.flop_count(x, y) for x, y in pairs),
    }


def compute_inputs(workload: str, seed: int, size: dict) -> list:
    """The op instances of a compute workload.

    ``pb_er`` has one instance, A·A.  ``grid_rmat`` cycles over several
    R-MAT instances, so a run's op time does not hinge on one sampled
    degree distribution.  Each is two products: A·A and A·A[:, S] with
    S a seeded quarter of the columns (k != n)."""
    if workload == "pb_er":
        rng = np.random.default_rng([seed, 0])
        a = common.er_scipy(1 << size["er_scale"], size["er_nnz"], rng)
        return [_instance([(a, a)])]
    rng = np.random.default_rng([seed, 1])
    instances = []
    for _ in range(size["rmat_instances"]):
        a = common.rmat_scipy(size["rmat_scale"], size["rmat_ef"], rng)
        n = a.shape[1]
        cols = np.sort(rng.choice(n, size=n // 4, replace=False))
        instances.append(_instance([(a, a), (a, a[:, cols].tocsr())]))
    return instances


def memory_baseline() -> dict:
    """Mark the start of the measured memory: the inputs and reference
    products are resident, no op has run.  ``run.py`` restarts its
    process-tree peak when it reads the ``BASELINE`` line, so
    ``peak_rss_mb`` leaves out the benchmark's own data."""
    base = common.memory_baseline()
    print("BASELINE", flush=True)
    return base


def serve_inputs(seed: int, size: dict) -> dict:
    """The request mix: every (scale, nnz/row) of the size grid in turn,
    so each seed offers the same work; only matrix contents vary."""
    rng = np.random.default_rng([seed, 2])
    mats = [common.er_scipy(1 << scale, nnz, rng)
            for nnz in size["serve_nnz"] for scale in size["serve_scales"]]
    return {
        "operands": [(_csr(a), _csr(a)) for a in mats],
        "refs": [_oracle(a, a) for a in mats],
        "flops": [common.flop_count(a, a) for a in mats],
    }


# ---------------------------------------------------------------------------
# Compute workloads: closed loop, one caller
# ---------------------------------------------------------------------------

def _compute_op(workload: str, nproc: int, budget: int):
    import repro
    from repro.core import PBConfig

    if workload == "pb_er":
        return lambda a, b: repro.multiply(a, b)
    config = PBConfig(memory_budget=budget)
    return lambda a, b: repro.multiply(a, b, shards=nproc, config=config)


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.errors = 0
        self.rejected = 0
        self.timed_out = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def closed_loop(op, instances, seconds, counts, *, tracer=None, alternate=False,
                corrupt_every=0) -> tuple[list, list]:
    """Run ops back to back for ``seconds``, cycling over the input
    instances.  With ``alternate`` every second op is traced (both
    halves see every instance).  Returns (untraced, traced) samples,
    each a list of (seconds, flop)."""
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end or len(plain) + len(traced) < MIN_OPS:
        i += 1
        counts.attempted += 1
        inputs = instances[((i - 1) // (2 if alternate else 1)) % len(instances)]
        trace_this = tracer is not None and (not alternate or i % 2 == 0)
        if trace_this:
            tracer.op = i
            tracer.bind()
            span = tracer.begin("op")
        try:
            t0 = time.perf_counter()
            products = [op(a, b) for a, b in inputs["operands"]]
            dt = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            counts.failed += 1
            counts.errors += 1
            continue
        finally:
            if trace_this:
                tracer.end(span)
                tracer.unbind()
        (traced if trace_this else plain).append((dt, inputs["flop"]))
        if corrupt_every and i % corrupt_every == 0:
            products[0].data[0] += 1.0
        if not all(common.product_matches(c, r) for c, r in zip(products, inputs["refs"])):
            counts.failed += 1
            counts.mismatched += 1
    return plain, traced


def run_compute(args, size) -> dict:
    nproc = os.cpu_count() or 1
    instances = compute_inputs(args.workload, args.seed, size)
    op = _compute_op(args.workload, nproc, size["budget_mib"] << 20)
    counts = Counts()
    out = {"flop": [x["flop"] for x in instances], "nproc": nproc,
           "mem_baseline": memory_baseline()}
    # Untimed ops first: lazy imports and first-touch allocations.  Their
    # products are checked and counted like every other.
    closed_loop(op, instances[:1], 0.0, counts)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        bind_layers(tracer)
        plain, traced = closed_loop(op, instances, args.seconds, counts,
                                    tracer=tracer, alternate=True,
                                    corrupt_every=args.corrupt)
        out["layers"] = compute_layers(tracer, len(traced))
        out["op_s_untraced"] = plain
        out["op_s"] = traced
        tracer.write_chrome(args.trace_file)
    else:
        plain, _ = closed_loop(op, instances, args.seconds, counts,
                               corrupt_every=args.corrupt)
        out["op_s"] = plain
    out["counts"] = counts.to_dict()
    return out


def compute_layers(tracer, nops: int) -> dict:
    """Per-layer figures of the traced ops, per op unless named
    otherwise.  Byte counts are the arrays each call reads and writes."""
    selfs = tracer.self_seconds()
    by_id = {s.id: s for s in tracer.spans}
    nops = max(nops, 1)
    agg: dict = {}

    def add(key, value):
        agg[key] = agg.get(key, 0) + value

    def under_shard(span) -> bool:
        while span.parent:
            span = by_id[span.parent]
            if span.name == "shard":
                return True
        return False

    sort_passes = []
    nbins = []
    shard_calls = []
    spill_totals: dict = {}  # (parent span, store) -> last running totals
    for s in tracer.spans:
        add(f"{s.name}.self_s", selfs[s.id])
        add(f"{s.name}.dur_s", s.seconds)
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.bytes", s.attrs.get("bytes", 0))
        if s.name == "pb":
            add("flop", s.attrs["flop"])
            add("nnz_c", s.attrs["nnz_c"])
            nbins.append(s.attrs["nbins"])
            if under_shard(s):
                add("tiles_inline", 1)
        elif s.name == "sort":
            sort_passes.append(s.attrs["passes"])
        elif s.name == "compress":
            add("compress_in", s.attrs["tuples_in"])
            add("compress_out", s.attrs["tuples_out"])
        elif s.name == "shard":
            shard_calls.append(s.attrs)
        elif s.name == "spill" and "store" in s.attrs:
            key = (s.parent, s.attrs["store"])
            old = spill_totals.get(key, (0, 0))
            spill_totals[key] = (max(old[0], s.attrs["spilled_entries"]),
                                 max(old[1], s.attrs["spilled_bytes"]))
    agg["parent_spilled_entries"] = sum(e for e, _ in spill_totals.values())
    agg["parent_spilled_bytes"] = sum(b for _, b in spill_totals.values())
    agg["sort_passes_max"] = max(sort_passes, default=0)
    agg["nbins_median"] = float(np.median(nbins)) if nbins else 0.0
    agg["shard_calls"] = shard_calls
    agg["nops"] = nops
    return agg


# ---------------------------------------------------------------------------
# serve_mix: open-loop Poisson arrivals against `repro serve`
# ---------------------------------------------------------------------------

def start_server(nproc: int):
    """Launch ``repro serve`` on an ephemeral port; return (proc, host, port)."""
    import subprocess

    cmd = [sys.executable, "-m", "repro", "serve", "--executor", "process",
           "--nthreads", str(nproc), "--port", "0", "--warm"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"repro serve did not start: {line!r}")
    where = line.split("listening on", 1)[1].split()[0]
    host, port = where.rsplit(":", 1)
    return proc, host, int(port)


def stop_server(proc) -> None:
    import subprocess

    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


async def serve_setup(nproc: int):
    from repro.serve import ServeClient

    proc, host, port = start_server(nproc)
    try:
        client = await ServeClient.connect(host, port)
        if not await client.ping():
            raise RuntimeError("first ping failed")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, client


async def serve_teardown(proc, client) -> None:
    try:
        await client.shutdown()
        await client.close()
    finally:
        stop_server(proc)


#: Offered rates of the serve_mix ladder, requests per second.
RATES = {"low": 20.0, "mid": 40.0, "high": 60.0}
#: Length of one rate's turn in the serve_mix ladder, seconds.
SUBWINDOW_S = 1.0
#: Servers started one after another in a serve_mix run, each serving
#: an equal share of it.  Latency differs more between server instances
#: than within one, so a run averages over several.
SERVER_INSTANCES = 3
#: Seed of the serve_mix arrival times (see run_serve).
ARRIVAL_SEED = 20200715
#: A request still unanswered this long after its window ends times out.
DRAIN_TIMEOUT_S = 10.0


async def open_loop(client, inputs, rate, seconds, rng, counts, tracer=None,
                    corrupt_every=0, id_base=0) -> dict:
    """Poisson arrivals at ``rate`` for ``seconds``; each request is
    timed from its scheduled send time."""
    import asyncio

    from repro.serve import RemoteError, RequestRejected

    loop = asyncio.get_running_loop()
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    if offsets.size < MIN_OPS:
        offsets = np.arange(MIN_OPS) / rate
    npairs = len(inputs["operands"])
    results = []

    async def one(k: int, due: float):
        rid = id_base + k + 1  # unique across windows; cycles the mix evenly
        idx = rid % npairs
        a, b = inputs["operands"][idx]
        sent = loop.time()
        if tracer is not None:
            tracer.op = rid
        try:
            reply = await client.multiply(a, b)
        except RequestRejected:
            return {"k": k, "status": "rejected", "lag": sent - due}
        except (RemoteError, ConnectionError) as exc:
            print(f"request {k}: {exc!r}", file=sys.stderr)
            return {"k": k, "status": "error", "lag": sent - due}
        done = loop.time()
        if tracer is not None:
            tracer.record("request", start0 + (due - t0), start0 + (done - t0), rid)
        c = reply.c
        if corrupt_every and (k + 1) % corrupt_every == 0:
            c.data[0] += 1.0
        return {"k": k, "status": "ok", "lag": sent - due, "latency": done - due,
                "idx": idx, "c": c, "timings": reply.timings, "batch": reply.batch}

    t0 = loop.time() + 0.01
    start0 = time.perf_counter() + 0.01
    tasks = []
    for k, off in enumerate(offsets):
        due = t0 + float(off)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(k, due)))
    window_end = t0 + seconds
    if loop.time() < window_end:
        await asyncio.sleep(window_end - loop.time())
    backlog = sum(1 for t in tasks if not t.done())
    done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
    for t in pending:
        t.cancel()
    for t in tasks:
        if t in pending:
            counts.attempted += 1
            counts.failed += 1
            counts.timed_out += 1
            continue
        results.append(t.result())
    latencies, failed_here = [], 0
    for r in results:
        counts.attempted += 1
        if r["status"] == "rejected":
            counts.failed += 1
            counts.rejected += 1
            failed_here += 1
        elif r["status"] == "error":
            counts.failed += 1
            counts.errors += 1
            failed_here += 1
        else:
            latencies.append(r["latency"])
            if not common.product_matches(r["c"], inputs["refs"][r["idx"]]):
                counts.failed += 1
                counts.mismatched += 1
                failed_here += 1
    ok = [r for r in results if r["status"] == "ok"]
    return {
        "rate": rate,
        "offered": int(offsets.size),
        "latency_s": latencies,
        "failed": failed_here + len(pending),
        "backlog": [backlog],
        "lag_s": [r["lag"] for r in results],
        "queue_wait_s": [r["timings"].get("queue_wait_s", 0.0) for r in ok],
        "wave_s": [r["timings"].get("wave_s", 0.0) for r in ok],
        "compute_s": [r["timings"].get("compute_s", 0.0) for r in ok],
        "flop": sum(inputs["flops"][r["idx"]] for r in ok),
        "waves": len({r["batch"].get("id") for r in ok}),
        "fused": sum(1 for r in ok if r["batch"].get("fused")),
    }


def _merge(total: dict | None, part: dict) -> dict:
    if total is None:
        return part
    for key, value in part.items():
        if isinstance(value, list):
            total[key].extend(value)
        elif key != "rate":
            total[key] += value
    return total


async def run_serve(args, size, server) -> dict:
    """The ladder, on ``SERVER_INSTANCES`` servers in turn.  ``server``
    is the (process, client) pair started during set-up; this function
    stops it and every later one."""
    nproc = os.cpu_count() or 1
    inputs = serve_inputs(args.seed, size)
    # The arrival times are one fixed Poisson realization, the same in
    # every run; only the matrices follow --seed.  The tail latency is
    # set by a few arrival bursts, and a fresh realization per run moved
    # it by a third of its value from run to run.
    rng = np.random.default_rng(ARRIVAL_SEED)
    counts = Counts()
    baseline = memory_baseline()
    # (key, rate, traced).  The traced run adds an untraced window at
    # the mid rate, the base of trace.overhead_frac.
    plan = [(name, rate, bool(args.trace)) for name, rate in RATES.items()]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        bind_layers(tracer)
        plan.insert(0, ("mid_untraced", RATES["mid"], False))
    # Rates take turns in short windows, so every rate samples the
    # whole run rather than one stretch of it.
    per_server = args.seconds / SERVER_INSTANCES
    rounds = max(1, round(per_server / (len(plan) * SUBWINDOW_S)))
    window = per_server / (len(plan) * rounds)
    results: dict = {}
    stats = []
    sent = 0
    for i in range(SERVER_INSTANCES):
        proc, client = server if i == 0 else await serve_setup(nproc)
        try:
            # Untimed warm-up: every request shape once, sequentially,
            # each reply checked and counted like every other.
            for (a, b), ref in zip(inputs["operands"], inputs["refs"]):
                counts.attempted += 1
                if not common.product_matches((await client.multiply(a, b)).c, ref):
                    counts.failed += 1
                    counts.mismatched += 1
            for _ in range(rounds):
                for key, rate, traced in plan:
                    if traced:
                        tracer.bind()
                    try:
                        part = await open_loop(client, inputs, rate, window, rng, counts,
                                               tracer=tracer if traced else None,
                                               corrupt_every=args.corrupt, id_base=sent)
                    finally:
                        if traced:
                            tracer.unbind()
                    sent += part["offered"]
                    results[key] = _merge(results.get(key), part)
            stats.append(await client.stats())
        finally:
            await serve_teardown(proc, client)
    out = {"nproc": nproc, "servers": SERVER_INSTANCES, "rounds": rounds,
           "window_s": window, "mid_untraced": results.pop("mid_untraced", None),
           "rates": results, "server_stats": stats, "counts": counts.to_dict(),
           "mem_baseline": baseline}
    if tracer is not None:
        selfs = tracer.self_seconds()
        out["layers"] = {
            name: [selfs[s.id] for s in tracer.spans if s.name == name]
            for name in ("serve.encode", "serve.decode")
        }
        tracer.write_chrome(args.trace_file, track_per_op=True)
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=("pb_er", "grid_rmat", "serve_mix"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--trace-file", default="trace.json")
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--corrupt", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    size = SIZES[args.size]

    # ---- set-up: what a user pays before the first op ----------------------
    import repro  # noqa: F401
    from repro.kernels import jit

    jit.warmup()
    if args.workload == "serve_mix":
        import asyncio

        async def serve_main():
            server = await serve_setup(os.cpu_count() or 1)
            print("READY", flush=True)
            if args.setup_only:
                await serve_teardown(*server)
                return None
            return await run_serve(args, size, server)

        result = asyncio.run(serve_main())
    else:
        print("READY", flush=True)
        result = None if args.setup_only else run_compute(args, size)
    if result is None:
        return 0

    result["jit"] = jit.jit_status()
    result["self_peak_above_baseline_bytes"] = common.peak_rss_since(result["mem_baseline"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
