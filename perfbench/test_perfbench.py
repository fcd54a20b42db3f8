"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q

The end-to-end tests run the same command the benchmark is run with,
on tiny inputs (``--size tiny``), and check that it emits every metric
``BENCHMARK.json`` names, with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
from tracer import Tracer  # noqa: E402

UNITS = {"s", "MB", "ratio", "1/s", "GFLOP/s", "GB/s", "count"}

#: Per-layer metrics of layers that run on each workload: a wrapper that
#: stops firing, or a result field that stops being read, leaves them 0.
#: ``shard.recovered``: the k != n product loses its shards on the
#: current code, and the benchmark must show it.
RUNS_ON = {
    "pb_er": ("coerce.s", "expand.s", "distribute.s", "sort.s", "sort.calls",
              "compress.s", "nnz_c", "tuples"),
    "grid_rmat": ("shard.s", "shard.busy_s.max", "shard.broadcast_mb", "tile.count",
                  "merge.s", "expand.s", "shard.recovered"),
    "serve_mix": ("serve.encode_s", "serve.decode_s", "serve.compute_s.p50",
                  "serve.wave_size.mean", "arena.leases", "pool.spawns"),
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT, timeout=170):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _tiny(workload: str, trace: int, *extra) -> dict:
    out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", *extra)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pb_er", "grid_rmat", "serve_mix"])
def test_tiny_run_emits_every_metric(workload, trace):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = _tiny(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"] and m["unit"] in UNITS
        assert np.isfinite(got["value"])
    if trace:
        for name in RUNS_ON[workload]:
            assert metrics[name]["value"] > 0, name
    else:
        for m in wanted:  # end-to-end metrics are never 0
            assert metrics[m["name"]]["value"] > 0, m["name"]


def test_shard_recovery_is_counted():
    """A recovered shard counts in shard.recovered and against
    shard.useful_ratio, even though the product it returns is correct."""
    import run

    call = {"shards": 2, "recovered": 2, "busy_max_s": 0.5, "busy_mean_s": 0.4,
            "broadcast_bytes": 2**20, "returned_bytes": 0, "fallback": None,
            "shard_peak_rss": 0, "tiles": 0, "spilled_tiles": 0, "spilled_bytes": 0}
    square = dict(call, recovered=0, tiles=4)
    res = {"layers": {"nops": 1, "shard_calls": [square, call], "tiles_inline": 3},
           "op_s": [(1.0, 1)], "op_s_untraced": [(1.0, 1)]}
    m = run.per_layer("grid_rmat", res, {"copy_gbs": 10.0})
    assert m["shard.recovered"]["value"] == 2
    assert m["shard.useful_ratio"]["value"] == 0.5
    assert m["tile.count"]["value"] == 7
    assert m["shard.broadcast_mb"]["value"] == 2


def _rate(latency_ms: float, rate: float) -> dict:
    lat = [latency_ms / 1e3] * 50
    return {"rate": rate, "latency_s": lat, "failed": 0, "backlog": [1, 2, 1],
            "compute_s": [0.01] * 50, "flop": 1000}


def test_max_rate_ok_drops_a_rung_when_queueing_grows_the_tail():
    import run

    res = {"counts": {"attempted": 150, "failed": 0},
           "rates": {"low": _rate(20, 20.0), "mid": _rate(30, 40.0), "high": _rate(40, 60.0)}}
    assert run.end_to_end("serve_mix", res, [1.0], 1)["max_rate_ok"]["value"] == 60
    # The same growth on a uniformly slower machine stays within the limit.
    slow = {n: _rate(3 * ms, r) for n, ms, r in (("low", 20, 20.0), ("mid", 30, 40.0),
                                                 ("high", 40, 60.0))}
    assert run.end_to_end("serve_mix", dict(res, rates=slow), [1.0], 1)[
        "max_rate_ok"]["value"] == 60
    res["rates"]["high"] = _rate(20 * run.TAIL_GROWTH_LIMIT * 1.5, 60.0)
    assert run.end_to_end("serve_mix", res, [1.0], 1)["max_rate_ok"]["value"] == 40
    res["rates"]["mid"]["backlog"] = [9, 9, 9]  # > 40 req/s x limit: growing
    assert run.end_to_end("serve_mix", res, [1.0], 1)["max_rate_ok"]["value"] == 20


@pytest.mark.parametrize("workload", ["pb_er", "serve_mix"])
def test_corrupted_product_counts_as_failed(workload):
    result = _tiny(workload, 0, "--corrupt", "2")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(
        1 - result["failed"] / result["attempted"])
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_fails_without_program_source(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run("--workload", "pb_er", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path), timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_unknown_workload_rejected():
    out = _run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0",
               timeout=60)
    assert out.returncode != 0 and '"metrics"' not in out.stdout


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    value, pct = common.tail(values)
    assert value == 89 and pct == 90.0
    assert sum(v > value for v in values) == common.TAIL_BEYOND


def test_product_check_catches_structure_and_values():
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    a = common.er_scipy(64, 4, rng)
    ref = (a @ a).tocsr()
    ok = ref.copy()
    assert common.product_matches(ok, ref)
    bad_val = ref.copy()
    bad_val.data[3] *= 1 + 1e-6
    assert not common.product_matches(bad_val, ref)
    bad_struct = sp.csr_matrix(ref.toarray()[:, ::-1])
    assert not common.product_matches(bad_struct, ref)


def test_generators_are_seeded():
    x = common.rmat_scipy(8, 4, np.random.default_rng(7))
    y = common.rmat_scipy(8, 4, np.random.default_rng(7))
    assert (x != y).nnz == 0
    pattern = (x != 0).astype(np.int64)
    assert common.flop_count(x, x) == int((pattern @ pattern).sum())


def test_tracer_self_time_and_chrome_output(tmp_path):
    tr = Tracer()
    outer = tr.begin("outer")
    inner = tr.begin("inner")
    tr.end(inner)
    tr.end(outer)
    selfs = tr.self_seconds()
    assert selfs[outer.id] == pytest.approx(outer.seconds - inner.seconds)
    assert selfs[inner.id] == pytest.approx(inner.seconds)
    assert inner.parent == outer.id
    path = tmp_path / "t.json"
    tr.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
