"""Shared helpers of the benchmark: seeded inputs, statistics, the
product check, process-tree memory and the STREAM copy probe.

Nothing here imports ``repro``: the orchestrator (``run.py``) uses
these helpers without paying the program's import, which belongs to
the measured set-up time of each workload process.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

#: Relative tolerance of the value check.  PB-SpGEMM folds duplicates in
#: sorted-key order, scipy in its own order; both are IEEE float64 sums
#: of at most a few hundred terms of positive values, so they agree to
#: ~1e-15.  1e-9 leaves ample room and still catches any wrong entry.
VALUE_RTOL = 1e-9

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Seeded inputs (generated here, not by the program under test)
# ---------------------------------------------------------------------------

def er_scipy(n: int, nnz_per_row: int, rng: np.random.Generator, ncols: int | None = None):
    """n x ncols Erdos-Renyi matrix, ``nnz_per_row`` uniform columns per
    row (duplicates merged), values in [0.5, 1.5)."""
    import scipy.sparse as sp

    ncols = n if ncols is None else ncols
    rows = np.repeat(np.arange(n, dtype=np.int64), nnz_per_row)
    cols = rng.integers(0, ncols, size=rows.size)
    vals = rng.random(rows.size) + 0.5
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, ncols))
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


#: Graph500 R-MAT quadrant probabilities (a, b, c, d).
RMAT_GRAPH500 = (0.57, 0.19, 0.19, 0.05)


def rmat_scipy(scale: int, edge_factor: int, rng: np.random.Generator,
               params=RMAT_GRAPH500):
    """2^scale square R-MAT matrix with ``edge_factor * 2^scale`` edges
    (duplicates merged), vertex labels permuted, values in [0.5, 1.5)."""
    import scipy.sparse as sp

    n = 1 << scale
    ne = n * edge_factor
    a, b, c, _ = params
    rows = np.zeros(ne, dtype=np.int64)
    cols = np.zeros(ne, dtype=np.int64)
    for bit in range(scale):
        u = rng.random(ne)
        lower = u >= a + b  # quadrant c or d: row bit set
        right = ((u >= a) & (u < a + b)) | (u >= a + b + c)  # b or d
        rows |= lower.astype(np.int64) << bit
        cols |= right.astype(np.int64) << bit
    perm = rng.permutation(n)
    vals = rng.random(ne) + 0.5
    mat = sp.csr_matrix((vals, (perm[rows], perm[cols])), shape=(n, n))
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def flop_count(a, b) -> int:
    """Multiply-adds of A·B for scipy CSR operands: sum over k of
    nnz(A[:, k]) * nnz(B[k, :])."""
    a_colnnz = np.bincount(a.indices, minlength=a.shape[1])
    b_rownnz = np.diff(b.indptr)
    return int(a_colnnz.astype(np.int64) @ b_rownnz.astype(np.int64))


# ---------------------------------------------------------------------------
# Product check
# ---------------------------------------------------------------------------

def product_matches(c, ref) -> bool:
    """True when CSR product ``c`` has exactly ``ref``'s shape and
    structure (indptr, indices) and values within ``VALUE_RTOL``."""
    if tuple(c.shape) != tuple(ref.shape):
        return False
    if not np.array_equal(np.asarray(c.indptr), np.asarray(ref.indptr)):
        return False
    if not np.array_equal(np.asarray(c.indices), np.asarray(ref.indices)):
        return False
    return bool(np.allclose(c.data, ref.data, rtol=VALUE_RTOL, atol=0.0))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def p50(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64))) if len(values) else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples above it: the (TAIL_BEYOND + 1)-th largest
    sample, at percentile ``100 * (n - TAIL_BEYOND) / n``.  With fewer
    than ``TAIL_BEYOND + 1`` samples no such percentile exists and the
    minimum is returned at percentile 0."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = arr.size
    if n == 0:
        return 0.0, 0.0
    k = max(n - TAIL_BEYOND - 1, 0)
    return float(arr[k]), 100.0 * max(n - TAIL_BEYOND, 0) / n


# ---------------------------------------------------------------------------
# Machine record and memory
# ---------------------------------------------------------------------------

def llc_bytes() -> int:
    """Size of the largest CPU cache the OS reports (0 if unknown)."""
    best = 0
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            best = max(best, int(digits) * mult)
    return best


def mem_available_bytes() -> int:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def stream_copy_gbs(reps: int = 5) -> dict:
    """STREAM-style copy rate, b[:] = a, best of ``reps``, counting one
    read and one write per element.  Each array is 4x the LLC, capped
    at a quarter of available memory."""
    llc = llc_bytes()
    want = 4 * llc if llc else 256 << 20
    avail = mem_available_bytes()
    nbytes = min(want, avail // 4) if avail else want
    nbytes = max(nbytes, 16 << 20)
    n = nbytes // 8
    a = np.ones(n, dtype=np.float64)
    b = np.zeros_like(a)  # zeros_like + the first copy faults every page
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(b, a)
        best = min(best, time.perf_counter() - t0)
    return {
        "copy_gbs": 2 * n * 8 / best / 1e9,
        "array_bytes": int(n * 8),
        "llc_bytes": int(llc),
        "mem_available_bytes": int(avail),
    }


def _children(pid: int) -> list[int]:
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(x) for x in fh.read().split())
    except OSError:
        pass
    return out


def _pss_bytes(pid: int) -> int:
    """Proportional set size of one process: shared pages (shm arenas,
    fork copy-on-write) are split between the processes mapping them,
    so a sum over a process tree counts each page once."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _status_bytes(key: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024
    return 0


def memory_baseline() -> dict:
    """This process's memory now, and its peak-RSS mark reset to now
    (``/proc/self/clear_refs``), so ``peak_rss_since`` later reads the
    peak above this point.  ``reset`` is False where the kernel refuses
    the reset; the old mark then still holds everything before."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        reset = True
    except OSError:
        reset = False
    return {"pss": _pss_bytes(os.getpid()), "rss": _status_bytes("VmRSS"), "reset": reset}


def peak_rss_since(baseline: dict) -> int:
    """Peak RSS of this process above ``baseline`` (0 without a reset)."""
    if not baseline["reset"]:
        return 0
    return max(_status_bytes("VmHWM") - baseline["rss"], 0)


def tree_pss_bytes(root: int) -> int:
    """Summed PSS of ``root`` and all of its descendants."""
    total = 0
    stack = [root]
    seen = set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _pss_bytes(pid)
        stack.extend(_children(pid))
    return total
