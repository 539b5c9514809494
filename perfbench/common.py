"""Shared machinery of the end-to-end benchmark.

Input generation (netlist text from a seed), the calibration block, the
calibrated timer, percentile helpers, the span self-time analysis of the
traced run, and the host stamp.  Nothing here calls ``repro`` code.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
from collections import defaultdict

import numpy as np

# Frozen reference time of one calibration block: its time on a 2-vCPU
# x86-64 host with one BLAS thread, outside that host's slow phases.  Calibrated
# values are ``raw * CALIBRATION_REF_S / adjacent_block_time``, so they
# read in seconds of that reference machine.
CALIBRATION_REF_S = 0.055
_RNG = np.random.default_rng(20050307)
_EIG_MATRIX = _RNG.standard_normal((42, 42))
_SMALL_A, _SMALL_B = _RNG.standard_normal((2, 32, 32))
_DOCUMENT = {f"k{i}": [i, i / 7.0, f"v{i}"] for i in range(200)}
_BUFFER = _RNG.bytes(1 << 16)


def calibration_block() -> float:
    """Time a fixed block of work that calls no ``repro`` code.

    The units are Python-orchestrated LAPACK: about half of the block is
    a 42x42 ``eig`` loop, the rest small-array numpy dispatch, JSON
    round trips and SHA-256 hashing.  A host slow phase hits a pure
    ``eig`` loop harder than it hits the units, so an ``eig``-only block
    over-corrects; the mix tracks the units' own sensitivity.
    """
    start = time.perf_counter()
    for _ in range(48):
        np.linalg.eig(_EIG_MATRIX)
    for _ in range(2000):
        product = _SMALL_A @ _SMALL_B
        np.maximum(np.abs(product), 0.5, out=product).sum()
    for _ in range(40):
        json.loads(json.dumps(_DOCUMENT))
        hashlib.sha256(_BUFFER).hexdigest()
    return time.perf_counter() - start


class Meter:
    """Times units of work and calibrates each by its adjacent blocks.

    Every :meth:`time` call runs the unit, then a calibration block; the
    unit's calibrated value uses the mean of the block before it (the
    previous call's trailing block) and the block after it.  Raw and
    calibrated samples are both kept, so a load that hits calibration
    but not the unit shows as the two diverging.
    """

    def __init__(self):
        self.raw = defaultdict(list)
        self.calibrated = defaultdict(list)
        self.calibration_samples = []
        self._last = self.calibrate()

    def calibrate(self) -> float:
        """Run one calibration block and remember it as the latest."""
        block = calibration_block()
        self.calibration_samples.append(block)
        self._last = block
        return block

    def bracket(self, fn):
        """Run ``fn()`` then a block: ``(result, seconds, adjacent block)``."""
        before = self._last
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        return out, elapsed, 0.5 * (before + self.calibrate())

    def time(self, name: str, fn, per: int = 1):
        """Run ``fn()``; record its wall time divided by ``per``."""
        out, elapsed, block = self.bracket(fn)
        self.add(name, elapsed / per, block)
        return out

    def add(self, name: str, raw: float, block: float) -> None:
        """Record one raw sample calibrated by ``block``."""
        self.raw[name].append(raw)
        self.calibrated[name].append(raw * CALIBRATION_REF_S / block)

    def median(self, name: str) -> float:
        """Median calibrated sample of ``name``."""
        return float(np.median(self.calibrated[name]))

    def record(self) -> dict:
        """Raw and calibrated medians, spreads, and sample counts."""
        out = {}
        for name in sorted(self.raw):
            raw, cal = self.raw[name], self.calibrated[name]
            value, pct, n = tail_value(cal)
            out[name] = {
                "n": n,
                "raw_median": float(np.median(raw)),
                "calibrated_median": float(np.median(cal)),
                "raw_iqr_share": iqr_share(raw),
                "calibrated_iqr_share": iqr_share(cal),
                "tail": {"value": value, "percentile": pct},
            }
        out["host.calib_s"] = [round(c, 6) for c in self.calibration_samples]
        return out


class Operations:
    """Counts benchmark operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def attempt(self, what: str, fn):
        """Run one operation; an exception counts as a failure, not a crash."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            self.failed += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def counts(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def tail_value(samples):
    """The order statistic with exactly ten samples above it.

    Returns ``(value, percentile, count)``; with ten samples or fewer
    there is no such statistic and the maximum is reported instead.
    """
    values = np.sort(np.asarray(samples, dtype=float))
    n = values.size
    if n <= 10:
        return float(values[-1]), 100.0, n
    index = n - 11
    return float(values[index]), 100.0 * index / (n - 1), n


def iqr_share(samples) -> float:
    """Interquartile distance as a share of the median."""
    values = np.asarray(samples, dtype=float)
    if values.size < 2:
        return 0.0
    q1, q3 = np.percentile(values, [25, 75])
    median = np.median(values)
    return float((q3 - q1) / median) if median else 0.0


# -- inputs ---------------------------------------------------------------


def rc_tree_text(num_nodes: int, seed: int, r_range=(5.0, 50.0),
                 c_range=(5e-15, 5e-14), max_children: int = 3,
                 title: str = "rc-tree") -> str:
    """SPICE text of a random RC tree with ``num_nodes`` nodes.

    Node 0 is driven through a current port with a shunt driver
    resistance to ground; every other node hangs off a random earlier
    node with fan-out at most ``max_children``.  The last node is
    observed, so the model's outputs are (port voltage, far voltage).
    The draws follow the same sequence as ``repro``'s ``rc_tree``
    generator and values are written exactly, so a given seed describes
    the same net (``seed=2005`` with 10-20 ohm, 10-20 fF elements is the
    paper's 767-node Section 5.1 net).
    """
    rng = np.random.default_rng(seed)
    r_lo, r_hi = r_range
    c_lo, c_hi = c_range
    lines = [
        f".title {title}",
        f"Rdrv n0 0 {float(np.sqrt(r_lo * r_hi))!r}",
        f"C0 n0 0 {float(rng.uniform(c_lo, c_hi))!r}",
    ]
    open_nodes = [0]    # ascending: nodes with spare fan-out
    fanout = {0: 0}
    for node in range(1, num_nodes):
        parent = int(rng.choice(open_nodes))
        fanout[parent] += 1
        if fanout[parent] == max_children:
            open_nodes.remove(parent)
        fanout[node] = 0
        open_nodes.append(node)
        lines.append(f"R{node} n{parent} n{node} {float(rng.uniform(r_lo, r_hi))!r}")
        lines.append(f"C{node} n{node} 0 {float(rng.uniform(c_lo, c_hi))!r}")
    lines += [".port in n0", f".observe far n{num_nodes - 1}", ".end", ""]
    return "\n".join(lines)


def box_corners(num_parameters: int, magnitude: float) -> np.ndarray:
    """The ``2**n`` corners of the ``+-magnitude`` parameter box."""
    grid = np.array(np.meshgrid(*[[-magnitude, magnitude]] * num_parameters))
    return grid.reshape(num_parameters, -1).T.copy()


def voltage_transfer(response: np.ndarray) -> np.ndarray:
    """``v(far) / v(in)`` from a ``(..., nf, 2, 1)`` response block."""
    return response[..., 1, 0] / response[..., 0, 0]


def transfer_error(full: np.ndarray, reduced: np.ndarray) -> np.ndarray:
    """Per-instance ``max|Hf - Hr| / max|Hf|`` over the frequency axis."""
    full_vt = voltage_transfer(full)
    reduced_vt = voltage_transfer(reduced)
    return np.abs(full_vt - reduced_vt).max(axis=-1) / np.abs(full_vt).max(axis=-1)


# -- process facts ----------------------------------------------------------


def peak_rss_mib() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount, fstype = fields[1], fields[2]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def host_stamp(work_dir: str) -> dict:
    """CPU count, BLAS threads, store filesystem, and library versions."""
    import scipy

    return {
        "cpus": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "store_fs": filesystem_type(work_dir),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "calibration_ref_s": CALIBRATION_REF_S,
    }


# -- traced-run analysis ------------------------------------------------------


def self_times(records):
    """Map span id -> self seconds for every span record.

    A span's self time is its wall time minus the part of its interval
    covered by its children (union of child intervals, clipped to the
    parent).  Children are matched by ``parent_id``.
    """
    spans = [r for r in records if r.get("type") == "span"]
    children = defaultdict(list)
    for record in spans:
        if record.get("parent_id") is not None:
            children[record["parent_id"]].append(record)
    out = {}
    for record in spans:
        start = record["t_start"]
        end = start + record["wall_seconds"]
        intervals = sorted(
            (max(c["t_start"], start), min(c["t_start"] + c["wall_seconds"], end))
            for c in children.get(record["span_id"], ())
        )
        covered, cursor = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record["span_id"]] = max(record["wall_seconds"] - covered, 0.0)
    return out


def phase_self_times(records, selfs, root_name):
    """Self seconds by span name under every span called ``root_name``.

    Returns ``(number of such spans, their total wall seconds, {name:
    total self seconds})``, or ``None`` when no such span was recorded.
    """
    spans = [r for r in records if r.get("type") == "span"]
    roots = [r for r in spans if r["name"] == root_name]
    if not roots:
        return None
    children = defaultdict(list)
    for record in spans:
        children[record.get("parent_id")].append(record)
    sums = defaultdict(float)
    stack = list(roots)
    while stack:
        record = stack.pop()
        sums[record["name"]] += selfs[record["span_id"]]
        stack.extend(children.get(record["span_id"], ()))
    return len(roots), sum(r["wall_seconds"] for r in roots), sums


def trace_overhead(untraced, traced) -> float:
    """Median traced over median untraced sample, minus one."""
    if not untraced or not traced:
        return 0.0
    return float(np.median(traced) / np.median(untraced) - 1.0)


def counter_delta(before: dict, after: dict) -> dict:
    """Counter increments between two registry snapshots."""
    b, a = before.get("counters", {}), after.get("counters", {})
    return {k: a[k] - b.get(k, 0) for k in a if a[k] != b.get(k, 0)}


# -- the per-layer table ---------------------------------------------------------

# Every workload prints every row; a layer the workload never reaches
# reads 0.  Times are self seconds per rep (README: "per-layer table").
PER_LAYER = (
    ("circuits.parse_s", "s"),
    ("circuits.assemble_s", "s"),
    ("circuits.elements", "count"),
    ("core.reduce_s", "s"),
    ("core.order", "count"),
    ("engine.plan_s", "s"),
    ("engine.run_self_s", "s"),
    ("engine.plan_cache.hits", "count"),
    ("engine.plan_cache.misses", "count"),
    ("stream.chunk_self_s", "s"),
    ("stream.instances", "count"),
    ("stream.chunks", "count"),
    ("batch.eig_fallbacks", "count"),
    ("lowrank.ensembles", "count"),
    ("sparselu.factorizations", "count"),
    ("sparselu.refactorizations", "count"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.chunks_saved", "count"),
    ("store.chunks_loaded", "count"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_read", "bytes"),
    ("store.chunks_requeued", "count"),
    ("warehouse.ingest_s", "s"),
    ("warehouse.reingest_s", "s"),
    ("warehouse.ingest_useful", "ratio"),
    ("warehouse.rows_ingested", "count"),
    ("warehouse.bytes_written", "bytes"),
    ("warehouse.query_s", "s"),
    ("warehouse.files_scanned", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.detect_lag_s", "s"),
    ("serve.result_s", "s"),
    ("serve.http_requests_per_job", "count"),
    ("serve.jobs_cached", "count"),
    ("serve.jobs_failed", "count"),
    ("share.kernel", "ratio"),
    ("share.store_ingest", "ratio"),
    ("share.serve_cached", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.self_sum_error", "ratio"),
    ("obs.trace_overhead", "ratio"),
)


def per_layer_metrics(layers) -> dict:
    """Median of each per-layer sample list, 0 for layers never reached."""
    return {
        name: (float(np.median(layers[name])) if layers.get(name) else 0.0, unit)
        for name, unit in PER_LAYER
    }


# -- output -------------------------------------------------------------------


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the final result line: ``metrics`` maps name -> (value, unit)."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    sys.stdout.flush()


def print_rows(title: str, rows) -> None:
    """Human-readable ``name value unit`` lines, prefixed with ``#``."""
    print(f"# {title}")
    for name, value, unit in rows:
        print(f"#   {name:<34} {value:>14.6g} {unit}")
