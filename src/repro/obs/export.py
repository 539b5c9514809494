"""Trace exporters: JSONL files, human summaries, chunk lineage.

The on-disk format is one JSON object per line (``repro-trace/v1``).
Three record types share the stream:

- ``meta``    -- file header: format tag, creating pid, wall-clock time;
- ``span``    -- one closed span (see :mod:`repro.obs.trace`);
- ``metrics`` -- a metrics-registry delta, emitted once per study run.

JSONL appends are line-atomic, so several workers may point at separate
files and the files can simply be concatenated (or read together with
:func:`read_trace`) -- span ids are unique across processes, which is
what makes :func:`chunk_lineage` able to merge workers' traces into one
per-chunk report.
"""

from __future__ import annotations

import json
import os
import time

from repro.obs.trace import encode_record

__all__ = [
    "JsonlSink",
    "TRACE_FORMAT",
    "chunk_lineage",
    "lineage_sources",
    "read_trace",
    "summarize_trace",
]

TRACE_FORMAT = "repro-trace/v1"


class JsonlSink:
    """Trace sink appending one JSON record per line to a file.

    The file is opened lazily on the first record (so configuring a
    trace path never creates empty files for runs that emit nothing)
    and a ``meta`` header line is written first.

    Appends are **line-atomic across processes**: the file descriptor
    is opened with ``O_APPEND`` and every record goes down as a single
    ``os.write`` of one pre-joined line, so several workers tracing to
    the same file can never interleave mid-record.  (The previous
    buffered-text implementation could tear lines under concurrency;
    :func:`read_trace` silently drops unparsable lines, so the tear
    cost real lineage, not just cosmetics.)  Kernel-level appends also
    mean there is no userspace buffer to flush -- a SIGKILL loses
    nothing already emitted.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fd = None

    def _open(self):
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        header = {
            "type": "meta",
            "format": TRACE_FORMAT,
            "pid": os.getpid(),
            "created": time.time(),
        }
        self._write_line(header)

    def _write_line(self, record):
        data = (encode_record(record) + "\n").encode("utf-8")
        # One write() per line: with O_APPEND the kernel serializes the
        # offset update and the data, which is the whole atomicity story.
        os.write(self._fd, data)

    def emit(self, record):
        """Append one record as a single atomic write."""
        if self._fd is None:
            self._open()
        self._write_line(record)

    def close(self):
        """Close the underlying file descriptor (idempotent)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"JsonlSink({self.path!r})"


def read_trace(path):
    """Read a JSONL trace file into a list of record dicts.

    Lines that fail to parse (e.g. a final line truncated by a kill)
    are skipped rather than fatal -- traces are evidence, and partial
    evidence is still evidence.
    """
    records = []
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def _spans(records):
    return [r for r in records if r.get("type") == "span"]


def _format_seconds(value):
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.2f}ms"


def _phase_tree_lines(spans):
    """Aggregate spans by (depth, name) under their parent grouping."""
    by_id = {s["span_id"]: s for s in spans}
    children = {}
    roots = []
    for record in spans:
        parent = record.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)

    lines = []

    def walk(group, depth):
        if depth > 6 or not group:
            return
        named = {}
        for record in group:
            named.setdefault(record["name"], []).append(record)
        ordered = sorted(
            named.items(),
            key=lambda item: -sum(r["wall_seconds"] for r in item[1]),
        )
        for name, members in ordered:
            wall = sum(r["wall_seconds"] for r in members)
            cpu = sum(r["cpu_seconds"] for r in members)
            lines.append(
                f"{'  ' * depth}{name:<{max(28 - 2 * depth, 8)}}"
                f" {_format_seconds(wall):>9}  cpu {_format_seconds(cpu):>9}"
                f"  x{len(members)}"
            )
            grandchildren = []
            for member in members:
                grandchildren.extend(children.get(member["span_id"], []))
            walk(grandchildren, depth + 1)

    walk(roots, 0)
    return lines


def summarize_trace(records):
    """Render a human report: phase time tree, tiers, throughput.

    ``records`` is the output of :func:`read_trace`; records from
    several trace files may be concatenated first to summarize a
    study drained by several workers as one run.
    """
    spans = _spans(records)
    lines = []
    runs = [s for s in spans if s["name"] == "study.run"]
    lines.append(
        f"=== trace summary: {len(spans)} spans, "
        f"{len(runs)} study run(s), "
        f"{len({s['pid'] for s in spans})} process(es) ==="
    )

    lines.append("")
    lines.append("phase tree (wall time, summed over spans):")
    tree = _phase_tree_lines(spans)
    lines.extend("  " + line for line in tree)
    if not tree:
        lines.append("  (no spans)")

    tiers = {}
    for record in spans:
        if record["name"] != "sparse.refactor":
            continue
        kind = record["attrs"].get("solver", "unknown")
        count, wall, fallbacks = tiers.get(kind, (0, 0.0, 0))
        tiers[kind] = (
            count + 1,
            wall + record["wall_seconds"],
            fallbacks + record["attrs"].get("fallbacks", 0),
        )
    if tiers:
        lines.append("")
        lines.append("solver tiers:")
        for kind, (count, wall, fallbacks) in sorted(tiers.items()):
            lines.append(
                f"  {kind}: {count} solve(s), {_format_seconds(wall)}, "
                f"{fallbacks} fallback(s)"
            )

    chunk_spans = [s for s in spans if s["name"] == "study.chunk"]
    if chunk_spans:
        instances = sum(s["attrs"].get("instances", 0) for s in chunk_spans)
        wall = sum(r["wall_seconds"] for r in runs) or sum(
            s["wall_seconds"] for s in chunk_spans
        )
        lines.append("")
        rate = instances / wall if wall > 0 else 0.0
        lines.append(
            f"throughput: {instances} instance(s) over "
            f"{len(chunk_spans)} chunk(s) in {_format_seconds(wall)}"
            f" ({rate:.1f} instances/s)"
        )

    for record in records:
        if record.get("type") != "metrics":
            continue
        counters = record.get("delta", {}).get("counters", {})
        if not counters:
            continue
        lines.append("")
        lines.append("counters (run delta):")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name}: {value}")

    return "\n".join(lines)


def chunk_lineage(records):
    """Merge trace records into one per-chunk lineage, sorted by index.

    Joins each ``study.chunk`` / ``scheduler.chunk`` span with its
    child ``store.save`` / ``store.load`` span (same parentage),
    yielding one dict per chunk span::

        {"index", "lo", "hi", "instances", "sha256", "source",
         "pid", "shard", "worker", "stolen", "wall_seconds"}

    ``source`` is ``"computed"`` (saved this run), ``"resumed"``
    (loaded from a checkpoint), or ``"volatile"`` (no store attached).
    ``worker`` and ``stolen`` come from work-stealing drains
    (``scheduler.chunk`` spans; ``None``/``False`` elsewhere).
    ``scheduler.chunk`` spans carry only ``index`` -- their ``lo`` /
    ``hi`` / ``instances`` are filled from the joined ``store.save``
    child.  Note that a worker which drains a study and then merges it
    reports the same index twice: once as a ``scheduler.chunk`` entry
    (source ``"computed"``) and once as a ``study.chunk`` entry from
    the fold (source ``"resumed"``).

    Records may come from several shards' or workers' trace files
    concatenated together; span ids are globally unique so the join is
    unambiguous.  The ``sha256`` values are exactly the ones the
    StudyStore manifest records, which is what lets a lineage be
    verified bit-for-bit.
    """
    spans = _spans(records)
    chunks = {
        s["span_id"]: s
        for s in spans
        if s["name"] in ("study.chunk", "scheduler.chunk")
    }
    store_by_parent = {}
    for record in spans:
        if record["name"] in ("store.save", "store.load"):
            parent = record.get("parent_id")
            if parent in chunks:
                store_by_parent[parent] = record

    lineage = []
    for span_id, chunk in chunks.items():
        attrs = chunk["attrs"]
        entry = {
            "index": attrs.get("index"),
            "lo": attrs.get("lo"),
            "hi": attrs.get("hi"),
            "instances": attrs.get("instances"),
            "sha256": None,
            "source": "volatile",
            "pid": chunk["pid"],
            "shard": attrs.get("shard"),
            "worker": attrs.get("worker"),
            "stolen": bool(attrs.get("stolen", False)),
            "wall_seconds": chunk["wall_seconds"],
        }
        store_span = store_by_parent.get(span_id)
        if store_span is not None:
            store_attrs = store_span["attrs"]
            entry["sha256"] = store_attrs.get("sha256")
            entry["source"] = (
                "computed" if store_span["name"] == "store.save" else "resumed"
            )
            for field in ("lo", "hi"):
                if entry[field] is None:
                    entry[field] = store_attrs.get(field)
            if entry["instances"] is None and None not in (
                entry["lo"], entry["hi"]
            ):
                entry["instances"] = entry["hi"] - entry["lo"]
        lineage.append(entry)
    lineage.sort(key=lambda entry: (entry["index"] is None, entry["index"]))
    return lineage


def lineage_sources(lineage):
    """Collapse :func:`chunk_lineage` entries to one attribution per chunk.

    Returns ``{chunk_index: {"source", "worker"}}`` where ``source`` is
    ``"stolen"`` / ``"computed"`` / ``"resumed"`` / ``"volatile"``.  A
    chunk that appears several times (a worker drain records it as
    computed, the subsequent merge fold as resumed) keeps the most
    informative attribution: stolen > computed > resumed > volatile --
    how the work actually got done beats how it was later folded.  This
    is the shape warehouse registration records as each chunk's
    ``source`` provenance.
    """
    rank = {"stolen": 3, "computed": 2, "resumed": 1, "volatile": 0}
    sources = {}
    for entry in lineage:
        index = entry.get("index")
        if index is None:
            continue
        source = "stolen" if entry.get("stolen") else entry.get("source", "volatile")
        current = sources.get(index)
        if current is None or rank.get(source, 0) > rank.get(current["source"], 0):
            sources[index] = {"source": source, "worker": entry.get("worker")}
    return sources
