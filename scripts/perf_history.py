"""Committed perfbench history: append runs, compare a run with the last one.

    python3 perfbench/run.py --workload mc-sweep --seed 1 --seconds 25 > run.out
    python3 scripts/perf_history.py append run.out --label "what changed"
    python3 scripts/perf_history.py compare run.out

``append`` stores the run's ``# record`` line (host stamp, raw and
calibrated timings) and its result line (``correct``, ``failed``, the
metrics) as one JSON line of ``benchmarks/records/perfbench_history.jsonl``.

``compare`` finds the latest stored run of the same workload on the same
host class -- CPU count and machine, from the record's host stamp -- and
checks every end-to-end metric of ``BENCHMARK.json`` against it: a metric
that got worse by more than its bound (relative to the stored value), or
a run that is not ``correct`` or failed more operations, exits 1.  It
exits 0 when every metric is within its bound or when the history holds
no comparable run (it says so), and 2 when the run output has no record
or result line.  Only ``--trace 0`` runs carry end-to-end metrics, so
traced runs are refused by both commands.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "benchmarks" / "records" / "perfbench_history.jsonl"
BENCHMARK = ROOT / "BENCHMARK.json"


class RunError(ValueError):
    """The perfbench output cannot be read as one end-to-end run."""


def read_run(path: str) -> dict:
    """``{"record", "result"}`` of one perfbench output (``-``: stdin)."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    record = result = None
    for line in text.splitlines():
        if line.startswith("# record "):
            record = json.loads(line[len("# record "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if record is None or result is None:
        raise RunError(f"{path}: no '# record' line and result line")
    if record.get("trace"):
        raise RunError(f"{path}: a --trace 1 run has no end-to-end metrics")
    return {"record": record, "result": result}


def host_class(record: dict) -> str:
    """The host class runs are compared within: CPU count and machine."""
    host = record.get("host", {})
    return f"{host.get('cpus')}cpu-{host.get('machine')}"


def load_history(path: Path) -> list:
    """Every stored run, oldest first."""
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def append(run: dict, path: Path, label: str) -> dict:
    """Add ``run`` to the history file at ``path``; return the entry."""
    entry = {
        "workload": run["record"]["workload"],
        "host_class": host_class(run["record"]),
        "label": label,
        "record": run["record"],
        "result": run["result"],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def baseline(run: dict, history: list):
    """The latest stored run of the same workload and host class."""
    workload = run["record"]["workload"]
    hosts = host_class(run["record"])
    for entry in reversed(history):
        if entry["workload"] == workload and entry["host_class"] == hosts:
            return entry
    return None


def regressions(run: dict, base: dict, metrics: list) -> list:
    """One line per end-to-end metric; ``(lines, worse)``."""
    lines, worse = [], False
    new_metrics = run["result"]["metrics"]
    old_metrics = base["result"]["metrics"]
    for spec in metrics:
        name, bound = spec["name"], spec["bound"]
        if name not in new_metrics or name not in old_metrics:
            continue
        new = new_metrics[name]["value"]
        old = old_metrics[name]["value"]
        if old == 0:
            change = 0.0 if new == 0 else float("inf")
        else:
            change = (new - old) / abs(old)
        loss = change if spec["better"] == "lower" else -change
        flag = loss > bound
        worse |= flag
        lines.append(
            f"{'WORSE' if flag else 'ok   '} {name:16s} {old:12.6g} -> {new:12.6g}"
            f"  ({change:+.1%}, bound {bound:.0%})"
        )
    if not run["result"].get("correct") or (
        run["result"].get("failed", 0) > base["result"].get("failed", 0)
    ):
        worse = True
        lines.append(
            f"WORSE correct={run['result'].get('correct')} "
            f"failed={run['result'].get('failed')} "
            f"(baseline failed={base['result'].get('failed')})"
        )
    return lines, worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("append", "compare"):
        command = sub.add_parser(name)
        command.add_argument("run", help="perfbench output file, or - for stdin")
        command.add_argument("--history", type=Path, default=HISTORY)
        if name == "append":
            command.add_argument("--label", default="")
        else:
            command.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    try:
        run = read_run(args.run)
    except (OSError, RunError, json.JSONDecodeError) as exc:
        print(f"perf_history: {exc}", file=sys.stderr)
        return 2
    if args.command == "append":
        entry = append(run, args.history, args.label)
        print(f"appended {entry['workload']} ({entry['host_class']}) "
              f"to {args.history}")
        return 0
    base = baseline(run, load_history(args.history))
    workload = run["record"]["workload"]
    if base is None:
        print(f"no stored {workload} run on {host_class(run['record'])}; "
              "nothing to compare")
        return 0
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    lines, worse = regressions(run, base, metrics)
    print(f"{workload} on {base['host_class']} against the stored run "
          f"labelled {base['label']!r} (seed {base['record'].get('seed')}):")
    for line in lines:
        print("  " + line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
