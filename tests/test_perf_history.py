"""scripts/perf_history.py: the committed perfbench trajectory and its gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "perf_history.py"
HISTORY = ROOT / "benchmarks" / "records" / "perfbench_history.jsonl"
BOUNDS = {
    spec["name"]: spec
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def _history():
    return [json.loads(line) for line in HISTORY.read_text().splitlines() if line]


def _latest_runs():
    latest = {}
    for entry in _history():
        latest[entry["workload"], entry["host_class"]] = entry
    return list(latest.values())


def _output(record, result):
    """A run as perfbench prints it: table, record line, result line."""
    return "# table\n# record " + json.dumps(record) + "\n" + json.dumps(result) + "\n"


def _run(tmp_path, *args, stdin=None):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, timeout=60, input=stdin, cwd=tmp_path,
    )


def _slowed(result, factor):
    """``result`` with every timing metric ``factor`` times slower."""
    slowed = json.loads(json.dumps(result))
    for name, metric in slowed["metrics"].items():
        if BOUNDS[name]["unit"] == "s":
            metric["value"] *= factor
        elif name == "instances_per_s":
            metric["value"] /= factor
    return slowed


def test_history_is_seeded_for_every_workload():
    workloads = {entry["workload"] for entry in _history()}
    assert workloads == {"mc-sweep", "transient-durable", "signoff", "serve-mix"}
    for entry in _history():
        assert entry["record"]["trace"] == 0
        assert entry["result"]["correct"] is True
        assert entry["host_class"] == (
            f"{entry['record']['host']['cpus']}cpu-{entry['record']['host']['machine']}"
        )


@pytest.mark.parametrize("entry", _latest_runs(), ids=lambda e: e["workload"])
def test_unchanged_run_passes_and_slowed_run_fails(entry, tmp_path):
    unchanged = tmp_path / "unchanged.out"
    unchanged.write_text(_output(entry["record"], entry["result"]))
    done = _run(tmp_path, "compare", str(unchanged), "--history", str(HISTORY))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "WORSE" not in done.stdout

    # Slowed past the widest timing bound (0.25): a regression.
    slowed = tmp_path / "slowed.out"
    slowed.write_text(_output(entry["record"], _slowed(entry["result"], 1.4)))
    done = _run(tmp_path, "compare", str(slowed), "--history", str(HISTORY))
    assert done.returncode == 1, done.stdout + done.stderr
    assert "WORSE instances_per_s" in done.stdout


def test_append_then_compare(tmp_path):
    entry = _history()[0]
    history = tmp_path / "history.jsonl"
    run = tmp_path / "run.out"
    run.write_text(_output(entry["record"], entry["result"]))
    done = _run(tmp_path, "compare", str(run), "--history", str(history))
    assert done.returncode == 0
    assert "nothing to compare" in done.stdout
    done = _run(tmp_path, "append", str(run), "--history", str(history),
                "--label", "baseline")
    assert done.returncode == 0, done.stderr
    stored = json.loads(history.read_text())
    assert stored["record"] == entry["record"]
    assert stored["result"] == entry["result"]
    assert stored["label"] == "baseline"

    # Within its bound on every metric: passes.
    nudged = tmp_path / "nudged.out"
    nudged.write_text(_output(entry["record"], _slowed(entry["result"], 1.1)))
    assert _run(tmp_path, "compare", str(nudged), "--history", str(history)).returncode == 0

    # A failed operation the baseline did not have: fails.
    failing = dict(entry["result"], correct=False, failed=1)
    bad = tmp_path / "bad.out"
    bad.write_text(_output(entry["record"], failing))
    assert _run(tmp_path, "compare", str(bad), "--history", str(history)).returncode == 1

    # Another host class has no baseline.
    other = json.loads(json.dumps(entry["record"]))
    other["host"]["cpus"] = 64
    elsewhere = tmp_path / "elsewhere.out"
    elsewhere.write_text(_output(other, _slowed(entry["result"], 3.0)))
    done = _run(tmp_path, "compare", str(elsewhere), "--history", str(history))
    assert done.returncode == 0
    assert "nothing to compare" in done.stdout


def test_unreadable_runs_exit_2(tmp_path):
    entry = _history()[0]
    traced = dict(entry["record"], trace=1)
    done = _run(tmp_path, "compare", "-", stdin=_output(traced, entry["result"]))
    assert done.returncode == 2
    assert "--trace 1" in done.stderr
    history = tmp_path / "history.jsonl"
    done = _run(tmp_path, "append", "-", "--history", str(history),
                stdin="# no record here\n")
    assert done.returncode == 2
    assert not history.exists()
