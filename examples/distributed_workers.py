"""Work-stealing workers draining one shared store (scheduler showcase).

``Study.work()`` is how one study is split across processes or
machines: every worker pointed at the same on-disk store (a shared
directory) claims unfinished chunks one at a time through atomic lease
files, computes each through the same chunk loop as ``Study.run()``,
so fast machines simply take more chunks and the study drains with no
coordinator process.  This example plays out the full operational
story on one small study:

1. a "laptop" worker computes a couple of chunks and stops early
   (``max_chunks`` -- a clean, lease-releasing exit),
2. a crashed worker is simulated by planting the claim file a
   SIGKILLed process leaves behind (a lease owned by a dead pid),
3. a "workstation" worker drains the rest: it must *steal* the dead
   worker's lease -- pid-liveness makes that instant on the same host
   -- and then merge every worker's chunks,
4. the merged envelope is checked **bit-identical** to a one-shot run,
   and the workstation's span trace is read back to show the lease
   protocol (claims and the steal) and the per-chunk provenance with
   its worker attribution.

Run:  python examples/distributed_workers.py
"""

import json
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import LowRankReducer, MonteCarloPlan, Study, rc_tree, with_random_variations
from repro.obs import chunk_lineage, read_trace
from repro.runtime.scheduler import CLAIM_FORMAT

FREQUENCIES = np.logspace(7, 10, 15)
INSTANCES = 12
CHUNK = 2  # 6 chunks: a claim grid small enough to narrate


def declare(model, store_dir=None):
    """One study declaration shared by every worker (and the one-shot).

    Workers agree on *what* the study is through the store key -- a
    hash of the model fingerprint, the realized samples, and the
    workload -- so they must be built from the same declaration.
    """
    study = (
        Study(model)
        .scenarios(MonteCarloPlan(num_instances=INSTANCES, seed=11))
        .sweep(FREQUENCIES)
        .poles(3)
        .chunk(CHUNK)
    )
    return study.store(store_dir) if store_dir else study


def plant_dead_workers_claim(store_dir):
    """Leave behind what a SIGKILLed worker leaves: a claim, no owner.

    The claim names a real pid that is no longer running (we spawn a
    trivial process and wait for it), on this host -- exactly the
    wreckage after a local worker crash.  ``scripts/ci_chaos_workers.py``
    drills the same scenario with real SIGKILLed CLI workers.
    """
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    ghost = {
        "format": CLAIM_FORMAT, "index": 4, "worker": "crashed-box",
        "pid": proc.pid, "host": socket.gethostname(),
        "token": "dead-token", "beats": 0, "wall_time": 0.0,
    }
    planted = []
    for claims_dir in Path(store_dir).glob("claims/*"):
        path = claims_dir / "chunk-00004.claim"
        if not path.exists():  # chunk 4 may already be done; then no-op
            path.write_text(json.dumps(ghost))
            planted.append(path)
    return planted


def main():
    parametric = with_random_variations(rc_tree(30, seed=5), 2, seed=7)
    model = LowRankReducer(num_moments=4, rank=1).reduce(parametric)
    print(f"reduced model: {model.size} states, "
          f"{INSTANCES} instances in {INSTANCES // CHUNK} chunks of {CHUNK}\n")

    reference = declare(model).run()

    with tempfile.TemporaryDirectory() as store_dir:
        # Worker 1: a clean partial contribution.  max_chunks stops it
        # after two claims; it releases its leases and does NOT merge
        # (work() returns None when the study is not yet drained).
        laptop = declare(model, store_dir)
        merged = laptop.work(worker="laptop", max_chunks=2, poll=0.01)
        report = laptop.drain_report()
        assert merged is None and not report.drained
        print(f"laptop   computed chunks {report.computed}, then stopped")

        # Worker 2: crashed -- all that is left is its claim file.
        planted = plant_dead_workers_claim(store_dir)
        print(f"crashed-box left {len(planted)} abandoned claim(s) on chunk 4")

        # Worker 3: drains everything else.  It steals the dead
        # worker's lease instantly (dead pid on this host), computes
        # the remaining chunks, and merges ALL workers' checkpoints.
        trace_path = f"{store_dir}/workstation.trace"
        workstation = declare(model, store_dir).trace(trace_path)
        merged = workstation.work(worker="workstation", poll=0.01)
        report = workstation.drain_report()
        assert report.drained
        print(f"workstation computed chunks {report.computed} "
              f"(stole {report.stolen} from the dead worker)\n")

        # Each worker wrote its own manifest; the merge folds the
        # alternates in deterministic order, so any merger gets the
        # same bytes.
        manifests = sorted(
            path.name for path in Path(store_dir).glob("manifest-*.json")
        )
        print("store manifests (one per worker):")
        for name in manifests:
            print(f"  {name}")

        # The trace tells the lease story and the per-chunk provenance.
        records = read_trace(trace_path)
        spans = [r for r in records if r.get("type") == "span"]
        leases = [s for s in spans if s["name"].startswith("lease.")]
        print("\nlease events in the workstation trace:")
        for span in leases:
            attrs = span["attrs"]
            extra = (
                f" from {attrs.get('previous')}" if span["name"] == "lease.steal"
                else ""
            )
            print(f"  {span['name']:12s} chunk {attrs['index']}{extra}")
        assert any(s["name"] == "lease.steal" for s in leases)

        print("\nworkstation chunk lineage (computed = drained by this "
              "worker,\nresumed = loaded back during the merge):")
        for entry in chunk_lineage(records):
            worker = entry["worker"] or "-"
            stolen = "  STOLEN" if entry["stolen"] else ""
            print(f"  chunk {entry['index']}  {entry['source']:8s} "
                  f"worker {worker:12s} sha256 "
                  f"{(entry['sha256'] or '')[:12]}...{stolen}")

    # The point of the whole protocol: dynamic scheduling never changes
    # the numbers.
    np.testing.assert_array_equal(merged.envelope_min, reference.envelope_min)
    np.testing.assert_array_equal(merged.envelope_mean, reference.envelope_mean)
    np.testing.assert_array_equal(merged.envelope_max, reference.envelope_max)
    np.testing.assert_array_equal(merged.poles, reference.poles)
    print("\nwork-stolen study is bit-identical to the one-shot run")


if __name__ == "__main__":
    main()
