"""Property-based tests (hypothesis) for trace completeness.

The observability contract the exporters rely on: whatever route the
engine picks and wherever the work runs (in-process, thread pool, or a
caller-supplied process pool), the merged trace of a run holds
*exactly one* ``study.chunk`` span per owned chunk, every chunk span is
parented to that run's ``study.run`` root, and every worker-side span
is re-parented onto a chunk span.  ``chunk_lineage`` and the progress
reporter are only as trustworthy as this invariant.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import rcnet_a
from repro.core import LowRankReducer
from repro.obs import MemorySink
from repro.obs import trace as obs_trace
from repro.runtime import Study

PARAMETRIC = rcnet_a()
MODEL = LowRankReducer(num_moments=3, rank=1).reduce(PARAMETRIC)
FREQUENCIES = np.logspace(7, 10, 4)

# Pickling tasks to the process pool dominates the runtime per example;
# keep the example budget small and the deadline off.
RELAXED = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=10,
)


@st.composite
def traced_configs(draw):
    """(route, executor_spec, num_samples, chunk_size) for all 4 routes."""
    route = draw(st.sampled_from(
        ("dense-batch", "dense-stream", "sparse-family", "executor-full")
    ))
    num_samples = draw(st.integers(min_value=2, max_value=9))
    if route == "dense-batch":
        chunk_size = None  # one chunk by construction
    elif route == "dense-stream":
        # Streaming requires more than one chunk.
        chunk_size = draw(st.integers(min_value=1, max_value=num_samples - 1))
    else:
        chunk_size = draw(st.integers(min_value=1, max_value=num_samples))
    executor = (
        draw(st.sampled_from(("serial", "thread", 2, "process-pool")))
        if route == "executor-full"
        else None
    )
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    return route, executor, num_samples, chunk_size, seed


def _build_study(route, executor, samples, chunk_size, store_dir):
    if route == "sparse-family":
        study = Study(PARAMETRIC).scenarios(samples).sweep(FREQUENCIES)
    elif route == "executor-full":
        # Pole studies chunk only when durable; the store also exercises
        # the store.save spans under every executor backend.
        study = (
            Study(PARAMETRIC)
            .scenarios(samples)
            .poles(2)
            .executor(executor)
            .store(store_dir)
        )
    else:
        study = Study(MODEL).scenarios(samples).sweep(FREQUENCIES)
    if chunk_size is not None:
        study = study.chunk(chunk_size)
    return study


@given(config=traced_configs())
@RELAXED
def test_one_chunk_span_per_chunk_with_correct_parentage(config, process_pool):
    route, executor, num_samples, chunk_size, seed = config
    if executor == "process-pool":
        executor = process_pool
    rng = np.random.default_rng(seed)
    samples = rng.normal(0.0, 0.1, size=(num_samples, PARAMETRIC.num_parameters))
    sink = MemorySink()
    with tempfile.TemporaryDirectory() as store_dir:
        study = _build_study(route, executor, samples, chunk_size, store_dir)
        assert study.plan().route == route
        study.trace(sink).run()
    assert not obs_trace.enabled()

    spans = [r for r in sink.records if r.get("type") == "span"]
    (root,) = [s for s in spans if s["name"] == "study.run"]
    chunks = [s for s in spans if s["name"] == "study.chunk"]

    effective = chunk_size if chunk_size is not None else num_samples
    if route == "executor-full" and chunk_size is None:
        effective = num_samples
    expected_chunks = -(-num_samples // effective)

    # Exactly one chunk span per owned chunk, indices complete, each
    # parented to this run's root.
    assert len(chunks) == expected_chunks
    assert sorted(c["attrs"]["index"] for c in chunks) == list(range(expected_chunks))
    assert all(c["parent_id"] == root["span_id"] for c in chunks)
    assert sum(c["attrs"]["instances"] for c in chunks) == num_samples

    # Worker-side spans (executor routes) all re-parent onto chunk spans.
    chunk_ids = {c["span_id"] for c in chunks}
    workers = [s for s in spans if s["name"] == "poles.instance"]
    if route == "executor-full":
        assert len(workers) == num_samples
        assert all(w["parent_id"] in chunk_ids for w in workers)
        assert all(w["reparented"] for w in workers)
    # Store I/O spans nest under the chunk that triggered them.
    for record in spans:
        if record["name"] in ("store.save", "store.load"):
            assert record["parent_id"] in chunk_ids
