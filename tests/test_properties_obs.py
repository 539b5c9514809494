"""Property-based tests (hypothesis) for trace completeness.

The observability contract the exporters rely on: whatever route the
engine picks and however wide the row pool is, the trace of a run
holds *exactly one* ``study.chunk`` span per owned chunk, every chunk
span is parented to that run's ``study.run`` root, and every
``poles.instance`` span (one per instance of a per-instance pole
study) is a plain child of its chunk span.
``chunk_lineage`` and the progress reporter are only as trustworthy as
this invariant.
"""

import tempfile
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.circuits import rcnet_a
from repro.core import LowRankReducer
from repro.obs import MemorySink
from repro.obs import trace as obs_trace
from repro.runtime import Study
from repro.runtime import executor as executor_module

PARAMETRIC = rcnet_a()
MODEL = LowRankReducer(num_moments=3, rank=1).reduce(PARAMETRIC)
FREQUENCIES = np.logspace(7, 10, 4)

RELAXED = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=10,
)

# Study kinds and the route each plans: the three sweep routes, then
# full-order and dense pole studies.
ROUTES = {
    "dense-batch": "dense-batch",
    "dense-stream": "dense-stream",
    "sparse-family": "sparse-family",
    "per-instance": "per-instance",
    "dense-poles": "dense-batch",
}


@st.composite
def traced_configs(draw):
    """(kind, width, num_samples, chunk_size, seed) over every route."""
    kind = draw(st.sampled_from(sorted(ROUTES)))
    num_samples = draw(st.integers(min_value=2, max_value=9))
    if kind == "dense-batch":
        chunk_size = None  # one chunk by construction
    elif kind == "dense-stream":
        # Streaming requires more than one chunk.
        chunk_size = draw(st.integers(min_value=1, max_value=num_samples - 1))
    else:
        chunk_size = draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=num_samples)
        ))
    width = draw(st.sampled_from((1, 2)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    return kind, width, num_samples, chunk_size, seed


def _build_study(kind, samples, chunk_size, store_dir):
    if kind == "sparse-family":
        study = Study(PARAMETRIC).scenarios(samples).sweep(FREQUENCIES)
    elif kind in ("per-instance", "dense-poles"):
        # The store also exercises the store.save spans of pole chunks.
        target = PARAMETRIC if kind == "per-instance" else MODEL
        study = Study(target).scenarios(samples).poles(2).store(store_dir)
    else:
        study = Study(MODEL).scenarios(samples).sweep(FREQUENCIES)
    if chunk_size is not None:
        study = study.chunk(chunk_size)
    return study


@given(config=traced_configs())
@example(config=("per-instance", 1, 5, 2, 0))
@example(config=("per-instance", 2, 5, 2, 0))
@example(config=("dense-poles", 1, 5, 2, 0))
@example(config=("dense-poles", 2, 5, 2, 0))
@RELAXED
def test_one_chunk_span_per_chunk_with_correct_parentage(config):
    kind, width, num_samples, chunk_size, seed = config
    rng = np.random.default_rng(seed)
    samples = rng.normal(0.0, 0.1, size=(num_samples, PARAMETRIC.num_parameters))
    sink = MemorySink()
    with tempfile.TemporaryDirectory() as store_dir, mock.patch.object(
        executor_module, "row_pool_width", lambda: width
    ):
        study = _build_study(kind, samples, chunk_size, store_dir)
        assert study.plan().route == ROUTES[kind]
        study.trace(sink).run()
    assert not obs_trace.enabled()

    spans = [r for r in sink.records if r.get("type") == "span"]
    (root,) = [s for s in spans if s["name"] == "study.run"]
    chunks = [s for s in spans if s["name"] == "study.chunk"]

    effective = chunk_size if chunk_size is not None else num_samples
    expected_chunks = -(-num_samples // effective)

    # Exactly one chunk span per owned chunk, indices complete, each
    # parented to this run's root.
    assert len(chunks) == expected_chunks
    assert sorted(c["attrs"]["index"] for c in chunks) == list(range(expected_chunks))
    assert all(c["parent_id"] == root["span_id"] for c in chunks)
    assert sum(c["attrs"]["instances"] for c in chunks) == num_samples

    # On the per-instance route, one poles.instance span per instance,
    # each a plain child of the chunk span whose rows it computed; dense
    # pole studies run the sweep kernel's rows and emit none.
    chunk_by_id = {c["span_id"]: c for c in chunks}
    instances = [s for s in spans if s["name"] == "poles.instance"]
    if kind == "per-instance":
        assert len(instances) == num_samples
        for record in instances:
            assert record["parent_id"] in chunk_by_id
            assert "reparented" not in record
        per_chunk = [r["parent_id"] for r in instances]
        for chunk_id, chunk in chunk_by_id.items():
            assert per_chunk.count(chunk_id) == chunk["attrs"]["instances"]
    else:
        assert not instances
    chunk_ids = set(chunk_by_id)
    # Store I/O spans nest under the chunk that triggered them.
    for record in spans:
        if record["name"] in ("store.save", "store.load"):
            assert record["parent_id"] in chunk_ids
