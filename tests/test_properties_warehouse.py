"""Property tests: warehouse queries ARE the checkpoint payloads, bitwise.

The warehouse is a *view* of the store, never a reinterpretation: every
float64 value a chunk archive persisted must come back from the
in-place queries bit-identical (envelope cells, pole components,
delay/slew/steady metrics) and equal the in-RAM study result, and
re-registering a study must write nothing.  Hypothesis drives random
ensembles and chunk sizes; a fixed four-way sweep pins the property on
every engine route (dense-batch, dense-stream, sparse-family,
per-instance).
"""

import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.statespace import DescriptorSystem
from repro.circuits.variational import ParametricSystem
from repro.core.model import ParametricReducedModel
from repro.runtime import Study, StudyStore
from repro.warehouse import QueryEngine, Warehouse

RELAXED = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=15
)

FREQUENCIES = np.logspace(7, 10, 5)
CHUNK_SIZES = st.sampled_from((1, 2, 3, 5))


@st.composite
def dense_ensembles(draw):
    """A random dense parametric model plus a sample matrix."""
    q = draw(st.integers(min_value=2, max_value=5))
    num_parameters = draw(st.integers(min_value=1, max_value=3))
    num_samples = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((q, q))
    g0 = a @ a.T + q * np.eye(q)
    b = rng.standard_normal((q, q))
    c0 = b @ b.T + q * np.eye(q)
    dG = [0.05 * (m + m.T) for m in rng.standard_normal((num_parameters, q, q))]
    dC = [0.05 * (m + m.T) for m in rng.standard_normal((num_parameters, q, q))]
    nominal = DescriptorSystem(
        g0, c0, rng.standard_normal((q, 1)), rng.standard_normal((q, 2))
    )
    model = ParametricReducedModel(nominal, dG, dC)
    samples = 0.3 * rng.standard_normal((num_samples, num_parameters))
    return model, samples


def _sparse_ensemble(seed=11, n=10, num_parameters=2, num_samples=6):
    """A fixed sparse full-order system (the sparse-family route)."""
    rng = np.random.default_rng(seed)

    def random_sparse(density):
        mask = rng.random((n, n)) < density
        values = np.where(mask, rng.standard_normal((n, n)), 0.0)
        return sp.csr_matrix(values + values.T)

    g0 = sp.csr_matrix(random_sparse(0.3) + n * sp.identity(n))
    c0 = sp.csr_matrix(random_sparse(0.2) + sp.identity(n))
    dG = [0.1 * random_sparse(0.4) for _ in range(num_parameters)]
    dC = [0.1 * random_sparse(0.4) for _ in range(num_parameters)]
    nominal = DescriptorSystem(g0, c0, np.eye(n, 1), np.eye(n, 1),
                               title="hyp-warehouse")
    model = ParametricSystem(nominal, dG, dC)
    samples = 0.3 * rng.standard_normal((num_samples, num_parameters))
    return model, samples


def _files(directory):
    return {str(p): p.read_bytes() for p in Path(directory).rglob("*")
            if p.is_file()}


def _assert_rows_match_payloads(store, key, engine):
    """Every queried column equals its checkpoint payloads, bitwise.

    The expectation is built from the raw verified archive payloads
    (:meth:`StudyStore.iter_chunks`), independently of the engine's
    per-chunk derivation, so the comparison covers the derivation and
    the verified read end to end.
    """
    chunks = list(store.iter_chunks(key))
    expect = {}

    def add(name, values):
        expect.setdefault(name, []).append(np.asarray(values))

    for record, payload in chunks:
        lo, hi = int(record["lo"]), int(record["hi"])
        add("instance", np.arange(lo, hi))
        for payload_key, column in (("delays", "delay"), ("slews", "slew")):
            if payload_key in payload:
                add(column, payload[payload_key])
        if "steady_states" in payload:
            steady = np.atleast_2d(np.asarray(payload["steady_states"]))
            for j in range(steady.shape[1]):
                add(f"steady_{j}", steady[:, j])
        for name in ("env_min", "env_max", "env_sum"):
            if name in payload:
                add(name, np.asarray(payload[name]).ravel())
        padded = payload.get("poles_padded")
        if padded is not None:
            lengths = np.asarray(payload["poles_lengths"], dtype=np.int64)
            mask = np.arange(np.asarray(padded).shape[1]) < lengths[:, None]
            add("poles", np.asarray(padded, dtype=complex)[mask])
            add("num_poles", lengths)
        elif payload.get("poles") is not None:
            poles = np.atleast_2d(np.asarray(payload["poles"], dtype=complex))
            add("poles", poles.ravel())
            add("num_poles", np.full(len(poles), poles.shape[1]))

    rows = engine.provenance()
    assert [(row["chunk"], row["chunk_sha256"]) for row in rows] == [
        (record["index"], record["sha256"]) for record, _ in chunks
    ]
    for name, parts in expect.items():
        values = np.concatenate(parts)
        if name == "poles":
            np.testing.assert_array_equal(
                engine.metric_values("re", table="poles"), values.real)
            np.testing.assert_array_equal(
                engine.metric_values("im", table="poles"), values.imag)
        elif name.startswith("env_"):
            np.testing.assert_array_equal(
                engine.metric_values(name, table="envelope"), values)
        else:
            np.testing.assert_array_equal(engine.metric_values(name), values)


def _assert_member_subsets_lose_nothing(store, key, engine):
    """Every column derived from a chunk's full payload is what the engine
    serves from the member subset a query of that column loads."""
    from repro.warehouse.query import _table_columns

    chunks = list(store.iter_chunks(key))
    for table in ("instances", "poles", "envelope"):
        full = [_table_columns(table, record["lo"], record["hi"], payload, {})
                for record, payload in chunks]
        full = [columns for columns in full if columns is not None]
        for name in (full[0] if full else ()):
            np.testing.assert_array_equal(
                engine.metric_values(name, table=table),
                np.concatenate([columns[name] for columns in full]))


def _assert_matches_result(engine, result):
    """The queried columns equal the in-RAM study arrays, bitwise."""
    delays = getattr(result, "delays", None)
    if delays is not None:
        np.testing.assert_array_equal(engine.metric_values("delay"), delays)
        np.testing.assert_array_equal(engine.metric_values("slew"),
                                      result.slews)
    poles = getattr(result, "poles", None)
    if poles is not None and not isinstance(poles, list):
        np.testing.assert_array_equal(
            engine.metric_values("re", table="poles"),
            np.asarray(poles).real.ravel())
    pole_sets = getattr(result, "pole_sets", None)
    if pole_sets:
        np.testing.assert_array_equal(engine.metric_values("num_poles"),
                                      [len(poles) for poles in pole_sets])
    samples = result.samples
    for j in range(samples.shape[1]):
        np.testing.assert_array_equal(
            engine.metric_values(f"p_p{j + 1}"), samples[:, j])


def _run_and_verify(build):
    """Run a store+warehouse study, verify queries, verify that a second
    registration writes nothing."""
    with tempfile.TemporaryDirectory() as root:
        store_dir = Path(root) / "store"
        wh_dir = Path(root) / "wh"
        study = build().store(store_dir).warehouse(wh_dir)
        result = study.run()
        report = study.warehouse_report()
        store = StudyStore(store_dir)
        key = store.study_keys()[0]
        engine = QueryEngine(wh_dir)
        _assert_rows_match_payloads(store, key, engine)
        _assert_member_subsets_lose_nothing(store, key, engine)
        _assert_matches_result(engine, result)
        # Register again: nothing new, nothing written.
        before = _files(wh_dir)
        again = Warehouse(wh_dir).register(store)
        assert again.written == []
        assert again.chunks == report.chunks
        assert _files(wh_dir) == before
        return study, result


class TestRoundTripSweep:
    @RELAXED
    @given(dense_ensembles(), CHUNK_SIZES)
    def test_envelope_and_pole_rows_bitwise(self, ensemble, chunk):
        model, samples = ensemble
        _run_and_verify(
            lambda: Study(model).scenarios(samples)
            .sweep(FREQUENCIES).poles(3).chunk(chunk)
        )


class TestRoundTripTransient:
    @RELAXED
    @given(dense_ensembles(), CHUNK_SIZES)
    def test_metric_rows_bitwise(self, ensemble, chunk):
        model, samples = ensemble
        _run_and_verify(
            lambda: Study(model).scenarios(samples)
            .transient(num_steps=12).chunk(chunk)
        )


class TestEveryRoute:
    """The four engine routes all feed the same warehouse contract."""

    def _dense(self):
        rng = np.random.default_rng(3)
        q = 5
        a = rng.standard_normal((q, q))
        b = rng.standard_normal((q, q))
        nominal = DescriptorSystem(
            a @ a.T + q * np.eye(q), b @ b.T + q * np.eye(q),
            rng.standard_normal((q, 1)), rng.standard_normal((q, 2)),
        )
        model = ParametricReducedModel(
            nominal,
            [0.05 * (m + m.T) for m in rng.standard_normal((2, q, q))],
            [0.05 * (m + m.T) for m in rng.standard_normal((2, q, q))],
        )
        return model, 0.3 * rng.standard_normal((6, 2))

    def test_dense_batch(self):
        model, samples = self._dense()
        study, _ = _run_and_verify(
            lambda: Study(model).scenarios(samples).sweep(FREQUENCIES).poles(2)
        )
        assert study.plan().route == "dense-batch"

    def test_dense_stream(self):
        model, samples = self._dense()
        study, _ = _run_and_verify(
            lambda: Study(model).scenarios(samples)
            .sweep(FREQUENCIES).poles(2).chunk(2)
        )
        assert study.plan().route == "dense-stream"

    def test_sparse_family(self):
        model, samples = _sparse_ensemble()
        study, _ = _run_and_verify(
            lambda: Study(model).scenarios(samples).sweep(FREQUENCIES).chunk(2)
        )
        assert study.plan().route == "sparse-family"

    def test_per_instance(self):
        model, samples = _sparse_ensemble()
        study, _ = _run_and_verify(
            lambda: Study(model).scenarios(samples).poles(2).chunk(3)
        )
        assert study.plan().route == "per-instance"
