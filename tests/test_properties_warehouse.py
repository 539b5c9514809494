"""Property tests: warehouse rows ARE the checkpoint payloads, bitwise.

The warehouse is a *view* of the store, never a reinterpretation: every
float64 value a chunk archive persisted must come back from the
warehouse partition files bit-identical (envelope cells, pole
components, delay/slew/steady metrics), and re-ingesting a store must
add exactly zero rows.  Hypothesis drives random ensembles and chunk
sizes; a fixed four-way sweep pins the property on every engine route
(dense-batch, dense-stream, sparse-family, executor-full).
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
from repro.warehouse import Warehouse, backend

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


def _read_table(warehouse, key16, index, table):
    """The one partition file of ``table`` for chunk ``index``."""
    pattern = f"shard=*/chunk={index:05d}/{table}-*"
    files = sorted(warehouse.dataset_dir(key16).glob(pattern))
    assert len(files) == 1, f"expected one {table} file, found {files}"
    return backend.read(files[0])


def _assert_rows_match_payloads(store, key, warehouse):
    """Every warehouse column equals its checkpoint payload, bitwise.

    The comparison deliberately reads the partition files back through
    the backend (not through :func:`chunk_tables`, which produced them)
    against the raw verified archive payloads, so it covers schema
    conversion AND the backend round trip end to end.
    """
    key16 = key[:16]
    for record, payload in store.iter_chunks(key):
        index = int(record["index"])
        lo, hi = int(record["lo"]), int(record["hi"])

        instances = _read_table(warehouse, key16, index, "instances")
        np.testing.assert_array_equal(
            instances["instance"], np.arange(lo, hi)
        )
        assert list(instances["chunk_sha256"]) == [record["sha256"]] * (hi - lo)
        for payload_key, column in (
            ("delays", "delay"), ("slews", "slew"),
        ):
            if payload_key in payload:
                np.testing.assert_array_equal(
                    instances[column], np.asarray(payload[payload_key])
                )
        if "steady_states" in payload:
            steady = np.atleast_2d(np.asarray(payload["steady_states"]))
            for j in range(steady.shape[1]):
                np.testing.assert_array_equal(
                    instances[f"steady_{j}"], steady[:, j]
                )

        if "env_min" in payload:
            envelope = _read_table(warehouse, key16, index, "envelope")
            for name in ("env_min", "env_max", "env_sum"):
                np.testing.assert_array_equal(
                    envelope[name], np.asarray(payload[name]).ravel()
                )

        padded = payload.get("poles_padded")
        rect = payload.get("poles")
        if padded is not None:
            lengths = np.asarray(payload["poles_lengths"], dtype=np.int64)
            mask = np.arange(np.asarray(padded).shape[1]) < lengths[:, None]
            values = np.asarray(padded, dtype=complex)[mask]
        elif rect is not None:
            values = np.atleast_2d(np.asarray(rect, dtype=complex)).ravel()
        else:
            values = None
        if values is not None:
            poles = _read_table(warehouse, key16, index, "poles")
            np.testing.assert_array_equal(poles["re"], values.real)
            np.testing.assert_array_equal(poles["im"], values.imag)


def _run_and_verify(build):
    """Run a store+warehouse study, verify rows, verify idempotency."""
    with tempfile.TemporaryDirectory() as root:
        store_dir = Path(root) / "store"
        wh_dir = Path(root) / "wh"
        study = build().store(store_dir).warehouse(wh_dir)
        result = study.run()
        report = study.warehouse_report()
        store = StudyStore(store_dir)
        key = store.study_keys()[0]
        warehouse = Warehouse(wh_dir)
        _assert_rows_match_payloads(store, key, warehouse)
        # Double ingest: structurally idempotent, zero new rows.
        again = warehouse.ingest_store(store)
        assert again.chunks == 0
        assert again.rows_added == 0
        assert again.skipped == report.chunks
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

    def test_executor_full(self):
        model, samples = self._dense()
        study, _ = _run_and_verify(
            lambda: Study(model).scenarios(samples)
            .poles(2).chunk(3).executor("thread")
        )
        assert study.plan().route == "executor-full"
