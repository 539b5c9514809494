"""Chunk archives: read strictly from their verified bytes, or refused.

The store reads a chunk archive with its own reader
(:func:`repro.runtime.store._npz_arrays`), not ``np.load``: the zip
directory through :mod:`zipfile`, each stored ``<name>.npy`` member
sliced from the bytes its SHA-256 was checked on.  Two suites pin it.

- Drawn payloads over the store's member names -- float64, complex128,
  int64 and bool arrays, 0-d, empty and multi-axis, C order, Fortran
  order or a non-contiguous view, non-finite values -- written by
  ``np.savez``: the reader equals ``np.load`` bit for bit in dtype,
  shape, values, memory order and writeability, for every member and
  for a drawn subset of them.
- Hostile archives in a completed store, each with its manifest's
  ``sha256`` rewritten to match: truncated or drawn bytes, a
  ``ZIP_DEFLATED`` member, an object-dtype member, a header whose shape
  exceeds its data, a duplicated member, a member not named ``.npy``,
  an empty archive, members dropped, or a member's rows truncated.
  ``Study.run()`` and ``.resume().run()`` raise a one-line
  :class:`~repro.runtime.store.StoreError`, and ``Study.work()``'s
  lenient merge recomputes the chunk bit for bit.  ``iter_chunks``
  raises one too, except for an archive that only lacks members: with
  no declaration to hold it to, it reads the members there are.  A
  ``QueryEngine`` query reads only the members it needs: it raises a
  one-line ``StoreError`` (or, for a member it needs that was dropped,
  a one-line ``WarehouseError``), or answers from the original chunks
  when the edit left those members intact.  Nothing else is raised.

Readers share no parser state, so threads read one store at once.
"""

import hashlib
import io
import json
import shutil
import sys
import tempfile
import threading
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.core import LowRankReducer
from repro.obs import metrics as obs_metrics
from repro.runtime import MonteCarloPlan, StoreError, Study, StudyStore
from repro.runtime.store import _npz_arrays
from repro.warehouse import QueryEngine, Warehouse, WarehouseError

SETTINGS = settings(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MEMBERS = ("env_min", "env_max", "env_sum", "delays", "slews",
           "steady_states", "poles", "responses", "outputs")

ELEMENTS = {
    np.dtype(np.float64): st.floats(allow_nan=True, allow_infinity=True),
    np.dtype(np.complex128): st.complex_numbers(allow_nan=True,
                                                allow_infinity=True),
    np.dtype(np.int64): st.integers(-2**63, 2**63 - 1),
    np.dtype(bool): st.booleans(),
}


@st.composite
def member_arrays(draw):
    """One array of a drawn dtype and shape, in C order, Fortran order,
    or as a non-contiguous view."""
    dtype = draw(st.sampled_from(sorted(ELEMENTS, key=str)))
    shape = draw(array_shapes(min_dims=0, max_dims=3, min_side=0,
                              max_side=4))
    array = draw(arrays(dtype, shape, elements=ELEMENTS[dtype]))
    layout = draw(st.sampled_from(("C", "F", "view")))
    if layout == "F":
        return np.asfortranarray(array)
    if layout == "view" and array.ndim:
        return array[::-1].T
    return array


def _savez(payload) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return buffer.getvalue()


def _same_as_np_load(read, reference) -> None:
    assert list(read) == list(reference)
    for name, expected in reference.items():
        array = read[name]
        assert type(array) is np.ndarray
        assert array.dtype == expected.dtype
        assert array.shape == expected.shape
        assert array.tobytes(order="A") == expected.tobytes(order="A")
        for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE", "ALIGNED"):
            assert array.flags[flag] == expected.flags[flag], (name, flag)


@SETTINGS
@given(payload=st.dictionaries(st.sampled_from(MEMBERS), member_arrays(),
                               min_size=1, max_size=4),
       wanted=st.lists(st.sampled_from(MEMBERS + ("missing",)),
                       unique=True, max_size=4))
def test_reader_equals_np_load(payload, wanted):
    data = _savez(payload)
    with np.load(io.BytesIO(data)) as archive:
        everything = {name: archive[name] for name in archive.files}
        subset = {name: archive[name] for name in wanted
                  if name in archive.files}
    _same_as_np_load(_npz_arrays(data), everything)
    _same_as_np_load(_npz_arrays(data, wanted), subset)


# -- hostile archives in a completed store -----------------------------

NUM_CHUNKS = 3


@pytest.fixture(scope="module")
def completed(small_parametric, tmp_path_factory):
    """A completed 6-instance transient study in 3 chunks, and what its
    readers answer before any edit."""
    model = LowRankReducer(num_moments=2).reduce(small_parametric)
    root = tmp_path_factory.mktemp("archives")

    def declaration(store):
        return (
            Study(model).scenarios(MonteCarloPlan(num_instances=6, seed=5))
            .transient(num_steps=12).chunk(2).store(store)
        )

    study = declaration(root / "store")
    result = study.run()
    key = study.fingerprint()["key"]
    store = StudyStore.reader(root / "store")
    (manifest,) = store.manifest_paths(key)
    return {
        "declaration": declaration, "root": root, "key": key,
        "samples": study._samples(), "result": result,
        "manifest_name": manifest.name,
        "manifest": json.loads(manifest.read_text()),
        "payloads": {r["index"]: p for r, p in store.iter_chunks(key)},
    }


def _zip(members, compression=zipfile.ZIP_STORED) -> bytes:
    """An archive of ``(name, bytes)`` members, duplicates allowed."""
    buffer = io.BytesIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "Duplicate name"
        with zipfile.ZipFile(buffer, "w", compression) as archive:
            for name, data in members:
                archive.writestr(name, data)
    return buffer.getvalue()


def _npy(array, allow_pickle=False) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.asanyarray(array),
                              allow_pickle=allow_pickle)
    return buffer.getvalue()


@st.composite
def hostile_archives(draw, payload):
    """``(edit, archive)``: chunk ``payload``'s archive, made hostile by
    one drawn edit."""
    original = _savez(payload)
    members = [(f"{name}.npy", _npy(array)) for name, array in payload.items()]
    edit = draw(st.sampled_from(("truncated", "drawn", "deflated", "object",
                                 "shape", "duplicated", "unnamed", "empty",
                                 "dropped", "rows")))
    if edit == "truncated":
        return edit, original[:draw(st.integers(0, len(original) - 1))]
    if edit == "drawn":
        return edit, draw(st.binary(max_size=64))
    if edit == "deflated":
        return edit, _zip(members, zipfile.ZIP_DEFLATED)
    if edit == "empty":
        return edit, _savez({})
    if edit == "dropped":
        dropped = draw(st.lists(st.sampled_from(sorted(payload)), min_size=1,
                                max_size=len(payload) - 1, unique=True))
        return edit, _savez({name: array for name, array in payload.items()
                             if name not in dropped})
    if edit == "rows":
        # One row fewer in a per-instance member (any but ``env_*``).
        name = draw(st.sampled_from(sorted(
            name for name in payload if not name.startswith("env_"))))
        return edit, _savez(dict(payload, **{name: payload[name][:-1]}))
    at = draw(st.integers(0, len(members) - 1))
    name, data = members[at]
    if edit == "object":
        members[at] = (name, _npy(np.array([1.0, None], dtype=object),
                                  allow_pickle=True))
    elif edit == "shape":
        # The header claims one more row than the data holds, its
        # padding one space shorter if the count gained a digit.
        end = 10 + int.from_bytes(data[8:10], "little")
        header = data[:end].decode("latin1")
        rows = payload[name[:-4]].shape[0]
        grown = header.replace(f"'shape': ({rows},",
                               f"'shape': ({rows + 1},", 1)
        members[at] = (name, (grown[:len(header) - 1] + "\n").encode("latin1")
                       + data[end:])
    elif edit == "duplicated":
        members.insert(at, (name, data))
    else:
        members[at] = (draw(st.sampled_from(
            (name[:-4], name + ".txt", "notes.txt"))), data)
    return edit, _zip(members)


def _make_hostile(completed, store: Path, index: int, data: bytes) -> Path:
    """``store`` with chunk ``index``'s archive replaced by ``data`` and
    its manifest record's sha256 rewritten to match."""
    manifest = json.loads(json.dumps(completed["manifest"]))
    record = manifest["chunks"][str(index)]
    (store / record["file"]).write_bytes(data)
    record["sha256"] = hashlib.sha256(data).hexdigest()
    (store / completed["manifest_name"]).write_text(json.dumps(manifest))
    return store


def _hostile_copy(completed, scratch: Path, index: int, data: bytes) -> Path:
    store = scratch / "store"
    shutil.copytree(completed["root"] / "store", store)
    return _make_hostile(completed, store, index, data)


def _refused(reader) -> None:
    with pytest.raises(StoreError) as caught:
        reader()
    assert "\n" not in str(caught.value)
    assert "cannot be read" in str(caught.value)


def _same_result(result, reference) -> None:
    for name in ("delays", "slews", "steady_states", "envelope_min",
                 "envelope_mean", "envelope_max", "time"):
        np.testing.assert_array_equal(
            getattr(result, name), getattr(reference, name))


@SETTINGS
@given(data=st.data())
def test_hostile_archives_are_refused_or_recomputed(completed, data):
    index = data.draw(st.integers(0, NUM_CHUNKS - 1))
    edit, hostile = data.draw(hostile_archives(completed["payloads"][index]))
    lacks_members = edit in ("empty", "dropped")
    key, declare = completed["key"], completed["declaration"]
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        _refused(declare(_hostile_copy(
            completed, scratch / "run", index, hostile)).run)
        _refused(declare(_hostile_copy(
            completed, scratch / "resume", index, hostile)).resume().run)
        requeued = obs_metrics.counter("store.chunks_requeued").value
        _same_result(declare(_hostile_copy(
            completed, scratch / "work", index, hostile)).work(),
            completed["result"])
        assert obs_metrics.counter("store.chunks_requeued").value \
            == requeued + 1

        # The query's warehouse registers the store before the edit.
        store = scratch / "readers" / "store"
        shutil.copytree(completed["root"] / "store", store)
        warehouse = Warehouse(scratch / "warehouse")
        warehouse.register(StudyStore.reader(store), key=key,
                           samples=completed["samples"])
        _make_hostile(completed, store, index, hostile)
        reader = StudyStore.reader(store)
        if lacks_members:
            # No declaration says which members a chunk must hold.
            payloads = {r["index"]: p for r, p in reader.iter_chunks(key)}
            assert set(payloads[index]) < set(completed["payloads"][index])
        else:
            _refused(lambda: list(reader.iter_chunks(key)))
        # A query reads only its own members: it refuses, or the edit
        # left those intact and it answers from the original chunks.
        try:
            delays = QueryEngine(warehouse).metric_values("delay")
        except (StoreError, WarehouseError) as error:
            assert isinstance(error, StoreError) or lacks_members
            assert "\n" not in str(error)
        else:
            np.testing.assert_array_equal(delays, np.concatenate(
                [completed["payloads"][i]["delays"]
                 for i in range(NUM_CHUNKS)]))


def test_threads_read_one_store_at_once(completed):
    """No lock serializes chunk reads: eight threads (more than the
    CPUs) reading one store at once each get every payload bit for
    bit."""
    store = StudyStore.reader(completed["root"] / "store")
    key, reads, errors = completed["key"], [None] * 8, []
    barrier = threading.Barrier(len(reads))

    def read(slot):
        try:
            barrier.wait(timeout=60)
            reads[slot] = [
                {r["index"]: p for r, p in store.iter_chunks(key)}
                for _ in range(25)
            ]
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=read, args=(slot,))
               for slot in range(len(reads))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for rounds in reads:
        for payloads in rounds:
            assert sorted(payloads) == list(range(NUM_CHUNKS))
            for index, payload in payloads.items():
                original = completed["payloads"][index]
                assert sorted(payload) == sorted(original)
                for name, array in payload.items():
                    assert array.tobytes() == original[name].tobytes()
