"""Hand-edited manifests: every reader answers right or refuses in one line.

A study manifest is a file on disk that anyone can edit, so it sits on
a trust boundary.  This suite completes a small store-backed transient
study, replaces its manifest with drawn JSON -- arbitrary values, and
the real manifest with one field dropped, retyped or set out of range,
or with two records' archives (``file`` and ``sha256``) swapped -- and
runs each reader against a fresh copy of the edited store:

- ``Study.run()`` and ``.resume().run()`` must return the original
  result bit for bit (loading what verifies, recomputing what the
  manifest no longer records);
- ``StudyStore.lineage``, ``StudyStore.iter_chunks``,
  ``Warehouse.register`` and a ``QueryEngine`` query must answer from
  the original chunks -- the ones the edited manifest still records --
  bit for bit.

Any reader may instead raise :class:`~repro.runtime.store.StoreError`
(one line); no reader may raise anything else.  A run opens its
checkpoint from one parse of its manifests, so the shape check of that
parse is what every later step relies on.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LowRankReducer
from repro.runtime import MonteCarloPlan, StoreError, Study, StudyStore
from repro.warehouse import QueryEngine, Warehouse

SETTINGS = settings(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
NUM_CHUNKS = 3


@pytest.fixture(scope="module")
def completed(small_parametric, tmp_path_factory):
    """A completed 6-instance transient study in 3 chunks, and what its
    readers answer before any edit."""
    model = LowRankReducer(num_moments=2).reduce(small_parametric)
    root = tmp_path_factory.mktemp("manifests")

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
        "manifest": json.loads(manifest.read_text()),
        "manifest_name": manifest.name,
        "lineage": {r["index"]: r for r in store.lineage(key)},
        "payloads": {r["index"]: p for r, p in store.iter_chunks(key)},
    }


# -- drawn edits -------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _kind(value) -> str:
    return "int" if type(value) is int else type(value).__name__


def _paths(value, prefix=()):
    """Every key / index path inside a parsed manifest."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for name, child in items:
        yield prefix + (name,)
        yield from _paths(child, prefix + (name,))


def _get(value, path):
    for name in path:
        value = value[name]
    return value


@st.composite
def edited_manifests(draw, manifest):
    """``manifest`` (deep-copied) with one drawn edit applied."""
    edit = draw(st.sampled_from(("replace", "drop", "retype", "range",
                                 "index", "swap")))
    if edit == "replace":
        return draw(JSON_VALUES)
    edited = json.loads(json.dumps(manifest))
    if edit == "swap":  # two records trade archives: file and sha256
        first, second = draw(st.lists(
            st.sampled_from(sorted(edited["chunks"])),
            min_size=2, max_size=2, unique=True))
        a, b = edited["chunks"][first], edited["chunks"][second]
        for name in ("file", "sha256"):
            a[name], b[name] = b[name], a[name]
        return edited
    paths = list(_paths(edited))
    if edit == "index":  # rename one chunk record's index key
        old = draw(st.sampled_from(sorted(edited["chunks"])))
        new = draw(st.sampled_from(
            ("-1", "01", str(NUM_CHUNKS), "99", "9" * 30, "²", "٣", "",
             " 1", "1.0")))
        edited["chunks"][new] = edited["chunks"].pop(old)
        return edited
    if edit == "range":
        paths = [p for p in paths if _kind(_get(edited, p)) == "int"]
    path = draw(st.sampled_from(paths))
    parent, name = _get(edited, path[:-1]), path[-1]
    if edit == "drop":
        del parent[name]
    elif edit == "retype":
        original = _kind(parent[name])
        parent[name] = draw(JSON_VALUES.filter(
            lambda value: _kind(value) != original))
    else:
        value = parent[name]
        parent[name] = draw(st.sampled_from(
            (-1, 0, value - 1, value + 1, 2 * value + 7, 10 ** 30)))
    return edited


# -- the readers -------------------------------------------------------


def _fresh_copy(completed, scratch: Path, edited) -> Path:
    """A copy of the completed store with its manifest replaced."""
    store = scratch / "store"
    shutil.copytree(completed["root"] / "store", store)
    (store / completed["manifest_name"]).write_text(json.dumps(edited))
    return store


def _present(edited) -> list:
    """The chunk indices an accepted manifest still records."""
    return sorted(int(index) for index in edited.get("chunks", {}))


def _same_result(result, reference) -> None:
    for name in ("delays", "slews", "steady_states", "envelope_min",
                 "envelope_mean", "envelope_max", "time"):
        np.testing.assert_array_equal(
            getattr(result, name), getattr(reference, name))


def _answer_or_store_error(reader, check) -> None:
    """Run ``reader()``; check its answer, or accept a one-line StoreError."""
    try:
        answer = reader()
    except StoreError as error:
        assert "\n" not in str(error)
        return
    check(answer)


@SETTINGS
@given(data=st.data())
def test_hand_edited_manifest_readers_answer_or_refuse(completed, data):
    edited = data.draw(edited_manifests(completed["manifest"]))
    key, samples = completed["key"], completed["samples"]
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for directive in ("run", "resume"):
            store = _fresh_copy(completed, scratch / directive, edited)
            study = completed["declaration"](store)
            if directive == "resume":
                study = study.resume()
            _answer_or_store_error(
                study.run, lambda result: _same_result(
                    result, completed["result"]))

        # The read-only readers share one copy, registered in a
        # warehouse before the edit (for the query) and after it.
        store = scratch / "readers" / "store"
        shutil.copytree(completed["root"] / "store", store)
        queried = Warehouse(scratch / "queried")
        queried.register(StudyStore.reader(store), key=key, samples=samples)
        (store / completed["manifest_name"]).write_text(json.dumps(edited))
        reader = StudyStore.reader(store)

        def lineage_check(lineage):
            assert lineage == [completed["lineage"][i]
                               for i in _present(edited)]

        def chunks_check(chunks):
            assert [r["index"] for r, _ in chunks] == _present(edited)
            for record, payload in chunks:
                original = completed["payloads"][record["index"]]
                assert sorted(payload) == sorted(original)
                for name in payload:
                    np.testing.assert_array_equal(payload[name], original[name])

        def register_check(report):
            assert report.studies == [key[:16]]
            assert report.chunks == len(_present(edited))

        def query_check(delays):
            np.testing.assert_array_equal(delays, np.concatenate(
                [completed["payloads"][i]["delays"] for i in _present(edited)]))

        _answer_or_store_error(lambda: reader.lineage(key), lineage_check)
        _answer_or_store_error(
            lambda: list(reader.iter_chunks(key)), chunks_check)
        _answer_or_store_error(
            lambda: Warehouse(scratch / "registered").register(
                reader, key=key, samples=samples),
            register_check)
        _answer_or_store_error(
            lambda: QueryEngine(queried).metric_values("delay"), query_check)
