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

A run that was never closed leaves a journal beside its manifest: one
line per chunk saved after the first.  The second suite starts from
such a store (a copy taken after the last save, before the close) and
applies one drawn edit to the journal: a truncation at a drawn byte,
drawn bytes or JSON appended, one field of one line dropped, retyped
or set out of range, lines duplicated or reordered, or invalid UTF-8
inserted.  The same readers must answer from the original chunks (the
run recomputing only the chunks whose line a truncation cut off) or
refuse in one line.
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

    def snapshot(done, total):  # every chunk saved, the run not closed
        if done == total:
            shutil.copytree(root / "store", root / "journaled")

    study = declaration(root / "store").progress(snapshot)
    result = study.run()
    key = study.fingerprint()["key"]
    store = StudyStore.reader(root / "store")
    (manifest,) = store.manifest_paths(key)
    journal = root / "journaled" / f"{manifest.name}.journal"
    return {
        "declaration": declaration, "root": root, "key": key,
        "samples": study._samples(), "result": result,
        "manifest": json.loads(manifest.read_text()),
        "manifest_name": manifest.name,
        "journal": journal.read_bytes(), "journal_name": journal.name,
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
    _edit_one_field(draw, edited, edit)
    return edited


def _edit_one_field(draw, edited, edit) -> None:
    """Drop, retype or set out of range (``edit``) one drawn field of
    the parsed JSON ``edited``, in place."""
    paths = list(_paths(edited))
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


@st.composite
def edited_journals(draw, journal: bytes):
    """``journal`` (its lines for chunks 1 and 2) with one drawn edit."""
    edit = draw(st.sampled_from(("truncate", "append", "drop", "retype",
                                 "range", "lines", "utf8")))
    if edit == "truncate":
        return journal[:draw(st.integers(0, len(journal)))]
    if edit == "append":
        return journal + draw(st.binary(max_size=24) | JSON_VALUES.map(
            lambda value: json.dumps(value).encode() + b"\n"))
    if edit == "utf8":
        at = draw(st.integers(0, len(journal)))
        invalid = draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80")))
        return journal[:at] + invalid + journal[at:]
    lines = journal.split(b"\n")[:-1]
    if edit == "lines":  # reorder them, perhaps duplicating one
        lines = list(draw(st.permutations(lines)))
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(lines)))
    else:
        number = draw(st.integers(0, len(lines) - 1))
        entry = json.loads(lines[number])
        _edit_one_field(draw, entry, edit)
        lines[number] = json.dumps(entry).encode()
    return b"\n".join(lines) + b"\n"


# -- the readers -------------------------------------------------------


def _present(edited) -> list:
    """The chunk indices an accepted manifest still records."""
    return sorted(int(index) for index in edited.get("chunks", {}))


def _journal_present(journal: bytes):
    """The chunk indices the journaled store records after its journal
    became ``journal`` -- the manifest's chunk 0 and every complete
    line's index -- or ``None`` when a complete line is not an indexed
    record, so that every reader must refuse the store."""
    present = {0}
    for line in journal.split(b"\n")[:-1]:
        try:
            entry = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            return None
        if not (isinstance(entry, dict) and type(entry.get("index")) is int):
            return None
        present.add(entry["index"])
    return sorted(present)


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


def _edited_copy(completed, scratch: Path, source: str, name: str,
                 data: bytes) -> Path:
    """A copy of ``completed``'s ``source`` store with file ``name``
    replaced by ``data``."""
    store = scratch / "store"
    shutil.copytree(completed["root"] / source, store)
    (store / name).write_bytes(data)
    return store


def _readers_answer_or_refuse(completed, source, name, data, present):
    """Every reader of ``source`` with ``name`` replaced by ``data``
    answers from the original chunks ``present()`` names or raises a
    one-line StoreError; ``present()`` is ``None`` when every reader
    must refuse."""
    key, samples = completed["key"], completed["samples"]
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for directive in ("run", "resume"):
            store = _edited_copy(completed, scratch / directive, source,
                                 name, data)
            study = completed["declaration"](store)
            if directive == "resume":
                study = study.resume()
            _answer_or_store_error(
                study.run, lambda result: _same_result(
                    result, completed["result"]))

        # The read-only readers share one copy, registered in a
        # warehouse before the edit (for the query) and after it.
        store = scratch / "readers" / "store"
        shutil.copytree(completed["root"] / source, store)
        queried = Warehouse(scratch / "queried")
        queried.register(StudyStore.reader(store), key=key, samples=samples)
        (store / name).write_bytes(data)
        reader = StudyStore.reader(store)

        def indices():
            chunks = present()
            assert chunks is not None, "a reader accepted a refused edit"
            return chunks

        def lineage_check(lineage):
            assert lineage == [completed["lineage"][i] for i in indices()]

        def chunks_check(chunks):
            assert [r["index"] for r, _ in chunks] == indices()
            for record, payload in chunks:
                original = completed["payloads"][record["index"]]
                assert sorted(payload) == sorted(original)
                for column in payload:
                    np.testing.assert_array_equal(payload[column],
                                                  original[column])

        def register_check(report):
            assert report.studies == [key[:16]]
            assert report.chunks == len(indices())

        def query_check(delays):
            np.testing.assert_array_equal(delays, np.concatenate(
                [completed["payloads"][i]["delays"] for i in indices()]))

        _answer_or_store_error(lambda: reader.lineage(key), lineage_check)
        _answer_or_store_error(
            lambda: list(reader.iter_chunks(key)), chunks_check)
        _answer_or_store_error(
            lambda: Warehouse(scratch / "registered").register(
                reader, key=key, samples=samples),
            register_check)
        _answer_or_store_error(
            lambda: QueryEngine(queried).metric_values("delay"), query_check)


@SETTINGS
@given(data=st.data())
def test_hand_edited_manifest_readers_answer_or_refuse(completed, data):
    edited = data.draw(edited_manifests(completed["manifest"]))
    _readers_answer_or_refuse(
        completed, "store", completed["manifest_name"],
        json.dumps(edited).encode(), lambda: _present(edited))


def test_the_journaled_store_answers_in_full(completed):
    """The unedited journaled store: manifest chunk 0, journal 1 and 2."""
    assert completed["journal"].count(b"\n") == NUM_CHUNKS - 1
    _readers_answer_or_refuse(
        completed, "journaled", completed["journal_name"],
        completed["journal"], lambda: list(range(NUM_CHUNKS)))


@SETTINGS
@given(data=st.data())
def test_hand_edited_journal_readers_answer_or_refuse(completed, data):
    journal = data.draw(edited_journals(completed["journal"]))
    _readers_answer_or_refuse(
        completed, "journaled", completed["journal_name"], journal,
        lambda: _journal_present(journal))
