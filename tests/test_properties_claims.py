"""Hand-edited claim files: a worker drains past them or refuses in one line.

A lease claim (``claims/<key16>/chunk-*.claim``) is a file in a shared
store directory that any process -- or any person -- can write, so it
sits on a trust boundary.  This suite starts from a store where a
``max_chunks`` worker left part of a study undone, puts drawn bytes in
the remaining chunks' claim files, and drains the study with
``Study.work()`` on a :class:`~repro.runtime.scheduler.LeaseBoard`
whose clock jumps past the TTL at every reading, so a claim that is
watched once has expired the next time it is seen.  The drawn bytes
are a valid claim record with one field dropped, retyped (``NaN``,
lists, objects, ...) or set out of range (a pid of ``2**63``, negative,
a bool or a string; this host or another), JSON that is not an object,
a record truncated at a drawn byte or with invalid UTF-8 inserted, and
JSON nested deeper than the decoder's recursion limit.

``work()`` must return the one-shot result bit for bit, or raise
:class:`~repro.runtime.store.StoreError` with a one-line message; it
may raise nothing else and may not spin: every attempt to claim a
chunk is counted, and a drain that needs more than a few per chunk
fails the example.
"""

import json
import os
import shutil
import socket
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import LowRankReducer
from repro.runtime import MonteCarloPlan, StoreError, Study, StudyStore
from repro.runtime.scheduler import CLAIM_FORMAT, LeaseBoard

SETTINGS = settings(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
NUM_CHUNKS = 4
PENDING = (1, 2, 3)  # the chunks the first worker left, claim files drawn
MAX_CLAIM_ATTEMPTS = 8 * NUM_CHUNKS


@pytest.fixture(scope="module")
def partial(small_parametric, tmp_path_factory):
    """A store whose study one ``max_chunks=1`` worker left three chunks
    short of done, the study's key, and its one-shot result."""
    model = LowRankReducer(num_moments=2).reduce(small_parametric)
    root = tmp_path_factory.mktemp("claims")

    def declaration(store):
        return (
            Study(model).scenarios(MonteCarloPlan(num_instances=8, seed=5))
            .sweep(np.logspace(8, 10, 5)).chunk(2).store(store)
        )

    first = declaration(root / "store")
    assert first.work(worker="w0", max_chunks=1) is None
    assert first.drain_report().computed == [0]
    return {
        "declaration": declaration, "root": root,
        "key": first.fingerprint()["key"],
        "result": declaration(root / "oneshot").run(),
    }


class JumpingClock:
    """A monotonic clock that moves a day forward at every reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 86400.0
        return self.now


class CountingBoard(LeaseBoard):
    """A LeaseBoard that fails the example when a drain keeps trying to
    claim chunks it never gets: such a drain would spin forever."""

    attempts = 0

    def try_claim(self, index):
        self.attempts += 1
        assert self.attempts <= MAX_CLAIM_ATTEMPTS, "the drain spins"
        return super().try_claim(index)


# -- drawn claim files -------------------------------------------------

HOST = socket.gethostname()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

OUT_OF_RANGE = {
    "pid": st.sampled_from([2**31, 2**63, 10**30, -1, 0, True, False, "123",
                            1.5, float("nan"), os.getpid(), 1]),
    "host": st.sampled_from([HOST, "elsewhere", "", None]),
    "index": st.sampled_from([-1, 0, 1, 99, 2**63, True]),
    "beats": st.sampled_from([-1, 2**63, 10**30, True, 0.5, float("nan")]),
    "token": st.sampled_from(["", "x" * 200, "gone"]),
    "worker": st.sampled_from(["", "ghost", "../w"]),
    "wall_time": st.sampled_from([-1.0, 1e300, float("inf")]),
    "format": st.sampled_from(["repro-claim/v0", ""]),
}


def _record(index: int, host: str) -> dict:
    return {"format": CLAIM_FORMAT, "index": index, "worker": "ghost",
            "pid": os.getpid(), "host": host, "token": f"t{index}",
            "beats": 0, "wall_time": 0.0}


def _encode(value) -> bytes:
    return json.dumps(value).encode()


@st.composite
def claim_bytes(draw, index: int):
    """The bytes of one edited claim file."""
    edit = draw(st.sampled_from(("drop", "retype", "range", "other",
                                 "truncate", "utf8", "deep", "binary")))
    record = _record(index, draw(st.sampled_from([HOST, "elsewhere"])))
    if edit == "other":  # JSON that is not an object
        return _encode(draw(JSON_VALUES.filter(
            lambda value: not isinstance(value, dict))))
    if edit == "binary":
        return draw(st.binary(max_size=40))
    if edit == "deep":
        depth = draw(st.sampled_from([500, 5000, 100_000]))
        return b"[" * depth + (b"]" * depth if draw(st.booleans()) else b"")
    name = draw(st.sampled_from(sorted(record)))
    if edit == "drop":
        del record[name]
    elif edit == "retype":
        record[name] = draw(JSON_VALUES.filter(
            lambda value: type(value) is not type(record[name])))
    elif edit == "range":
        record[name] = draw(OUT_OF_RANGE[name])
    data = _encode(record)
    if edit == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if edit == "utf8":
        at = draw(st.integers(0, len(data)))
        invalid = draw(st.sampled_from((b"\xff", b"\xc3", b"\xed\xa0\x80")))
        return data[:at] + invalid + data[at:]
    return data


@st.composite
def claim_files(draw):
    return {index: draw(claim_bytes(index)) for index in PENDING}


def _ghost(index: int, **edits) -> bytes:
    return _encode({**_record(index, HOST), **edits})


def _same_result(result, expected) -> bool:
    return (result.num_chunks == expected.num_chunks
            and all(np.array_equal(getattr(result, name),
                                   getattr(expected, name))
                    for name in ("samples", "frequencies", "envelope_min",
                                 "envelope_mean", "envelope_max")))


@SETTINGS
@given(claims=claim_files())
@example(claims={index: _ghost(index, pid=2**63) for index in PENDING})
@example(claims={index: b"[" * 100_000 for index in PENDING})
@example(claims={index: _ghost(index, host="elsewhere", token=float("nan"))
                 for index in PENDING})
@example(claims={1: _ghost(1, pid=-7), 2: _ghost(2, pid=True),
                 3: _ghost(3, pid="123")})
def test_drain_past_edited_claims_or_refuse_in_one_line(partial, claims):
    with tempfile.TemporaryDirectory() as scratch:
        store_dir = Path(scratch) / "store"
        shutil.copytree(partial["root"] / "store", store_dir)
        store = StudyStore(store_dir)
        claims_dir = store_dir / "claims" / partial["key"][:16]
        for index, data in claims.items():
            (claims_dir / f"chunk-{index:05d}.claim").write_bytes(data)
        board = CountingBoard(store, partial["key"], worker="w1", ttl=10.0,
                              clock=JumpingClock())
        study = partial["declaration"](store)
        try:
            result = study.work(worker="w1", poll=0.0, board=board)
        except StoreError as exc:
            assert len(str(exc).splitlines()) == 1, str(exc)
            return
        assert _same_result(result, partial["result"])
        assert sorted(study.drain_report().computed) == list(PENDING)
