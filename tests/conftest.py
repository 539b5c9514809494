"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens of states) so the whole suite
runs in seconds; the full paper-scale workloads live in benchmarks/.
Session scope is used for anything that costs more than ~10 ms to
build, since the circuits and models are immutable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import (
    assemble,
    rc_ladder,
    rc_tree,
    rcnet_a,
    with_random_variations,
)
from repro.core import LowRankReducer


def pytest_addoption(parser):
    """``--regen-goldens``: rewrite the tests/golden/*.npz fixtures.

    The golden-reference harness (tests/test_golden.py) compares the
    current kernels against committed known-good numerics; after an
    *intentional* numeric change, regenerate with

        pytest tests/test_golden.py --regen-goldens

    and commit the updated fixtures in the same PR, so the diff
    documents the numeric change explicitly.
    """
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="regenerate the committed golden-reference fixtures",
    )


@pytest.fixture(scope="session")
def ladder_system():
    """A 12-segment RC ladder (13 states, 1 port + 1 observation)."""
    return assemble(rc_ladder(12))


@pytest.fixture(scope="session")
def tree_system():
    """A 30-node random RC tree (caps on every node; C nonsingular)."""
    return assemble(rc_tree(30, seed=5))


@pytest.fixture(scope="session")
def small_parametric():
    """10-segment ladder with 2 random variational parameters."""
    return with_random_variations(rc_ladder(10), 2, seed=3)


@pytest.fixture(scope="session")
def tree_parametric():
    """30-node tree with 2 random variational parameters."""
    return with_random_variations(rc_tree(30, seed=5), 2, seed=7)


@pytest.fixture(scope="session")
def big_tree_parametric():
    """100-node tree with 2 parameters; large enough that reduced models
    are genuinely smaller than the full system (no accidental exactness)."""
    return with_random_variations(rc_tree(100, seed=13), 2, seed=17)


@pytest.fixture(scope="session")
def rcneta_parametric():
    """The RCNetA clock-tree analogue (78 states, 3 width parameters)."""
    return rcnet_a()


@pytest.fixture(scope="session")
def rcneta_approximate_model(rcneta_parametric):
    """RCNetA reduced in the Theorem 1 check mode.

    ``approximate_sensitivities=True`` reduces the rank-1 SVD
    approximations of the sensitivities instead of the originals, so
    the reduced sensitivity blocks stay low-rank.
    """
    return LowRankReducer(
        num_moments=4, rank=1, approximate_sensitivities=True
    ).reduce(rcneta_parametric)


@pytest.fixture(scope="session")
def frequencies():
    """Logarithmic frequency grid, 10 MHz - 100 GHz."""
    return np.logspace(7, 11, 25)


@pytest.fixture
def rng():
    """Deterministic RNG for per-test randomness."""
    return np.random.default_rng(12345)


def _split_into_legacy_shards(directory, of: int) -> None:
    """Rewrite a finished store as ``of`` static shard runs had left it.

    Older releases split a study statically: shard ``i`` of ``n`` owned
    the chunks with ``index % n == i`` and wrote them to its own
    ``manifest-<key16>.shardNNofMM.json`` carrying ``"shard": [i, n]``.
    """
    (path,) = Path(directory).glob("manifest-*.json")
    manifest = json.loads(path.read_text())
    for index in range(of):
        chunks = {
            key: record for key, record in manifest["chunks"].items()
            if int(key) % of == index
        }
        legacy = dict(manifest, shard=[index, of], chunks=chunks)
        suffix = f".shard{index + 1:02d}of{of:02d}.json"
        path.with_name(path.name.replace(".json", suffix)).write_text(
            json.dumps(legacy, indent=1)
        )
    path.unlink()


@pytest.fixture(scope="session")
def legacy_shard_split():
    """``split(store_dir, of)``: turn a store into a legacy sharded one."""
    return _split_into_legacy_shards
