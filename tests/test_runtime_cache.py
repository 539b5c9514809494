"""Content-addressed model cache: keys, hits, round trips."""

import threading

import numpy as np
import pytest

from repro.circuits import rc_tree, rcnet_a, with_random_variations
from repro.core import LowRankReducer
from repro.core.io import roundtrip_equal
from repro.runtime import ModelCache, reducer_fingerprint, system_fingerprint
from repro.runtime import cache as cache_module


@pytest.fixture(scope="module")
def parametric():
    return rcnet_a()


class TestFingerprints:
    def test_system_fingerprint_deterministic(self, parametric):
        assert system_fingerprint(parametric) == system_fingerprint(rcnet_a())

    def test_system_fingerprint_sensitive_to_matrices(self, parametric):
        other = with_random_variations(rc_tree(12), 3, seed=1)
        assert system_fingerprint(parametric) != system_fingerprint(other)

    def test_reducer_fingerprint_tracks_config(self):
        base = reducer_fingerprint(LowRankReducer(num_moments=3, rank=1))
        assert base == reducer_fingerprint(LowRankReducer(num_moments=3, rank=1))
        assert base != reducer_fingerprint(LowRankReducer(num_moments=4, rank=1))
        assert base != reducer_fingerprint(LowRankReducer(num_moments=3, rank=2))


class _ExoticConfigReducer:
    """A reducer whose public config exercises the fingerprint edge cases:
    non-ASCII strings, nested dicts, numpy scalars, tuples.  ``reduce``
    delegates to a real reducer and counts its invocations on an
    underscore attribute (excluded from the fingerprint by contract).
    """

    def __init__(self, num_moments=2, label="naïve-β", options=None):
        self.num_moments = num_moments
        self.label = label
        self.options = options if options is not None else {
            "außen": {"ключ": [1, 2.5], "キー": "значение"},
            "nested": {"depth": {"rank": np.int64(1), "tol": np.float64(0.5)}},
            "axis": (0.1, 0.2),
        }
        self._calls = 0

    def reduce(self, parametric):
        """Delegate to LowRankReducer, counting invocations."""
        self._calls += 1
        return LowRankReducer(num_moments=self.num_moments, rank=1).reduce(parametric)


class TestFingerprintRegressions:
    def test_non_ascii_nested_config_is_stable(self):
        """Two independently built equal configs hash identically."""
        first = reducer_fingerprint(_ExoticConfigReducer())
        second = reducer_fingerprint(_ExoticConfigReducer())
        assert first == second
        # Repeated fingerprinting of the same object is also stable.
        reducer = _ExoticConfigReducer()
        assert reducer_fingerprint(reducer) == reducer_fingerprint(reducer)

    def test_dict_insertion_order_irrelevant(self):
        forward = _ExoticConfigReducer(options={"a": 1, "b": {"x": 1, "y": 2}})
        backward = _ExoticConfigReducer(options={"b": {"y": 2, "x": 1}, "a": 1})
        assert reducer_fingerprint(forward) == reducer_fingerprint(backward)

    def test_non_ascii_value_changes_key(self):
        base = reducer_fingerprint(_ExoticConfigReducer(label="naïve-β"))
        other = reducer_fingerprint(_ExoticConfigReducer(label="naïve-γ"))
        assert base != other

    def test_nested_value_changes_key(self):
        base = _ExoticConfigReducer()
        changed = _ExoticConfigReducer()
        changed.options = {
            **changed.options,
            "nested": {"depth": {"rank": np.int64(2), "tol": np.float64(0.5)}},
        }
        assert reducer_fingerprint(base) != reducer_fingerprint(changed)

    def test_underscore_attributes_excluded(self):
        reducer = _ExoticConfigReducer()
        before = reducer_fingerprint(reducer)
        reducer._calls = 99
        assert reducer_fingerprint(reducer) == before

    def test_exotic_config_round_trips_through_cache(self, parametric, tmp_path):
        """The cache keys, stores, and reloads under the exotic config."""
        cache = ModelCache(tmp_path)
        reducer = _ExoticConfigReducer()
        built = cache.get_or_reduce(parametric, reducer)
        loaded = cache.get_or_reduce(parametric, reducer)
        assert (cache.hits, cache.misses) == (1, 1)
        assert roundtrip_equal(built, loaded)


class TestCacheSkipsReduction:
    def test_hit_does_not_invoke_reducer(self, parametric, tmp_path):
        cache = ModelCache(tmp_path)
        reducer = _ExoticConfigReducer()
        cache.get_or_reduce(parametric, reducer)
        assert reducer._calls == 1
        cache.get_or_reduce(parametric, reducer)
        cache.get_or_reduce(parametric, reducer)
        assert reducer._calls == 1  # hits never re-reduce
        assert (cache.hits, cache.misses) == (2, 1)

    def test_fresh_reducer_instance_still_hits(self, parametric, tmp_path):
        """Content addressing: an equal config built elsewhere hits too."""
        cache = ModelCache(tmp_path)
        cache.get_or_reduce(parametric, _ExoticConfigReducer())
        second = _ExoticConfigReducer()
        cache.get_or_reduce(parametric, second)
        assert second._calls == 0
        assert (cache.hits, cache.misses) == (1, 1)


class TestModelCache:
    def test_miss_then_hit(self, parametric, tmp_path):
        cache = ModelCache(tmp_path / "models")
        reducer = LowRankReducer(num_moments=3, rank=1)
        first = cache.get_or_reduce(parametric, reducer)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1
        second = cache.get_or_reduce(parametric, reducer)
        assert (cache.hits, cache.misses) == (1, 1)
        assert roundtrip_equal(first, second)

    def test_cached_model_evaluates_identically(self, parametric, tmp_path):
        cache = ModelCache(tmp_path)
        reducer = LowRankReducer(num_moments=3, rank=1)
        built = cache.get_or_reduce(parametric, reducer)
        loaded = cache.get_or_reduce(parametric, reducer)
        s = 2j * np.pi * 1e9
        point = [0.1, -0.2, 0.05]
        np.testing.assert_array_equal(
            built.transfer(s, point), loaded.transfer(s, point)
        )

    def test_different_config_different_entry(self, parametric, tmp_path):
        cache = ModelCache(tmp_path)
        cache.get_or_reduce(parametric, LowRankReducer(num_moments=2, rank=1))
        cache.get_or_reduce(parametric, LowRankReducer(num_moments=3, rank=1))
        assert len(cache) == 2
        assert cache.misses == 2

    def test_store_load_by_key(self, parametric, tmp_path):
        cache = ModelCache(tmp_path)
        reducer = LowRankReducer(num_moments=2, rank=1)
        model = reducer.reduce(parametric)
        key = cache.key(parametric, reducer)
        assert cache.load(key) is None
        path = cache.store(key, model)
        assert path.exists() and path.name == f"{key}.npz"
        assert roundtrip_equal(cache.load(key), model)

    def test_clear(self, parametric, tmp_path):
        cache = ModelCache(tmp_path)
        cache.get_or_reduce(parametric, LowRankReducer(num_moments=2, rank=1))
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_threads_storing_one_key_do_not_collide(
        self, parametric, tmp_path, monkeypatch
    ):
        """Two threads of one process hammer ``store`` on the same key.

        The study server realizes concurrent submissions on threads of
        one process.  A barrier after each scratch write makes both
        threads hold a written scratch file before either renames, so a
        scratch name shared between them fails on every round.
        """
        reducer = LowRankReducer(num_moments=2, rank=1)
        model = reducer.reduce(parametric)
        cache = ModelCache(tmp_path)
        key = cache.key(parametric, reducer)
        barrier = threading.Barrier(2, timeout=30)
        save_model = cache_module.save_model

        def save_then_meet(saved, path):
            save_model(saved, path)
            barrier.wait()

        monkeypatch.setattr(cache_module, "save_model", save_then_meet)
        errors = []

        def hammer():
            try:
                for _ in range(5):
                    cache.store(key, model)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert roundtrip_equal(cache.load(key), model)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{key}.npz"]
