"""Tests for macromodel save/load."""

import json

import numpy as np
import pytest

from repro.core import LowRankReducer
from repro.core.io import FORMAT_VERSION, load_model, roundtrip_equal, save_model


@pytest.fixture(scope="module")
def model():
    from repro.circuits import rcnet_a

    return LowRankReducer(num_moments=3, rank=1).reduce(rcnet_a())


class TestRoundTrip:
    def test_matrices_bit_exact(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert roundtrip_equal(model, loaded, tol=0.0)

    def test_names_preserved(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.parameter_names == model.parameter_names
        assert loaded.nominal.input_names == model.nominal.input_names
        assert loaded.nominal.output_names == model.nominal.output_names

    def test_projection_preserved(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.projection, model.projection)

    def test_behaviour_identical(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        s = 2j * np.pi * 1e9
        point = [0.2, -0.1, 0.3]
        np.testing.assert_array_equal(
            loaded.transfer(s, point), model.transfer(s, point)
        )
        np.testing.assert_allclose(
            loaded.poles(point, num=3), model.poles(point, num=3), rtol=1e-12
        )

    def test_model_without_projection(self, model, tmp_path):
        from repro.core import ParametricReducedModel

        bare = ParametricReducedModel(
            model.nominal, model.dG, model.dC,
            parameter_names=model.parameter_names,
        )
        path = tmp_path / "bare.npz"
        save_model(bare, path)
        loaded = load_model(path)
        assert loaded.projection is None


class TestFormatGuards:
    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.eye(2))
        with pytest.raises(ValueError, match="not a repro macromodel"):
            load_model(path)

    def test_version_mismatch(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        metadata = json.loads(str(payload["metadata_json"]))
        metadata["format_version"] = FORMAT_VERSION + 99
        payload["metadata_json"] = np.array(json.dumps(metadata))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="format version"):
            load_model(path)

    def test_missing_array(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files if k != "C0"}
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="missing arrays"):
            load_model(path)

    def test_no_pickle_needed(self, model, tmp_path):
        """The archive must load with allow_pickle=False (safety)."""
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as archive:
            assert "G0" in archive.files


class TestConcurrentLoads:
    """Model-cache loads parse ``.npy`` headers (``ast.literal_eval``),
    which CPython 3.11.7 cannot run in two threads at once."""

    def test_load_holds_the_one_deserialize_lock(self, model, tmp_path,
                                                 monkeypatch):
        from repro.core import io as core_io
        from repro.runtime import store as store_module

        # Chunk archives are read without np.load, so without the lock.
        assert not hasattr(store_module, "DESERIALIZE_LOCK")
        path = tmp_path / "model.npz"
        save_model(model, path)
        held = []
        original = np.load

        def spying(*args, **kwargs):
            held.append(core_io.DESERIALIZE_LOCK.locked())
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "load", spying)
        load_model(path)
        assert held == [True]

    def test_threads_loading_one_cached_model_agree(self, model, tmp_path):
        import sys
        import threading

        from repro.runtime import ModelCache

        cache = ModelCache(tmp_path / "cache")
        cache.store("0" * 64, model)
        loaded, errors = [None] * 8, []

        def load(slot):
            try:
                loaded[slot] = cache.load("0" * 64)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=load, args=(slot,))
                       for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(roundtrip_equal(model, other) for other in loaded)
