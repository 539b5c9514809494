"""Public-API integrity tests.

The re-export surface is part of the product: downstream code imports
from ``repro`` and its subpackages, so every ``__all__`` entry must
resolve, be documented, and stay importable.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.linalg",
    "repro.circuits",
    "repro.baselines",
    "repro.core",
    "repro.analysis",
    "repro.obs",
    "repro.runtime",
    "repro.serve",
    "repro.warehouse",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_entries_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_all_sorted_and_unique(self, package_name):
        package = importlib.import_module(package_name)
        entries = list(package.__all__)
        assert entries == sorted(entries), f"{package_name}.__all__ not sorted"
        assert len(entries) == len(set(entries))

    def test_package_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__) > 40


class TestDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_objects_documented(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in package.__all__:
            obj = getattr(package, name)
            if name.startswith("__"):
                continue
            doc = getattr(obj, "__doc__", None)
            if not doc or not doc.strip():
                undocumented.append(name)
        assert not undocumented, f"{package_name}: undocumented {undocumented}"


class TestVersion:
    def test_version_string(self):
        import repro

        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2


ROOT_ALL_SNAPSHOT = [
    "AdaptiveLowRankReducer", "CornerPlan", "DescriptorSystem",
    "ExecutionPlan", "GridPlan", "LowRankReducer", "ModelCache",
    "MonteCarloPlan", "MultiPointReducer", "Netlist", "NominalReducer",
    "PWLInput", "ParametricReducedModel", "ParametricSystem",
    "RampInput", "SineInput", "SinglePointReducer",
    "SparsePatternFamily", "StepInput", "StoreError", "Study",
    "StudyStore", "Warehouse", "WarehouseError",
    "__version__", "assemble", "batch_frequency_response",
    "batch_instantiate", "batch_poles", "batch_simulate_transient",
    "batch_transfer", "clock_tree",
    "compare_frequency_responses", "coupled_rlc_bus", "dominant_poles",
    "factorial_grid", "finite_difference_sensitivities",
    "fit_projection_model", "match_poles", "monte_carlo_pole_study",
    "parse_netlist", "passivity_report", "pole_error_grid",
    "power_grid_mesh", "prima", "prima_projection", "rc_ladder",
    "rc_network_767", "rc_tree", "rcnet_a", "rcnet_b",
    "sample_parameters",
    "shifted_parametric_system", "simulate_step", "simulate_transient",
    "standard_stack", "sweep", "tbr",
    "with_random_variations",
]

RUNTIME_ALL_SNAPSHOT = [
    "BatchTransientResult", "CornerPlan", "DrainReport", "ExecutionPlan",
    "GridPlan",
    "InputWaveform", "Lease", "LeaseBoard",
    "ModelCache", "MonteCarloPlan",
    "NothingToResumeError", "PWLInput",
    "PoleStudy", "RampInput", "ScenarioPlan",
    "SensitivityStudy", "SineInput", "SparsePatternFamily",
    "StepInput", "StoreError", "StreamedSweepStudy",
    "StreamedTransientStudy", "Study", "StudyCheckpoint", "StudyStore",
    "TransientStudy", "array_fingerprint",
    "batch_frequency_response",
    "batch_instantiate", "batch_poles", "batch_simulate_transient",
    "batch_step_responses", "batch_transfer",
    "batch_transfer_sensitivities",
    "default_horizon", "default_worker_id",
    "drain_chunks",
    "parse_worker_id", "reducer_fingerprint",
    "shared_pattern_family", "study_fingerprint", "supports_batching",
    "supports_sparse_batching", "sweep_chunk_bytes", "system_fingerprint",
    "systems_from_stacks", "target_fingerprint", "transient_chunk_bytes",
]

ENGINE_NAMES_SNAPSHOT = ["ExecutionPlan", "PoleStudy", "SensitivityStudy", "Study"]


class TestApiSnapshot:
    """Accidental surface changes must fail CI, not surprise users.

    If a change to these lists is *intentional*, update the snapshot in
    the same PR that changes the surface -- the diff then documents the
    API change explicitly.
    """

    def test_root_all_matches_snapshot(self):
        import repro

        assert list(repro.__all__) == ROOT_ALL_SNAPSHOT

    def test_runtime_all_matches_snapshot(self):
        runtime = importlib.import_module("repro.runtime")
        assert list(runtime.__all__) == RUNTIME_ALL_SNAPSHOT

    def test_engine_names_present_and_constructible(self):
        engine = importlib.import_module("repro.runtime.engine")
        for name in ENGINE_NAMES_SNAPSHOT:
            assert hasattr(engine, name), f"engine.{name} missing"
        # Study is the front door: the builder surface itself is API.
        study_methods = [
            "scenarios", "sweep", "transient", "poles", "sensitivities",
            "memory_budget", "chunk", "cached", "reduced",
            "progress", "trace", "metrics", "plan", "run", "work",
            "drain_report", "warehouse", "warehouse_report",
        ]
        for method in study_methods:
            assert callable(getattr(engine.Study, method)), f"Study.{method} missing"
        assert not hasattr(engine.Study, "executor")


class TestCliModule:
    def test_cli_importable_and_has_parser(self):
        from repro.cli import build_parser

        parser = build_parser()
        # All thirteen subcommands registered.
        text = parser.format_help()
        for command in ("info", "reduce", "sweep", "poles", "montecarlo",
                        "batch", "transient", "work", "trace", "serve",
                        "submit", "jobs", "query"):
            assert command in text
