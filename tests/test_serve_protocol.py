"""Tests for the repro.serve job declaration schema."""

import os

import pytest

from repro.serve.protocol import (
    ProtocolError,
    build_plan,
    build_waveform,
    parse_job,
    realize,
)

NETLIST = """
.title serve-protocol-demo
Rdrv n0 0 10
C0 n0 0 0.02p
R1 n0 n1 25
C1 n1 0 0.02p
R2 n1 n2 25
C2 n2 0 0.02p
R3 n2 n3 25
C3 n3 0 0.02p
.port in n0
"""


def _job(**overrides):
    document = {
        "netlist": NETLIST,
        "plan": {"kind": "montecarlo", "instances": 4, "seed": 7},
        "workload": {"kind": "sweep", "points": 5},
        "moments": 3,
    }
    document.update(overrides)
    return document


class TestBuilders:
    def test_build_plan_kinds(self):
        from repro.runtime import CornerPlan, GridPlan, MonteCarloPlan

        assert isinstance(build_plan("montecarlo", instances=8), MonteCarloPlan)
        assert isinstance(build_plan("corners"), CornerPlan)
        grid = build_plan("grid", magnitude=0.2, points=4)
        assert isinstance(grid, GridPlan)
        assert len(grid.axis_values) == 4

    def test_build_plan_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown plan"):
            build_plan("worst-case")

    def test_build_waveform_kinds(self):
        from repro.runtime import PWLInput, RampInput, SineInput, StepInput

        assert isinstance(build_waveform("step"), StepInput)
        assert isinstance(build_waveform("ramp", rise_time=1e-10), RampInput)
        assert isinstance(build_waveform("sine", frequency=2e9), SineInput)
        pwl = build_waveform("pwl", points=[[0, 0], [1e-9, 1]])
        assert isinstance(pwl, PWLInput)

    def test_build_waveform_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown waveform"):
            build_waveform("impulse")


class TestParseJob:
    def test_defaults_applied(self):
        spec = parse_job(_job())
        assert spec.parameters == 2
        assert spec.spread == 0.5
        assert spec.rank == 1
        assert spec.workers == 1
        assert spec.plan_options == {"instances": 4, "sigma": 0.3, "seed": 7}
        assert spec.workload_options["fmin"] == 1e7
        assert spec.workload_options["points"] == 5

    def test_accepts_json_text_and_bytes(self):
        import json

        document = _job()
        text = json.dumps(document)
        assert parse_job(text).canonical() == parse_job(document).canonical()
        assert parse_job(text.encode()).canonical() == \
            parse_job(document).canonical()

    def test_canonical_is_default_insensitive(self):
        implicit = parse_job(_job())
        explicit = parse_job(_job(
            parameters=2, spread=0.5, variation_seed=0, rank=1, workers=1,
        ))
        assert implicit.canonical() == explicit.canonical()

    def test_transient_waveform_normalized(self):
        spec = parse_job(_job(workload={
            "kind": "transient", "waveform": {"kind": "ramp"},
        }))
        waveform = spec.workload_options["waveform"]
        assert waveform["kind"] == "ramp"
        assert waveform["rise_time"] == 1e-10
        assert waveform["amplitude"] == 1.0

    @pytest.mark.parametrize("document, match", [
        ({"plan": {"kind": "montecarlo"},
          "workload": {"kind": "sweep"}}, "missing 'netlist'"),
        (_job(extra=1), "unknown job field"),
        (_job(plan={"kind": "worst-case"}), "unknown plan"),
        (_job(plan={"kind": "montecarlo", "walkers": 3}),
         "unknown plan option"),
        (_job(workload={"kind": "anneal"}), "unknown workload"),
        (_job(workload={"kind": "sweep", "fstart": 1.0}),
         "unknown workload option"),
        (_job(workload={"kind": "transient",
                        "waveform": {"kind": "impulse"}}),
         "waveform"),
        (_job(parameters=0), "'parameters' must be an integer"),
        (_job(parameters=True), "'parameters' must be an integer"),
        (_job(moments="four"), "'moments' must be an integer"),
        (_job(spread="wide"), "'spread' must be a number"),
        (_job(chunk=0), "'chunk' must be a positive integer"),
        (_job(precision="full"), r"unknown job field\(s\): precision"),
        ("{not json", "not valid JSON"),
        ([1, 2], "must be a JSON object"),
    ])
    def test_malformed_documents_rejected(self, document, match):
        with pytest.raises(ProtocolError, match=match):
            parse_job(document)

    @pytest.mark.parametrize("jobs", [
        pytest.param(10 ** 5, id="huge-count"),
        pytest.param((os.cpu_count() or 1) + 1, id="cpu-count-plus-one"),
        pytest.param(0, id="zero"),
        pytest.param(True, id="bool"),
        pytest.param(2.0, id="float"),
        pytest.param("process", id="process"),
        pytest.param("shared", id="shared"),
        pytest.param([2], id="list"),
    ])
    def test_montecarlo_jobs_out_of_bounds_rejected(self, jobs):
        """``jobs`` sizes the executor of the full-order solves, so the
        wire accepts only serial, thread, or a count up to the CPUs."""
        with pytest.raises(ProtocolError) as caught:
            parse_job(_job(workload={"kind": "montecarlo", "jobs": jobs}))
        message = str(caught.value)
        assert message == (
            "'jobs' must be null, 'serial', 'thread', or an integer in "
            f"1..{os.cpu_count() or 1}"
        )

    @pytest.mark.parametrize("jobs", [
        pytest.param(None, id="null"),
        pytest.param("serial", id="serial"),
        pytest.param("thread", id="thread"),
        pytest.param(1, id="one"),
        pytest.param(os.cpu_count() or 1, id="cpu-count"),
    ])
    def test_montecarlo_jobs_in_bounds_accepted(self, jobs):
        spec = parse_job(_job(workload={"kind": "montecarlo", "jobs": jobs}))
        assert spec.workload_options["jobs"] == jobs


class TestRealize:
    def test_sweep_realizes_one_study(self):
        realized = realize(parse_job(_job()))
        assert list(realized.studies) == ["study"]
        assert len(realized.fingerprints) == 1
        assert realized.peak_bytes > 0
        assert realized.study_keys == [realized.fingerprints[0]["key"]]

    def test_montecarlo_realizes_two_sides(self):
        realized = realize(parse_job(_job(
            workload={"kind": "montecarlo", "poles": 2},
        )))
        assert sorted(realized.studies) == ["full", "reduced"]
        assert len(realized.fingerprints) == 2
        assert realized.samples.shape == (4, realized.parametric.num_parameters)

    def test_montecarlo_requires_montecarlo_plan(self):
        with pytest.raises(ProtocolError, match="montecarlo plan"):
            realize(parse_job(_job(
                plan={"kind": "corners"},
                workload={"kind": "montecarlo"},
            )))

    def test_bad_netlist_rejected(self):
        with pytest.raises(ProtocolError, match="netlist rejected"):
            realize(parse_job(_job(netlist="R1 a b not-a-value")))

    def test_out_of_range_port_rejected(self):
        with pytest.raises(ProtocolError, match="'output' 7 out of range"):
            realize(parse_job(_job(
                workload={"kind": "sweep", "output": 7},
            )))

    def test_factories_return_fresh_engines(self):
        realized = realize(parse_job(_job(chunk=2)))
        factory = realized.studies["study"]
        assert factory() is not factory()

    def test_wire_and_terminal_land_on_one_fingerprint(self):
        """A job submitted over the wire and the identical study declared
        through the engine directly share a content fingerprint (and
        therefore StudyStore manifests)."""
        import numpy as np

        from repro.circuits.generators import with_random_variations
        from repro.circuits.parser import parse_netlist
        from repro.core import LowRankReducer
        from repro.runtime import Study

        realized = realize(parse_job(_job()))

        parametric = with_random_variations(
            parse_netlist(NETLIST, title="anything"), 2, seed=0,
            relative_spread=0.5,
        )
        model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
        frequencies = np.logspace(7, 10, 5)
        plan = build_plan("montecarlo", instances=4, seed=7)
        study = Study(model).scenarios(plan).sweep(frequencies)
        assert study.fingerprint()["key"] == realized.fingerprints[0]["key"]
