"""Tests for the repro.serve job declaration schema."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    ProtocolError,
    RealizedJob,
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
        pytest.param(None, id="null"),
        pytest.param("thread", id="thread"),
        pytest.param(1, id="one"),
    ])
    def test_montecarlo_jobs_out_of_bounds_rejected(self, jobs):
        """Every pole study runs in its chunk loop's thread: the
        montecarlo workload has no ``jobs`` option, whatever its value."""
        with pytest.raises(ProtocolError) as caught:
            parse_job(_job(workload={"kind": "montecarlo", "jobs": jobs}))
        assert str(caught.value) == "unknown workload option(s): jobs"

    @pytest.mark.parametrize("document, field", [
        pytest.param('{"spread": NaN}', "spread", id="spread-nan"),
        pytest.param('{"spread": Infinity}', "spread", id="spread-inf"),
        pytest.param('{"spread": -Infinity}', "spread", id="spread-neg-inf"),
        pytest.param('{"spread": 1' + "0" * 400 + '}', "spread",
                     id="spread-beyond-float"),
        pytest.param('{"workload": {"kind": "sweep", "fmin": -1}}', "fmin",
                     id="fmin-negative"),
        pytest.param('{"workload": {"kind": "sweep", "fmin": 0}}', "fmin",
                     id="fmin-zero"),
        pytest.param('{"workload": {"kind": "sweep", "fmin": NaN}}', "fmin",
                     id="fmin-nan"),
        pytest.param('{"workload": {"kind": "sweep", "fmin": "1e7"}}', "fmin",
                     id="fmin-string"),
        pytest.param('{"workload": {"kind": "sweep", "fmax": Infinity}}',
                     "fmax", id="fmax-inf"),
        pytest.param('{"workload": {"kind": "sweep", "fmin": 1e9, '
                     '"fmax": 1e8}}', "fmax", id="fmax-below-fmin"),
        pytest.param('{"workload": {"kind": "sweep", "fmax": true}}', "fmax",
                     id="fmax-bool"),
        pytest.param('{"plan": {"kind": "montecarlo", "sigma": NaN}}', "sigma",
                     id="plan-sigma-nan"),
        pytest.param('{"plan": {"kind": "corners", "magnitude": Infinity}}',
                     "magnitude", id="plan-magnitude-inf"),
        pytest.param('{"plan": {"kind": "montecarlo", "sigma": 1'
                     + "0" * 400 + '}}', "sigma", id="plan-sigma-beyond-float"),
        pytest.param('{"workload": {"kind": "transient", "waveform": '
                     '{"kind": "ramp", "rise_time": NaN}}}', "rise_time",
                     id="waveform-rise-time-nan"),
    ])
    def test_non_finite_numbers_and_bad_bands_rejected(self, document, field):
        """``json.loads`` parses ``NaN`` and ``Infinity``; neither may
        reach the parametric system or the frequency grid."""
        overrides = json.loads(document)
        with pytest.raises(ProtocolError) as caught:
            parse_job(json.dumps(_job(**overrides)))
        message = str(caught.value)
        assert f"'{field}'" in message and "\n" not in message

    @pytest.mark.parametrize("field, value", [
        ("bins", "x"), ("bins", 0), ("bins", True), ("bins", 2.5),
        ("poles", 2.5), ("poles", True), ("poles", 0), ("poles", "5"),
    ])
    def test_montecarlo_counts_checked_at_parse(self, field, value):
        """A bad ``bins``/``poles`` is a 400, not a run-time failure."""
        with pytest.raises(ProtocolError, match=f"'{field}' must be an integer >= 1"):
            parse_job(_job(workload={"kind": "montecarlo", field: value}))


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

    @pytest.mark.parametrize("num, match", [
        pytest.param("2.5", "declaration rejected: num must be an integer",
                     id="fraction"),
        pytest.param("true", "declaration rejected: num must be an integer",
                     id="bool"),
        pytest.param("Infinity", "'num' must be a finite number", id="infinity"),
        pytest.param("NaN", "'num' must be a finite number", id="nan"),
    ])
    def test_pole_count_must_be_an_integer(self, num, match):
        """``poles(2.5)`` used to run 2 poles and ``Infinity`` to
        overflow into a 500; both are one-line 400s."""
        document = json.dumps(_job()).replace(
            '{"kind": "sweep", "points": 5}', f'{{"kind": "poles", "num": {num}}}'
        )
        with pytest.raises(ProtocolError, match=match) as caught:
            realize(parse_job(document))
        assert "\n" not in str(caught.value)

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


# -- trust-boundary fuzz: parse_job + realize ------------------------------

FUZZ_NETLIST = ".title fuzz\nRdrv n0 0 10\n" + "".join(
    f"R{k} n{k - 1} n{k} 25\nC{k} n{k} 0 0.02p\n" for k in range(1, 12)
) + ".port in n0\n"

# Out-of-range, wrong-type and non-finite values a client may send.
SPECIALS = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 2.5, True, "x", -1, 0]
)


def _field(valid):
    """Mostly a valid value, one draw in four a special one."""
    return st.one_of(valid, valid, valid, SPECIALS)


@st.composite
def job_documents(draw):
    """Job documents around the schema, sizes bounded (<= 6 instances)."""
    plan_kind = draw(st.sampled_from(("montecarlo", "corners", "grid")))
    plan = {"kind": plan_kind}
    if plan_kind == "montecarlo":
        plan["instances"] = draw(_field(st.integers(1, 6)))
        plan["sigma"] = draw(_field(st.floats(0.0, 0.5)))
        plan["seed"] = draw(_field(st.integers(0, 9)))
    else:
        plan["magnitude"] = draw(_field(st.floats(0.0, 0.5)))
        if plan_kind == "grid":
            plan["points"] = draw(_field(st.integers(1, 2)))
    workload_kind = draw(
        st.sampled_from(("sweep", "transient", "poles", "montecarlo"))
    )
    workload = {"kind": workload_kind}
    if workload_kind == "sweep":
        workload["fmin"] = draw(_field(st.floats(1e6, 1e8)))
        workload["fmax"] = draw(_field(st.floats(1e9, 1e10)))
        workload["points"] = draw(_field(st.integers(1, 8)))
        workload["output"] = draw(_field(st.just(0)))
    elif workload_kind == "transient":
        workload["waveform"] = {
            "kind": draw(st.sampled_from(("step", "ramp"))),
            "amplitude": draw(_field(st.floats(0.5, 2.0))),
        }
        workload["t_final"] = draw(_field(st.none() | st.floats(1e-10, 1e-8)))
        workload["steps"] = draw(_field(st.integers(1, 20)))
        workload["threshold"] = draw(_field(st.floats(0.1, 0.9)))
    elif workload_kind == "poles":
        workload["num"] = draw(_field(st.integers(0, 5)))
    else:
        workload["poles"] = draw(_field(st.integers(1, 3)))
        workload["bins"] = draw(_field(st.integers(1, 10)))
    return {
        "netlist": FUZZ_NETLIST,
        "parameters": draw(_field(st.integers(1, 2))),
        "spread": draw(_field(st.floats(0.1, 0.9))),
        "variation_seed": draw(_field(st.integers(0, 5))),
        "moments": draw(_field(st.integers(1, 3))),
        "rank": draw(_field(st.integers(1, 2))),
        "plan": plan,
        "workload": workload,
        "chunk": draw(_field(st.none() | st.integers(1, 6))),
        "workers": draw(_field(st.integers(1, 2))),
    }


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(document=job_documents())
def test_fuzzed_documents_realize_or_refuse(document):
    """Every job document yields a RealizedJob or a one-line
    ProtocolError (the server's 400) -- never another exception."""
    text = json.dumps(document)  # NaN / Infinity travel as JSON literals
    try:
        realized = realize(parse_job(text))
    except ProtocolError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(realized, RealizedJob)
