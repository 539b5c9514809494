"""Tests for the repro.serve job declaration schema."""

import json
import os

import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    ProtocolError,
    RealizedJob,
    build_plan,
    build_waveform,
    parse_job,
    realize,
    realize_system,
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

    @pytest.mark.parametrize("body", [
        pytest.param('{"netlist": "x", "parameters": ' + "9" * 5000 + "}",
                     id="integer-past-digit-limit"),
        pytest.param("[" * 200_000, id="nesting-past-recursion-limit"),
    ])
    def test_every_json_decoding_failure_is_one_line(self, body):
        """Bodies the JSON decoder refuses with a ``ValueError`` or a
        ``RecursionError`` (not a ``JSONDecodeError``) are one line."""
        for payload in (body, body.encode()):
            with pytest.raises(ProtocolError, match="not valid JSON") as info:
                parse_job(payload)
            assert "\n" not in str(info.value)

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

    @pytest.mark.parametrize("value", [0, -3, True, False, 2.5, "4", None])
    def test_sweep_points_must_be_a_count(self, value):
        """``points: 0`` used to run to ``done`` with no frequencies and
        ``points: true`` to run one, keeping ``true`` in the spec."""
        with pytest.raises(ProtocolError) as caught:
            parse_job(_job(workload={"kind": "sweep", "points": value}))
        assert str(caught.value) == "'points' must be an integer >= 1"

    @pytest.mark.parametrize("plan, message", [
        ({"kind": "montecarlo", "seed": True}, "'plan.seed' must be an integer >= 0"),
        ({"kind": "montecarlo", "seed": False}, "'plan.seed' must be an integer >= 0"),
        ({"kind": "montecarlo", "seed": -1}, "'plan.seed' must be an integer >= 0"),
        ({"kind": "grid", "points": True}, "'plan.points' must be an integer >= 1"),
        ({"kind": "grid", "points": 0}, "'plan.points' must be an integer >= 1"),
        ({"kind": "grid", "points": 1.5}, "'plan.points' must be an integer >= 1"),
    ], ids=["seed-true", "seed-false", "seed-negative", "grid-points-true",
            "grid-points-zero", "grid-points-float"])
    def test_plan_seed_and_grid_points_must_be_counts(self, plan, message):
        """A boolean ``seed`` or grid ``points`` used to realize as 0 or 1."""
        with pytest.raises(ProtocolError) as caught:
            parse_job(_job(plan=plan))
        assert str(caught.value) == message

    def test_counted_sweep_points_and_plan_seeds_parse(self):
        spec = parse_job(_job(plan={"kind": "montecarlo", "seed": 0},
                              workload={"kind": "sweep", "points": 1}))
        assert spec.workload_options["points"] == 1
        assert spec.plan_options["seed"] == 0
        assert parse_job(_job(plan={"kind": "grid", "points": 1})) \
            .plan_options["points"] == 1


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
        assert [plan.num_samples for plan in realized.plans] == [4, 4]

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

    @pytest.mark.parametrize("workload, match", [
        pytest.param({"kind": "transient", "output": 0.5},
                     "'output' must be an integer >= 0", id="transient-output-half"),
        pytest.param({"kind": "transient", "waveform": {"kind": "step", "input": 3}},
                     "'waveform.input' 3 out of range", id="waveform-input-3"),
        pytest.param({"kind": "transient", "waveform": {"kind": "ramp", "input": 0.5}},
                     "'waveform.input' must be an integer >= 0",
                     id="waveform-input-half"),
        pytest.param({"kind": "sweep", "input": 0.5},
                     "'input' must be an integer >= 0", id="sweep-input-half"),
        pytest.param({"kind": "sweep", "output": True},
                     "'output' must be an integer >= 0", id="sweep-output-bool"),
        pytest.param({"kind": "sweep", "input": -1},
                     "'input' must be an integer >= 0", id="sweep-input-negative"),
        pytest.param({"kind": "sweep", "input": 1},
                     "'input' 1 out of range", id="sweep-input-1"),
    ])
    def test_port_indices_are_integers_in_range(self, workload, match):
        """Fractional, boolean, negative and out-of-range port indices --
        the waveform's own ``input`` included -- are one-line refusals;
        they used to realize and then fail (or run) at run time."""
        with pytest.raises(ProtocolError, match=match) as caught:
            realize(parse_job(_job(workload=workload)))
        assert "\n" not in str(caught.value)

    def test_in_range_port_indices_realize(self):
        realized = realize(parse_job(_job(workload={
            "kind": "transient", "steps": 10, "output": 0, "input": 0,
            "waveform": {"kind": "step", "input": 0},
        })))
        assert list(realized.studies) == ["study"]

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

    @pytest.mark.parametrize("participants", [1, 2, 4])
    @pytest.mark.parametrize("workload", [
        {"kind": "sweep", "points": 5},
        {"kind": "transient", "steps": 20},
        {"kind": "poles", "num": 3},
        {"kind": "montecarlo", "poles": 2},
    ], ids=lambda workload: workload["kind"])
    def test_co_drains_share_the_one_study(self, tmp_path, workload,
                                           participants):
        """Concurrent ``work()`` calls on each realized Study -- the one
        object, no copy per participant -- fold bit-identically to the
        same declaration's one-shot ``run()``, and leave the Study's
        plan and fingerprint memos in place."""
        import sys
        import threading

        document = parse_job(_job(workload=workload, chunk=1))
        one_shot = realize(document, store=tmp_path / "one-shot")
        realized = realize(document, store=tmp_path / "drained")
        interval = sys.getswitchinterval()
        for label, study in realized.studies.items():
            plan, fingerprint = study.plan(), study.fingerprint()
            results = [None] * participants

            def drain(slot):
                results[slot] = study.work(ttl=5.0, poll=0.01,
                                           worker=f"w{slot}")

            threads = [threading.Thread(target=drain, args=(slot,))
                       for slot in range(participants)]
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            expected = one_shot.studies[label].run()
            for result in results:
                _assert_bit_identical(result, expected)
            assert study.plan() is plan
            assert study.fingerprint() is fingerprint

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


def _assert_bit_identical(result, expected):
    """Every field of two engine results equal, arrays bit for bit."""
    import dataclasses

    import numpy as np

    assert type(result) is type(expected)
    for item in dataclasses.fields(expected):
        got, want = getattr(result, item.name), getattr(expected, item.name)
        if isinstance(want, list):
            assert len(got) == len(want)
            for row, wanted in zip(got, want):
                np.testing.assert_array_equal(row, wanted)
        elif isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want, item.name


class TestDeclarationBounds:
    """A transient's two input fields, the counts that size what
    ``submit`` allocates or starts before admission, and the variation
    spread."""

    @pytest.mark.parametrize("spread", [1e300, 1.5, -0.5, -1e-12])
    def test_spread_outside_its_range_is_refused(self, spread):
        """Past 1.0 a unit excursion can stamp a negative element value;
        ``1e300`` used to realize and answer an envelope of 4e-298."""
        with pytest.raises(ProtocolError) as caught:
            parse_job(_job(spread=spread))
        message = str(caught.value)
        assert message == "'spread' must be between 0 and 1"

    @pytest.mark.parametrize("spread", [0, 0.5, 1.0])
    def test_spread_in_range_is_kept(self, spread):
        assert parse_job(_job(spread=spread)).spread == spread

    @pytest.mark.parametrize("overrides, floor", [
        ({"spread": 1, "parameters": 4}, "-0.2"),
        ({"spread": 0.5, "plan": {"kind": "corners", "magnitude": 5}}, "-4"),
        ({"spread": 0.5, "plan": {"kind": "grid", "magnitude": -1}}, "0"),
        ({"spread": 0.5, "parameters": 64}, "-8.6"),
    ], ids=["many-parameters", "wide-corners", "unit-grid", "parameters-cap"])
    def test_a_plan_that_can_zero_an_element_is_refused(
            self, overrides, floor):
        """Each source scales an element value by up to ``spread`` times
        its excursion, so ``1 - spread * parameters * excursion`` bounds
        every element's factor from below; at zero or below the
        document is refused in one line naming ``spread``."""
        with pytest.raises(ProtocolError) as caught:
            parse_job(_job(**overrides))
        message = str(caught.value)
        assert message.startswith("'spread' ") and "\n" not in message
        assert f"can scale an element value by {floor} " in message

    @pytest.mark.parametrize("plan", [
        {"kind": "corners", "magnitude": 0.33},
        {"kind": "grid", "magnitude": -0.33, "points": 3},
        {"kind": "montecarlo", "instances": 64, "sigma": 0.33, "seed": 2},
    ], ids=["corners", "grid", "montecarlo"])
    def test_a_plan_just_inside_the_floor_keeps_every_element_positive(
            self, plan):
        """At ``spread`` 1, 3 parameters and excursions of 0.33 the floor
        is 0.01: the document realizes, and at every plan point each
        element keeps a positive value (every capacitance on the
        diagonal of ``C(p)``, every conductance off the diagonal of
        ``G(p)``)."""
        spec = parse_job(_job(spread=1, parameters=3, plan=plan))
        parametric, _ = realize_system(spec)
        samples = build_plan(spec.plan_kind, **spec.plan_options) \
            .sample_matrix(3)
        for point in samples:
            G = parametric.nominal.G + sum(
                p * dG for p, dG in zip(point, parametric.dG))
            C = parametric.nominal.C + sum(
                p * dC for p, dC in zip(point, parametric.dC))
            G = sp.csr_matrix(G)
            assert (sp.triu(G, 1).data < 0).all()
            assert (G.diagonal() > 0).all()
            assert (sp.csr_matrix(C).diagonal() > 0).all()

    @pytest.mark.parametrize("workload", [
        pytest.param({"kind": "transient", "input": 1}, id="waveform-default"),
        pytest.param({"kind": "transient", "input": 0,
                      "waveform": {"kind": "step", "input": 1}},
                     id="waveform-1"),
        pytest.param({"kind": "transient", "input": 0.5}, id="fraction"),
    ])
    def test_transient_input_must_agree_with_the_waveform(self, workload):
        """A transient is driven by its waveform's ``input``; a top-level
        ``input`` that names another port used to be accepted, ignored,
        and hashed into a second job key for the same study."""
        with pytest.raises(ProtocolError) as caught:
            parse_job(_job(workload=workload))
        message = str(caught.value)
        assert "'input'" in message and "'waveform.input'" in message
        assert "\n" not in message

    def test_transient_input_defaults_to_the_waveform_input(self):
        spec = parse_job(_job(workload={
            "kind": "transient", "waveform": {"kind": "step", "input": 1},
        }))
        assert spec.workload_options["input"] == 1

    @pytest.mark.parametrize("workload", [
        {"kind": "transient"},
        {"kind": "transient", "input": 0},
        {"kind": "transient", "waveform": {"kind": "step", "input": 0}},
        {"kind": "transient", "input": 0,
         "waveform": {"kind": "step", "input": 0}},
    ], ids=["omitted", "input-0", "waveform-0", "both-0"])
    def test_agreeing_transients_keep_their_canonical_spec(self, workload):
        """Documents the parent accepted whose two fields agree keep the
        canonical spec (and so the job key) they had."""
        canonical = parse_job(_job(workload=workload)).canonical()
        assert canonical["workload"] == {
            "kind": "transient", "t_final": None, "steps": 200,
            "method": "trapezoidal", "threshold": 0.5,
            "delay_reference": "steady", "output": 0, "input": 0,
            "waveform": {"kind": "step", "amplitude": 1.0, "input": 0},
        }

    def test_one_job_key_per_driven_input(self, tmp_path):
        from repro.serve.supervisor import StudySupervisor

        netlist = NETLIST + ".port in2 n3\n"
        supervisor = StudySupervisor(tmp_path / "store")
        keys = {
            supervisor.job_key(realize(parse_job(_job(
                netlist=netlist, workload=workload,
            ))))
            for workload in (
                {"kind": "transient", "steps": 10,
                 "waveform": {"kind": "step", "input": 1}},
                {"kind": "transient", "steps": 10, "input": 1,
                 "waveform": {"kind": "step", "input": 1}},
            )
        }
        assert len(keys) == 1

    @pytest.mark.parametrize("overrides, named", [
        pytest.param({"workload": {"kind": "sweep", "points": 4_000_000}},
                     "'workload.points'", id="sweep-points"),
        pytest.param({"workload": {"kind": "sweep", "points": 1_000_001}},
                     "'workload.points'", id="sweep-points-cap+1"),
        pytest.param({"workload": {"kind": "sweep", "points": 1e12}},
                     "'workload.points'", id="sweep-points-float"),
        pytest.param({"workload": {"kind": "transient", "steps": 10**9}},
                     "'workload.steps' must be at most 1000000",
                     id="transient-steps"),
        pytest.param({"workload": {"kind": "transient", "steps": 1_000_001}},
                     "'workload.steps'", id="transient-steps-cap+1"),
        pytest.param({"plan": {"kind": "montecarlo", "instances": 2_000_000}},
                     "'plan.instances'", id="mc-instances"),
        pytest.param({"plan": {"kind": "montecarlo", "instances": 2_000_000},
                      "workload": {"kind": "montecarlo"}},
                     "'plan.instances'", id="mc-instances-signoff"),
        pytest.param({"plan": {"kind": "grid", "points": 1_000_001},
                      "parameters": 1},
                     "'plan.points'", id="grid-points"),
        pytest.param({"plan": {"kind": "grid", "points": 1001}},
                     "'plan.points' 1001 per axis over 2 parameters",
                     id="grid-total"),
        pytest.param({"plan": {"kind": "grid", "points": 2},
                      "parameters": 10**9},
                     "'plan.points' 2 per axis", id="grid-many-parameters"),
        pytest.param({"workers": 65}, "'workers' must be at most 64",
                     id="workers"),
        pytest.param({"workers": 10**9}, "'workers'", id="workers-huge"),
        pytest.param({"parameters": 65}, "'parameters' must be at most 64",
                     id="parameters"),
        pytest.param({"parameters": 10**9}, "'parameters'",
                     id="parameters-huge"),
        pytest.param({"moments": 10**6}, "'moments' must be at most 64",
                     id="moments"),
        pytest.param({"rank": 10**6}, "'rank' must be at most 64",
                     id="rank"),
        pytest.param({"workload": {"kind": "poles", "num": 10**9}},
                     "'num' must be at most 1000", id="poles-num"),
        pytest.param({"workload": {"kind": "poles", "num": 1e300}},
                     "'num' must be at most 1000", id="poles-num-float"),
        pytest.param({"plan": {"kind": "montecarlo", "instances": 4},
                      "workload": {"kind": "montecarlo", "poles": 10**9}},
                     "'poles' must be at most 1000", id="signoff-poles"),
        pytest.param({"plan": {"kind": "montecarlo", "instances": 4},
                      "workload": {"kind": "montecarlo", "bins": 10**9}},
                     "'bins' must be at most 1000", id="signoff-bins"),
    ])
    def test_counts_bounded_before_anything_is_allocated(
            self, overrides, named):
        """Counts that size an allocation ``realize`` makes before
        admission (a frequency grid, a sample matrix, a grid axis, a
        sensitivity pair per parameter) or the drain threads a job
        starts are refused by ``parse_job``."""
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError) as caught:
                parse_job(_job(**overrides))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = str(caught.value)
        assert named in message and "\n" not in message
        assert peak < 2**20

    @pytest.mark.parametrize("overrides", [
        {"workload": {"kind": "sweep", "points": 1_000_000}},
        {"workload": {"kind": "transient", "steps": 1_000_000}},
        {"plan": {"kind": "montecarlo", "instances": 1_000_000}},
        {"plan": {"kind": "grid", "points": 1000}},
        {"plan": {"kind": "grid", "points": 1}, "parameters": 64,
         "spread": 0.01},
        {"workers": 64},
        {"parameters": 64, "spread": 0.01},
        {"moments": 64, "rank": 64},
        {"workload": {"kind": "poles", "num": 1000}},
        {"plan": {"kind": "montecarlo", "instances": 4},
         "workload": {"kind": "montecarlo", "poles": 1000, "bins": 1000}},
    ], ids=["sweep-cap", "steps-cap", "instances-cap", "grid-total-cap",
            "grid-one-point",
            "workers-cap", "parameters-cap", "reduction-cap", "poles-cap",
            "signoff-cap"])
    def test_counts_at_the_cap_parse(self, overrides):
        parse_job(_job(**overrides))


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
def job_documents(draw, field=_field):
    """Job documents around the schema, sizes bounded (<= 6 instances).

    ``field`` wraps each valid value strategy (``_field`` mixes in
    special values).
    """
    plan_kind = draw(st.sampled_from(("montecarlo", "corners", "grid")))
    plan = {"kind": plan_kind}
    if plan_kind == "montecarlo":
        plan["instances"] = draw(field(st.integers(1, 6)))
        plan["sigma"] = draw(field(st.floats(0.0, 0.5)))
        plan["seed"] = draw(field(st.integers(0, 9)))
    else:
        plan["magnitude"] = draw(field(st.floats(0.0, 0.5)))
        if plan_kind == "grid":
            plan["points"] = draw(field(st.integers(1, 2)))
    workload_kind = draw(
        st.sampled_from(("sweep", "transient", "poles", "montecarlo"))
    )
    workload = {"kind": workload_kind}
    if workload_kind == "sweep":
        workload["fmin"] = draw(field(st.floats(1e6, 1e8)))
        workload["fmax"] = draw(field(st.floats(1e9, 1e10)))
        workload["points"] = draw(field(st.integers(1, 8)))
        workload["output"] = draw(field(st.just(0)))
    elif workload_kind == "transient":
        workload["waveform"] = {
            "kind": draw(st.sampled_from(("step", "ramp"))),
            "amplitude": draw(field(st.floats(0.5, 2.0))),
        }
        workload["t_final"] = draw(field(st.none() | st.floats(1e-10, 1e-8)))
        workload["steps"] = draw(field(st.integers(1, 20)))
        workload["threshold"] = draw(field(st.floats(0.1, 0.9)))
    elif workload_kind == "poles":
        workload["num"] = draw(field(st.integers(0, 5)))
    else:
        workload["poles"] = draw(field(st.integers(1, 3)))
        workload["bins"] = draw(field(st.integers(1, 10)))
    return {
        "netlist": FUZZ_NETLIST,
        "parameters": draw(field(st.integers(1, 2))),
        "spread": draw(field(st.floats(0.1, 0.9))),
        "variation_seed": draw(field(st.integers(0, 5))),
        "moments": draw(field(st.integers(1, 3))),
        "rank": draw(field(st.integers(1, 2))),
        "plan": plan,
        "workload": workload,
        "chunk": draw(field(st.none() | st.integers(1, 6))),
        "workers": draw(field(st.integers(1, 2))),
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


# -- the document index's premise -----------------------------------------

_JOB_DEFAULTS = {"parameters": 2, "spread": 0.5, "variation_seed": 0,
                 "moments": 4, "rank": 1, "chunk": None, "workers": 1}


def _reordered(value):
    """``value`` with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {name: _reordered(value[name]) for name in reversed(value)}
    if isinstance(value, list):
        return [_reordered(item) for item in value]
    return value


def _rewrite(spec, how: str) -> str:
    """JSON text of a document with the same canonical spec as ``spec``."""
    canonical = spec.canonical()
    if how == "explicit":  # every default spelled out
        return json.dumps(canonical)
    if how == "reordered":  # key order and whitespace
        return json.dumps(_reordered(canonical), indent=3)
    # sparse: top-level defaults and a transient's own 'input' omitted
    sparse = {
        name: value for name, value in canonical.items()
        if name not in _JOB_DEFAULTS
        or json.dumps(value) != json.dumps(_JOB_DEFAULTS[name])
    }
    if spec.workload_kind == "transient":
        sparse["workload"] = {
            name: value for name, value in canonical["workload"].items()
            if name != "input"
        }
    return json.dumps(sparse, separators=(",", ":"))


@pytest.fixture(scope="module")
def index_keys(tmp_path_factory):
    """A supervisor for its ``document_key`` and ``job_key``."""
    from repro.serve.supervisor import StudySupervisor

    return StudySupervisor(tmp_path_factory.mktemp("index") / "store")


def _outcome(supervisor, spec):
    try:
        return supervisor.job_key(realize(spec))
    except ProtocolError as exc:
        return str(exc)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    document=st.one_of(job_documents(),
                       job_documents(field=lambda valid: valid)),
    how=st.sampled_from(("explicit", "reordered", "sparse")),
)
def test_equal_document_keys_realize_to_equal_job_keys(
        index_keys, document, how):
    """The document index answers a document with the job that
    answered an equal-keyed one, never realizing it: sound only if an
    equal document key implies an equal content key (or the same
    refusal).  Rewrites that keep the canonical spec must keep both."""
    try:
        spec = parse_job(json.dumps(document))
    except ProtocolError:
        return  # refused before the index is consulted
    rewritten = parse_job(_rewrite(spec, how))
    assert rewritten.canonical() == spec.canonical()
    assert index_keys.document_key(rewritten.canonical()) == \
        index_keys.document_key(spec.canonical())
    assert _outcome(index_keys, rewritten) == _outcome(index_keys, spec)
