"""Job documents at the trust boundary: realized, or refused in one line.

A served job document is JSON from any client, so
:func:`~repro.serve.protocol.parse_job` and
:func:`~repro.serve.protocol.realize` sit on a trust boundary.  This
suite starts from a valid sweep, transient, poles or montecarlo
document (over a Monte Carlo, corner or grid plan) and applies one
drawn edit: a field -- top level, or inside ``plan``, ``workload`` or
a transient's ``waveform`` -- dropped, retyped (null, bool, number,
``NaN`` / ``Infinity``, string, list or object) or set out of range
(negative, zero, fractional, just past a cap, huge), or the netlist
replaced by a drawn small one (R, C, L, K and V cards, ports and
observations, good and bad values).

``realize(parse_job(document))`` must return a
:class:`~repro.serve.protocol.RealizedJob` whose Studies plan and
fingerprint, whose ``spread`` and transient ``steps`` are within their
bounds and whose plan scales no element value to zero or below, or
raise :class:`~repro.serve.protocol.ProtocolError` with a one-line
message; it may raise nothing else.  A realized sweep's ``points``, a
Monte Carlo plan's ``seed`` and a grid plan's ``points`` are integers
(booleans are not).  Transients with ``steps`` past the cap, sweeps
with a ``spread`` outside its range (``1e300``, negative), sweeps whose
sources and excursions can zero an element, sweeps of ``points`` 0 or
``true`` and plans of a boolean ``seed`` or grid ``points`` are tried
on every run.
"""

import copy

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.runtime.scenarios import MAX_PLAN_SAMPLES
from repro.serve.protocol import (MAX_SPREAD, ProtocolError, RealizedJob,
                                  element_factor_floor, parse_job,
                                  plan_excursion, realize)

SETTINGS = settings(
    deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

NETLIST = """.title fuzz
Rdrv n0 0 10
C0 n0 0 0.02p
R1 n0 n1 25
C1 n1 0 0.02p
R2 n1 n2 25
C2 n2 0 0.02p
.port in n0
"""

WORKLOADS = {
    "sweep": {"kind": "sweep", "fmin": 1e8, "fmax": 1e10, "points": 4,
              "output": 0, "input": 0},
    "transient": {"kind": "transient", "steps": 8, "t_final": None,
                  "threshold": 0.5, "method": "trapezoidal",
                  "waveform": {"kind": "ramp", "rise_time": 1e-11,
                               "amplitude": 1.0, "input": 0}},
    "poles": {"kind": "poles", "num": 2},
    "montecarlo": {"kind": "montecarlo", "poles": 2, "bins": 3},
}

PLANS = {
    "montecarlo": {"kind": "montecarlo", "instances": 3, "sigma": 0.3, "seed": 1},
    "corners": {"kind": "corners", "magnitude": 0.2},
    "grid": {"kind": "grid", "magnitude": 0.2, "points": 2},
}

RETYPED = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)

OUT_OF_RANGE = st.sampled_from(
    [-1, 0, 1, 2, 7, 0.5, 2.5, -1e300, 1e300, 65, 1001, 2**31, 10**6,
     MAX_PLAN_SAMPLES + 1, 10**7, 10**9, 10**400]
)


@st.composite
def small_netlists(draw):
    """A few R/C/L/K/V cards, ports and observations on four nodes,
    with good and (now and then) bad values; half of them start from
    a driven, grounded port."""
    nodes = st.sampled_from(["0", "n0", "n1", "n2"])
    values = st.one_of(
        st.sampled_from(["1", "25", "10k", "0.02p", "1n"]),
        st.sampled_from(["-1", "0", "nan", "1e999", "x"]),
    )
    lines = ["Rdrv n0 0 10", "Cdrv n0 0 0.02p", ".port in n0"] \
        if draw(st.booleans()) else []
    for index in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from("RRCCLKV"))
        if kind == "K":
            lines.append(f"K{index} L1 L2 {draw(st.sampled_from(['0.5', '2', '-0.3']))}")
        elif kind == "V":
            lines.append(f"V{index} {draw(nodes)} {draw(nodes)}")
        else:
            lines.append(f"{kind}{index} {draw(nodes)} {draw(nodes)} {draw(values)}")
    for index in range(draw(st.integers(0, 2))):
        directive = draw(st.sampled_from([".port", ".observe"]))
        lines.append(f"{directive} x{index} {draw(nodes)}")
    return "\n".join(lines) + "\n"


def _fields(document):
    """``(container path, key)`` of every editable field."""
    paths = [((), key) for key in document]
    for section in ("plan", "workload"):
        paths += [((section,), key) for key in document[section]]
    if "waveform" in document["workload"]:
        paths += [(("workload", "waveform"), key)
                  for key in document["workload"]["waveform"]]
    return paths


@st.composite
def job_documents(draw):
    workload = draw(st.sampled_from(sorted(WORKLOADS)))
    plan = "montecarlo" if workload == "montecarlo" else draw(st.sampled_from(sorted(PLANS)))
    document = {
        "netlist": NETLIST, "parameters": 2, "spread": 0.5, "variation_seed": 0,
        "moments": 2, "rank": 1, "plan": copy.deepcopy(PLANS[plan]),
        "workload": copy.deepcopy(WORKLOADS[workload]), "chunk": 2, "workers": 1,
    }
    edit = draw(st.sampled_from(["keep", "drop", "retype", "range", "netlist"]))
    if edit == "netlist":
        document["netlist"] = draw(small_netlists())
    elif edit != "keep":
        path, key = draw(st.sampled_from(_fields(document)))
        container = document
        for part in path:
            container = container[part]
        if edit == "drop":
            del container[key]
        else:
            container[key] = draw(RETYPED if edit == "retype" else OUT_OF_RANGE)
    return document


def _is_count(value, minimum: int) -> bool:
    return type(value) is int and value >= minimum


def _transient(steps):
    return {
        "netlist": NETLIST, "moments": 2, "plan": PLANS["montecarlo"],
        "workload": dict(WORKLOADS["transient"], steps=steps), "chunk": 2,
    }


def _sweep(spread, parameters=2, plan=PLANS["montecarlo"], points=4):
    return {
        "netlist": NETLIST, "moments": 2, "spread": spread,
        "parameters": parameters, "plan": plan,
        "workload": dict(WORKLOADS["sweep"], points=points),
    }


@SETTINGS
@given(document=job_documents())
@example(document=_transient(MAX_PLAN_SAMPLES + 1))
@example(document=_transient(10**9))
@example(document=_sweep(1e300))
@example(document=_sweep(-0.5))
@example(document=_sweep(1, parameters=4))
@example(document=_sweep(0.5, plan={"kind": "corners", "magnitude": 5}))
@example(document=_sweep(0.5, points=0))
@example(document=_sweep(0.5, points=True))
@example(document=_sweep(0.5, plan=dict(PLANS["montecarlo"], seed=True)))
@example(document=_sweep(0.5, plan=dict(PLANS["grid"], points=True)))
def test_job_document_realizes_or_is_refused_in_one_line(document):
    try:
        job = realize(parse_job(document))
    except ProtocolError as exc:
        assert len(str(exc).splitlines()) == 1, str(exc)
        return
    assert isinstance(job, RealizedJob)
    assert len(job.study_keys) == len(job.studies) >= 1
    assert job.peak_bytes >= 0
    assert job.spec.workload_options.get("steps", 0) <= MAX_PLAN_SAMPLES
    if job.spec.workload_kind == "sweep":
        assert _is_count(job.spec.workload_options["points"], 1)
    for name, minimum in (("seed", 0), ("points", 1)):
        if name in job.spec.plan_options:
            assert _is_count(job.spec.plan_options[name], minimum)
    assert 0 <= job.spec.spread <= MAX_SPREAD
    excursion = abs(plan_excursion(job.spec.plan_kind, job.spec.plan_options))
    assert element_factor_floor(job.spec.spread, job.spec.parameters,
                                excursion) > 0
