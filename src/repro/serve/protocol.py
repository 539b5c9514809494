"""The job declaration schema: JSON in, realized studies out.

One declaration language serves both fronts.  A :class:`JobSpec` is
built by :func:`parse_job` from a job document or by the CLI's study
commands (:mod:`repro.cli`) from their flags, and either way
:func:`realize` parses, stamps and reduces its net and declares its
Studies, so a study submitted over the wire lands on the same content
fingerprint -- and therefore the same StudyStore manifests -- as the
identical study declared at a terminal.

A job document looks like::

    {
      "netlist": "* RC ladder\\nR1 in n1 1k\\n...",
      "parameters": 2, "spread": 0.5, "variation_seed": 0,
      "moments": 4, "rank": 1,
      "plan": {"kind": "montecarlo", "instances": 64, "sigma": 0.3,
               "seed": 0},
      "workload": {"kind": "sweep", "fmin": 1e7, "fmax": 1e10,
                   "points": 30, "output": 0, "input": 0},
      "chunk": 8,
      "workers": 1
    }

Workload kinds: ``sweep``, ``transient``, ``poles`` (reduced-model
studies driven straight through the Study engine) and ``montecarlo``
(the full-vs-reduced pole-accuracy sign-off, two engine studies).
:func:`realize` runs two halves: :func:`realize_system` parses, stamps
and reduces the job's net declaration (the six fields of
:data:`NET_FIELDS`, which alone determine the system), and
:func:`declare_studies` declares each Study once on that system, with
the job's store attached; the supervisor runs those same objects, and
hands :func:`declare_studies` a system it kept from an earlier job on
the same net declaration.
A transient is driven by its waveform's ``input``; the workload's own
``input`` defaults to it and must agree with it.
Malformed documents raise :class:`ProtocolError`, which the server maps
to HTTP 400 and the CLI maps to its usual exit-1 one-liner.  A sweep's
``points``, a Monte Carlo plan's ``seed`` and a grid plan's ``points``
must be integers (``>= 1``, ``>= 0``, ``>= 1``), booleans refused.  Counts
that size an allocation made before admission -- ``plan.instances``,
``plan.points`` (a grid's total too), ``workload.points`` and a
transient's ``workload.steps`` -- are capped at
:data:`~repro.runtime.scenarios.MAX_PLAN_SAMPLES`,
``parameters`` (one sensitivity pair each, stamped and reduced by
:func:`realize`) at :data:`MAX_PARAMETERS`, ``moments`` and ``rank``
(the size of that reduction) at :data:`MAX_MOMENTS` and
:data:`MAX_RANK`, and ``workers`` (one drain thread each) at
:data:`MAX_WORKERS`, so such a document is refused before anything is
allocated or started.  The counts that size what a job allocates after
admission without an estimate to bound them -- a poles job's ``num``
and a montecarlo job's ``poles`` (:data:`MAX_POLES`) and ``bins``
(:data:`MAX_BINS`) -- are capped too.  ``spread`` must lie in
``[0, MAX_SPREAD]``, and a document whose plan can scale an element
value to zero or below (:func:`element_factor_floor`) is refused.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.runtime.scenarios import MAX_PLAN_SAMPLES


class ProtocolError(ValueError):
    """A job document that cannot be realized into a study."""


#: Cooperating drains one job may declare: each is a thread the
#: supervisor starts, so the count is bounded by the protocol itself.
MAX_WORKERS = 64

#: Variational sources one job may declare: :func:`realize` stamps a
#: sensitivity pair per source before admission sees the job.
MAX_PARAMETERS = 64

#: Largest per-element variation ``spread``, the generator's default:
#: ``with_random_variations`` draws each element's sensitivity to each
#: source from ``[0, spread]`` times its value, so one source at a unit
#: excursion moves an element value by at most the value itself.
#: Whether every value stays positive over a plan depends on the source
#: count and the plan's excursion too, which :func:`element_factor_floor`
#: bounds.
MAX_SPREAD = 1.0

#: Moments and sensitivity rank of the reduction :func:`realize` runs
#: before admission sees the job.
MAX_MOMENTS = 64
MAX_RANK = 64

#: Dominant poles per instance (a poles job's ``num``, a montecarlo
#: job's ``poles``): each chunk allocates an ``(m, num)`` array after
#: admission, and ``repro serve`` runs with no budget unless given one.
MAX_POLES = 1000

#: Histogram bins of a montecarlo job's rendered result, which no
#: memory estimate prices.
MAX_BINS = 1000

#: The job fields that alone determine the realized system: the netlist,
#: its variation stamping and the reduction (the *net declaration*).
NET_FIELDS = ("netlist", "parameters", "spread", "variation_seed", "moments",
              "rank")

PLAN_KINDS = ("montecarlo", "corners", "grid")
WORKLOAD_KINDS = ("sweep", "transient", "poles", "montecarlo")
WAVEFORM_KINDS = ("step", "ramp", "sine", "pwl")

_PLAN_DEFAULTS = {
    "montecarlo": {"instances": 100, "sigma": 0.3, "seed": 0},
    "corners": {"magnitude": 0.3},
    "grid": {"magnitude": 0.3, "points": 3},
}

_WORKLOAD_DEFAULTS = {
    "sweep": {"fmin": 1e7, "fmax": 1e10, "points": 30, "output": 0,
              "input": 0},
    "transient": {"waveform": {"kind": "step"}, "t_final": None,
                  "steps": 200, "method": "trapezoidal", "threshold": 0.5,
                  "delay_reference": "steady", "output": 0, "input": 0},
    "poles": {"num": 5},
    "montecarlo": {"poles": 5, "bins": 10},
}

_WAVEFORM_DEFAULTS = {
    "step": {"amplitude": 1.0, "input": 0},
    "ramp": {"amplitude": 1.0, "rise_time": 1e-10, "input": 0},
    "sine": {"amplitude": 1.0, "frequency": 1e9, "input": 0},
    "pwl": {"points": [[0.0, 0.0], [1e-9, 1.0]], "input": 0},
}


def element_factor_floor(spread: float, parameters: int,
                         excursion: float) -> float:
    """The least factor a variation can scale an element value by.

    ``with_random_variations`` scales each element value by
    ``1 + sum_i alpha_i p_i`` with every ``alpha_i`` in ``[0, spread]``
    (a resistor's conductance by ``1 - sum_i alpha_i p_i``), so at
    parameter points with every ``|p_i| <= excursion`` no factor falls
    below ``1 - spread * parameters * excursion``.  At zero or below, a
    plan point can stamp a zero or negative resistance, capacitance or
    inductance: a net that is not physical.
    """
    return 1.0 - spread * parameters * excursion


def plan_excursion(kind: str, options: dict):
    """The largest ``|p_i|`` a plan declaration evaluates, as declared: a
    Monte Carlo plan's ``sigma`` (its draws are truncated there), a
    corner or grid plan's ``magnitude``."""
    return options["sigma" if kind == "montecarlo" else "magnitude"]


def build_plan(kind: str, *, instances: int = 100, sigma: float = 0.3,
               seed: int = 0, magnitude: float = 0.3, points: int = 3):
    """Realize a scenario plan declaration (shared with the CLI).

    ``kind`` is one of ``montecarlo`` (``instances``/``sigma``/``seed``),
    ``corners`` (``magnitude``), or ``grid`` (``magnitude``/``points``
    per axis).  Raises :class:`ProtocolError` on an unknown kind.
    """
    from repro.runtime import CornerPlan, GridPlan, MonteCarloPlan

    if kind == "montecarlo":
        return MonteCarloPlan(
            num_instances=instances, three_sigma=sigma, seed=seed
        )
    if kind == "corners":
        return CornerPlan(magnitude=magnitude)
    if kind == "grid":
        axis = np.linspace(-magnitude, magnitude, points)
        return GridPlan(axis_values=tuple(axis))
    raise ProtocolError(
        f"unknown plan {kind!r} (expected one of {', '.join(PLAN_KINDS)})"
    )


def build_waveform(kind: str, *, amplitude: float = 1.0,
                   rise_time: float = 1e-10, frequency: float = 1e9,
                   points=((0.0, 0.0), (1e-9, 1.0)), input_index: int = 0):
    """Realize a transient stimulus declaration (shared with the CLI)."""
    from repro.runtime import PWLInput, RampInput, SineInput, StepInput

    if kind == "step":
        return StepInput(amplitude=amplitude, input_index=input_index)
    if kind == "ramp":
        return RampInput(
            rise_time=rise_time, amplitude=amplitude, input_index=input_index
        )
    if kind == "sine":
        return SineInput(
            frequency=frequency, amplitude=amplitude, input_index=input_index
        )
    if kind == "pwl":
        return PWLInput(
            points=tuple((float(t), float(v)) for t, v in points),
            input_index=input_index,
        )
    raise ProtocolError(
        f"unknown waveform {kind!r} "
        f"(expected one of {', '.join(WAVEFORM_KINDS)})"
    )


def _is_count(value, minimum: int) -> bool:
    """Whether ``value`` is an integer (not a bool) >= ``minimum``: a
    JSON integer, or a NumPy one in an in-process payload."""
    return isinstance(value, numbers.Integral) \
        and not isinstance(value, bool) and value >= minimum


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number (a bool is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether ``value`` is a JSON number with a finite float value;
    ``json.loads`` parses ``NaN`` and ``Infinity``."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _require(mapping: dict, name: str, kinds, label: str) -> dict:
    section = mapping.get(name)
    if not isinstance(section, dict):
        raise ProtocolError(f"job is missing the {name!r} object")
    kind = section.get("kind")
    if kind not in kinds:
        raise ProtocolError(
            f"unknown {label} {kind!r} (expected one of {', '.join(kinds)})"
        )
    return section


def _merged(section: dict, defaults: dict, label: str) -> dict:
    unknown = set(section) - {"kind"} - set(defaults)
    if unknown:
        raise ProtocolError(
            f"unknown {label} option(s): {', '.join(sorted(unknown))}"
        )
    for name, value in section.items():
        if _is_number(value) and not _is_finite(value):
            raise ProtocolError(f"'{name}' must be a finite number")
    return {**defaults, **{k: v for k, v in section.items() if k != "kind"}}


@dataclass(frozen=True)
class JobSpec:
    """A parsed, validated, normalized job declaration.

    :func:`parse_job` builds one from a job document, enforcing the
    document caps; the CLI's study commands build one from their flags
    and refuse bad flags by name themselves.  ``canonical()`` returns
    the fully-defaulted JSON document -- two submissions that differ
    only in omitted-vs-explicit defaults canonicalize identically,
    which is what the content-addressed job key hashes.
    """

    netlist: str
    parameters: int
    spread: float
    variation_seed: int
    moments: int
    rank: int
    plan_kind: str
    plan_options: dict
    workload_kind: str
    workload_options: dict
    chunk: Optional[int]
    workers: int

    def canonical(self) -> dict:
        """The normalized declaration document (defaults applied)."""
        return {
            "netlist": self.netlist,
            "parameters": self.parameters,
            "spread": self.spread,
            "variation_seed": self.variation_seed,
            "moments": self.moments,
            "rank": self.rank,
            "plan": {"kind": self.plan_kind, **self.plan_options},
            "workload": {"kind": self.workload_kind, **self.workload_options},
            "chunk": self.chunk,
            "workers": self.workers,
        }

    def net_declaration(self) -> dict:
        """The :data:`NET_FIELDS` of this declaration, which
        :func:`realize_system` realizes."""
        return {name: getattr(self, name) for name in NET_FIELDS}


def parse_job(payload) -> JobSpec:
    """Parse a job document (dict, JSON text, or bytes) into a JobSpec.

    Every malformation -- wrong type, unknown kind, unknown option,
    non-positive count, non-finite number, an empty or inverted sweep
    band -- raises :class:`ProtocolError` with a one-line diagnostic
    naming the offending field.
    """
    if isinstance(payload, (bytes, bytearray)):
        payload = payload.decode("utf-8", errors="replace")
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except (ValueError, RecursionError) as exc:
            # Invalid JSON, an integer past the digit limit, or nesting
            # past the recursion limit.
            raise ProtocolError(f"job body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("job body must be a JSON object")

    netlist = payload.get("netlist")
    if not isinstance(netlist, str) or not netlist.strip():
        raise ProtocolError("job is missing 'netlist' (the netlist text)")

    known = {"netlist", "parameters", "spread", "variation_seed", "moments",
             "rank", "plan", "workload", "chunk", "workers"}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            f"unknown job field(s): {', '.join(sorted(unknown))}"
        )

    def _int(name, default, minimum=1, cap=None):
        value = payload.get(name, default)
        if not _is_count(value, minimum):
            raise ProtocolError(
                f"'{name}' must be an integer >= {minimum}"
            )
        if cap is not None and value > cap:
            raise ProtocolError(f"'{name}' must be at most {cap}")
        return value

    def _number(name, default):
        value = payload.get(name, default)
        if not _is_number(value):
            raise ProtocolError(f"'{name}' must be a number")
        if not _is_finite(value):
            raise ProtocolError(f"'{name}' must be a finite number")
        return float(value)

    plan_section = _require(payload, "plan", PLAN_KINDS, "plan")
    plan_kind = plan_section["kind"]
    plan_options = _merged(plan_section, _PLAN_DEFAULTS[plan_kind], "plan")

    workload_section = _require(payload, "workload", WORKLOAD_KINDS,
                                "workload")
    workload_kind = workload_section["kind"]
    workload_options = _merged(
        workload_section, _WORKLOAD_DEFAULTS[workload_kind], "workload"
    )
    if workload_kind == "transient":
        waveform = workload_options["waveform"]
        if not isinstance(waveform, dict) or \
                waveform.get("kind") not in WAVEFORM_KINDS:
            raise ProtocolError(
                "transient workload needs a 'waveform' object with kind "
                f"one of {', '.join(WAVEFORM_KINDS)}"
            )
        workload_options["waveform"] = _merged(
            waveform, _WAVEFORM_DEFAULTS[waveform["kind"]], "waveform"
        )
        workload_options["waveform"]["kind"] = waveform["kind"]
        # The waveform drives the study; the workload's 'input' only
        # names the same port, so it may not say otherwise.
        driven = workload_options["waveform"]["input"]
        if "input" not in workload_section:
            workload_options["input"] = driven
        elif workload_section["input"] != driven:
            raise ProtocolError(
                "'input' differs from 'waveform.input': the waveform's "
                "input drives a transient (omit 'input' or name the same "
                "port)"
            )

    parameters = _int("parameters", 2)
    for label, options in (("plan", plan_options),
                           ("workload", workload_options)):
        for name in ("instances", "points", "steps"):
            value = options.get(name)
            if _is_number(value) and value > MAX_PLAN_SAMPLES:
                raise ProtocolError(
                    f"'{label}.{name}' must be at most {MAX_PLAN_SAMPLES}"
                )
    # A grid is points ** parameters samples; with points >= 2, twenty
    # parameters already pass the cap, so the power stays small.
    points = plan_options.get("points")
    if plan_kind == "grid" and _is_count(points, 2) \
            and points ** min(parameters, 20) > MAX_PLAN_SAMPLES:
        raise ProtocolError(
            f"'plan.points' {points} per axis over {parameters} parameters "
            f"exceeds {MAX_PLAN_SAMPLES} grid samples"
        )
    if parameters > MAX_PARAMETERS:
        raise ProtocolError(f"'parameters' must be at most {MAX_PARAMETERS}")
    # A boolean is a JSON integer to Python: refuse it here, or it
    # realizes as 0 or 1.
    for name, minimum in (("seed", 0), ("points", 1)):
        if name in plan_options and not _is_count(plan_options[name], minimum):
            raise ProtocolError(f"'plan.{name}' must be an integer >= {minimum}")

    if workload_kind == "sweep":
        fmin, fmax = workload_options["fmin"], workload_options["fmax"]
        if not (_is_finite(fmin) and fmin > 0):
            raise ProtocolError("'fmin' must be a finite number > 0")
        if not (_is_finite(fmax) and fmax >= fmin):
            raise ProtocolError("'fmax' must be a finite number >= 'fmin'")
        if not _is_count(workload_options["points"], 1):
            raise ProtocolError("'points' must be an integer >= 1")
    if workload_kind == "montecarlo":
        for name in ("poles", "bins"):
            if not _is_count(workload_options[name], 1):
                raise ProtocolError(f"'{name}' must be an integer >= 1")
    caps = {"poles": (("num", MAX_POLES),),
            "montecarlo": (("poles", MAX_POLES), ("bins", MAX_BINS))}
    for name, cap in caps.get(workload_kind, ()):
        if _is_number(workload_options[name]) and workload_options[name] > cap:
            raise ProtocolError(f"'{name}' must be at most {cap}")
    if workload_kind in ("sweep", "transient"):
        for name, _, index in _port_indices(workload_options):
            if not _is_count(index, 0):
                raise ProtocolError(f"'{name}' must be an integer >= 0")

    spread = _number("spread", 0.5)
    if not 0.0 <= spread <= MAX_SPREAD:
        raise ProtocolError(f"'spread' must be between 0 and {MAX_SPREAD:g}")
    excursion = plan_excursion(plan_kind, plan_options)
    if _is_number(excursion):  # anything else fails the plan's realization
        floor = element_factor_floor(spread, parameters, abs(excursion))
        if floor <= 0:
            raise ProtocolError(
                f"'spread' {spread:g} with {parameters} parameters and plan "
                f"excursions up to {abs(excursion):g} can scale an element "
                f"value by {floor:g} (spread * parameters * excursion must "
                "stay below 1)"
            )

    chunk = payload.get("chunk")
    if chunk is not None and not _is_count(chunk, 1):
        raise ProtocolError("'chunk' must be a positive integer or null")
    workers = _int("workers", 1, cap=MAX_WORKERS)

    return JobSpec(
        netlist=netlist,
        parameters=parameters,
        spread=spread,
        variation_seed=_int("variation_seed", 0, minimum=0),
        moments=_int("moments", 4, cap=MAX_MOMENTS),
        rank=_int("rank", 1, cap=MAX_RANK),
        plan_kind=plan_kind,
        plan_options=plan_options,
        workload_kind=workload_kind,
        workload_options=workload_options,
        chunk=chunk,
        workers=workers,
    )


@dataclass
class RealizedJob:
    """A job bound to its parametric system, its reduced model and the
    Studies it runs.

    ``studies`` maps a side label to the one Study of that side, which
    the supervisor runs (``run()``, or one ``work()`` per co-draining
    participant): ``full`` and ``reduced`` for the ``montecarlo``
    workload, ``study`` for the others.  ``plans`` and ``fingerprints``
    read each Study's memo, so they are the ones its checkpoints are
    keyed by.  ``peak_bytes`` is the admission figure: the largest
    ``estimated_peak_bytes`` across every side's ExecutionPlan.
    """

    spec: JobSpec
    parametric: object
    model: object
    studies: dict = field(default_factory=dict)

    @property
    def plans(self) -> list:
        """Each side's ExecutionPlan, in side order."""
        return [study.plan() for study in self.studies.values()]

    @property
    def fingerprints(self) -> list:
        """Each side's study fingerprint record, in side order."""
        return [study.fingerprint() for study in self.studies.values()]

    @property
    def peak_bytes(self) -> int:
        """Worst estimated peak bytes across the job's study plans."""
        return max(plan.estimated_peak_bytes for plan in self.plans)

    @property
    def study_keys(self) -> list:
        """The content keys of every study this job drains."""
        return [fp["key"] for fp in self.fingerprints]


def realize_system(spec: JobSpec, model_cache=None) -> tuple:
    """Parse, stamp and reduce ``spec``'s net: ``(parametric, model)``.

    Reads only the :data:`NET_FIELDS` of ``spec``.  The reduction goes
    through ``model_cache`` when one is given, so a system already
    reduced with these settings is loaded, not reduced again.  A
    netlist that does not parse or stamp and a reduction that fails
    surface as :class:`ProtocolError`.
    """
    from repro.circuits.generators import with_random_variations
    from repro.circuits.parser import parse_netlist
    from repro.core import LowRankReducer

    try:
        netlist = parse_netlist(spec.netlist, title="<submitted>")
        parametric = with_random_variations(
            netlist, spec.parameters, seed=spec.variation_seed,
            relative_spread=spec.spread,
        )
    except (ValueError, KeyError) as exc:
        raise ProtocolError(f"netlist rejected: {exc}") from None

    reducer = LowRankReducer(num_moments=spec.moments, rank=spec.rank)
    try:
        if model_cache is not None:
            model = model_cache.get_or_reduce(parametric, reducer)
        else:
            model = reducer.reduce(parametric)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ProtocolError(f"reduction failed: {exc}") from None
    return parametric, model


def declare_studies(spec: JobSpec, parametric, model,
                    store=None) -> RealizedJob:
    """Declare the job's Studies on a realized ``(parametric, model)``.

    ``store`` (a directory or StudyStore) is attached to every Study
    before it is planned, so each side plans and fingerprints once.
    No array of ``parametric`` or ``model`` is written (the kernels'
    lazy memos on them are idempotent): a supervisor declares the
    Studies of many jobs, running at once, on one kept pair.  Declarations
    the engine rejects (bad workload/target combination, out-of-range
    indices) surface as :class:`ProtocolError`.
    """
    from repro.runtime import Study

    job = RealizedJob(spec=spec, parametric=parametric, model=model)
    options = dict(spec.workload_options)
    try:
        if spec.workload_kind == "montecarlo":
            from repro.analysis.montecarlo import (
                sample_parameters, sign_off_studies)

            if spec.plan_kind != "montecarlo":
                raise ProtocolError(
                    "the montecarlo workload requires a montecarlo plan"
                )
            samples = sample_parameters(
                spec.plan_options["instances"], parametric.num_parameters,
                three_sigma=spec.plan_options["sigma"],
                seed=spec.plan_options["seed"],
            )
            job.studies = dict(zip(("full", "reduced"), sign_off_studies(
                parametric, model, samples, options["poles"],
                store=store, chunk_size=spec.chunk,
            )))
        else:
            study = Study(model).scenarios(
                build_plan(spec.plan_kind, **spec.plan_options)
            )
            if spec.workload_kind == "sweep":
                _check_ports(model, options)
                study.sweep(np.logspace(
                    np.log10(options["fmin"]), np.log10(options["fmax"]),
                    options["points"],
                ))
            elif spec.workload_kind == "transient":
                waveform_options = dict(options["waveform"])
                waveform = build_waveform(
                    waveform_options.pop("kind"),
                    input_index=waveform_options.pop("input"),
                    **waveform_options,
                )
                _check_ports(model, options)
                study.transient(
                    waveform,
                    t_final=options["t_final"],
                    num_steps=options["steps"],
                    method=options["method"],
                    delay_threshold=options["threshold"],
                    output_index=options["output"],
                    reference=options["delay_reference"],
                )
            else:  # poles
                study.poles(options["num"])
            if store is not None:
                study.store(store)
            if spec.chunk is not None:
                study.chunk(spec.chunk)
            job.studies = {"study": study}
        for study in job.studies.values():
            study.fingerprint()  # plans first: a rejection is a 400
    except ProtocolError:
        raise
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"declaration rejected: {exc}") from None
    return job


def realize(spec: JobSpec, model_cache=None, store=None) -> RealizedJob:
    """Build the parametric system, reduced model, and the job's Studies:
    :func:`realize_system` (through ``model_cache`` when given), then
    :func:`declare_studies` with ``store`` attached."""
    return declare_studies(spec, *realize_system(spec, model_cache),
                           store=store)


def _port_indices(options: dict):
    """``(field, port kind, index)`` of each port a sweep or transient names.

    A transient's waveform comes before its ``input``, which equals it
    (``parse_job``), so a bad port is reported by the field that drives.
    """
    yield "output", "outputs", options["output"]
    if "waveform" in options:
        yield "waveform.input", "inputs", options["waveform"]["input"]
    yield "input", "inputs", options["input"]


def _check_ports(model, options: dict) -> None:
    """Each port index (an integer >= 0 since ``parse_job``) is in range."""
    counts = {"outputs": model.nominal.num_outputs, "inputs": model.nominal.num_inputs}
    for name, kind, index in _port_indices(options):
        if index >= counts[kind]:
            raise ProtocolError(
                f"'{name}' {index} out of range (model has {counts[kind]} {kind})"
            )
