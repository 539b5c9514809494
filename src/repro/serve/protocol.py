"""The job declaration schema: JSON in, realized studies out.

One declaration language serves both fronts: the CLI builders
(:mod:`repro.cli`) and the HTTP job protocol realize scenario plans and
waveforms through the *same* :func:`build_plan` / :func:`build_waveform`
constructors, so a study submitted over the wire lands on the same
content fingerprint -- and therefore the same StudyStore manifests --
as the identical study declared at a terminal.

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
Malformed documents raise :class:`ProtocolError`, which the server maps
to HTTP 400 and the CLI maps to its usual exit-1 one-liner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class ProtocolError(ValueError):
    """A job document that cannot be realized into a study."""


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
    """Whether ``value`` is a JSON integer (not a bool) >= ``minimum``."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= minimum


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

    ``canonical()`` returns the fully-defaulted JSON document -- two
    submissions that differ only in omitted-vs-explicit defaults
    canonicalize identically, which is what the content-addressed job
    key hashes.
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
        except json.JSONDecodeError as exc:
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

    def _int(name, default, minimum=1):
        value = payload.get(name, default)
        if not _is_count(value, minimum):
            raise ProtocolError(
                f"'{name}' must be an integer >= {minimum}"
            )
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

    if workload_kind == "sweep":
        fmin, fmax = workload_options["fmin"], workload_options["fmax"]
        if not (_is_finite(fmin) and fmin > 0):
            raise ProtocolError("'fmin' must be a finite number > 0")
        if not (_is_finite(fmax) and fmax >= fmin):
            raise ProtocolError("'fmax' must be a finite number >= 'fmin'")
    if workload_kind == "montecarlo":
        for name in ("poles", "bins"):
            if not _is_count(workload_options[name], 1):
                raise ProtocolError(f"'{name}' must be an integer >= 1")

    chunk = payload.get("chunk")
    if chunk is not None and not _is_count(chunk, 1):
        raise ProtocolError("'chunk' must be a positive integer or null")

    return JobSpec(
        netlist=netlist,
        parameters=_int("parameters", 2),
        spread=_number("spread", 0.5),
        variation_seed=_int("variation_seed", 0, minimum=0),
        moments=_int("moments", 4),
        rank=_int("rank", 1),
        plan_kind=plan_kind,
        plan_options=plan_options,
        workload_kind=workload_kind,
        workload_options=workload_options,
        chunk=chunk,
        workers=_int("workers", 1),
    )


@dataclass
class RealizedJob:
    """A job bound to concrete models, engines, and fingerprints.

    ``studies`` maps a short side label to a zero-argument engine
    factory: each call returns a *fresh* Study carrying the full
    declaration (so per-worker drains never share builder state).  The
    ``montecarlo`` workload realizes two sides (``full`` and
    ``reduced``); the engine workloads realize one (``study``).
    ``peak_bytes`` is the admission figure: the largest
    ``estimated_peak_bytes`` across every side's ExecutionPlan.
    """

    spec: JobSpec
    parametric: object
    model: object
    studies: dict = field(default_factory=dict)
    fingerprints: list = field(default_factory=list)
    plans: list = field(default_factory=list)
    samples: Optional[np.ndarray] = None

    @property
    def peak_bytes(self) -> int:
        """Worst estimated peak bytes across the job's study plans."""
        return max(plan.estimated_peak_bytes for plan in self.plans)

    @property
    def study_keys(self) -> list:
        """The content keys of every study this job drains."""
        return [fp["key"] for fp in self.fingerprints]


def realize(spec: JobSpec, model_cache=None) -> RealizedJob:
    """Build the parametric system, reduced model, and study engines.

    The expensive half (parse + reduce) goes through ``model_cache``
    when one is given, so repeat submissions of the same netlist and
    reducer settings skip reduction entirely.  Declarations the engine
    rejects (bad workload/target combination, out-of-range indices)
    surface as :class:`ProtocolError`.
    """
    from repro.circuits.generators import with_random_variations
    from repro.circuits.parser import parse_netlist
    from repro.core import LowRankReducer
    from repro.runtime import Study

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

    job = RealizedJob(spec=spec, parametric=parametric, model=model)
    options = dict(spec.workload_options)

    def _chunked(study: Study) -> Study:
        return study if spec.chunk is None else study.chunk(spec.chunk)

    try:
        if spec.workload_kind == "montecarlo":
            from repro.analysis.montecarlo import sample_parameters

            if spec.plan_kind != "montecarlo":
                raise ProtocolError(
                    "the montecarlo workload requires a montecarlo plan"
                )
            samples = sample_parameters(
                spec.plan_options["instances"], parametric.num_parameters,
                three_sigma=spec.plan_options["sigma"],
                seed=spec.plan_options["seed"],
            )
            job.samples = samples
            num_poles = options["poles"]
            job.studies = {
                "full": lambda: _chunked(
                    Study(parametric).scenarios(samples).poles(num_poles)
                ),
                "reduced": lambda: _chunked(
                    Study(model).scenarios(samples).poles(2 * num_poles)
                ),
            }
        else:
            plan = build_plan(spec.plan_kind, **spec.plan_options)
            if spec.workload_kind == "sweep":
                frequencies = np.logspace(
                    np.log10(options["fmin"]), np.log10(options["fmax"]),
                    options["points"],
                )
                _check_ports(model, options)
                job.studies = {
                    "study": lambda: _chunked(
                        Study(model).scenarios(plan).sweep(frequencies)
                    ),
                }
            elif spec.workload_kind == "transient":
                waveform_options = dict(options["waveform"])
                waveform = build_waveform(
                    waveform_options.pop("kind"),
                    input_index=waveform_options.pop("input"),
                    **waveform_options,
                )
                _check_ports(model, options)
                job.studies = {
                    "study": lambda: _chunked(
                        Study(model).scenarios(plan).transient(
                            waveform,
                            t_final=options["t_final"],
                            num_steps=options["steps"],
                            method=options["method"],
                            delay_threshold=options["threshold"],
                            output_index=options["output"],
                            reference=options["delay_reference"],
                        )
                    ),
                }
            else:  # poles
                job.studies = {
                    "study": lambda: _chunked(
                        Study(model).scenarios(plan).poles(options["num"])
                    ),
                }
        for factory in job.studies.values():
            study = factory()
            job.plans.append(study.plan())
            job.fingerprints.append(study.fingerprint())
    except ProtocolError:
        raise
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"declaration rejected: {exc}") from None
    return job


def _check_ports(model, options: dict) -> None:
    num_outputs = model.nominal.num_outputs
    num_inputs = model.nominal.num_inputs
    if not 0 <= options["output"] < num_outputs:
        raise ProtocolError(
            f"'output' {options['output']} out of range "
            f"(model has {num_outputs} outputs)"
        )
    if not 0 <= options["input"] < num_inputs:
        raise ProtocolError(
            f"'input' {options['input']} out of range "
            f"(model has {num_inputs} inputs)"
        )
