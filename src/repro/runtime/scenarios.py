"""Declarative scenario plans: sample matrices and waveforms as objects.

A *plan* describes which parameter-space instances a study should
visit -- Monte Carlo draws, process corners, a full factorial grid --
independent of any model.  Calling
:meth:`ScenarioPlan.sample_matrix` with a parameter count realizes the
plan as the ``(m, n_p)`` matrix every batched kernel and study
function consumes, so the same plan composes with any reducer and any
model:

>>> plan = MonteCarloPlan(num_instances=1000, seed=7)
>>> H = batch_frequency_response(model, freqs, plan.sample_matrix(model.num_parameters))

An *input waveform* is the time-domain half of the same idea: a
declarative stimulus (:class:`StepInput`, :class:`RampInput`,
:class:`PWLInput`, :class:`SineInput`) that realizes itself either as
a vectorized ``(nt, m_in)`` table for the batched transient kernels
(:meth:`InputWaveform.sample`) or as the scalar ``u(t)`` callable the
reference :func:`repro.analysis.timedomain.simulate_transient` loop
consumes (:meth:`InputWaveform.as_function`) -- one object drives both
paths, which is what makes the bit-level regression tests possible.

Plans and waveforms are frozen dataclasses: hashable, comparable, and
printable, so they can key result tables and appear verbatim in logs
and CLI output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# Refuse to materialize absurd factorial expansions (2^n_p corners,
# k^n_p grid points) instead of exhausting memory.
MAX_PLAN_SAMPLES = 1_000_000


class ScenarioPlan:
    """Base class: a recipe for an ``(m, n_p)`` parameter sample matrix."""

    def sample_matrix(self, num_parameters: int) -> np.ndarray:
        """Realize the plan for a model with ``num_parameters`` parameters."""
        raise NotImplementedError

    def num_samples(self, num_parameters: int) -> int:
        """Number of rows :meth:`sample_matrix` will produce."""
        return self.sample_matrix(num_parameters).shape[0]

    def study(self, full_model, reduced_model, num_poles: int = 5):
        """Run the pole-accuracy study over this plan's samples.

        Composes the plan with any full/reduced model pair via
        :func:`repro.analysis.montecarlo.monte_carlo_pole_study`.
        """
        # Imported lazily: repro.analysis.montecarlo itself builds on
        # the runtime engine.
        from repro.analysis.montecarlo import monte_carlo_pole_study

        samples = self.sample_matrix(full_model.num_parameters)
        return monte_carlo_pole_study(
            full_model,
            reduced_model,
            samples.shape[0],
            num_poles=num_poles,
            samples=samples,
        )


def _check_size(plan, count: int) -> None:
    if count > MAX_PLAN_SAMPLES:
        raise ValueError(
            f"{plan!r} would materialize {count} samples "
            f"(limit {MAX_PLAN_SAMPLES}); restrict the plan"
        )


@dataclass(frozen=True)
class MonteCarloPlan(ScenarioPlan):
    """Normal 3-sigma Monte Carlo draws (the paper's Figs. 5-6 protocol).

    Parameters mirror
    :func:`repro.analysis.montecarlo.sample_parameters`, which realizes
    the plan (same seeds give the same draws).
    """

    num_instances: int
    three_sigma: float = 0.3
    seed: int = 0
    truncate: bool = True

    def sample_matrix(self, num_parameters: int) -> np.ndarray:
        """``(num_instances, num_parameters)`` normal draws."""
        from repro.analysis.montecarlo import sample_parameters

        return sample_parameters(
            self.num_instances,
            num_parameters,
            three_sigma=self.three_sigma,
            seed=self.seed,
            truncate=self.truncate,
        )

    def num_samples(self, num_parameters: int) -> int:
        """Instance count (independent of the parameter count)."""
        return self.num_instances


@dataclass(frozen=True)
class CornerPlan(ScenarioPlan):
    """All ``2^n_p`` extreme process corners, optionally plus nominal.

    Each parameter sits at ``+/- magnitude``; with ``include_nominal``
    (default) the all-zeros nominal point is prepended as row 0.
    """

    magnitude: float = 0.3
    include_nominal: bool = True

    def sample_matrix(self, num_parameters: int) -> np.ndarray:
        """Nominal row (optional) followed by every sign combination."""
        if num_parameters < 1:
            raise ValueError("num_parameters must be >= 1")
        _check_size(self, self.num_samples(num_parameters))
        corners = np.array(
            list(itertools.product((-self.magnitude, self.magnitude), repeat=num_parameters)),
            dtype=float,
        )
        if self.include_nominal:
            corners = np.vstack([np.zeros((1, num_parameters)), corners])
        return corners

    def num_samples(self, num_parameters: int) -> int:
        """``2^n_p`` corners plus the optional nominal row."""
        return 2 ** num_parameters + (1 if self.include_nominal else 0)


@dataclass(frozen=True)
class GridPlan(ScenarioPlan):
    """Full factorial grid: every parameter takes every axis value.

    The batched generalization of the Figs. 5-6 right-hand plots'
    2-D sweep to all parameters at once.  ``axis_values`` is stored as
    a tuple so the plan stays hashable.
    """

    axis_values: Tuple[float, ...] = (-0.3, 0.0, 0.3)

    def __post_init__(self):
        object.__setattr__(self, "axis_values", tuple(float(v) for v in self.axis_values))
        if not self.axis_values:
            raise ValueError("axis_values must be non-empty")

    def sample_matrix(self, num_parameters: int) -> np.ndarray:
        """``(len(axis_values)^n_p, n_p)`` factorial combinations."""
        if num_parameters < 1:
            raise ValueError("num_parameters must be >= 1")
        _check_size(self, self.num_samples(num_parameters))
        return np.array(
            list(itertools.product(self.axis_values, repeat=num_parameters)), dtype=float
        )

    def num_samples(self, num_parameters: int) -> int:
        """``len(axis_values) ** n_p`` grid points."""
        return len(self.axis_values) ** num_parameters


class InputWaveform:
    """Base class: a declarative single-channel stimulus ``u(t)``.

    Subclasses implement :meth:`values` (the scalar channel waveform
    over a time array) and carry an ``input_index`` selecting which
    system input is driven; every other input is held at zero.
    """

    input_index: int = 0

    def values(self, times) -> np.ndarray:
        """Channel values at ``times`` (vectorized, same shape out)."""
        raise NotImplementedError

    def sample(self, times, num_inputs: int) -> np.ndarray:
        """Realize the stimulus as an ``(nt, m_in)`` input table.

        This is what the batched transient kernels consume: the whole
        time axis tabulated in one vectorized call.
        """
        times = np.asarray(times, dtype=float)
        if not 0 <= self.input_index < num_inputs:
            raise ValueError(
                f"input_index {self.input_index} out of range for {num_inputs} inputs"
            )
        table = np.zeros((times.size, num_inputs))
        table[:, self.input_index] = np.asarray(self.values(times), dtype=float)
        return table

    def as_function(self, num_inputs: int):
        """Adapter ``u(t) -> (m_in,)`` for the scalar reference loop.

        Returns a callable accepted by
        :func:`repro.analysis.timedomain.simulate_transient`, so the
        same waveform object drives the per-sample reference path.
        """
        if not 0 <= self.input_index < num_inputs:
            raise ValueError(
                f"input_index {self.input_index} out of range for {num_inputs} inputs"
            )

        def u(t: float) -> np.ndarray:
            vector = np.zeros(num_inputs)
            vector[self.input_index] = float(self.values(np.asarray([t]))[0])
            return vector

        return u


@dataclass(frozen=True)
class StepInput(InputWaveform):
    """Step of ``amplitude`` switching on at ``t = delay`` (0+ convention)."""

    amplitude: float = 1.0
    delay: float = 0.0
    input_index: int = 0

    def values(self, times) -> np.ndarray:
        """``amplitude`` for ``t >= delay``, zero before."""
        times = np.asarray(times, dtype=float)
        return np.where(times >= self.delay, self.amplitude, 0.0)


@dataclass(frozen=True)
class RampInput(InputWaveform):
    """Saturating ramp: 0 until ``delay``, then linear to ``amplitude``.

    Reaches ``amplitude`` at ``delay + rise_time`` and holds -- the
    standard finite-slew aggressor edge.
    """

    rise_time: float = 1e-10
    amplitude: float = 1.0
    delay: float = 0.0
    input_index: int = 0

    def __post_init__(self):
        if self.rise_time <= 0:
            raise ValueError("rise_time must be positive")

    def values(self, times) -> np.ndarray:
        """Clipped linear ramp between ``delay`` and ``delay + rise_time``."""
        times = np.asarray(times, dtype=float)
        return self.amplitude * np.clip((times - self.delay) / self.rise_time, 0.0, 1.0)


@dataclass(frozen=True)
class PWLInput(InputWaveform):
    """Piecewise-linear waveform through ``(time, value)`` breakpoints.

    Values before the first / after the last breakpoint are held
    constant (SPICE PWL semantics).  ``points`` is stored as a nested
    tuple so the waveform stays hashable.
    """

    points: Tuple[Tuple[float, float], ...] = ((0.0, 0.0), (1e-9, 1.0))
    input_index: int = 0

    def __post_init__(self):
        points = tuple((float(t), float(v)) for t, v in self.points)
        if not points:
            raise ValueError("PWLInput needs at least one (time, value) point")
        breakpoints = [t for t, _ in points]
        if any(b > a for b, a in zip(breakpoints, breakpoints[1:])):
            raise ValueError("PWL breakpoint times must be non-decreasing")
        object.__setattr__(self, "points", points)

    def values(self, times) -> np.ndarray:
        """Linear interpolation through the breakpoints (ends held)."""
        times = np.asarray(times, dtype=float)
        breakpoints = np.array([t for t, _ in self.points])
        levels = np.array([v for _, v in self.points])
        return np.interp(times, breakpoints, levels)


@dataclass(frozen=True)
class SineInput(InputWaveform):
    """Sinusoid ``offset + amplitude * sin(2 pi f (t - delay) + phase)``.

    Zero (at the offset level) before ``delay``.
    """

    frequency: float = 1e9
    amplitude: float = 1.0
    phase: float = 0.0
    offset: float = 0.0
    delay: float = 0.0
    input_index: int = 0

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    def values(self, times) -> np.ndarray:
        """The sinusoid, gated on at ``t >= delay``."""
        times = np.asarray(times, dtype=float)
        wave = self.offset + self.amplitude * np.sin(
            2.0 * np.pi * self.frequency * (times - self.delay) + self.phase
        )
        return np.where(times >= self.delay, wave, self.offset)
