"""Batched time-domain kernels: transient ensembles in one numpy stream.

The frequency-domain kernels in :mod:`repro.runtime.batch` eliminated
the per-sample Python loop for transfer functions and poles; this
module does the same for the time axis.  The reference path,
:func:`repro.analysis.timedomain.simulate_transient`, advances one
instance and one timestep per Python iteration -- an ensemble of ``m``
instances over ``nt`` steps costs ``m * nt`` interpreter round trips
plus ``m`` dense factorizations.

Here the companion matrix of every instance is factored **once** via
one stacked LAPACK ``gesv`` call that yields the closed-form
discrete-time propagators

- backward Euler:  ``x+ = M x + N u(t+)`` with
  ``M = (C/h + G)^{-1} (C/h)``, ``N = (C/h + G)^{-1} B``;
- trapezoidal:     ``x+ = M x + N (u(t+) + u(t))`` with
  ``M = (2C/h + G)^{-1} (2C/h - G)``, ``N = (2C/h + G)^{-1} B``,

after which *all* instances advance together, ``s = BLOCK_STEPS``
timesteps at a time.  Per instance the kernel precomputes ``C M^i``,
``M^i N`` and ``M^s`` (``C`` is ``L^T``, with the identity stacked
below it when states are kept); the only Python loop left walks the
``ceil(nt / s)`` block boundaries, ``x <- M^s x + K d_b`` with one
stacked matvec each, where ``d_b`` is block ``b``'s slice of the drive
table every instance shares.  Every intermediate output is then the
sum of two stacked GEMMs: the free response of the block-start states
through ``[C M, ..., C M^s]``, and the forced response of the drive
table through the ``s x s`` block-Toeplitz matrix of Markov parameters
``C M^i N``.  A 200-step ensemble thus costs a few dozen numpy calls
instead of three per step.

Agreement contract: the block recurrence is algebraically identical to
the reference solve-per-step recurrence; the regression tests pin the
two paths together to 1e-12 relative.  Every product is a
``np.matmul`` batched over the instance axis, so each instance's
trajectory is bit-identical however the ensemble is chunked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.runtime.batch import _dense, as_sample_matrix, batch_instantiate
from repro.runtime.scenarios import InputWaveform, ScenarioPlan, StepInput

# Timesteps per block of the block-stepped recurrence.  On a 32-instance,
# 200-step chunk of a q = 28 reduced RC tree (2-CPU x86 host, one BLAS
# thread) the kernel took 1.5 ms at 8, within 15% of that for every
# length from 4 to 16, and 4.9 ms at 1 (one step per block).
BLOCK_STEPS = 8

# Integration methods and delay/slew reference levels, by name.
TRANSIENT_METHODS = ("trapezoidal", "backward_euler")
DELAY_REFERENCES = ("steady", "peak")


@dataclass
class BatchTransientResult:
    """Stacked transient trajectories of a scenario ensemble.

    ``outputs`` has shape ``(m, nt + 1, m_out)`` -- instance ``k``,
    timestep ``j``; ``states`` (shape ``(m, nt + 1, q)``) is kept only
    on request.  ``time`` is the shared ``(nt + 1,)`` axis.
    """

    time: np.ndarray
    outputs: np.ndarray
    samples: np.ndarray
    method: str
    states: Optional[np.ndarray] = None

    @property
    def num_samples(self) -> int:
        """Number of simulated parameter instances."""
        return self.outputs.shape[0]

    def output_envelope(
        self, output_index: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-timestep ``(min, mean, max)`` of one output across instances.

        The time-domain analogue of
        :meth:`~repro.runtime.stream.StreamedSweepStudy.magnitude_envelope`:
        the waveform spread process variation induces.
        """
        waveforms = self.outputs[:, :, output_index]
        return waveforms.min(axis=0), waveforms.mean(axis=0), waveforms.max(axis=0)


def _dense_ports(model) -> Tuple[np.ndarray, np.ndarray]:
    b = np.asarray(_dense(model.nominal.B), dtype=float)
    l_mat = np.asarray(_dense(model.nominal.L), dtype=float)
    return b, l_mat


def _sample_inputs(input_function, time: np.ndarray, num_inputs: int) -> np.ndarray:
    """``u(t)`` tabulated as ``(nt + 1, m_in)`` for every timestep.

    Accepts a declarative :class:`InputWaveform` (vectorized sampling)
    or any scalar callable accepted by
    :func:`repro.analysis.timedomain.simulate_transient` (scalars
    allowed for single-input systems).
    """
    if isinstance(input_function, InputWaveform) or hasattr(input_function, "sample"):
        return np.asarray(input_function.sample(time, num_inputs), dtype=float)
    u = np.empty((time.size, num_inputs))
    for j, t in enumerate(time):
        value = np.atleast_1d(np.asarray(input_function(float(t)), dtype=float))
        if value.shape != (num_inputs,):
            raise ValueError(
                f"input function returned shape {value.shape}, expected ({num_inputs},)"
            )
        u[j] = value
    return u


def _initial_states(x0, num_samples: int, order: int) -> np.ndarray:
    if x0 is None:
        return np.zeros((num_samples, order))
    x = np.asarray(x0, dtype=float)
    if x.shape == (order,):
        return np.broadcast_to(x, (num_samples, order)).copy()
    if x.shape == (num_samples, order):
        return x.copy()
    raise ValueError(
        f"x0 has shape {x.shape}, expected ({order},) or ({num_samples}, {order})"
    )


def _propagators(
    g: np.ndarray, c: np.ndarray, b: np.ndarray, h: float, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked discrete-time propagators ``(M, N)`` for every instance.

    One batched ``gesv`` factorization per instance, amortized over the
    ``q + m_in`` right-hand-side columns of ``[state-term | B]``.
    """
    if method == "backward_euler":
        lhs = c / h + g
        state_rhs = c / h
    else:
        lhs = c * (2.0 / h) + g
        state_rhs = c * (2.0 / h) - g
    num_samples, q, _ = g.shape
    rhs = np.concatenate(
        [state_rhs, np.broadcast_to(b, (num_samples,) + b.shape)], axis=2
    )
    solution = np.linalg.solve(lhs, rhs)
    return solution[:, :, :q], solution[:, :, q:]


def batch_simulate_transient(
    model,
    samples,
    input_function,
    t_final: float,
    num_steps: int,
    method: str = "trapezoidal",
    keep_states: bool = False,
    x0: Union[np.ndarray, None] = None,
) -> BatchTransientResult:
    """Fixed-step transient simulation of a whole parameter ensemble.

    The batched counterpart of
    :func:`repro.analysis.timedomain.simulate_transient`: every
    instance of ``samples`` (an ``(m, n_p)`` matrix, one row per
    instance) is integrated simultaneously with one factorization per
    instance and the block-stepped recurrence of this module (one
    stacked matvec per ``BLOCK_STEPS`` timesteps, outputs from two
    stacked GEMMs).

    Parameters
    ----------
    model:
        A dense parametric model (:class:`ParametricReducedModel` or
        compatible, see :func:`repro.runtime.batch.supports_batching`).
    samples:
        ``(m, n_p)`` parameter sample matrix.
    input_function:
        A declarative :class:`~repro.runtime.scenarios.InputWaveform`
        (preferred: sampled in one vectorized call) or a scalar
        callable ``u(t)`` as accepted by ``simulate_transient``.  The
        stimulus is shared across the ensemble; the variation lives in
        the parameters.
    t_final, num_steps:
        Simulation horizon and step count (``h = t_final/num_steps``).
    method:
        ``"trapezoidal"`` (default) or ``"backward_euler"``.
    keep_states:
        Store the stacked state trajectories (``(m, nt + 1, q)``).
    x0:
        Initial state: ``None`` (zero), a shared ``(q,)`` vector, or a
        per-instance ``(m, q)`` matrix.
    """
    matrix = as_sample_matrix(model, samples)
    g, c = batch_instantiate(model, matrix)
    return _simulate_from_stacks(
        model, matrix, g, c, input_function, t_final, num_steps,
        method=method, keep_states=keep_states, x0=x0,
    )


def _simulate_from_stacks(
    model,
    matrix: np.ndarray,
    g: np.ndarray,
    c: np.ndarray,
    input_function,
    t_final: float,
    num_steps: int,
    method: str,
    keep_states: bool,
    x0,
) -> BatchTransientResult:
    """The integration core, over already-instantiated ``(G, C)`` stacks.

    Split out so :func:`_transient_study` can reuse one
    instantiation pass for both the simulation and the DC gains.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if method not in TRANSIENT_METHODS:
        raise ValueError(f"unknown method {method!r}")

    b, l_mat = _dense_ports(model)
    num_samples = matrix.shape[0]
    q = g.shape[1]
    m_out = l_mat.shape[1]
    h = t_final / num_steps
    time = np.linspace(0.0, t_final, num_steps + 1)

    u = _sample_inputs(input_function, time, b.shape[1])
    m_prop, n_prop = _propagators(g, c, b, h, method)
    drive = u[1:] if method == "backward_euler" else u[1:] + u[:-1]
    # Rows of the projection: the outputs, then (kept) the states.
    c_map = np.concatenate([l_mat.T, np.eye(q)]) if keep_states else l_mat.T
    x = _initial_states(x0, num_samples, q)
    trajectory = _block_trajectory(m_prop, n_prop, c_map, drive, x)
    outputs = np.empty((num_samples, num_steps + 1, m_out))
    # An einsum, not a GEMM with the ensemble as a free dimension: its
    # fixed per-element reduction keeps row k independent of the batch
    # (= streaming chunk) size.
    outputs[:, 0] = np.einsum("kq,qo->ko", x, l_mat)
    outputs[:, 1:] = trajectory[:, :, :m_out]
    states = None
    if keep_states:
        states = np.empty((num_samples, num_steps + 1, q))
        states[:, 0] = x
        states[:, 1:] = trajectory[:, :, m_out:]
    return BatchTransientResult(
        time=time, outputs=outputs, samples=matrix, method=method, states=states
    )


def _block_trajectory(
    m_prop: np.ndarray,
    n_prop: np.ndarray,
    c_map: np.ndarray,
    drive: np.ndarray,
    x0: np.ndarray,
) -> np.ndarray:
    """``y_j = C x_j`` for ``j = 1..n_t`` of ``x_{j+1} = M x_j + N d_j``.

    Block-stepped: with ``s = min(BLOCK_STEPS, n_t)`` and the drive
    zero-padded to whole blocks, the step ``i`` outputs of the block
    starting at state ``x_b`` are ``C M^i x_b + sum_r C M^(i-1-r) N d_r``.
    The free responses of every block-start state come from one stacked
    GEMM against ``[C M, ..., C M^s]``, the forced responses from one
    stacked GEMM of the shared drive table against the block-Toeplitz
    matrix of Markov parameters ``C M^i N``; the only sequential loop
    is ``x_(b+1) = M^s x_b + K d_b`` over the ``ceil(n_t / s)`` block
    boundaries.  Every product is a ``np.matmul`` batched over the
    instance axis, so each row's arithmetic is independent of how many
    instances share the call.  Returns ``(m, n_t, rows of C)``.
    """
    num_samples, q, num_inputs = n_prop.shape
    num_steps = drive.shape[0]
    rows = c_map.shape[0]
    s = min(BLOCK_STEPS, num_steps)
    num_blocks = -(-num_steps // s)
    padded = np.zeros((num_blocks * s, num_inputs))
    padded[:num_steps] = drive
    # Block b's drive slice (d_(bs), ..., d_(bs+s-1)) as one row.
    drive_rows = padded.reshape(num_blocks, s * num_inputs)

    # Every operand below is laid out per instance the same way whatever
    # the ensemble size: numpy picks its matmul kernel from the strides
    # of each matrix, and a batch-dependent layout (a stacked broadcast
    # view, say) would change the bits of a row with the chunk size.
    # C M^i for i = 0..s: (m, s + 1, rows, q).
    c_powers = np.empty((num_samples, s + 1, rows, q))
    c_powers[:, 0] = c_map
    for i in range(s):
        np.matmul(c_powers[:, i], m_prop, out=c_powers[:, i + 1])
    # K^T, block r = (M^(s-1-r) N)^T: (m, s, m_in, q).
    k_t = np.empty((num_samples, s, num_inputs, q))
    k_t[:, s - 1] = n_prop.transpose(0, 2, 1)
    for r in range(s - 1, 0, -1):
        np.matmul(k_t[:, r], m_prop.transpose(0, 2, 1), out=k_t[:, r - 1])
    m_block = np.linalg.matrix_power(m_prop, s)
    # Markov parameters C M^i N for i = 0..s-1, then a zero block:
    # (m, s + 1, rows, m_in).
    markov = np.zeros((num_samples, s + 1, rows, num_inputs))
    np.matmul(c_powers[:, :s], n_prop[:, None], out=markov[:, :s])
    # Toeplitz^T: block (r, i) = (C M^(i-r) N)^T for r <= i, else zero.
    lag = np.arange(s)[None, :] - np.arange(s)[:, None]
    lag[lag < 0] = s
    toeplitz = np.ascontiguousarray(markov[:, lag].transpose(0, 1, 4, 2, 3)).reshape(
        num_samples, s * num_inputs, s * rows
    )
    # [C M, ..., C M^s]^T: (m, q, s * rows).
    free_map = np.ascontiguousarray(c_powers[:, 1:].transpose(0, 3, 1, 2)).reshape(
        num_samples, q, s * rows
    )

    forced_states = np.matmul(drive_rows, k_t.reshape(num_samples, s * num_inputs, q))
    starts = np.empty((num_samples, num_blocks, q))
    starts[:, 0] = x0
    for block in range(1, num_blocks):
        starts[:, block] = (
            np.matmul(m_block, starts[:, block - 1, :, None])[:, :, 0]
            + forced_states[:, block - 1]
        )
    trajectory = np.matmul(starts, free_map) + np.matmul(drive_rows, toeplitz)
    return trajectory.reshape(num_samples, num_blocks * s, rows)[:, :num_steps]


def batch_step_responses(
    model,
    samples,
    amplitude: float = 1.0,
    t_final: Optional[float] = None,
    num_steps: int = 500,
    input_index: int = 0,
    method: str = "trapezoidal",
) -> BatchTransientResult:
    """Stacked unit-step responses (the 0+ convention of ``simulate_step``).

    ``t_final`` defaults to eight nominal dominant time constants (see
    :func:`default_horizon`).
    """
    if t_final is None:
        t_final = default_horizon(model)
    waveform = StepInput(amplitude=amplitude, input_index=input_index)
    return batch_simulate_transient(
        model, samples, waveform, t_final, num_steps, method=method
    )


def default_horizon(model) -> float:
    """Eight nominal dominant time constants -- the step-settling window.

    The horizon rule of :func:`repro.analysis.delay.settling_horizon`,
    evaluated once on the nominal system and shared across the
    ensemble.
    """
    # Imported lazily: repro.analysis builds on the runtime package.
    from repro.analysis.delay import settling_horizon

    return settling_horizon(model.nominal)


@dataclass
class TransientStudy:
    """A scenario plan realized as a batched transient ensemble.

    Bundles the plan (or raw sample matrix), the stimulus, and the
    stacked :class:`BatchTransientResult`, plus the DC gains and the
    per-instance steady-state output levels
    ``y_inf = H(0, p_k) u(t_final)`` (shape ``(m, m_out)``) that every
    relative threshold metric is measured against -- so a 2 V step and
    a 1 V step report the same 50% delay.
    """

    plan: Optional[ScenarioPlan]
    waveform: object
    result: BatchTransientResult
    dc_gains: np.ndarray
    steady_states: np.ndarray

    @property
    def num_samples(self) -> int:
        """Number of simulated parameter instances."""
        return self.result.num_samples

    @property
    def time(self) -> np.ndarray:
        """Shared time axis of the ensemble."""
        return self.result.time

    @property
    def samples(self) -> np.ndarray:
        """The realized ``(m, n_p)`` sample matrix."""
        return self.result.samples

    def output_envelope(
        self, output_index: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-timestep ``(min, mean, max)`` across instances."""
        return self.result.output_envelope(output_index=output_index)

    def _reference_levels(self, output_index: int, reference: str) -> np.ndarray:
        """Per-instance 100% levels the thresholds are measured against.

        ``"steady"`` is ``y_inf = H(0) u(t_final)`` -- the right notion
        for settling stimuli (step, ramp, PWL with a held end level).
        ``"peak"`` is each instance's extremal simulated output -- the
        right notion for pulses and other stimuli that return to zero,
        where the steady state is 0 and steady-relative thresholds are
        undefined.
        """
        if reference == "steady":
            return self.steady_states[:, output_index]
        if reference == "peak":
            waveforms = self.result.outputs[:, :, output_index]
            extremal = np.abs(waveforms).argmax(axis=1)
            return waveforms[np.arange(waveforms.shape[0]), extremal]
        raise ValueError(f"unknown reference {reference!r} (use 'steady' or 'peak')")

    def _normalized(self, output_index: int, reference: str) -> np.ndarray:
        """Waveforms scaled so each instance's reference level sits at 1.

        Rows whose reference level is zero (e.g. a stimulus that never
        switches on inside the window, or a structurally zero transfer
        entry) become all-``nan`` -- the vectorized analogue of the
        scalar functions' "undefined" error.
        """
        final = self._reference_levels(output_index, reference)
        waveforms = self.result.outputs[:, :, output_index]
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = waveforms / final[:, None]
        normalized[final == 0.0] = np.nan
        return normalized

    def delays(
        self,
        threshold: float = 0.5,
        output_index: int = 0,
        reference: str = "steady",
    ) -> np.ndarray:
        """Per-instance threshold-crossing delays (vectorized).

        Thresholds are relative to each instance's reference level
        under this study's stimulus: the steady state
        (amplitude-scaled analogue of
        :func:`repro.analysis.delay.threshold_delay`) by default, or
        the per-instance peak with ``reference="peak"`` for
        non-settling stimuli (pulses, sines).  Instances that never
        cross inside the horizon -- or whose reference level is zero --
        yield ``nan``.
        """
        from repro.analysis.delay import threshold_crossing_times

        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        return threshold_crossing_times(
            self.result.time, self._normalized(output_index, reference), threshold
        )

    def slews(
        self,
        low: float = 0.1,
        high: float = 0.9,
        output_index: int = 0,
        reference: str = "steady",
    ) -> np.ndarray:
        """Per-instance ``low -> high`` rise times (vectorized).

        Same ``reference`` semantics as :meth:`delays`; ``nan`` where
        either threshold is never crossed or the reference level is
        zero.
        """
        from repro.analysis.delay import threshold_crossing_times

        if not 0.0 < low < high < 1.0:
            raise ValueError("need 0 < low < high < 1")
        normalized = self._normalized(output_index, reference)
        t_low = threshold_crossing_times(self.result.time, normalized, low)
        t_high = threshold_crossing_times(self.result.time, normalized, high)
        return t_high - t_low


def _transient_study(
    model,
    scenarios,
    waveform=None,
    t_final: Optional[float] = None,
    num_steps: int = 500,
    method: str = "trapezoidal",
    keep_states: bool = False,
    x0: Union[np.ndarray, None] = None,
) -> TransientStudy:
    """Simulate a scenario plan's whole ensemble through one batched run.

    The time-domain sibling of the dense sweep kernel: ``scenarios`` is
    either a :class:`ScenarioPlan` (realized with
    ``model.num_parameters``) or a raw ``(m, n_p)`` sample matrix, and
    ``waveform`` any :class:`InputWaveform` (default: unit
    :class:`StepInput`).  ``t_final`` defaults to
    :func:`default_horizon`.  Returns a :class:`TransientStudy` with
    batched delay/slew extraction attached.

    This is the engine-internal kernel behind the transient routes of
    :class:`repro.runtime.engine.Study`.
    """
    if isinstance(scenarios, ScenarioPlan) or hasattr(scenarios, "sample_matrix"):
        plan: Optional[ScenarioPlan] = scenarios
        samples = scenarios.sample_matrix(model.num_parameters)
    else:
        plan = None
        samples = as_sample_matrix(model, scenarios)
    if waveform is None:
        waveform = StepInput()
    if t_final is None:
        t_final = default_horizon(model)
    # One instantiation pass serves both the simulation and the DC
    # gains behind the relative threshold metrics.
    g, c = batch_instantiate(model, samples)
    result = _simulate_from_stacks(
        model, samples, g, c, waveform, t_final, num_steps,
        method=method, keep_states=keep_states, x0=x0,
    )
    # H(0) = L^T G^{-1} B: a real solve per instance.
    b, l_mat = _dense_ports(model)
    dc_gains = l_mat.T @ np.linalg.solve(g, np.broadcast_to(b, (g.shape[0],) + b.shape))
    # Steady output level under *this* stimulus: y_inf = H(0) u(t_final),
    # so thresholds track the drive's amplitude and end level.
    u_end = _sample_inputs(waveform, result.time[-1:], dc_gains.shape[2])[0]
    steady_states = dc_gains @ u_end
    return TransientStudy(
        plan=plan,
        waveform=waveform,
        result=result,
        dc_gains=dc_gains,
        steady_states=steady_states,
    )
