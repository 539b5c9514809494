"""Monte Carlo process-variation studies (Figs. 5-6 left plots).

The paper "independently var[ies] the three metal line widths up to
30% (3-sigma variations) of the nominal values according to the normal
distribution" and histograms the relative errors of the 5 most
dominant poles of the reduced parametric model against the perturbed
full model over all instances.  This module implements that protocol
for any full/reduced model pair.

Evaluation runs on the :class:`repro.runtime.engine.Study` engine: one
pole study per model routes the reduced side through the dense eig
kernel (bit-identical to :func:`~repro.analysis.poles.dominant_poles`)
and the full-model reference solves through the ``per-instance`` route,
one instance at a time in the chunk loop's thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.analysis.metrics import matched_pole_errors
from repro.runtime.engine import Study
from repro.runtime.store import NothingToResumeError, StudyStore


def sample_parameters(
    num_instances: int,
    num_parameters: int,
    three_sigma: float = 0.3,
    seed: int = 0,
    truncate: bool = True,
) -> np.ndarray:
    """Normal parameter samples with ``3 sigma = three_sigma``.

    Each parameter is drawn independently from
    ``N(0, (three_sigma/3)^2)``; with ``truncate`` (default) samples
    are clipped to ``+/- three_sigma``, matching the paper's "up to
    30%" phrasing (and keeping perturbed conductances positive for
    aggressive variations).
    """
    if num_instances < 1 or num_parameters < 1:
        raise ValueError("num_instances and num_parameters must be >= 1")
    rng = np.random.default_rng(seed)
    sigma = three_sigma / 3.0
    samples = rng.normal(0.0, sigma, size=(num_instances, num_parameters))
    if truncate:
        samples = np.clip(samples, -three_sigma, three_sigma)
    return samples


@dataclass
class MonteCarloResult:
    """Pole-error study over Monte Carlo parameter instances.

    ``pole_errors`` has shape ``(num_instances, num_poles)``: relative
    error of each matched dominant pole per instance (the population
    behind the paper's histograms).
    """

    samples: np.ndarray
    pole_errors: np.ndarray
    full_poles: np.ndarray
    reduced_poles: np.ndarray
    labels: dict = field(default_factory=dict)

    @property
    def num_instances(self) -> int:
        """Number of Monte Carlo instances."""
        return self.samples.shape[0]

    @property
    def max_error(self) -> float:
        """Worst relative pole error across all instances and poles."""
        return float(self.pole_errors.max())

    @property
    def total_poles(self) -> int:
        """Total pole comparisons (e.g. the paper's "1000 poles")."""
        return int(self.pole_errors.size)

    def histogram(self, bins: int = 20):
        """``numpy.histogram`` of all pole errors (in percent)."""
        return np.histogram(self.pole_errors.ravel() * 100.0, bins=bins)


def monte_carlo_pole_study(
    full_model,
    reduced_model,
    num_instances: int,
    num_poles: int = 5,
    three_sigma: float = 0.3,
    seed: int = 0,
    samples: Optional[Sequence[Sequence[float]]] = None,
    store=None,
    resume: bool = False,
    chunk_size: Optional[int] = None,
    trace=None,
    work: bool = False,
    ttl: float = 30.0,
    poll: float = 0.2,
    worker: Optional[str] = None,
) -> Optional[MonteCarloResult]:
    """Run the Figs. 5-6 protocol.

    The reduced model runs the dense eig kernel, one call per chunk
    (when it supports batching), and the full-model reference solves
    run one instance at a time.  Results are bit-identical to the
    per-sample ``match_poles`` loop for every chunking: each
    instance's computation is a pure function of its sample point.

    ``store`` (a directory or :class:`~repro.runtime.store.StudyStore`)
    makes the study durable: both pole studies checkpoint their chunks
    (``chunk_size`` instances per checkpoint unit) under one store, so
    an interrupted sign-off resumes (``resume=True``) bit-identically
    to a one-shot study, and ``work=True`` splits it across any number
    of processes or machines sharing the store.

    Parameters
    ----------
    full_model:
        The full :class:`~repro.circuits.variational.ParametricSystem`.
    reduced_model:
        The reduced parametric model to evaluate.
    num_instances:
        Monte Carlo instance count (ignored when ``samples`` given).
    num_poles:
        Dominant poles compared per instance (paper: 5).
    three_sigma:
        3-sigma range of the normal parameter distribution (paper: 0.3).
    seed:
        Sampling seed.
    samples:
        Optional explicit parameter samples overriding the generator.
    store, resume, chunk_size:
        Durable-study pass-through (see above); default: not durable.
        ``chunk_size`` also bounds how many reduced instances one
        dense kernel call holds, with or without a store.
    trace:
        Optional trace sink -- a path (JSONL file), an object with an
        ``emit(record)`` method, or a sequence of either -- applied to
        both internal studies via :meth:`Study.trace`, so one merged
        trace covers the full-model and reduced-model phases.
    work, ttl, poll, worker:
        ``work=True`` runs both pole studies through the lease-based
        work-stealing drain (:meth:`Study.work`) instead of
        :meth:`Study.run`: any number of processes given the same
        declaration and store cooperate until the sign-off drains
        (``ttl``/``poll``/``worker`` pass through to the scheduler).
        Requires ``store``; mutually exclusive with ``resume``.
        Every participating worker blocks until both
        sides drain and returns the same merged result, bit-identical
        to a one-shot run.
    """
    if num_poles < 1:
        raise ValueError(f"num_poles must be >= 1, got {num_poles}")
    if work:
        if store is None:
            raise ValueError("work=True requires store=...")
        if resume:
            raise ValueError(
                "work=True is mutually exclusive with resume: workers "
                "claim chunks dynamically"
            )
    if samples is None:
        samples = sample_parameters(
            num_instances, full_model.num_parameters, three_sigma=three_sigma, seed=seed
        )
    else:
        samples = np.atleast_2d(np.asarray(samples, dtype=float))

    if resume:
        if store is None:
            raise ValueError("resume=True requires store=...")
        store = store if isinstance(store, StudyStore) else StudyStore(store)
        if not list(store.directory.glob("manifest-*.json")):
            raise NothingToResumeError(
                f"nothing to resume: no study manifests in "
                f"{str(store.directory)!r}"
            )

    trace_sinks = () if trace is None else (
        trace if isinstance(trace, (list, tuple)) else (trace,)
    )

    def _durable(study: Study) -> Study:
        for sink in trace_sinks:
            study = study.trace(sink)
        if store is not None:
            study = study.store(store)
        if chunk_size is not None:
            study = study.chunk(chunk_size)
        if resume:
            study = study.resume()
        return study

    def _run_durable(study: Study):
        """Run one side of the sign-off durably.

        A crash can land between the two pole studies (the full-model
        phase runs first), so on a resumed sign-off the side that never
        reached its first checkpoint simply runs fresh against the
        store -- strictness for the sign-off as a whole is enforced by
        the manifest pre-check above.  Work-stealing mode drains each
        side cooperatively instead; every worker blocks until the side
        is complete, so both branches return a full merged study.
        """
        if work:
            return _durable(study).work(ttl=ttl, poll=poll, worker=worker)
        try:
            return _durable(study).run()
        except NothingToResumeError:
            return study.resume(False).run()

    # One engine study per side: the full model takes the
    # per-instance route (shared-pattern instantiation for sparse
    # systems) and never materializes (m, n, n) full-order stacks; the
    # reduced model routes through the dense eig kernel with a 2x pole
    # budget for matching.
    full_study = _run_durable(
        Study(full_model).scenarios(samples).poles(num_poles)
    )
    reduced_study = _run_durable(
        Study(reduced_model)
        .scenarios(samples)
        .poles(2 * num_poles)
    )
    full_results = full_study.pole_sets
    reduced_results = reduced_study.pole_sets
    pole_errors = np.empty((samples.shape[0], num_poles))
    full_poles = np.empty((samples.shape[0], num_poles), dtype=complex)
    reduced_poles = np.empty((samples.shape[0], num_poles), dtype=complex)
    for i, (full_p, reduced_p) in enumerate(zip(full_results, reduced_results)):
        errors, matched = matched_pole_errors(full_p, reduced_p)
        pole_errors[i] = errors
        full_poles[i] = full_p
        reduced_poles[i] = matched
    return MonteCarloResult(
        samples=samples,
        pole_errors=pole_errors,
        full_poles=full_poles,
        reduced_poles=reduced_poles,
        labels={"three_sigma": three_sigma, "num_poles": num_poles},
    )
