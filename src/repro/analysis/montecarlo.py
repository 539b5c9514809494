"""Monte Carlo process-variation studies (Figs. 5-6 left plots).

The paper "independently var[ies] the three metal line widths up to
30% (3-sigma variations) of the nominal values according to the normal
distribution" and histograms the relative errors of the 5 most
dominant poles of the reduced parametric model against the perturbed
full model over all instances.  This module implements that protocol
for any full/reduced model pair.

Evaluation runs on the :class:`repro.runtime.engine.Study` engine:
:func:`sign_off_studies` declares one pole study per model (the
reduced side through the dense eig kernel, bit-identical to
:func:`~repro.analysis.poles.dominant_poles`; the full-model reference
solves through the ``per-instance`` route) and :func:`sign_off_result`
folds their results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

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


def sign_off_studies(
    full_model,
    reduced_model,
    samples,
    num_poles: int,
    store=None,
    chunk_size: Optional[int] = None,
) -> Tuple[Study, Study]:
    """Declare the Figs. 5-6 sign-off pair over ``samples``.

    Returns ``(full, reduced)`` pole studies: the full model keeps
    ``num_poles`` poles per instance (per-instance route, never an
    ``(m, n, n)`` full-order stack), the reduced model ``2 * num_poles``
    to match against.  ``store`` and ``chunk_size`` are declared before
    anything is planned.  Every front end declares the pair here, so
    all of them land on the same study keys.
    """
    if num_poles < 1:
        raise ValueError(f"num_poles must be >= 1, got {num_poles}")
    studies = (
        Study(full_model).scenarios(samples).poles(num_poles),
        Study(reduced_model).scenarios(samples).poles(2 * num_poles),
    )
    for study in studies:
        if store is not None:
            study.store(store)
        if chunk_size is not None:
            study.chunk(chunk_size)
    return studies


def sign_off_result(full, reduced,
                    three_sigma: Optional[float] = None) -> MonteCarloResult:
    """Fold the :class:`~repro.runtime.engine.PoleStudy` results of
    :func:`sign_off_studies` into a :class:`MonteCarloResult` (each
    instance's full poles matched to its reduced ones); ``three_sigma``
    only labels it."""
    samples = full.samples
    num_poles = full.num_poles
    pole_errors = np.empty((samples.shape[0], num_poles))
    full_poles = np.empty((samples.shape[0], num_poles), dtype=complex)
    reduced_poles = np.empty((samples.shape[0], num_poles), dtype=complex)
    for i, (full_p, reduced_p) in enumerate(
            zip(full.pole_sets, reduced.pole_sets)):
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
) -> MonteCarloResult:
    """Run the Figs. 5-6 protocol.

    Runs both sides of :func:`sign_off_studies` in this process and
    folds them.  The reduced model runs the dense eig kernel, one call
    per chunk (when it supports batching), and the full-model reference
    solves run one instance at a time.  Results are bit-identical to the
    per-sample ``match_poles`` loop for every chunking: each instance's
    computation is a pure function of its sample point.

    ``store`` (a directory or :class:`~repro.runtime.store.StudyStore`)
    makes the study durable: both pole studies checkpoint their chunks
    (``chunk_size`` instances per checkpoint unit) under one store, so
    an interrupted sign-off resumes (``resume=True``) bit-identically
    to a one-shot study.  To split one across processes, drain each
    Study with :meth:`~repro.runtime.engine.Study.work` instead (as
    ``repro work montecarlo`` and the study service do).

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
    """
    if samples is None:
        samples = sample_parameters(
            num_instances, full_model.num_parameters, three_sigma=three_sigma, seed=seed
        )
    else:
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
    studies = sign_off_studies(
        full_model, reduced_model, samples, num_poles,
        store=store, chunk_size=chunk_size,
    )

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
    results = []
    for study in studies:
        for sink in trace_sinks:
            study.trace(sink)
        # A crash can land between the two pole studies (the full-model
        # phase runs first), so on a resumed sign-off the side that never
        # reached its first checkpoint simply runs fresh against the
        # store -- strictness for the sign-off as a whole is enforced by
        # the manifest pre-check above.
        try:
            results.append(study.resume(resume).run())
        except NothingToResumeError:
            results.append(study.resume(False).run())
    return sign_off_result(*results, three_sigma=three_sigma)
