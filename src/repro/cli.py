"""Command-line interface: netlist in, macromodel diagnostics out.

Usage (also via ``python -m repro``):

```
python -m repro info       netlist.sp
python -m repro reduce     netlist.sp --method lowrank --moments 4
python -m repro sweep      netlist.sp --fmin 1e7 --fmax 1e10 --points 30
python -m repro poles      netlist.sp --num 5
python -m repro montecarlo netlist.sp --instances 200 --poles 5
python -m repro batch      netlist.sp --plan corners --points 30
python -m repro transient  netlist.sp --plan corners --waveform ramp --rise-time 2e-10
python -m repro batch      netlist.sp --chunk 8 --store run1
python -m repro batch      netlist.sp --chunk 8 --store run1 --resume
python -m repro batch      netlist.sp --chunk 8 --trace run1.trace --progress
python -m repro work batch netlist.sp --chunk 8 --store run1 --worker-id w1
python -m repro trace summarize run1.trace
python -m repro serve run1 --port 8787 --memory-budget 100000000 --warehouse wh
python -m repro submit http://127.0.0.1:8787 job.json --watch
python -m repro jobs http://127.0.0.1:8787
python -m repro query ingest wh run1
python -m repro query percentile wh --metric delay --q 99
python -m repro query outliers wh --metric delay -k 5
```

The ``info``/``reduce``/``sweep``/``poles`` commands operate on plain
(non-parametric) netlists.  ``montecarlo``, ``batch``, and
``transient`` attach random variational directions to the netlist (the
paper's Section 5.1/5.2 construction,
:func:`repro.circuits.generators.with_random_variations`) and drive
the :mod:`repro.runtime` serving layer through its declarative
``Study`` engine: the planner inspects the workload and routes to the
optimal kernel (batched, streamed, sparse shared-pattern), with a
manual chunk size (``--chunk N``), an automatic one derived from a
peak-memory bound (``--memory-budget BYTES``), and an optional
content-addressed model cache (``--cache DIR``).  They declare through
:mod:`repro.serve.protocol`, the path a served job takes: the flags
become a :class:`~repro.serve.protocol.JobSpec` (built here, not by
``parse_job``, so the server's document caps do not apply and bad
``--spread``, ``--poles``, ``--bins`` and sweep-band flags are refused
by name), :func:`~repro.serve.protocol.realize` parses, stamps,
reduces and declares, and this module applies ``--memory-budget``,
``--resume``, ``--trace`` and ``--progress`` to the declared Study and
prints the report.  ``montecarlo`` takes
:func:`~repro.serve.protocol.realize_system`'s pair to
:func:`~repro.analysis.montecarlo.monte_carlo_pole_study`.  A refusal
raised while realizing or declaring reads as the server's 400.
All three study commands are durable on request: ``--store DIR``
checkpoints every chunk to a :class:`~repro.runtime.store.StudyStore`,
and ``--resume`` requires and reuses existing checkpoints --
bit-identically to a one-shot run.
``work {batch,transient,montecarlo}`` splits one study
across processes or machines: every worker gets the identical study
declaration plus the same ``--store DIR`` and claims chunks through
lease files (:mod:`repro.runtime.scheduler`); dead workers' leases
expire after ``--ttl`` and are stolen, and each surviving worker
prints the merged result once the store drains -- bit-identical to a
one-shot run.  Store misuse (bad worker id or ttl/poll value,
missing/corrupt manifest, unwritable store directory) exits with
code 2 and a one-line diagnostic.
All three study commands are observable on request: ``--trace FILE``
appends a JSONL span trace (``repro-trace/v1``) of the run, and
``--progress`` prints a uniform chunk progress line to stderr (both
built on :mod:`repro.obs`; setting the ``REPRO_TRACE`` environment
variable traces any command process-wide).  ``trace summarize``
renders one or more trace files as a human report.
``montecarlo``
routes its sparse full models through the shared-pattern runtime, one
reference solve per instance.  ``transient``
simulates the whole scenario ensemble through the batched time-domain
kernels and prints the waveform envelope plus a threshold-delay
summary.
``serve`` runs the :mod:`repro.serve` study service over a store;
``submit`` posts a JSON job document (the same declaration schema as
the study commands, fully defaulted) and prints the canonical result
bytes, and ``jobs`` lists a service's jobs.  An identical
re-submission -- even from a different client -- is served from the
content-addressed result index without recomputation.
``query`` is the warehouse tier (:mod:`repro.warehouse`): ``query
ingest`` registers a store's studies in a warehouse catalog (copying
no rows; a re-registration that adds nothing writes nothing, one from
another store -- say the study's store moved -- re-points its record), and
``query studies`` / ``yield`` / ``percentile`` / ``outliers`` run
exact aggregations read in place from the registered stores, one
SHA-256-verified chunk archive at a time, in dataset order (study
key16, then chunk).  Queries never write.  Warehouse misuse (no
catalog, a corrupt or missing chunk archive, an over-budget chunk, an
older release's ``shard=*/chunk=*`` partitions, negative ``-k``) exits
2 with a one-line diagnostic, like any store error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np

from repro import __version__
from repro.analysis.passivity import passivity_report
from repro.runtime.store import StoreError
from repro.baselines.prima import prima
from repro.baselines.rational_arnoldi import logspaced_shifts, rational_arnoldi
from repro.baselines.tbr import tbr
from repro.circuits.mna import assemble
from repro.circuits.parser import parse_netlist


def _load_system(path: str):
    with open(path) as handle:
        netlist = parse_netlist(handle.read(), title=path)
    return netlist, assemble(netlist)


def _cmd_info(args) -> int:
    netlist, system = _load_system(args.netlist)
    stats = netlist.stats()
    print(f"title:        {netlist.title}")
    for key in ("nodes", "states", "resistors", "capacitors", "inductors",
                "mutuals", "ports", "sources", "observations"):
        print(f"{key + ':':13s} {stats[key]}")
    print(f"inputs:       {', '.join(system.input_names)}")
    print(f"outputs:      {', '.join(system.output_names)}")
    margin = system.passivity_structure_margin()
    print(f"passivity-structure margin: {margin:.3e}")
    return 0


def _reduce_system(system, args):
    if args.method == "prima":
        return prima(system, args.moments, expansion_point=args.shift)[0]
    if args.method == "rational":
        shifts = logspaced_shifts(args.fmin, args.fmax, args.shifts)
        return rational_arnoldi(system, shifts, args.moments)[0]
    if args.method == "tbr":
        return tbr(system, args.order)[0]
    raise ValueError(f"unknown method {args.method!r}")


def _cmd_reduce(args) -> int:
    _, system = _load_system(args.netlist)
    reduced = _reduce_system(system, args)
    print(f"full order:    {system.order}")
    print(f"reduced order: {reduced.order}  (method: {args.method})")
    frequencies = np.logspace(np.log10(args.fmin), np.log10(args.fmax), args.points)
    full = system.frequency_response(frequencies)
    approx = reduced.frequency_response(frequencies)
    scale = np.abs(full).max()
    worst = np.abs(full - approx).max() / scale if scale else 0.0
    print(f"worst relative response error over "
          f"[{args.fmin:.3g}, {args.fmax:.3g}] Hz: {worst:.3e}")
    if system.is_symmetric_port_form():
        report = passivity_report(reduced, frequencies=frequencies)
        print(f"reduced model structurally passive: {report.is_structurally_passive}")
    return 0 if worst < args.tolerance else 2


def _cmd_sweep(args) -> int:
    _, system = _load_system(args.netlist)
    frequencies = np.logspace(np.log10(args.fmin), np.log10(args.fmax), args.points)
    response = system.frequency_response(frequencies)
    out_index = args.output
    in_index = args.input
    print("frequency_hz,magnitude,phase_deg")
    for i, f in enumerate(frequencies):
        h = response[i, out_index, in_index]
        print(f"{f:.6e},{abs(h):.6e},{np.degrees(np.angle(h)):.4f}")
    return 0


def _cmd_poles(args) -> int:
    from repro.analysis.poles import dominant_poles

    _, system = _load_system(args.netlist)
    poles = dominant_poles(system, args.num)
    print("pole_real,pole_imag,frequency_hz")
    for pole in poles:
        print(f"{pole.real:.6e},{pole.imag:.6e},{abs(pole) / (2 * np.pi):.6e}")
    return 0


#: The flags that declare each ``--plan``, by
#: :func:`~repro.serve.protocol.build_plan` keyword.
_PLAN_FLAGS = {
    "montecarlo": {"instances": "instances", "sigma": "sigma", "seed": "seed"},
    "corners": {"magnitude": "magnitude"},
    "grid": {"magnitude": "magnitude", "points": "grid_points"},
}


def _job_spec(args, workload_kind: str, workload_options: dict):
    """The :class:`~repro.serve.protocol.JobSpec` a study command's
    flags declare.

    Built from the flags, not through ``parse_job``: the CLI takes on
    none of the server's document caps.  A ``--spread`` out of range,
    or one the plan's excursions can scale an element value to zero
    with, is refused by the flag's name before the netlist is read.
    """
    from repro.serve.protocol import (MAX_SPREAD, JobSpec,
                                      element_factor_floor, plan_excursion)

    plan_kind = getattr(args, "plan", "montecarlo")
    plan_options = {name: getattr(args, flag)
                    for name, flag in _PLAN_FLAGS[plan_kind].items()}
    if not 0.0 <= args.spread <= MAX_SPREAD:
        raise ValueError(f"--spread must be between 0 and {MAX_SPREAD:g}")
    excursion = abs(plan_excursion(plan_kind, plan_options))
    floor = element_factor_floor(args.spread, args.parameters, excursion)
    if floor <= 0:
        raise ValueError(
            f"--spread {args.spread:g} with --parameters {args.parameters} "
            f"and excursions up to {excursion:g} can scale an element value "
            f"by {floor:g} (spread * parameters * excursion must stay below 1)"
        )
    with open(args.netlist) as handle:
        netlist = handle.read()
    return JobSpec(
        netlist=netlist, parameters=args.parameters, spread=args.spread,
        variation_seed=args.variation_seed, moments=args.moments,
        rank=args.rank, plan_kind=plan_kind, plan_options=plan_options,
        workload_kind=workload_kind, workload_options=workload_options,
        chunk=args.chunk, workers=1,
    )


def _sweep_options(args) -> dict:
    """The sweep ``batch`` declares; an empty, inverted or non-positive
    band is refused by flag name."""
    if not (math.isfinite(args.fmin) and args.fmin > 0):
        raise ValueError("--fmin must be a finite number > 0")
    if not (math.isfinite(args.fmax) and args.fmax >= args.fmin):
        raise ValueError("--fmax must be a finite number >= --fmin")
    if args.points < 1:
        raise ValueError("--points must be an integer >= 1")
    return {"fmin": args.fmin, "fmax": args.fmax, "points": args.points,
            "output": args.output, "input": args.input}


def _parse_pwl(text: str):
    """``t1:v1,t2:v2,...`` -> PWL breakpoint tuples."""
    points = []
    for chunk in text.split(","):
        try:
            t_str, v_str = chunk.split(":")
            points.append((float(t_str), float(v_str)))
        except ValueError:
            raise ValueError(
                f"bad PWL point {chunk!r}: expected time:value (e.g. 1e-10:0.5)"
            ) from None
    return tuple(points)


def _transient_options(args) -> dict:
    """The transient ``transient`` declares; ``--input`` names the
    port its waveform drives."""
    waveform = {"kind": args.waveform, "amplitude": args.amplitude,
                "rise_time": args.rise_time, "frequency": args.frequency,
                "points": _parse_pwl(args.pwl), "input": args.input}
    return {"waveform": waveform, "t_final": args.t_final,
            "steps": args.steps, "method": args.method,
            "threshold": args.threshold,
            "delay_reference": args.delay_reference,
            "output": args.output, "input": args.input}


def _model_cache(args):
    """The ``--cache`` :class:`~repro.runtime.ModelCache`, if given."""
    from repro.runtime import ModelCache

    return ModelCache(args.cache) if args.cache else None


def _print_cache_status(cache) -> None:
    """The ``# cache: hit|miss`` line of a ``--cache`` run."""
    if cache is not None:
        print(f"# cache: {'hit' if cache.hits else 'miss'}")


def _realize(args, spec, store=None):
    """:func:`~repro.serve.protocol.realize` ``spec`` through ``--cache``
    with ``store`` attached -- the path a served job takes."""
    from repro.serve.protocol import realize

    cache = _model_cache(args)
    job = realize(spec, cache, store=store)
    _print_cache_status(cache)
    return job


def _obs_sinks(args, label):
    """Realize ``--trace`` / ``--progress`` as ``Study.trace`` sinks.

    Paths stay paths (the engine opens and closes the JSONL sink per
    run, which keeps one file valid across montecarlo's back-to-back
    studies); ``--progress`` becomes a reporter writing to stderr so
    CSV output on stdout stays clean.
    """
    sinks = []
    if args.trace:
        sinks.append(args.trace)
    if args.progress:
        from repro.obs import ProgressReporter

        sinks.append(ProgressReporter(label=label))
    return sinks


def _declare(args, label: str):
    """``(model, study)``: the one Study ``batch`` or ``transient``
    (``label``) declares, with ``--store`` attached and
    ``--memory-budget``, ``--resume``, ``--trace`` and ``--progress``
    applied.  ``--chunk`` is the manual override: when both are given
    the explicit chunk size wins and the budget is ignored."""
    if label == "batch":
        workload = ("sweep", _sweep_options(args))
    else:
        workload = ("transient", _transient_options(args))
    job = _realize(args, _job_spec(args, *workload), store=args.store)
    study = job.studies["study"]
    if args.chunk is None and args.memory_budget is not None:
        study.memory_budget(args.memory_budget)
    if args.resume:
        study.resume()
    for sink in _obs_sinks(args, label):
        study.trace(sink)
    return job.model, study


def _print_montecarlo_study(args, parametric, model, study) -> int:
    """Report a finished Monte Carlo study; shared with ``work``."""
    print(f"full order:     {parametric.order}")
    print(f"reduced order:  {model.size}")
    print(f"parameters:     {parametric.num_parameters}")
    print(f"instances:      {study.num_instances}")
    print(f"pole compares:  {study.total_poles}")
    print(f"max pole error: {study.max_error:.6e}")
    print(f"mean pole error:{study.pole_errors.mean():.6e}")
    counts, edges = study.histogram(bins=args.bins)
    print("bin_lo_pct,bin_hi_pct,count")
    for i, count in enumerate(counts):
        print(f"{edges[i]:.6e},{edges[i + 1]:.6e},{int(count)}")
    return 0 if study.max_error < args.tolerance else 2


def _montecarlo_spec(args):
    """The Monte Carlo sign-off a ``montecarlo`` command declares;
    ``--poles`` or ``--bins`` < 1 is refused in one exit-2 line first."""
    from repro.runtime.store import parse_positive

    parse_positive(args.poles, "--poles", kind=int)
    parse_positive(args.bins, "--bins", kind=int)
    return _job_spec(args, "montecarlo", {"poles": args.poles,
                                          "bins": args.bins})


def _cmd_montecarlo(args) -> int:
    from repro.analysis.montecarlo import monte_carlo_pole_study
    from repro.serve.protocol import realize_system

    _require_store_for_resume(args)
    spec = _montecarlo_spec(args)
    cache = _model_cache(args)
    parametric, model = realize_system(spec, cache)
    _print_cache_status(cache)
    study = monte_carlo_pole_study(
        parametric,
        model,
        num_instances=args.instances,
        num_poles=args.poles,
        three_sigma=args.sigma,
        seed=args.seed,
        store=args.store or None,
        resume=args.resume,
        chunk_size=args.chunk,
        trace=_obs_sinks(args, "montecarlo") or None,
    )
    banner = _store_banner(args)
    if banner:
        print(banner)
    return _print_montecarlo_study(args, parametric, model, study)


def _require_store_for_resume(args) -> None:
    """``--resume`` without ``--store`` is a one-line exit-2 error."""
    if args.resume and not args.store:
        raise StoreError("--resume requires --store DIR")


def _store_banner(args) -> Optional[str]:
    """The ``# store:`` line a durable study command prints."""
    if not args.store:
        return None
    line = f"# store: {args.store}"
    if args.resume:
        line += "  (resumed)"
    return line


def _print_route(execution) -> None:
    print(f"# route: {execution.route} [{execution.kernel}]  "
          f"peak: ~{execution.estimated_peak_bytes / 2**20:.1f} MiB")


def _print_batch_study(args, model, execution, study) -> int:
    """Envelope CSV + headers for a finished batch study."""
    low, mean, high = study.magnitude_envelope(
        output_index=args.output, input_index=args.input
    )
    print(f"# plan: {study.plan!r}")
    _print_route(execution)
    banner = _store_banner(args)
    if banner:
        print(banner)
    print(f"# instances: {study.num_samples}  reduced order: {model.size}  "
          f"chunks: {study.num_chunks}")
    print("frequency_hz,min_magnitude,mean_magnitude,max_magnitude")
    for i, f in enumerate(study.frequencies):
        print(f"{f:.6e},{low[i]:.6e},{mean[i]:.6e},{high[i]:.6e}")
    return 0


def _print_transient_study(args, model, execution, study) -> int:
    """Envelope CSV + delay summary for a finished transient study."""
    print(f"# plan: {study.plan!r}")
    _print_route(execution)
    banner = _store_banner(args)
    if banner:
        print(banner)
    print(f"# waveform: {study.waveform!r}")
    print(f"# instances: {study.num_samples}  reduced order: {model.size}  "
          f"steps: {args.steps}  method: {args.method}  "
          f"chunks: {study.num_chunks}")
    delays = study.delays
    crossed = delays[~np.isnan(delays)]
    label = f"# delay({args.threshold * 100:.0f}% of {args.delay_reference})"
    if crossed.size:
        print(f"{label}: "
              f"min={crossed.min():.6e}  mean={crossed.mean():.6e}  "
              f"max={crossed.max():.6e}  ({crossed.size}/{delays.size} crossed)")
    elif (args.delay_reference == "steady"
          and not study.steady_states[:, args.output].any()):
        print(f"{label}: undefined -- the stimulus settles to zero; "
              "use --delay-reference peak for pulse-like waveforms")
    else:
        print(f"{label}: no instance crossed inside the horizon")
    low, mean, high = study.output_envelope(output_index=args.output)
    print("time_s,min_output,mean_output,max_output")
    for j, t in enumerate(study.time):
        print(f"{t:.6e},{low[j]:.6e},{mean[j]:.6e},{high[j]:.6e}")
    return 0


_PRINTERS = {"batch": _print_batch_study, "transient": _print_transient_study}


def _cmd_study(args) -> int:
    """``batch`` / ``transient``: declare, plan, run, report."""
    _require_store_for_resume(args)
    model, study = _declare(args, args.command)
    execution = study.plan()
    return _PRINTERS[args.command](args, model, execution, study.run())


def _work_options(args):
    """Validated ``(ttl, poll, worker, max_chunks)`` for a work command.

    All four arrive as raw strings so malformed values take the
    :class:`StoreError` exit-2 one-liner path, not an argparse usage
    dump or a traceback.
    """
    from repro.runtime import parse_worker_id
    from repro.runtime.store import parse_positive

    ttl = parse_positive(args.ttl, "--ttl")
    poll = parse_positive(args.poll, "--poll")
    worker = parse_worker_id(args.worker_id) if args.worker_id else None
    max_chunks = (
        parse_positive(args.max_chunks, "--max-chunks", kind=int)
        if getattr(args, "max_chunks", None) is not None
        else None
    )
    return ttl, poll, worker, max_chunks


#: Exit status for a worker that contributed chunks but left before the
#: study drained (``--max-chunks``).  Distinct from success (0) and the
#: declaration/store error codes (1/2) so orchestration scripts can
#: tell "done, result printed" from "partial shift, relaunch me".
EXIT_WORK_INCOMPLETE = 3


def _print_drain_report(study, worker, drained: bool) -> None:
    """One ``# worker:`` line summarizing what this process drained."""
    report = study.drain_report()
    print(f"# worker: {worker or 'auto'}  computed: {len(report.computed)} "
          f"chunk(s)  stolen: {len(report.stolen)}  waits: {report.waits}  "
          f"drained: {'yes' if drained else 'no'}")


def _cmd_work_study(args) -> int:
    """``work batch`` / ``work transient``: drain the shared store."""
    ttl, poll, worker, max_chunks = _work_options(args)
    model, study = _declare(args, args.work_command)
    execution = study.plan()
    result = study.work(ttl=ttl, poll=poll, worker=worker,
                        max_chunks=max_chunks)
    _print_drain_report(study, worker, drained=result is not None)
    if result is None:
        print("# stopped at --max-chunks before the study drained; "
              "contributed and exited -- no merged result")
        return EXIT_WORK_INCOMPLETE
    return _PRINTERS[args.work_command](args, model, execution, result)


def _cmd_work_montecarlo(args) -> int:
    from repro.analysis.montecarlo import sign_off_result

    ttl, poll, worker, _ = _work_options(args)
    job = _realize(args, _montecarlo_spec(args), store=args.store)
    sinks = _obs_sinks(args, "montecarlo")
    results = []
    for study in job.studies.values():
        for sink in sinks:
            study.trace(sink)
        results.append(study.work(ttl=ttl, poll=poll, worker=worker))
    print(f"# store: {args.store}  worker: {worker or 'auto'}")
    return _print_montecarlo_study(
        args, job.parametric, job.model,
        sign_off_result(*results, three_sigma=args.sigma),
    )


def _cmd_trace_summarize(args) -> int:
    from repro.obs import read_trace, summarize_trace

    records = []
    for path in args.trace_file:
        records.extend(read_trace(path))
    print(summarize_trace(records))
    return 0


def _cmd_serve(args) -> int:
    from repro.serve.server import run as serve_run

    serve_run(
        args.store, host=args.host, port=args.port,
        memory_budget=args.memory_budget, pool_size=args.pool_size,
        model_cache=_model_cache(args), ttl=args.ttl, poll=args.poll,
        warehouse=args.warehouse,
    )
    return 0


def _cmd_submit(args) -> int:
    import json

    from repro.serve.client import ServeClient, ServeClientError

    if args.jobfile == "-":
        payload = sys.stdin.read()
    else:
        with open(args.jobfile) as handle:
            payload = handle.read()
    with ServeClient(args.url, timeout=args.timeout) as client:
        try:
            job = client.submit(json.loads(payload))
        except ServeClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if exc.status == 413 and "peak_bytes" in exc.body:
                print(f"# planned peak: {exc.body['peak_bytes']} bytes  "
                      f"budget: {exc.body['memory_budget']} bytes",
                      file=sys.stderr)
            return 1
        print(f"# job: {job['id']}  state: {job['state']}  "
              f"cached: {'yes' if job['cached'] else 'no'}", file=sys.stderr)
        if args.no_wait:
            print(json.dumps(job, sort_keys=True, indent=1))
            return 0
        if args.watch and not job["cached"]:
            for event in client.events(job["id"]):
                print(json.dumps(event, sort_keys=True), file=sys.stderr)
        final = client.wait(job["id"], timeout=args.timeout)
        if final["state"] != "done":
            print(f"error: job {job['id']} {final['state']}: "
                  f"{final['error']}", file=sys.stderr)
            return 1
        sys.stdout.write(client.result_bytes(job["id"]).decode())
    sys.stdout.write("\n")
    return 0


def _cmd_jobs(args) -> int:
    import json

    from repro.serve.client import ServeClient, ServeClientError

    try:
        with ServeClient(args.url) as client:
            if args.job:
                print(json.dumps(client.job(args.job), sort_keys=True,
                                 indent=1))
                return 0
            jobs = client.jobs()
        for job in jobs:
            cached = " (cached)" if job["cached"] else ""
            print(f"{job['id']}  {job['state']}{cached}")
        if not jobs:
            print("# no jobs")
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _query_engine(args):
    from repro.warehouse import QueryEngine

    return QueryEngine(args.warehouse, memory_budget=args.memory_budget)


def _cmd_query_ingest(args) -> int:
    from repro.warehouse import Warehouse

    report = Warehouse(args.warehouse).register(args.store, key=args.key)
    print(f"# warehouse: {args.warehouse}")
    print(f"studies: {', '.join(report.studies)}")
    print(f"chunks:  {report.chunks} registered")
    print(f"catalog: {len(report.written)} written, "
          f"{len(report.studies) - len(report.written)} unchanged")
    return 0


def _cmd_query_studies(args) -> int:
    studies = _query_engine(args).studies()
    for record in studies:
        layout = record.get("layout") or {}
        print(f"{record['key16']}  workload: {record.get('workload')}  "
              f"samples: {layout.get('num_samples')}  "
              f"chunks: {layout.get('num_chunks')}")
    if not studies:
        print("# no studies")
    return 0


def _cmd_query_yield(args) -> int:
    import json

    result = _query_engine(args).yield_fraction(
        args.metric, args.limit, study=args.study, table=args.table
    )
    print(json.dumps(result, sort_keys=True, indent=1))
    return 0


def _cmd_query_percentile(args) -> int:
    import json

    result = _query_engine(args).percentile(
        args.metric, args.q, study=args.study, table=args.table
    )
    print(json.dumps(result, sort_keys=True, indent=1))
    return 0


def _cmd_query_outliers(args) -> int:
    import json

    rows = _query_engine(args).outliers(
        args.metric, k=args.k, study=args.study,
        largest=not args.smallest, table=args.table,
    )
    print(json.dumps(rows, sort_keys=True, indent=1))
    return 0


def _add_plan_arguments(subparser) -> None:
    """Shared scenario-plan options for the batched study commands."""
    subparser.add_argument("--plan", choices=("montecarlo", "corners", "grid"),
                           default="montecarlo")
    subparser.add_argument("--instances", type=int, default=100,
                           help="Monte Carlo plan instance count")
    subparser.add_argument("--magnitude", type=float, default=0.3,
                           help="corner/grid parameter excursion")
    subparser.add_argument("--grid-points", type=int, default=3,
                           help="grid plan points per axis")
    subparser.add_argument("--sigma", type=float, default=0.3)
    subparser.add_argument("--seed", type=int, default=0)
    subparser.add_argument("--chunk", type=int, default=None,
                           help="streaming chunk size (instances per batch; "
                                "bounds peak memory, default: one chunk; "
                                "overrides --memory-budget)")
    subparser.add_argument("--memory-budget", type=int, default=None,
                           help="peak-memory bound in bytes; the chunk size "
                                "is derived from the documented per-chunk "
                                "estimates (errors out with the estimate when "
                                "one instance cannot fit)")


def _add_store_arguments(subparser) -> None:
    """Durable-study options shared by montecarlo/batch/transient."""
    subparser.add_argument("--store", default=None, metavar="DIR",
                           help="durable study store: every chunk is "
                                "checkpointed to DIR (npz archives + a JSON "
                                "manifest keyed by content fingerprints)")
    subparser.add_argument("--resume", action="store_true",
                           help="require and reuse checkpoints from --store "
                                "(skips completed chunks bit-identically; "
                                "errors when there is nothing to resume)")


def _add_obs_arguments(subparser) -> None:
    """Observability options shared by montecarlo/batch/transient."""
    subparser.add_argument("--trace", default=None, metavar="FILE",
                           help="append a JSONL span trace (repro-trace/v1) "
                                "of the run to FILE (summarize with "
                                "'repro trace summarize FILE')")
    subparser.add_argument("--progress", action="store_true",
                           help="print a chunk progress line to stderr "
                                "(chunks done/total, instances/s)")


def _add_parametric_arguments(subparser) -> None:
    """Shared options for commands that build a parametric workload."""
    subparser.add_argument("netlist")
    subparser.add_argument("--parameters", type=int, default=2,
                           help="number of random variational sources")
    subparser.add_argument("--spread", type=float, default=0.5,
                           help="per-element variation spread")
    subparser.add_argument("--variation-seed", type=int, default=0,
                           help="seed for the variational directions")
    subparser.add_argument("--moments", type=int, default=4,
                           help="low-rank reduction moment order")
    subparser.add_argument("--rank", type=int, default=1,
                           help="low-rank reduction rank")
    subparser.add_argument("--cache", default=None,
                           help="content-addressed macromodel cache directory")


def _add_montecarlo_arguments(subparser) -> None:
    """The montecarlo study declaration (shared with ``work``)."""
    _add_parametric_arguments(subparser)
    _add_obs_arguments(subparser)
    subparser.add_argument("--chunk", type=int, default=None,
                           help="instances per pole-study chunk: bounds the "
                                "stacked instantiation and is the "
                                "checkpoint unit for --store")
    subparser.add_argument("--instances", type=int, default=200)
    subparser.add_argument("--poles", type=int, default=5,
                           help="dominant poles compared per instance")
    subparser.add_argument("--sigma", type=float, default=0.3,
                           help="3-sigma range of the parameter distribution")
    subparser.add_argument("--seed", type=int, default=0, help="sampling seed")
    subparser.add_argument("--bins", type=int, default=10, help="histogram bins")
    subparser.add_argument("--tolerance", type=float, default=1e-2,
                           help="exit nonzero if the worst pole error exceeds this")


def _add_batch_arguments(subparser) -> None:
    """The batch study declaration (shared with ``work``)."""
    _add_parametric_arguments(subparser)
    _add_plan_arguments(subparser)
    _add_obs_arguments(subparser)
    subparser.add_argument("--fmin", type=float, default=1e7)
    subparser.add_argument("--fmax", type=float, default=1e10)
    subparser.add_argument("--points", type=int, default=30)
    subparser.add_argument("--output", type=int, default=0)
    subparser.add_argument("--input", type=int, default=0)


def _add_transient_arguments(subparser) -> None:
    """The transient study declaration (shared with ``work``)."""
    _add_parametric_arguments(subparser)
    _add_plan_arguments(subparser)
    _add_obs_arguments(subparser)
    subparser.add_argument("--waveform", choices=("step", "ramp", "pwl", "sine"),
                           default="step", help="input stimulus plan")
    subparser.add_argument("--amplitude", type=float, default=1.0,
                           help="stimulus amplitude")
    subparser.add_argument("--rise-time", type=float, default=1e-10,
                           help="ramp waveform rise time (seconds)")
    subparser.add_argument("--frequency", type=float, default=1e9,
                           help="sine waveform frequency (Hz)")
    subparser.add_argument("--pwl", default="0:0,1e-9:1",
                           help="PWL breakpoints as t1:v1,t2:v2,...")
    subparser.add_argument("--t-final", type=float, default=None,
                           help="horizon (default: 8 nominal time constants)")
    subparser.add_argument("--steps", type=int, default=200,
                           help="number of timesteps")
    subparser.add_argument("--method",
                           choices=("trapezoidal", "backward_euler"),
                           default="trapezoidal")
    subparser.add_argument("--threshold", type=float, default=0.5,
                           help="delay threshold (fraction of the reference level)")
    subparser.add_argument("--delay-reference", choices=("steady", "peak"),
                           default="steady",
                           help="100%% level: DC steady state (settling "
                                "stimuli) or per-instance peak (pulses)")
    subparser.add_argument("--output", type=int, default=0)
    subparser.add_argument("--input", type=int, default=0)


def _add_work_arguments(subparser, max_chunks: bool = True) -> None:
    """Lease-scheduler options for the ``work`` subcommands.

    Numeric values stay strings here; the handlers validate them with
    :func:`~repro.runtime.store.parse_positive` so misuse exits 2 with
    a one-line diagnostic.  ``--resume`` does not exist in work mode
    (chunks are claimed dynamically) but downstream helpers read it, so
    it is pinned to its inert default.
    """
    subparser.add_argument("--store", required=True, metavar="DIR",
                           help="shared study store to drain; every worker "
                                "must be given the same declaration and DIR")
    subparser.add_argument("--ttl", default="30", metavar="SECONDS",
                           help="lease time-to-live: an untouched claim older "
                                "than this is presumed dead and stolen "
                                "(heartbeats refresh it at TTL/4)")
    subparser.add_argument("--poll", default="0.2", metavar="SECONDS",
                           help="idle re-scan interval while other workers "
                                "hold the remaining chunks")
    subparser.add_argument("--worker-id", default=None, metavar="ID",
                           help="stable worker name for manifests and chunk "
                                "files (default: host-pid-random)")
    if max_chunks:
        subparser.add_argument("--max-chunks", default=None, metavar="N",
                               help="exit after claiming N chunks, leaving "
                                    "the rest to other workers (no merged "
                                    "result unless the store drained)")
    subparser.set_defaults(resume=False)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interconnect MOR toolkit (DATE 2005 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="netlist statistics")
    info.add_argument("netlist")
    info.set_defaults(func=_cmd_info)

    reduce_cmd = commands.add_parser("reduce", help="reduce and validate")
    reduce_cmd.add_argument("netlist")
    reduce_cmd.add_argument("--method", choices=("prima", "rational", "tbr"),
                            default="prima")
    reduce_cmd.add_argument("--moments", type=int, default=8,
                            help="block moments (prima/rational)")
    reduce_cmd.add_argument("--order", type=int, default=10, help="TBR order")
    reduce_cmd.add_argument("--shift", type=float, default=0.0,
                            help="PRIMA expansion point (rad/s)")
    reduce_cmd.add_argument("--shifts", type=int, default=3,
                            help="number of rational-Arnoldi shifts")
    reduce_cmd.add_argument("--fmin", type=float, default=1e7)
    reduce_cmd.add_argument("--fmax", type=float, default=1e10)
    reduce_cmd.add_argument("--points", type=int, default=25)
    reduce_cmd.add_argument("--tolerance", type=float, default=1e-2,
                            help="exit nonzero if the error exceeds this")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    sweep_cmd = commands.add_parser("sweep", help="frequency response CSV")
    sweep_cmd.add_argument("netlist")
    sweep_cmd.add_argument("--fmin", type=float, default=1e7)
    sweep_cmd.add_argument("--fmax", type=float, default=1e10)
    sweep_cmd.add_argument("--points", type=int, default=30)
    sweep_cmd.add_argument("--output", type=int, default=0)
    sweep_cmd.add_argument("--input", type=int, default=0)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    poles_cmd = commands.add_parser("poles", help="dominant poles CSV")
    poles_cmd.add_argument("netlist")
    poles_cmd.add_argument("--num", type=int, default=5)
    poles_cmd.set_defaults(func=_cmd_poles)

    mc_cmd = commands.add_parser(
        "montecarlo", help="Monte Carlo pole-accuracy study (batched runtime)"
    )
    _add_montecarlo_arguments(mc_cmd)
    _add_store_arguments(mc_cmd)
    mc_cmd.set_defaults(func=_cmd_montecarlo)

    batch_cmd = commands.add_parser(
        "batch", help="batched scenario frequency-envelope CSV"
    )
    _add_batch_arguments(batch_cmd)
    _add_store_arguments(batch_cmd)
    batch_cmd.set_defaults(func=_cmd_study)

    transient_cmd = commands.add_parser(
        "transient", help="batched time-domain scenario-envelope CSV"
    )
    _add_transient_arguments(transient_cmd)
    _add_store_arguments(transient_cmd)
    transient_cmd.set_defaults(func=_cmd_study)

    work_cmd = commands.add_parser(
        "work",
        help="lease-based worker: cooperatively drain a shared --store",
        description="Run one work-stealing worker for a study. Every "
                    "worker gets the identical study declaration plus the "
                    "same --store DIR; chunks are claimed through lease "
                    "files, dead workers' leases expire and are stolen, "
                    "and each worker prints the merged result once the "
                    "store drains (bit-identical to a one-shot run).",
    )
    work_actions = work_cmd.add_subparsers(dest="work_command", required=True)

    work_batch = work_actions.add_parser(
        "batch", help="drain a batch frequency-envelope study"
    )
    _add_batch_arguments(work_batch)
    _add_work_arguments(work_batch)
    work_batch.set_defaults(func=_cmd_work_study)

    work_transient = work_actions.add_parser(
        "transient", help="drain a transient scenario-envelope study"
    )
    _add_transient_arguments(work_transient)
    _add_work_arguments(work_transient)
    work_transient.set_defaults(func=_cmd_work_study)

    work_mc = work_actions.add_parser(
        "montecarlo", help="drain a Monte Carlo pole-accuracy sign-off"
    )
    _add_montecarlo_arguments(work_mc)
    _add_work_arguments(work_mc, max_chunks=False)
    work_mc.set_defaults(func=_cmd_work_montecarlo)

    serve_cmd = commands.add_parser(
        "serve",
        help="run the async study service (HTTP job queue over a store)",
        description="Serve studies over HTTP: POST job documents to "
                    "/jobs, stream NDJSON progress from /jobs/{id}/events, "
                    "fetch canonical result bytes from /jobs/{id}/result. "
                    "Jobs are admitted against --memory-budget using the "
                    "plan's peak-bytes estimate and content-addressed by "
                    "study fingerprint: an identical re-submission is "
                    "served from the store without recomputation.",
    )
    serve_cmd.add_argument("store", metavar="DIR",
                           help="study store directory (checkpoints, "
                                "manifests, and the result index)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8787,
                           help="listen port (0 picks an ephemeral port)")
    serve_cmd.add_argument("--memory-budget", type=int, default=None,
                           help="admission bound in bytes: jobs whose "
                                "planned peak exceeds this are rejected "
                                "with the estimate in the error body")
    serve_cmd.add_argument("--pool-size", type=int, default=2,
                           help="worker threads draining the job queue")
    serve_cmd.add_argument("--cache", default=None, metavar="DIR",
                           help="content-addressed macromodel cache "
                                "shared across submissions")
    serve_cmd.add_argument("--ttl", type=float, default=30.0,
                           help="chunk lease time-to-live for multi-worker "
                                "jobs (seconds)")
    serve_cmd.add_argument("--poll", type=float, default=0.05,
                           help="lease re-scan interval (seconds)")
    serve_cmd.add_argument("--warehouse", default=None, metavar="DIR",
                           help="warehouse catalog: every completed job's "
                                "studies are registered in DIR (query "
                                "them in place with 'repro query')")
    serve_cmd.set_defaults(func=_cmd_serve)

    submit_cmd = commands.add_parser(
        "submit", help="submit a job document to a study service"
    )
    submit_cmd.add_argument("url", help="service base URL, e.g. "
                                        "http://127.0.0.1:8787")
    submit_cmd.add_argument("jobfile",
                            help="JSON job document ('-' reads stdin)")
    submit_cmd.add_argument("--watch", action="store_true",
                            help="stream NDJSON progress events to stderr "
                                 "while the job runs")
    submit_cmd.add_argument("--no-wait", action="store_true",
                            help="print the job status document and exit "
                                 "without waiting for the result")
    submit_cmd.add_argument("--timeout", type=float, default=600.0,
                            help="seconds to wait for completion")
    submit_cmd.set_defaults(func=_cmd_submit)

    jobs_cmd = commands.add_parser(
        "jobs", help="list a study service's jobs (or one job's status)"
    )
    jobs_cmd.add_argument("url", help="service base URL")
    jobs_cmd.add_argument("--job", default=None, metavar="ID",
                          help="print one job's full status document")
    jobs_cmd.set_defaults(func=_cmd_jobs)

    query_cmd = commands.add_parser(
        "query",
        help="warehouse: register stores, aggregate their checkpoints "
             "in place",
        description="Register StudyStore studies in a warehouse catalog "
                    "('ingest' copies no rows) and run exact aggregations "
                    "read in place from their chunk archives, one "
                    "SHA-256-verified chunk at a time, in dataset order "
                    "(study key16, then chunk). Every row carries "
                    "provenance (study, chunk SHA-256, worker, "
                    "computed/resumed/stolen/stored source). Queries "
                    "never write; a corrupt chunk, a missing catalog or "
                    "an older release's shard=*/chunk=* partitions exit "
                    "2 with one line.",
    )
    query_actions = query_cmd.add_subparsers(dest="query_command",
                                             required=True)

    def _add_query_common(sub, metric: bool) -> None:
        sub.add_argument("warehouse", metavar="DIR",
                         help="warehouse directory (read only)")
        sub.add_argument("--memory-budget", type=int, default=None,
                         help="bound in bytes on the column bytes "
                              "materialized from any single chunk "
                              "archive")
        sub.add_argument("--study", default=None, metavar="KEY16",
                         help="restrict to one study (key16 prefix)")
        if metric:
            sub.add_argument("--metric", required=True,
                             help="metric column, e.g. delay, slew, "
                                  "num_poles, p_<name>")
            sub.add_argument("--table", default="instances",
                             help="table to aggregate (default: instances)")

    query_ingest = query_actions.add_parser(
        "ingest", help="register a store's studies in the catalog "
                       "(a study registered from another store is "
                       "re-pointed to this one)"
    )
    query_ingest.add_argument("warehouse", metavar="DIR",
                              help="warehouse directory")
    query_ingest.add_argument("store", metavar="STORE",
                              help="study store to register (only read)")
    query_ingest.add_argument("--key", default=None,
                              help="one study key (full or prefix; "
                                   "default: every study in the store)")
    query_ingest.set_defaults(func=_cmd_query_ingest)

    query_studies = query_actions.add_parser(
        "studies", help="list the registered studies"
    )
    _add_query_common(query_studies, metric=False)
    query_studies.set_defaults(func=_cmd_query_studies)

    query_yield = query_actions.add_parser(
        "yield", help="fraction of instances passing metric <= limit"
    )
    _add_query_common(query_yield, metric=True)
    query_yield.add_argument("--limit", type=float, required=True,
                             help="pass/fail limit (NaN metrics fail)")
    query_yield.set_defaults(func=_cmd_query_yield)

    query_percentile = query_actions.add_parser(
        "percentile", help="exact percentile of a metric column"
    )
    _add_query_common(query_percentile, metric=True)
    query_percentile.add_argument("--q", type=float, default=99.0,
                                  help="percentile in [0, 100]")
    query_percentile.set_defaults(func=_cmd_query_percentile)

    query_outliers = query_actions.add_parser(
        "outliers", help="most extreme instances with full provenance"
    )
    _add_query_common(query_outliers, metric=True)
    query_outliers.add_argument("-k", type=int, default=10,
                                help="how many rows (>= 0)")
    query_outliers.add_argument("--smallest", action="store_true",
                                help="rank smallest-first instead of "
                                     "largest-first")
    query_outliers.set_defaults(func=_cmd_query_outliers)

    trace_cmd = commands.add_parser(
        "trace", help="inspect JSONL trace files (repro-trace/v1)"
    )
    trace_actions = trace_cmd.add_subparsers(dest="trace_command", required=True)
    summarize_cmd = trace_actions.add_parser(
        "summarize",
        help="human report: phase time tree, solver tiers, throughput",
    )
    summarize_cmd.add_argument("trace_file", nargs="+",
                               help="trace file(s); several workers' files "
                                    "are merged into one report")
    summarize_cmd.set_defaults(func=_cmd_trace_summarize)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    from repro.obs import configure_from_env, remove_sink

    parser = build_parser()
    args = parser.parse_args(argv)
    env_sink = configure_from_env()
    try:
        return args.func(args)
    except StoreError as exc:
        # Store misuse (bad worker id, nothing to resume, corrupt
        # manifest, unwritable directory): exit 2, one line, no trace.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if env_sink is not None:
            remove_sink(env_sink)
            env_sink.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
