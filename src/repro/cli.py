"""Command-line interface: ``repro-ants`` / ``python -m repro``.

Examples::

    repro-ants list                      # show the experiment index
    repro-ants run E1 E3 --quick         # run experiments, print tables
    repro-ants run all --full --csv out/ # full scale, archive CSVs
    repro-ants run E1 --workers 4        # fan sweep work out to a pool
    repro-ants run all --workers auto    # autotune workers to the CPUs
    repro-ants sweep uniform --param eps=0.5 --distances 64 --ks 1,4 \
        --workers 4 --backend process    # force the process backend
    repro-ants sweep nonuniform --distances 16,32,64 --ks 1,4,16 --trials 60
    repro-ants sweep uniform --param eps=0.5 --distances 64 --ks 1,2,4,8
    repro-ants sweep levy --param mu=2 --distances 32 --ks 4 --horizon 40960
    repro-ants sweep grid_belief --distances 16 --ks 4 --horizon 6144 \
        --n-targets 2 --target-motion walk --motion-rate 0.1
    repro-ants sweep uniform --param eps=0.5 --distances 64 --ks 1,4,16 \
        --target-rel-ci 0.05 --max-trials 2048 --progress
    repro-ants run E3 --target-rel-ci 0.03   # precision-targeted trials
    repro-ants cache list                    # inspect the sweep cache
    repro-ants cache prune --older-than 30   # drop entries > 30 days old
    repro-ants sweep nonuniform --distances 16,32 --ks 1,4 \
        --trace sweep.trace.jsonl        # record a structured trace
    repro-ants trace report sweep.trace.jsonl   # wall-clock breakdown
    repro-ants trace export sweep.trace.jsonl --chrome -o sweep.chrome.json
    repro-ants trace validate sweep.trace.jsonl # schema-check every event
    repro-ants demo                      # 30-second guided demo

Experiment runs and ad-hoc sweeps share the cached sweep engine: re-running
the same grid hits the on-disk cache (disable with ``--no-cache``; relocate
with ``$REPRO_SWEEP_CACHE`` or ``--cache-dir``; inspect with
``repro-ants cache``).  ``--target-rel-ci`` switches trial allocation from
a fixed count to a per-cell precision target (see DESIGN.md §7): easy
cells stop early, noisy cells run until their mean's relative CI
half-width reaches the target, and cached cells top up instead of
recomputing.  ``--progress`` prints one line per finished cell with the
allocated trials and the achieved CI half-width.

``--workers``/``--backend`` select the execution backend (DESIGN.md §8):
``--workers N`` fans work out to a persistent process pool shared by
every sweep of the invocation, ``--workers auto`` sizes it to the usable
CPUs, and ``--backend serial|process`` overrides the automatic choice.
``--backend remote --hosts a:7077,b:7077`` fans work out to ``repro-ants
worker`` processes on other hosts instead (DESIGN.md §11)::

    repro-ants worker --port 7077        # on each worker host
    repro-ants sweep nonuniform --distances 16,32 --ks 1,4 \
        --backend remote --hosts hostA:7077,hostB:7077

Serial, pooled, and remote runs produce bitwise-identical results.

``--trace FILE`` (run + sweep) records a JSONL trace of the sweep
stack's structured events — spans, counters, gauges (DESIGN.md §12) —
which ``repro-ants trace report`` turns into a wall-clock breakdown and
``trace export --chrome`` into a ``chrome://tracing`` / Perfetto
timeline.  ``$REPRO_TRACE_FILE`` does the same for library callers.
Tracing is observational only: traced and untraced runs are
bitwise identical.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ants",
        description=(
            "Reproduction of 'Collaborative Search on the Plane without "
            "Communication' (Feinerman, Korman, Lotker, Sereni; PODC 2012)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiments and print their tables")
    run_p.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (E1..E12) or 'all'",
    )
    mode = run_p.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="small grids (default)")
    mode.add_argument("--full", action="store_true", help="paper-scale grids")
    run_p.add_argument("--seed", type=int, default=None, help="override root seed")
    run_p.add_argument(
        "--csv", metavar="DIR", default=None, help="also write tables as CSV here"
    )
    _add_executor_arguments(run_p)
    run_p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk sweep cache",
    )
    _add_budget_arguments(run_p)

    sweep_p = sub.add_parser(
        "sweep", help="run one ad-hoc D x k sweep and print the cell table"
    )
    sweep_p.add_argument(
        "algorithm",
        help=(
            "registered sweep strategy (nonuniform, uniform, harmonic, "
            "random_walk, biased_walk, levy, grid_belief, ...); walker "
            "baselines, adaptive searchers and dynamic worlds require "
            "--horizon"
        ),
    )
    sweep_p.add_argument(
        "--distances",
        required=True,
        help="comma-separated treasure distances, e.g. 16,32,64",
    )
    sweep_p.add_argument(
        "--ks", required=True, help="comma-separated agent counts, e.g. 1,4,16"
    )
    sweep_p.add_argument("--trials", type=int, default=60)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument(
        "--placement",
        default="offaxis",
        choices=("axis", "corner", "offaxis", "random"),
    )
    sweep_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="algorithm parameter (repeatable), e.g. --param eps=0.5",
    )
    sweep_p.add_argument("--horizon", type=float, default=None)
    sweep_p.add_argument(
        "--require-k-le-d",
        action="store_true",
        help="skip cells with k > D (the paper's analysis regime)",
    )
    scenario_g = sweep_p.add_argument_group(
        "scenario", "fault/heterogeneity perturbations (see DESIGN.md §6)"
    )
    scenario_g.add_argument(
        "--crash-hazard",
        type=float,
        default=0.0,
        help="per-time-unit crash hazard (geometric agent lifetimes)",
    )
    scenario_g.add_argument(
        "--speed-spread",
        type=float,
        default=0.0,
        help="speed heterogeneity: fastest/slowest = (1+spread)^2, mean 1",
    )
    scenario_g.add_argument(
        "--start-stagger",
        type=float,
        default=0.0,
        help="agent i starts at time i * stagger (asynchronous starts)",
    )
    scenario_g.add_argument(
        "--detection-prob",
        type=float,
        default=1.0,
        help="probability of noticing the treasure per crossing",
    )
    world_g = sweep_p.add_argument_group(
        "world process",
        "generalised target worlds (see DESIGN.md §10); any non-default "
        "knob requires --horizon",
    )
    world_g.add_argument(
        "--n-targets",
        type=int,
        default=1,
        help="number of targets on the distance ring (extras uniform)",
    )
    world_g.add_argument(
        "--target-motion",
        choices=("static", "drift", "walk"),
        default="static",
        help="target motion process (drift/walk need --motion-rate)",
    )
    world_g.add_argument(
        "--motion-rate",
        type=float,
        default=0.0,
        help="expected target steps per time unit for drift/walk motion",
    )
    world_g.add_argument(
        "--arrival-hazard",
        type=float,
        default=0.0,
        help=(
            "per-time-unit geometric arrival hazard (0 = targets present "
            "from t=0)"
        ),
    )
    world_g.add_argument(
        "--target-detection-prob",
        type=float,
        default=1.0,
        help=(
            "world-level detection probability per crossing (composes "
            "multiplicatively with the scenario's --detection-prob)"
        ),
    )
    _add_executor_arguments(sweep_p)
    sweep_p.add_argument("--no-cache", action="store_true")
    sweep_p.add_argument("--cache-dir", default=None)
    sweep_p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "recover an interrupted sweep from its checkpoint journal "
            "(bitwise identical to an uninterrupted run; needs the cache)"
        ),
    )
    sweep_p.add_argument(
        "--checkpoint",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help=(
            "seconds between checkpoint journal writes while the sweep "
            "runs (0 = after every chunk; negative disables; default 5)"
        ),
    )
    sweep_p.add_argument(
        "--csv", metavar="FILE", default=None, help="also write the table as CSV"
    )
    _add_budget_arguments(sweep_p)

    cache_p = sub.add_parser(
        "cache", help="inspect and prune the on-disk sweep cache"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_list = cache_sub.add_parser(
        "list", help="list cache entries (specs, shapes, sizes, ages)"
    )
    cache_list.add_argument("--cache-dir", default=None)
    cache_prune = cache_sub.add_parser(
        "prune", help="delete cache entries older than a cutoff"
    )
    cache_prune.add_argument(
        "--older-than",
        type=float,
        required=True,
        metavar="DAYS",
        help="age cutoff in days (0 prunes everything)",
    )
    cache_prune.add_argument("--cache-dir", default=None)
    cache_prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be deleted without deleting",
    )
    cache_path_p = cache_sub.add_parser(
        "path", help="print the resolved cache directory"
    )
    cache_path_p.add_argument("--cache-dir", default=None)

    trace_p = sub.add_parser(
        "trace",
        help=(
            "inspect JSONL traces recorded with --trace / "
            "$REPRO_TRACE_FILE (see DESIGN.md §12)"
        ),
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report",
        help=(
            "wall-clock breakdown: top cells by time, worker "
            "utilization, cache hit rate, steal/speculation efficacy"
        ),
    )
    trace_report.add_argument("file", help="JSONL trace file")
    trace_report.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="number of cells in the per-cell table (default 10)",
    )
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace for external timeline viewers",
    )
    trace_export.add_argument("file", help="JSONL trace file")
    trace_export.add_argument(
        "--chrome",
        action="store_true",
        required=True,
        help=(
            "emit Chrome trace-event JSON (load in chrome://tracing "
            "or https://ui.perfetto.dev)"
        ),
    )
    trace_export.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="output path (default: stdout)",
    )
    trace_validate = trace_sub.add_parser(
        "validate",
        help="schema-check every event; exit 1 on any invalid record",
    )
    trace_validate.add_argument("file", help="JSONL trace file")

    check_p = sub.add_parser(
        "check",
        help=(
            "run the determinism contract checks (AST lint R001-R004, "
            "stream registry scan, spec hash manifest)"
        ),
    )
    check_p.add_argument(
        "roots",
        nargs="*",
        metavar="DIR",
        help=(
            "directories to lint (default: the installed package plus the "
            "checkout's tests/, examples/ and benchmarks/ trees)"
        ),
    )
    check_p.add_argument(
        "--fix-manifest",
        action="store_true",
        help=(
            "re-pin the SweepSpec hash manifest after a deliberate "
            "spec-identity change (requires the matching version bump)"
        ),
    )

    worker_p = sub.add_parser(
        "worker",
        help=(
            "serve sweep tasks to remote drivers (the --backend remote "
            "worker process; see DESIGN.md §11)"
        ),
    )
    worker_p.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default loopback; use 0.0.0.0 for LAN)",
    )
    worker_p.add_argument(
        "--port",
        type=int,
        default=None,
        help="port to bind (default 7077; 0 picks an ephemeral port)",
    )
    worker_p.add_argument(
        "--slots",
        type=int,
        default=1,
        help="tasks executed concurrently per driver connection",
    )

    sub.add_parser("list", help="list registered experiments")
    sub.add_parser("demo", help="run a small end-to-end demonstration")
    return parser


def _workers_argument(value: str):
    """Parse ``--workers``: a count, or ``auto`` for CPU autotuning."""
    if value.strip().lower() == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--workers expects an integer or 'auto', got {value!r}"
        )
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"--workers expects a count >= 0 or 'auto', got {value!r}"
        )
    return count


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared execution-backend flags (run + sweep)."""
    group = parser.add_argument_group(
        "execution backend",
        "where sweep work runs (see DESIGN.md §8); one persistent worker "
        "pool serves every sweep of the invocation",
    )
    group.add_argument(
        "--workers",
        type=_workers_argument,
        default=0,
        metavar="N",
        help=(
            "sweep worker processes (0/1 = serial; 'auto' = one per "
            "usable CPU)"
        ),
    )
    group.add_argument(
        "--backend",
        choices=("auto", "serial", "process", "remote"),
        default="auto",
        help=(
            "execution backend: 'auto' picks the process pool when "
            "--workers > 1, 'serial'/'process' force the choice, "
            "'remote' fans out to repro-ants worker hosts (needs "
            "--hosts or $REPRO_REMOTE_HOSTS)"
        ),
    )
    group.add_argument(
        "--hosts",
        default=None,
        metavar="HOST[:PORT],...",
        help=(
            "comma-separated worker endpoints for --backend remote "
            "(default port 7077)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record a JSONL trace of the sweep stack's structured "
            "events (inspect with 'repro-ants trace report'); "
            "observational only — results are unaffected"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help=(
            "activate a repro.faults chaos plan (JSON file, or inline "
            "JSON) injecting failures at instrumented seams; recoverable "
            "faults leave results bitwise unchanged (DESIGN.md §13)"
        ),
    )


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared adaptive-precision and progress flags (run + sweep)."""
    group = parser.add_argument_group(
        "adaptive precision",
        "trial allocation driven by a precision target instead of a "
        "fixed count (see DESIGN.md §7)",
    )
    group.add_argument(
        "--target-rel-ci",
        type=float,
        default=None,
        metavar="R",
        help=(
            "per-cell precision target: keep adding trial blocks until "
            "the mean's relative 95%% CI half-width is <= R"
        ),
    )
    group.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help="stop a cell at/above this many trials even short of the target",
    )
    group.add_argument(
        "--min-trials",
        type=int,
        default=None,
        help="never stop a cell below this many trials (default 32)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per finished cell (trials, CI half-width)",
    )


def _budget_from_args(args):
    """Build the BudgetPolicy the flags describe (None = fixed trials)."""
    from .stats import BudgetPolicy
    from .stats.policy import DEFAULT_MAX_TRIALS, DEFAULT_MIN_TRIALS

    if args.target_rel_ci is None:
        if args.max_trials is not None or args.min_trials is not None:
            raise SystemExit(
                "--max-trials/--min-trials need --target-rel-ci (without a "
                "precision target, trial counts come from --trials)"
            )
        return None
    try:
        return BudgetPolicy.target_rel_ci(
            args.target_rel_ci,
            min_trials=(
                args.min_trials if args.min_trials is not None
                else DEFAULT_MIN_TRIALS
            ),
            max_trials=(
                args.max_trials if args.max_trials is not None
                else DEFAULT_MAX_TRIALS
            ),
        )
    except ValueError as error:
        raise SystemExit(str(error))


def _progress_printer(event) -> None:
    """Render one ProgressEvent as a table-adjacent status line."""
    from .experiments.io import format_value

    print(
        f"  cell D={event.distance} k={event.k}: "
        f"trials={event.trials} (+{event.new_trials}) "
        f"ci={format_value(event.ci_halfwidth)} [{event.source}]"
    )


def _cmd_list() -> int:
    from .experiments.registry import list_experiments

    for info in list_experiments():
        print(f"{info.experiment_id:<4} [{info.paper_result}] {info.title}")
    return 0


def _cmd_run(
    ids: List[str],
    quick: bool,
    seed: Optional[int],
    csv_dir: Optional[str],
    workers=0,
    backend: str = "auto",
    hosts=None,
    cache: bool = True,
    budget=None,
    progress=None,
    trace_file: Optional[str] = None,
    fault_plan: Optional[str] = None,
) -> int:
    import contextlib
    import inspect

    from .experiments.registry import EXPERIMENTS, list_experiments, run_experiment
    from .obs import tracing
    from .sweep.executor import make_executor, resolve_workers

    _activate_fault_plan(fault_plan)
    if any(x.lower() == "all" for x in ids):
        ids = [info.experiment_id for info in list_experiments()]
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
    # One persistent executor serves every sweep of every experiment in
    # this invocation: warm workers carry over from E1 to E11 instead of
    # each sweep paying pool spawn-up.  (The pool itself is lazy — an
    # all-cache run never forks, and the remote backend only connects
    # on first submit.)
    try:
        executor = make_executor(
            workers=resolve_workers(workers), backend=backend, hosts=hosts
        )
    except ValueError as error:
        raise SystemExit(str(error))
    recorder = (
        tracing(trace_file) if trace_file else contextlib.nullcontext()
    )
    with recorder, executor:
        for experiment_id in ids:
            started = time.perf_counter()
            info = EXPERIMENTS.get(experiment_id.upper())
            if info is not None and (budget is not None or progress is not None):
                # Don't let a flag look honoured when it isn't: the
                # registry's signature-based forwarding silently drops
                # kwargs a runner doesn't accept.
                accepted = inspect.signature(info.runner).parameters
                ignored = []
                if budget is not None and "budget" not in accepted:
                    ignored.append("--target-rel-ci")
                if progress is not None and "progress" not in accepted:
                    ignored.append("--progress")
                if ignored:
                    print(
                        f"[{info.experiment_id} has no adaptive allocation; "
                        f"{'/'.join(ignored)} ignored, running at fixed trials]"
                    )
            tables = run_experiment(
                experiment_id, quick=quick, seed=seed, workers=workers,
                cache=cache, budget=budget, progress=progress,
                executor=executor,
            )
            elapsed = time.perf_counter() - started
            for i, table in enumerate(tables):
                print(table.to_text())
                print()
                if csv_dir:
                    name = f"{experiment_id.lower()}_{i}.csv"
                    table.to_csv(os.path.join(csv_dir, name))
            print(f"[{experiment_id} completed in {elapsed:.1f}s]")
            print()
    return 0


def _activate_fault_plan(source: Optional[str]) -> None:
    """Arm ``--fault-plan`` on the process singleton (and, via the
    environment, on every worker process this run spawns); without it, a
    bad ``REPRO_FAULT_PLAN`` exits here with its message, not a traceback."""
    from .faults import (
        FAULT_PLAN_ENV, FaultPlanError, activate, ensure_env_plan, load_plan,
    )

    try:
        if not source:
            ensure_env_plan()
            return
        activate(load_plan(source, origin="--fault-plan"))
    except FaultPlanError as error:
        raise SystemExit(str(error))
    # Workers re-load the plan from the environment (ensure_env_plan in
    # the task wrapper), so worker-side seams see the same schedule.
    os.environ[FAULT_PLAN_ENV] = source


def _parse_int_list(text: str, label: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"--{label} expects comma-separated integers, got {text!r}")


def _cmd_sweep(args) -> int:
    import contextlib

    from .analysis.competitiveness import competitiveness
    from .obs import tracing
    from .scenarios import ScenarioSpec
    from .sim.world import WorldSpec
    from .sweep import ALGORITHM_BUILDERS, SweepSpec, run_sweep
    from .sweep.executor import make_executor, resolve_workers
    from .experiments.io import ResultTable

    if args.algorithm not in ALGORITHM_BUILDERS:
        known = ", ".join(sorted(ALGORITHM_BUILDERS))
        raise SystemExit(
            f"unknown sweep algorithm {args.algorithm!r}; known: {known}"
        )

    params = {}
    for item in args.param:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise SystemExit(f"--param expects NAME=VALUE, got {item!r}")
        try:
            params[name] = float(value)
        except ValueError:
            raise SystemExit(
                f"--param {name} expects a numeric value, got {value!r}"
            )

    budget = _budget_from_args(args)
    try:
        scenario = ScenarioSpec(
            crash_hazard=args.crash_hazard,
            speed_spread=args.speed_spread,
            start_stagger=args.start_stagger,
            detection_prob=args.detection_prob,
        )
        world = WorldSpec(
            n_targets=args.n_targets,
            motion=args.target_motion,
            motion_rate=args.motion_rate,
            arrival=("geometric" if args.arrival_hazard > 0 else "present"),
            arrival_hazard=args.arrival_hazard,
            detection_prob=args.target_detection_prob,
        )
        spec = SweepSpec(
            algorithm=args.algorithm,
            distances=_parse_int_list(args.distances, "distances"),
            ks=_parse_int_list(args.ks, "ks"),
            trials=args.trials,
            params=params,
            placement=args.placement,
            seed=args.seed,
            horizon=args.horizon,
            require_k_le_d=args.require_k_le_d,
            scenario=scenario,
            budget=budget,
            world=world,
        )
    except (TypeError, ValueError) as error:
        raise SystemExit(str(error))
    _activate_fault_plan(args.fault_plan)
    started = time.perf_counter()
    try:
        executor = make_executor(
            workers=resolve_workers(args.workers),
            backend=args.backend,
            hosts=args.hosts,
        )
    except ValueError as error:  # e.g. --hosts without --backend remote
        raise SystemExit(str(error))
    recorder = (
        tracing(args.trace) if args.trace else contextlib.nullcontext()
    )
    try:
        with recorder, executor:
            result = run_sweep(
                spec,
                executor=executor,
                cache=not args.no_cache,
                cache_dir=args.cache_dir,
                progress=_progress_printer if args.progress else None,
                resume=args.resume,
                checkpoint_s=(
                    None if args.checkpoint < 0 else args.checkpoint
                ),
            )
    except ValueError as error:  # e.g. walker strategy without --horizon
        raise SystemExit(str(error))
    elapsed = time.perf_counter() - started

    title = f"sweep {args.algorithm}"
    if params:
        rendered = ", ".join(f"{k}={v:g}" for k, v in sorted(params.items()))
        title += f" ({rendered})"
    table = ResultTable(
        title=title,
        columns=[
            "D", "k", "trials", "mean_time", "stderr", "ci95", "success",
            "censored", "ratio",
        ],
    )
    any_censored = False
    for cell in result:
        summary = cell.summary(horizon=spec.horizon)
        any_censored = any_censored or summary.censored_fraction > 0
        table.add_row(
            D=cell.distance,
            k=cell.k,
            trials=cell.trials,
            mean_time=cell.mean,
            stderr=cell.stderr,
            ci95=summary.ci_halfwidth,
            success=cell.success_rate,
            censored=summary.censored_fraction,
            ratio=competitiveness(cell.mean, cell.distance, cell.k),
        )
    table.add_note("ratio = mean_time / (D + D^2/k), the universal benchmark")
    if any_censored:
        table.add_note(
            "rows with censored > 0: ci95 brackets the censoring-aware "
            "mean (horizon-truncated when a horizon is set — a lower "
            "bound; over finding trials only otherwise), not the "
            "mean_time column's inf-propagating estimator"
        )
    if spec.scenario is not None:
        table.add_note(f"scenario: {spec.scenario.describe()}")
    if spec.world is not None:
        table.add_note(f"world: {spec.world.describe()}")
    if spec.budget is not None:
        table.add_note(
            f"adaptive allocation: {spec.budget.describe()} — "
            f"{result.total_trials} trials total"
        )
    source = "cache" if result.from_cache else f"computed in {elapsed:.1f}s"
    table.add_note(f"spec {spec.spec_hash()} ({source})")
    print(table.to_text())
    if args.csv:
        table.to_csv(args.csv)
    return 0


def _cmd_cache(args) -> int:
    from .experiments.io import ResultTable
    from .sweep import default_cache_dir, list_entries, prune_entries

    directory = args.cache_dir if args.cache_dir else default_cache_dir()
    if args.cache_command == "path":
        print(directory)
        return 0
    if args.cache_command == "list":
        entries = list_entries(directory)
        table = ResultTable(
            title=f"sweep cache at {directory}",
            columns=[
                "file", "kind", "algorithm", "cells", "trials", "size_kb",
                "age_days",
            ],
        )
        now = time.time()
        for entry in entries:
            table.add_row(
                file=os.path.basename(entry.path),
                kind=entry.kind,
                algorithm=entry.algorithm,
                cells=entry.cells,
                trials=entry.trials,
                size_kb=entry.size_bytes / 1024.0,
                age_days=max(0.0, (now - entry.mtime) / 86400.0),
            )
        table.add_note(
            f"{len(entries)} entries, "
            f"{sum(e.size_bytes for e in entries) / 1024.0:.1f} KiB total; "
            "kind: sweep = fixed-trials matrix (v1), "
            "blocks = adaptive block store (v2)"
        )
        print(table.to_text())
        return 0
    if args.cache_command == "prune":
        if args.older_than < 0:
            raise SystemExit(
                f"--older-than expects a non-negative number of days, "
                f"got {args.older_than}"
            )
        from .sweep.cache import clean_stale_files

        reclaimed = [] if args.dry_run else clean_stale_files(directory)
        pruned = prune_entries(
            directory, older_than_days=args.older_than, dry_run=args.dry_run
        )
        verb = "would prune" if args.dry_run else "pruned"
        freed = sum(e.size_bytes for e in pruned) / 1024.0
        print(
            f"{verb} {len(pruned)} entries ({freed:.1f} KiB) older than "
            f"{args.older_than:g} days from {directory}"
        )
        for entry in pruned:
            print(f"  {os.path.basename(entry.path)}")
        if reclaimed:
            print(
                f"reclaimed {len(reclaimed)} stale temp/quarantine "
                f"file(s) left by crashed writers"
            )
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_trace(args) -> int:
    import json

    from .obs import (
        SCHEMA_VERSION,
        build_report,
        read_trace,
        to_chrome,
        validate_event,
    )

    try:
        records = read_trace(args.file)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.file}")
    except ValueError as error:  # malformed JSONL
        raise SystemExit(str(error))

    if args.trace_command == "report":
        if args.top < 1:
            raise SystemExit(f"--top expects a count >= 1, got {args.top}")
        print(build_report(records).render(top=args.top))
        return 0
    if args.trace_command == "export":
        document = json.dumps(to_chrome(records), indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
            print(
                f"wrote {len(records)} events to {args.output} "
                f"(load in chrome://tracing or https://ui.perfetto.dev)"
            )
        else:
            print(document)
        return 0
    if args.trace_command == "validate":
        invalid = 0
        for index, record in enumerate(records, start=1):
            for problem in validate_event(record):
                invalid += 1
                print(f"{args.file}:{index}: {problem}")
        if invalid:
            print(f"{invalid} invalid event(s) in {len(records)} records")
            return 1
        print(
            f"{len(records)} events, all schema-valid "
            f"(schema v{SCHEMA_VERSION})"
        )
        return 0
    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def _cmd_check(args) -> int:
    from .checks import format_findings, run_checks
    from .checks.manifest import DEFAULT_MANIFEST_PATH, write_manifest

    if args.fix_manifest:
        write_manifest()
        print(f"re-pinned spec hash manifest at {DEFAULT_MANIFEST_PATH}")
    findings = run_checks(args.roots if args.roots else None)
    if not findings:
        print("determinism checks: 0 findings")
        return 0
    print(format_findings(findings))
    return 1


def _cmd_worker(args) -> int:
    from .sweep.remote import DEFAULT_PORT, PROTOCOL_VERSION, serve_worker
    from .sweep.spec import BLOCK_SCHEDULE_VERSION, SPEC_VERSION

    if args.slots < 1:
        raise SystemExit(f"--slots expects a count >= 1, got {args.slots}")
    port = DEFAULT_PORT if args.port is None else args.port

    def ready(host: str, bound_port: int) -> None:
        # Parseable by drivers launching workers with --port 0.
        print(
            f"repro-ants worker listening on {host}:{bound_port} "
            f"(protocol {PROTOCOL_VERSION}, spec v{SPEC_VERSION}, "
            f"blocks v{BLOCK_SCHEDULE_VERSION}, slots {args.slots})",
            flush=True,
        )

    try:
        serve_worker(args.host, port, slots=args.slots, ready=ready)
    except OSError as error:  # port in use, unresolvable bind address, ...
        raise SystemExit(f"worker failed to bind {args.host}:{port}: {error}")
    return 0


def _cmd_demo() -> int:
    from .algorithms import HarmonicSearch, NonUniformSearch, UniformSearch
    from .analysis.competitiveness import optimal_time
    from .sim.events import simulate_find_times
    from .sim.world import place_treasure

    distance, k = 64, 16
    world = place_treasure(distance, "corner")
    print(f"Treasure at distance D={distance}; k={k} agents; 100 trials each.")
    print(f"Optimal benchmark D + D^2/k = {optimal_time(distance, k):.0f}\n")
    for alg in (NonUniformSearch(k=k), UniformSearch(0.5), HarmonicSearch(0.5)):
        times = simulate_find_times(alg, world, k, 100, seed=0)
        import numpy as np

        found = np.isfinite(times)
        mean = times[found].mean() if found.any() else float("inf")
        print(
            f"{alg.describe():<75} "
            f"mean={mean:9.1f}  success={found.mean():.2f}"
        )
    print("\nSee `repro-ants list` for the full experiment index.")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "run":
        quick = not args.full
        return _cmd_run(
            args.experiments,
            quick,
            args.seed,
            args.csv,
            workers=args.workers,
            backend=args.backend,
            hosts=args.hosts,
            cache=not args.no_cache,
            budget=_budget_from_args(args),
            progress=_progress_printer if args.progress else None,
            trace_file=args.trace,
            fault_plan=args.fault_plan,
        )
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "worker":
        return _cmd_worker(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
