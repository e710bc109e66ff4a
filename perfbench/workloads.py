"""The four benchmark workloads: the specs one op sweeps, how it runs, its checks.

Every workload is a closed loop driven from one process: the next op is
issued only after the previous one returned.  The program only ever sees
the specs built here from the benchmark's ``--seed`` (it becomes the
sweep's root seed); everything else about a workload is fixed.

* ``cli_small``: one fresh ``python -m repro sweep ...`` subprocess.
* ``grid_serial``: reference spec R on the serial backend.
* ``grid_pool2``: spec R on a warm 2-worker process pool.
* ``adaptive_pool2``: cold adaptive sweeps, then tightened top-ups, in
  one cache dir, on a warm 2-worker process pool.

An op that raises, exits non-zero or fails a check raises
:class:`OpFailed`.  Nothing here pins a result digest: the checks are
statistical bands and self-consistency, so a documented ``SPEC_VERSION``
bump that changes results still passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

WORKLOADS = ("cli_small", "grid_serial", "grid_pool2", "adaptive_pool2")

#: Worker processes on the pool workloads (``nproc`` of the reference box).
POOL_WORKERS = 2

#: ``competitiveness(mean, D, k)`` band every fixed-grid cell must fall in.
#: Observed values for ``nonuniform`` are 7.9-12.2 across seeds at 400
#: trials; the band is half the lowest to twice the highest.
RATIO_BAND = (4.0, 24.0)

#: The ``cli_small`` sweep, as CLI arguments (the seed is appended).
CLI_DISTANCES = (16, 32, 64, 128)
CLI_KS = (1, 4, 16)
CLI_TRIALS = 400

#: Reference spec R (``grid_serial`` / ``grid_pool2``).
GRID_DISTANCES = (16, 32, 64, 128, 256)
GRID_KS = (1, 4, 16, 64)
GRID_TRIALS = 4000

#: Trial bounds and horizon of every ``adaptive_pool2`` sweep.
ADAPTIVE_MIN_TRIALS = 32
ADAPTIVE_MAX_TRIALS = 4096
ADAPTIVE_HORIZON = 4096.0


class OpFailed(Exception):
    """An op raised, exited non-zero, or failed a correctness check."""


@dataclass
class OpResult:
    """What one op produced: its digest and the trials it simulated."""

    digest: str
    trials: int


def _hash_cells(digest, result) -> None:
    for cell in result:
        digest.update(f"{cell.distance},{cell.k},{cell.trials};".encode())
        digest.update(cell.times.tobytes())


# ----------------------------------------------------------------------
# cli_small: the CLI in a fresh interpreter (stdlib only on this side).
# ----------------------------------------------------------------------

def cli_command(seed: int, cache_dir: str, csv_path: str,
                trace_path: Optional[str] = None) -> List[str]:
    command = [
        sys.executable, "-m", "repro", "sweep", "nonuniform",
        "--distances", ",".join(map(str, CLI_DISTANCES)),
        "--ks", ",".join(map(str, CLI_KS)),
        "--trials", str(CLI_TRIALS),
        "--seed", str(seed),
        "--backend", "serial",
        "--cache-dir", cache_dir,
        "--csv", csv_path,
    ]
    if trace_path is not None:
        command += ["--trace", trace_path]
    return command


def run_cli_op(seed: int, cache_dir: str, env: Dict[str, str],
               trace_path: Optional[str] = None) -> OpResult:
    """One ``repro-ants sweep`` subprocess; checks its table and CSV."""
    csv_path = os.path.join(cache_dir, "table.csv")
    op_env = dict(env, REPRO_SWEEP_CACHE=cache_dir)
    proc = subprocess.run(
        cli_command(seed, cache_dir, csv_path, trace_path),
        env=op_env, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise OpFailed(
            f"CLI exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        )
    with open(csv_path, "rb") as handle:
        raw = handle.read()
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    expected = {(d, k) for d in CLI_DISTANCES for k in CLI_KS}
    seen = {(int(row["D"]), int(row["k"])) for row in rows}
    if len(rows) != len(expected) or seen != expected:
        raise OpFailed(f"CLI table has cells {sorted(seen)}")
    printed = [
        line for line in proc.stdout.splitlines()
        if line.split()[:2] in ([str(d), str(k)] for d, k in expected)
    ]
    if len(printed) != len(expected):
        raise OpFailed(f"CLI printed {len(printed)} of {len(expected)} cells")
    for row in rows:
        _check_ratio(float(row["ratio"]), int(row["D"]), int(row["k"]))
    return OpResult(
        digest=hashlib.sha256(raw).hexdigest(),
        trials=sum(int(row["trials"]) for row in rows),
    )


def _check_ratio(ratio: float, distance: int, k: int) -> None:
    low, high = RATIO_BAND
    if not (math.isfinite(ratio) and low <= ratio <= high):
        raise OpFailed(
            f"cell D={distance} k={k}: competitiveness {ratio:.3f} "
            f"outside [{low}, {high}]"
        )


# ----------------------------------------------------------------------
# Library workloads (import repro; only the workload process does).
# ----------------------------------------------------------------------

def cli_spec(seed: int):
    """The spec ``cli_small``'s command line builds (for the serial replay)."""
    from repro.sweep import SweepSpec

    return SweepSpec(
        algorithm="nonuniform", distances=CLI_DISTANCES, ks=CLI_KS,
        trials=CLI_TRIALS, seed=seed,
    )


def grid_spec(seed: int):
    from repro.sweep import SweepSpec

    return SweepSpec(
        algorithm="nonuniform", distances=GRID_DISTANCES, ks=GRID_KS,
        trials=GRID_TRIALS, seed=seed,
    )


def adaptive_specs(seed: int):
    """``(cold specs, top-up specs)``: the same grids at a tighter target."""
    from repro.sim.world import WorldSpec
    from repro.sweep import BudgetPolicy, SweepSpec

    # (algorithm, distances, ks, world, cold rel_ci, top-up rel_ci)
    mixes = (
        ("random_walk", (8, 16), (4, 16), None, 0.1, 0.07),
        ("nonuniform", (8, 16, 32), (1, 4, 16),
         WorldSpec(motion="walk", motion_rate=0.1), 0.05, 0.03),
    )

    def spec(algorithm, distances, ks, world, rel_ci):
        return SweepSpec(
            algorithm=algorithm, distances=distances, ks=ks,
            trials=ADAPTIVE_MIN_TRIALS, seed=seed, horizon=ADAPTIVE_HORIZON,
            world=world,
            budget=BudgetPolicy.target_rel_ci(
                rel_ci, min_trials=ADAPTIVE_MIN_TRIALS,
                max_trials=ADAPTIVE_MAX_TRIALS,
            ),
        )

    cold = [spec(a, d, k, w, r) for a, d, k, w, r, _ in mixes]
    top_up = [spec(a, d, k, w, r) for a, d, k, w, _, r in mixes]
    return cold, top_up


def _sweep(spec, executor, cache_dir: str):
    """``run_sweep`` plus the trials it newly simulated."""
    from repro.sweep import run_sweep

    new = []
    result = run_sweep(
        spec, executor=executor, cache_dir=cache_dir,
        progress=lambda event: new.append(event.new_trials),
    )
    return result, sum(new)


def run_fixed_op(spec, executor, cache_dir: str) -> OpResult:
    """A fixed spec into a fresh cache dir; every cell finite, in the band."""
    from repro.analysis import competitiveness

    result, trials = _sweep(spec, executor, cache_dir)
    if result.from_cache or len(result) != len(spec.cells()):
        raise OpFailed("grid op did not simulate every cell")
    for cell in result:
        if cell.trials != spec.trials:
            raise OpFailed(f"cell D={cell.distance} k={cell.k} short")
        if not bool(cell.times.min() > 0) or not math.isfinite(
            float(cell.times.max())
        ):
            raise OpFailed(f"cell D={cell.distance} k={cell.k}: bad times")
        _check_ratio(
            competitiveness(cell.mean, cell.distance, cell.k),
            cell.distance, cell.k,
        )
    digest = hashlib.sha256()
    _hash_cells(digest, result)
    return OpResult(digest=digest.hexdigest(), trials=trials)


def _check_adaptive(spec, result) -> None:
    budget = spec.budget
    for cell in result:
        rel = cell.summary(horizon=spec.horizon).rel_ci
        if cell.trials < budget.max_trials and not (
            math.isfinite(rel) and rel <= budget.rel_ci
        ):
            raise OpFailed(
                f"{spec.algorithm} D={cell.distance} k={cell.k}: stopped at "
                f"{cell.trials} trials with rel_ci {rel:.4f} > "
                f"{budget.rel_ci}"
            )


def run_adaptive_op(seed: int, executor, cache_dir: str) -> OpResult:
    """Cold sweeps, then top-ups that must extend them bitwise."""
    cold_specs, top_up_specs = adaptive_specs(seed)
    digest = hashlib.sha256()
    trials = 0
    cold_results = []
    for spec in cold_specs:
        result, new = _sweep(spec, executor, cache_dir)
        _check_adaptive(spec, result)
        cold_results.append(result)
        trials += new
        _hash_cells(digest, result)
    for spec, cold in zip(top_up_specs, cold_results):
        result, new = _sweep(spec, executor, cache_dir)
        _check_adaptive(spec, result)
        for before in cold:
            after = result.cell(before.distance, before.k).times
            if after.size < before.times.size or (
                after[: before.times.size].tobytes()
                != before.times.tobytes()
            ):
                raise OpFailed(
                    f"{spec.algorithm} D={before.distance} k={before.k}: "
                    f"top-up does not extend the cold run's trials"
                )
        trials += new
        _hash_cells(digest, result)
    return OpResult(digest=digest.hexdigest(), trials=trials)


def run_op(workload: str, seed: int, executor, cache_dir: str) -> OpResult:
    """One library op (``cli_small``'s spec too, for its serial replay)."""
    if workload == "adaptive_pool2":
        return run_adaptive_op(seed, executor, cache_dir)
    spec = cli_spec(seed) if workload == "cli_small" else grid_spec(seed)
    return run_fixed_op(spec, executor, cache_dir)


def make_workload_executor(workload: str):
    """The explicit backend of a library workload (never ``auto``)."""
    from repro.sweep import make_executor

    if workload in ("grid_pool2", "adaptive_pool2"):
        return make_executor(workers=POOL_WORKERS, backend="process")
    return make_executor(backend="serial")


def warm(executor) -> None:
    """Start every pool worker and run each code path once, uncached.

    Lazy imports and first-call costs land here, in set-up, where users
    of a long-lived pool also pay them once.
    """
    from repro.sweep import BudgetPolicy, SweepSpec, run_sweep

    run_sweep(
        SweepSpec(algorithm="nonuniform", distances=(8,),
                  ks=tuple(range(1, POOL_WORKERS + 1)), trials=16),
        executor=executor, cache=False,
    )
    run_sweep(
        SweepSpec(algorithm="random_walk", distances=(4,), ks=(4,),
                  trials=32, horizon=256.0,
                  budget=BudgetPolicy.target_rel_ci(0.5, max_trials=64)),
        executor=executor, cache=False,
    )
