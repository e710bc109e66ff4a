"""Benchmark: the batched walker engine vs the per-step Python engine.

The tentpole claim of ``repro.sim.walkers`` is that the chunked NumPy
simulators make the memoryless baselines affordable at full trial counts:
E7's biased-walk and Lévy rows used to run a dozen step-level trials at
``horizon x k`` Python generator steps each.  The speedup test measures
both engines on E7's quick scenario (D=32, k=4, horizon=40*D^2) for the
random, biased and Lévy walkers and asserts the walker engine is at least
10x faster *per trial* for each of them; the
``once`` benchmarks record absolute walker-engine times at E7's full row
shape.  Runs under plain pytest, so the existing CI workflow picks it up.
"""

import time

import numpy as np

from repro.sim.engine import run_search
from repro.sim.rng import spawn_seeds
from repro.sim.walkers import BiasedWalker, LevyWalker, RandomWalker
from repro.sim.world import place_treasure

DISTANCE = 32
K = 4
HORIZON = 40 * DISTANCE * DISTANCE
TRIALS = 60  # quick-mode cfg.trials: what E7 now runs per walker row
STEP_TRIALS = 4
SEED = 20120716


def _step_engine_elapsed(walker):
    algorithm = walker.step_algorithm()
    world = place_treasure(DISTANCE, "offaxis")
    seeds = spawn_seeds(SEED, STEP_TRIALS)
    started = time.perf_counter()
    for run_seed in seeds:
        run_search(algorithm, world, K, run_seed, horizon=HORIZON)
    return time.perf_counter() - started


def _walker_engine_elapsed(walker):
    world = place_treasure(DISTANCE, "offaxis")
    walker.find_times(world, K, 4, seed=0, horizon=512)  # warm allocators
    started = time.perf_counter()
    times = walker.find_times(world, K, TRIALS, seed=SEED, horizon=HORIZON)
    elapsed = time.perf_counter() - started
    assert times.shape == (TRIALS,)
    return elapsed


def test_walker_engine_beats_step_engine_10x():
    speedups = {}
    for walker in (RandomWalker(), BiasedWalker(0.9), LevyWalker(2.0)):
        step_per_trial = _step_engine_elapsed(walker) / STEP_TRIALS
        walker_per_trial = _walker_engine_elapsed(walker) / TRIALS
        speedups[walker.name] = step_per_trial / walker_per_trial
    print(
        "\nE7 scenario per-trial speedups: "
        + ", ".join(f"{name} {s:.0f}x" for name, s in speedups.items())
    )
    for name, speedup in speedups.items():
        assert speedup >= 10.0, (
            f"{name}: walker engine only {speedup:.1f}x faster per trial"
        )


def test_bench_random_walker_full_row(once):
    world = place_treasure(DISTANCE, "offaxis")
    times = once(
        RandomWalker().find_times, world, K, TRIALS, SEED, horizon=HORIZON
    )
    assert np.isfinite(times).any()


def test_bench_biased_walker_full_row(once):
    world = place_treasure(DISTANCE, "offaxis")
    times = once(
        BiasedWalker(0.9).find_times, world, K, TRIALS, SEED, horizon=HORIZON
    )
    assert times.shape == (TRIALS,)


def test_bench_levy_walker_full_row(once):
    world = place_treasure(DISTANCE, "offaxis")
    times = once(
        LevyWalker(2.0).find_times, world, K, TRIALS, SEED, horizon=HORIZON
    )
    assert times.shape == (TRIALS,)
