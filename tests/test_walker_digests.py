"""Bitwise pins of the walker engine's output.

Each case runs :meth:`RandomWalker.find_times`, :func:`walker_find_times_block`
or :func:`walker_find_times_batch` and compares the sha256 of the raw
float64 find times with a committed digest.  The statistical walker tests
(``tests/test_walker_engine.py``) compare distributions, so they cannot
see a one-step drift in a single find time or a reordered detection coin;
these digests can.  A kernel rewrite that keeps results bitwise identical
leaves every digest unchanged.

The cases cover every branch of the random-walk chunk loop:

* ``cell-*`` are the cell shapes of an adaptive random-walk sweep
  (``D in {8, 16}``, ``k in {4, 16}``, horizon 4096, trial blocks 0-7 of
  the block schedule, one digest per cell over all its blocks);
* ``horizon-*`` run horizons 1, 2, 7 and 20000 (the last one wider than
  one default chunk);
* ``chunk-*`` pass an explicit ``chunk`` of 7, 4096 and 40000;
* ``place-*`` put the treasure on an axis, off the axes, in the third
  quadrant, beyond the reach of the first chunk and beyond the horizon;
* ``scenario-*`` take each :class:`ScenarioSpec` knob, all of them
  together, and explicit ``start_delays``;
* ``world-*`` take each dynamic :class:`WorldSpec` feature (walk and drift
  motion, three targets, geometric arrival, world detection) and one
  spec that composes them with a scenario; targets are frozen per chunk,
  so these use short chunks (and one default chunk wider than the
  horizon, where the targets never move);
* ``batch-*`` run :func:`walker_find_times_batch` on static and dynamic
  worlds;
* ``segment-*`` pin the biased and Levy walkers' perturbed paths, which
  share the detection helper with the random walk.

Run this module as a script to print the digests of the current code.
"""

import hashlib

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec
from repro.sim.walkers import (
    BiasedWalker,
    LevyWalker,
    RandomWalker,
    walker_find_times_batch,
    walker_find_times_block,
)
from repro.sim.world import World, WorldSpec, place_targets, place_treasure
from repro.sweep.spec import block_trials


def _cell(distance, k):
    world = place_treasure(distance, "offaxis", seed=distance)
    return np.concatenate([
        walker_find_times_block(
            RandomWalker(), world, k, block_trials(block), 3,
            distance=distance, block=block, horizon=4096.0,
        )
        for block in range(8)
    ])


def _walk(treasure, k, trials, horizon, seed=7, **options):
    return RandomWalker().find_times(
        World(treasure), k, trials, seed, horizon=horizon, **options
    )


SCENARIOS = {
    "stagger": ScenarioSpec(start_stagger=6.0),
    "speed": ScenarioSpec(speed_spread=0.5),
    "crash": ScenarioSpec(crash_hazard=0.01),
    "detection": ScenarioSpec(detection_prob=0.7),
    "all": ScenarioSpec(
        crash_hazard=0.004, speed_spread=0.4, start_stagger=3.0,
        detection_prob=0.7,
    ),
}

WORLDS = {
    "walk": WorldSpec(motion="walk", motion_rate=0.2),
    "drift": WorldSpec(motion="drift", motion_rate=0.1),
    "targets3": WorldSpec(n_targets=3),
    "arrival": WorldSpec(arrival="geometric", arrival_hazard=0.01),
    "detection": WorldSpec(detection_prob=0.6),
    "composed": WorldSpec(
        n_targets=3, motion="walk", motion_rate=0.1, arrival="geometric",
        arrival_hazard=0.02, detection_prob=0.8,
    ),
}


def _world(name, chunk=32, **options):
    spec = WORLDS[name]
    targets = place_targets(5, "offaxis", spec.n_targets, seed=11)
    return RandomWalker().find_times(
        targets, 4, 60, 13, horizon=700, chunk=chunk, world_spec=spec,
        **options
    )


def _segment(walker, **options):
    return walker.find_times(
        World((4, -3)), 3, 80, 17, horizon=500, **options
    )


def _cases():
    for distance in (8, 16):
        for k in (4, 16):
            yield f"cell-D{distance}-k{k}", lambda d=distance, k=k: _cell(d, k)
    yield "horizon-1", lambda: _walk((1, 0), 4, 200, 1)
    yield "horizon-2", lambda: _walk((1, 1), 3, 200, 2)
    yield "horizon-7", lambda: _walk((2, -1), 3, 200, 7)
    yield "horizon-20000", lambda: _walk((5, 3), 2, 12, 20000)
    yield "chunk-7", lambda: _walk((6, -3), 2, 100, 300, chunk=7)
    yield "chunk-4096", lambda: _walk((-3, 2), 3, 60, 6000, chunk=4096)
    yield "chunk-40000", lambda: _walk((7, 0), 2, 6, 45000, chunk=40000)
    yield "place-axis", lambda: _walk((6, 0), 4, 64, 3000)
    yield "place-offaxis", lambda: _walk((3, 4), 4, 64, 3000)
    yield "place-negative", lambda: _walk((-4, -5), 4, 64, 3000)
    yield "place-far", lambda: _walk((30, 12), 8, 40, 2000, chunk=32)
    yield "place-unreachable", lambda: _walk((9000, -9000), 4, 16, 3000)
    for name, scenario in SCENARIOS.items():
        yield (
            f"scenario-{name}",
            lambda s=scenario: _walk((3, 2), 4, 80, 600, scenario=s),
        )
    yield "scenario-delays", lambda: _walk(
        (3, 2), 4, 80, 600, start_delays=np.array([0.0, 4.0, 9.5, 30.0])
    )
    yield "scenario-delays-per-trial", lambda: _walk(
        (3, 2), 2, 50, 600, chunk=40,
        start_delays=np.arange(100, dtype=np.float64).reshape(50, 2) % 13,
        scenario=SCENARIOS["detection"],
    )
    for name in WORLDS:
        yield f"world-{name}", lambda w=name: _world(w)
    yield "world-walk-one-chunk", lambda: _world("walk", chunk=None)
    yield "world-composed-scenario", lambda: _world(
        "composed", chunk=7, scenario=SCENARIOS["all"]
    )
    yield "batch-static", lambda: walker_find_times_batch(
        RandomWalker(), [(3, 1), (0, 4), (-5, -2)], 3, 50, 9, horizon=500
    )
    yield "batch-static-detection", lambda: walker_find_times_batch(
        RandomWalker(), [(3, 1), (0, 4), (-5, -2)], 3, 50, 9, horizon=500,
        scenario=SCENARIOS["detection"],
    )
    yield "batch-dynamic", lambda: walker_find_times_batch(
        RandomWalker(),
        [place_targets(d, "offaxis", 3, seed=d) for d in (4, 6)],
        3, 40, 9, horizon=500, world_spec=WORLDS["composed"],
    )
    yield "segment-biased-detection", lambda: _segment(
        BiasedWalker(0.8), scenario=SCENARIOS["all"]
    )
    yield "segment-levy-detection", lambda: _segment(
        LevyWalker(2.0), scenario=SCENARIOS["detection"]
    )
    yield "segment-biased-world", lambda: _segment(
        BiasedWalker(0.8), world_spec=WORLDS["detection"]
    )


CASES = dict(_cases())


def _digest(times: np.ndarray) -> str:
    raw = np.ascontiguousarray(times, dtype="<f8").tobytes()
    return hashlib.sha256(raw).hexdigest()[:32]


def case_digest(case_id: str) -> str:
    """Digest of one case under the current kernel."""
    return _digest(CASES[case_id]())


#: case id -> digest
DIGESTS = {
    "cell-D8-k4": "b1168f66c623cfd6e993ff2849fe4b46",
    "cell-D8-k16": "3dbb718df0f4b9ca04c05161f26e148c",
    "cell-D16-k4": "c4c73f524c475865718080f64de11deb",
    "cell-D16-k16": "35dfcee0bc337db493e9ede6dac56924",
    "horizon-1": "0c57a4ba4489cf252a475ae46da44343",
    "horizon-2": "c4b58fc50ff809507dbd8ef8e7c2ef9d",
    "horizon-7": "cd91660d68fcad7dbd88e1bdf491936b",
    "horizon-20000": "14daaa138afeaaf303a73f08a261bef7",
    "chunk-7": "06dc881bab7d39db8b7866a09606e66b",
    "chunk-4096": "8056666dac7814eed761bb139b7e0af2",
    "chunk-40000": "f5dcac48e623e3eea623cb0658aad7f0",
    "place-axis": "4b7db5afaac0e7e02d60cfa3b1a66ace",
    "place-offaxis": "188d2ff6767e3e1ac297fb3c0f3578b2",
    "place-negative": "828194d4d70a54aa1d6abf40bc5edc66",
    "place-far": "81007927ff7281cf690f72b44eed5014",
    "place-unreachable": "c7d2441d7af8d5f9c0b8ecda4876ff6c",
    "scenario-stagger": "53906c04f5aac6cc1f8a310ad67ebfd5",
    "scenario-speed": "07c28ace41ce89659a6f84e2e239c41c",
    "scenario-crash": "6d50e146b2095b515a2876de9c5717c1",
    "scenario-detection": "1483b889ea8c82c39370045d3bfdf64b",
    "scenario-all": "c2d2420b9f898317afb3a05ef036f1db",
    "scenario-delays": "079d91541406c1cc99c7ab07e845789d",
    "scenario-delays-per-trial": "0e832da3566234de33a4754aad9c29eb",
    "world-walk": "76cc858b4c035a9fc3bc98cdeb247007",
    "world-drift": "71495652403950a9beb6acea2c86a7b8",
    "world-targets3": "b39c5b73d361e485391b2d1db5c2a425",
    "world-arrival": "b301ec165b74637be8c5d3ff7e9219f5",
    "world-detection": "1b1b8ad014a7ae7bea4f6bd1229757cb",
    "world-composed": "7047215f9421bd898dd8509e53ca952c",
    "world-walk-one-chunk": "0215eaa878332989c6be2ee2d9163d6f",
    "world-composed-scenario": "ba966265421cf95a06a2fcb4875c3c8a",
    "batch-static": "f6be9f1ea9bd1c64eb04e86e815b74dc",
    "batch-static-detection": "cee9776881e284e7f35f85390b9ec624",
    "batch-dynamic": "462a79a03212bd84af906ac986067aae",
    "segment-biased-detection": "404b5f99bf7d51c046dcf49805223567",
    "segment-levy-detection": "b942e477fb1f2f2e3b616db0a773ebc0",
    "segment-biased-world": "75c4a512769165f75aa4f4b7dde4490d",
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_walker_output_is_pinned(case_id):
    assert case_digest(case_id) == DIGESTS[case_id]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":
    for case_id in CASES:
        print(f'    "{case_id}": "{case_digest(case_id)}",')
