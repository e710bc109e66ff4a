"""Baseline search strategies the paper positions itself against.

* :class:`SingleSpiralSearch` — the optimal *single-agent* strategy without
  knowledge of ``D`` (Baeza-Yates et al. [7], the cow-path lineage): spiral
  forever, finding the treasure in ``Theta(D^2)``.  Run with ``k`` agents it
  is also the "no dispersion" control: identical deterministic agents give
  **zero** speed-up, motivating the paper's randomised dispersion.

* :class:`KnownDSearch` — the Section 2 benchmark when ``D`` *is* known:
  walk to distance ``D``, then traverse the circle of radius ``D``; finds
  in ``O(D)``.

* :class:`RandomWalkSearch` — ``k`` independent simple random walks, the
  natural memoryless candidate.  The paper (Sections 1-2) notes its fatal
  flaw on ``Z^2``: the walk is null-recurrent, so the expected hitting time
  is **infinite** even for nearby treasures.  Experiments run it with a
  horizon and report success rate and truncated quantiles.

* :class:`BiasedWalkSearch` — a correlated (persistent) random walk in the
  spirit of the Harkness–Maroudas desert-ant model [24]: straight-ish
  segments with occasional reorientation.

* :class:`LevyFlightSearch` — Lévy flights with power-law step lengths
  (Reynolds [46]): directions uniform, lengths ``P(l) ~ l^-mu``.

All baselines are step-program algorithms for the exact engine;
:class:`SingleSpiralSearch` and :class:`KnownDSearch` also expose exact
closed-form find times.  The walker baselines additionally have batched
NumPy twins in :mod:`repro.sim.walkers` (``RandomWalker``,
``BiasedWalker``, ``LevyWalker``), which is what the experiments and the
sweep subsystem run; :func:`random_walk_find_times` survives as a
deprecated alias onto that engine.
"""

from __future__ import annotations

import warnings
from typing import Iterator, Tuple

import numpy as np

from ..core.spiral import spiral_hit_time, spiral_steps
from ..core.walks import diamond_tour, diamond_tour_hit_time, manhattan_path
from ..sim.world import World
from .base import Point, SearchAlgorithm

__all__ = [
    "SingleSpiralSearch",
    "KnownDSearch",
    "RandomWalkSearch",
    "BiasedWalkSearch",
    "LevyFlightSearch",
    "random_walk_find_times",
]

_DIRECTIONS: Tuple[Point, ...] = ((1, 0), (0, 1), (-1, 0), (0, -1))


class SingleSpiralSearch(SearchAlgorithm):
    """Spiral outward from the source forever (deterministic, optimal for k=1)."""

    uses_k = False
    name = "single-spiral"

    def step_program(self, rng: np.random.Generator) -> Iterator[Point]:
        x, y = 0, 0
        for dx, dy in spiral_steps():
            x, y = x + dx, y + dy
            yield x, y

    def exact_find_time(self, world: World) -> int:
        """Closed-form find time: the spiral hit time of the treasure."""
        return spiral_hit_time(world.treasure[0], world.treasure[1])

    def describe(self) -> str:
        return "Single-agent spiral search (cow-path baseline, Theta(D^2))"


class KnownDSearch(SearchAlgorithm):
    """Walk to distance ``D`` then tour the radius-``D`` circle (knows ``D``).

    The Section 2 benchmark: ``O(D)`` when the distance is known.  The walk
    heads to ``(D, 0)`` and tours counter-clockwise; a uniformly random
    starting corner would only shuffle constants.
    """

    uses_k = False

    def __init__(self, distance: int):
        if distance < 1:
            raise ValueError(f"distance must be >= 1, got {distance}")
        self.distance = int(distance)
        self.name = f"known-D(D={distance})"

    def step_program(self, rng: np.random.Generator) -> Iterator[Point]:
        start: Point = (self.distance, 0)
        yield from manhattan_path((0, 0), start)
        while True:
            yield from diamond_tour(self.distance)

    def exact_find_time(self, world: World) -> int:
        """Closed-form find time when the treasure is at distance ``D``."""
        if world.distance != self.distance:
            raise ValueError(
                f"KnownDSearch configured for D={self.distance} but treasure "
                f"is at distance {world.distance}"
            )
        return self.distance + diamond_tour_hit_time(self.distance, world.treasure)

    def describe(self) -> str:
        return f"Known-distance circle search (O(D)), D={self.distance}"


class RandomWalkSearch(SearchAlgorithm):
    """Simple symmetric random walk on ``Z^2`` (infinite expected hitting time)."""

    uses_k = False
    name = "random-walk"

    def step_program(self, rng: np.random.Generator) -> Iterator[Point]:
        x, y = 0, 0
        while True:
            dx, dy = _DIRECTIONS[int(rng.integers(0, 4))]
            x, y = x + dx, y + dy
            yield x, y

    def describe(self) -> str:
        return "k independent simple random walks (null-recurrent on Z^2)"


class BiasedWalkSearch(SearchAlgorithm):
    """Correlated random walk: keep heading with probability ``persistence``.

    A minimal stand-in for the Harkness–Maroudas [24] desert-ant trajectory
    model (straight outbound segments, tortuous local search): expected
    straight-run length is ``1 / (1 - persistence)``.
    """

    uses_k = False

    def __init__(self, persistence: float = 0.9):
        if not 0 <= persistence < 1:
            raise ValueError(f"persistence must be in [0, 1), got {persistence}")
        self.persistence = float(persistence)
        self.name = f"biased-walk(p={persistence:g})"

    def step_program(self, rng: np.random.Generator) -> Iterator[Point]:
        x, y = 0, 0
        heading = int(rng.integers(0, 4))
        while True:
            if rng.random() >= self.persistence:
                heading = int(rng.integers(0, 4))
            dx, dy = _DIRECTIONS[heading]
            x, y = x + dx, y + dy
            yield x, y

    def describe(self) -> str:
        return f"Correlated random walk, persistence={self.persistence:g}"


class LevyFlightSearch(SearchAlgorithm):
    """Lévy flight: uniform directions, power-law segment lengths ``~ l^-mu``.

    Reynolds [46] argues ``mu -> 1`` is optimal for cooperative foragers;
    ``mu`` near 3 degenerates towards Brownian behaviour.  Segments are
    walked cell by cell, so the treasure is detected en route.
    """

    uses_k = False

    def __init__(self, mu: float = 2.0, max_segment: int = 10**6):
        if not 1.0 < mu <= 4.0:
            raise ValueError(f"mu must be in (1, 4], got {mu}")
        self.mu = float(mu)
        self.max_segment = int(max_segment)
        self.name = f"levy(mu={mu:g})"

    def step_program(self, rng: np.random.Generator) -> Iterator[Point]:
        x, y = 0, 0
        while True:
            length = int(rng.zipf(self.mu))
            length = min(length, self.max_segment)
            dx, dy = _DIRECTIONS[int(rng.integers(0, 4))]
            for _ in range(length):
                x, y = x + dx, y + dy
                yield x, y

    def describe(self) -> str:
        return f"Levy flight with exponent mu={self.mu:g}"


def random_walk_find_times(
    world: World,
    k: int,
    trials: int,
    horizon: int,
    rng: np.random.Generator,
    chunk: int = 4096,
) -> np.ndarray:
    """Deprecated alias for :meth:`repro.sim.walkers.RandomWalker.find_times`.

    Returns a float array of shape ``(trials,)``: the first time any of the
    ``k`` walkers stands on the treasure, or ``inf`` if none does within
    ``horizon`` steps.  Simulation is chunked; peak memory is
    ``O(live walkers * chunk)`` 64-bit entries (the per-chunk offset draw
    plus the two cumulative-position matrices), not bits.

    .. deprecated:: use :class:`repro.sim.walkers.RandomWalker` directly —
       the walker engine also covers biased and Lévy walkers and plugs into
       the sweep subsystem.  For a given ``rng`` and ``chunk`` this alias
       is bitwise identical to the engine it wraps.
    """
    warnings.warn(
        "random_walk_find_times is deprecated; use "
        "repro.sim.walkers.RandomWalker().find_times(...)",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..sim.walkers import RandomWalker

    return RandomWalker().find_times(
        world, k, trials, rng, horizon=horizon, chunk=chunk
    )
