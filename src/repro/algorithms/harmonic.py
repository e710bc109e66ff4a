"""Section 5 of the paper: the harmonic search algorithm (Theorem 5.1).

The harmonic algorithm is deliberately minimal — three actions, no loops —
to be plausible for "simple and tiny agents such as ants":

1. go to a node ``u`` drawn with probability ``p(u) = c / d(u)^(2+delta)``;
2. spiral-search for ``t(u) = d(u)^(2+delta)`` steps;
3. return to the source.

Theorem 5.1: for ``delta in (0, 0.8]`` and any ``eps > 0`` there is an
``alpha`` such that whenever ``k > alpha * D^delta``, with probability at
least ``1 - eps`` the treasure is found within ``O(D + D^(2+delta)/k)``
time.  (One-shot: each agent searches exactly once, so for small ``k`` the
treasure may never be found — the theorem trades a ``D^delta`` factor of
"surplus" agents for the absence of any iteration.)

Sampling ``p(u)`` exactly: the radius ``d(u) = r`` has probability
``4r * c / r^(2+delta) = r^-(1+delta) / zeta(1+delta)`` — precisely the
Zipf/zeta law with exponent ``1 + delta`` (``Generator.zipf``) — and the
cell is uniform on its ring.  The normalising constant is
``c = 1 / (4 * zeta(1+delta))``, with :func:`zeta` summed here.

:class:`RestartingHarmonicSearch` is the natural Las-Vegas extension
discussed around Section 6: agents repeat the three-step excursion
independently until the treasure is found, keeping the algorithm loop-free
per round while making the expected running time finite for every ``k``.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

import numpy as np

from ..core.geometry import ring_cells_from_index_array
from .base import ExcursionAlgorithm, ExcursionFamily

__all__ = [
    "PowerLawRingFamily",
    "HarmonicSearch",
    "RestartingHarmonicSearch",
    "harmonic_normalizing_constant",
    "zeta",
]

#: ``B_2j / (2j)!`` for ``j = 1..6``: the Euler–Maclaurin corrections of :func:`zeta`.
_ZETA_BERNOULLI = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
)


def zeta(s: float) -> float:
    """Riemann ``zeta(s) = sum_{n >= 1} n^-s`` for real ``s > 1``.

    Euler–Maclaurin at ``N = 12``: terms ``n < N`` directly, the tail as
    ``N^(1-s)/(s-1) + N^-s/2`` plus six Bernoulli corrections; relative
    error below 1e-15 on ``(1, 60]``.
    """
    if not s > 1:
        raise ValueError(f"zeta(s) needs s > 1, got {s}")
    n = 12.0
    terms = [k ** -s for k in range(1, 12)] + [n ** (1 - s) / (s - 1), n ** -s / 2]
    rising = s * n ** (-s - 1)  # s(s+1)...(s+2j-2) * N^(1-s-2j)
    for j, coefficient in enumerate(_ZETA_BERNOULLI):
        terms.append(coefficient * rising)
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / (n * n)
    return math.fsum(terms)


def harmonic_normalizing_constant(delta: float) -> float:
    """The constant ``c`` with ``sum_u c / d(u)^(2+delta) = 1``.

    Summing ring by ring: ``sum_r 4r * c * r^-(2+delta) = 4c * zeta(1+delta)``,
    so ``c = 1 / (4 * zeta(1+delta))``.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return 1.0 / (4.0 * zeta(1.0 + delta))


class PowerLawRingFamily(ExcursionFamily):
    """The harmonic excursion: ``d(u) ~ Zipf(1+delta)``, ``u`` uniform on its ring.

    The spiral budget is ``ceil(d(u)^(2+delta))``, clipped at ``budget_cap``
    to keep arithmetic in int64 (the clip only affects excursions whose
    radius exceeds ~10^9, which occur with probability ``< 10^-9`` per draw
    and are irrelevant to any measured statistic).
    """

    def __init__(self, delta: float, budget_cap: int = 2**62):
        if not 0 < delta:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.budget_cap = int(budget_cap)

    def sample(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        radii = rng.zipf(1.0 + self.delta, size)
        # Clip the astronomical tail (P < 2^-40 per draw for delta >= 0.1):
        # a radius beyond 2^40 cannot hit anything within any budget anyway,
        # and 4 * radius must stay well inside int64 for the ring draw.
        radii = np.minimum(radii, 2**40)
        m = (rng.random(size) * 4 * radii).astype(np.int64)
        ux, uy = ring_cells_from_index_array(radii, m)
        budgets = np.minimum(
            np.ceil(radii.astype(np.float64) ** (2.0 + self.delta)),
            float(self.budget_cap),
        ).astype(np.int64)
        return ux, uy, budgets

    def __repr__(self) -> str:
        return f"PowerLawRingFamily(delta={self.delta:g})"


class HarmonicSearch(ExcursionAlgorithm):
    """Algorithm 2: the one-shot harmonic search.

    Parameters
    ----------
    delta:
        The tail exponent; Theorem 5.1 covers ``delta in (0, 0.8]``.
        Larger ``delta`` concentrates agents near the source (better for
        small ``D``), smaller ``delta`` reaches further per agent.
    """

    uses_k = False

    def __init__(self, delta: float = 0.5):
        if not 0 < delta:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.name = f"harmonic(delta={delta:g})"

    def families(self) -> Iterator[ExcursionFamily]:
        yield PowerLawRingFamily(self.delta)

    def describe(self) -> str:
        return (
            f"Algorithm 2 (harmonic) with delta={self.delta:g} "
            f"(Theorem 5.1: whp O(D + D^(2+delta)/k) when k > alpha*D^delta)"
        )


class RestartingHarmonicSearch(ExcursionAlgorithm):
    """Las-Vegas harmonic search: repeat the 3-step excursion until success.

    Keeps the per-round simplicity of Algorithm 2 (no nested loops, no
    counters) but has finite expected running time for every ``k``: rounds
    are i.i.d., and each round finds a distance-``D`` treasure with
    probability ``Omega(k / D^delta)`` clipped at a constant.
    """

    uses_k = False

    def __init__(self, delta: float = 0.5):
        if not 0 < delta:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.name = f"harmonic*(delta={delta:g})"

    def families(self) -> Iterator[ExcursionFamily]:
        family = PowerLawRingFamily(self.delta)
        while True:
            yield family

    def describe(self) -> str:
        return f"Restarting harmonic search with delta={self.delta:g}"
