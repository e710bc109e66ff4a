"""L1 (hop-distance) geometry on the integer grid ``Z^2``.

The paper works on the infinite grid with the hop metric
``d(u, v) = |u.x - v.x| + |u.y - v.y|`` (Section 2).  The ball
``B(r) = {v : d(s, v) <= r}`` around the source is the discrete L1 ball
("diamond").  This module provides exact cardinalities, iterators, and
**exact** uniform sampling from balls and rings — the only geometric
primitives the paper's algorithms need besides the spiral.

Cardinalities
-------------

* ring ``{v : d(v) = r}`` has ``4r`` cells for ``r >= 1`` (1 for ``r = 0``);
* ball ``B(r)`` has ``2r^2 + 2r + 1`` cells.

Ring parameterisation
---------------------

Ring ``r >= 1`` is indexed ``m in [0, 4r)`` counter-clockwise from
``(r, 0)``; with quadrant ``q = m // r`` and offset ``i = m % r``:

====  =================
q     cell
====  =================
0     ``(r - i,  i)``
1     ``(-i,  r - i)``
2     ``(-(r - i), -i)``
3     ``(i, -(r - i))``
====  =================

Uniform sampling from ``B(r)`` draws a ring radius by exact inverse-CDF on
the cumulative ball sizes (pure integer arithmetic, no rejection), then an
index on the ring.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "l1_distance",
    "l1_norm",
    "ring_size",
    "ball_size",
    "ball_radius_from_index",
    "ring_cells",
    "ball_cells",
    "ring_cell_from_index",
    "ring_cells_from_index_array",
    "ball_cells_from_index_array",
    "sample_uniform_ball",
    "sample_uniform_ring",
    "annulus_size",
    "annulus_cells",
]


def l1_distance(u: Tuple[int, int], v: Tuple[int, int]) -> int:
    """Hop distance between grid nodes ``u`` and ``v``."""
    return abs(u[0] - v[0]) + abs(u[1] - v[1])


def l1_norm(x: int, y: int) -> int:
    """Hop distance of ``(x, y)`` from the origin."""
    return abs(x) + abs(y)


def ring_size(r: int) -> int:
    """Number of cells at L1 distance exactly ``r`` from a node."""
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return 1 if r == 0 else 4 * r


def ball_size(r: int) -> int:
    """Number of cells in the L1 ball of radius ``r``: ``2r^2 + 2r + 1``."""
    if r < 0:
        raise ValueError(f"radius must be non-negative, got {r}")
    return 2 * r * r + 2 * r + 1


def annulus_size(inner: int, outer: int) -> int:
    """Number of cells ``u`` with ``inner < d(u) <= outer``."""
    if inner > outer:
        raise ValueError(f"need inner <= outer, got {inner} > {outer}")
    return ball_size(outer) - ball_size(inner)


def ball_radius_from_index(n: int) -> int:
    """Ring radius of the ``n``-th cell in the radius-sorted enumeration of a ball.

    Cells of ``B(r)`` are enumerated ring by ring; index ``0`` is the centre,
    indices ``[2ρ² - 2ρ + 1, 2ρ² + 2ρ + 1)`` are ring ``ρ``.  Exact integer
    arithmetic (no float error); used by the exact uniform ball sampler.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    if n == 0:
        return 0
    rho = (1 + math.isqrt(2 * n - 1)) // 2
    # isqrt flooring can leave rho off by one in either direction; fix up.
    while ball_size(rho) <= n:
        rho += 1
    while rho > 0 and ball_size(rho - 1) > n:
        rho -= 1
    return rho


def ring_cell_from_index(r: int, m: int) -> Tuple[int, int]:
    """The ``m``-th cell (counter-clockwise from ``(r, 0)``) of ring ``r >= 1``."""
    if r < 1:
        raise ValueError(f"ring radius must be >= 1, got {r}")
    if not 0 <= m < 4 * r:
        raise ValueError(f"ring index out of range: {m} not in [0, {4 * r})")
    q, i = divmod(m, r)
    if q == 0:
        return r - i, i
    if q == 1:
        return -i, r - i
    if q == 2:
        return -(r - i), -i
    return i, -(r - i)


#: Quadrant rotations ``(cos, sin)`` of the ring parameterisation: quadrant
#: ``q`` is the quadrant-0 cell ``(r - i, i)`` turned by ``q`` quarter turns.
_QUADRANT_COS = np.array([1, 0, -1, 0], dtype=np.int64)
_QUADRANT_SIN = np.array([0, 1, 0, -1], dtype=np.int64)


def _rotated_ring_cells(
    q: np.ndarray, a: np.ndarray, i: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Turn the quadrant-0 cells ``(a, i)`` by ``q`` quarter turns.

    Quadrants beyond 3 are clipped to 3, as the scalar mapping's last
    branch does (a float-scaled index can round up to ``m == 4r``).
    """
    c = np.take(_QUADRANT_COS, q, mode="clip")
    s = np.take(_QUADRANT_SIN, q, mode="clip")
    return c * a - s * i, s * a + c * i


def ring_cells_from_index_array(
    r: np.ndarray, m: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`ring_cell_from_index` (all radii must be ``>= 1``)."""
    r = np.asarray(r, dtype=np.int64)
    q, i = np.divmod(np.asarray(m, dtype=np.int64), r)
    return _rotated_ring_cells(q, r - i, i)


def ring_cells(r: int) -> Iterator[Tuple[int, int]]:
    """Iterate over the cells of ring ``r`` (counter-clockwise; centre if r=0)."""
    if r == 0:
        yield 0, 0
        return
    for m in range(4 * r):
        yield ring_cell_from_index(r, m)


def ball_cells(r: int) -> Iterator[Tuple[int, int]]:
    """Iterate over all cells of ``B(r)``, ring by ring from the centre."""
    for rho in range(r + 1):
        yield from ring_cells(rho)


def annulus_cells(inner: int, outer: int) -> Iterator[Tuple[int, int]]:
    """Iterate over cells ``u`` with ``inner < d(u) <= outer``."""
    for rho in range(inner + 1, outer + 1):
        yield from ring_cells(rho)


def ball_cells_from_index_array(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cells of the ring-by-ring ball enumeration at indices ``n >= 0``.

    Vectorised ``ring_cell_from_index(rho, n - ball_size(rho - 1))`` with
    ``rho = ball_radius_from_index(n)`` (index 0 is the centre).  The
    enumeration does not depend on the ball's radius.
    """
    n = np.asarray(n, dtype=np.int64)
    # rho = floor((1 + sqrt(2n)) / 2) in exact arithmetic; float rounding
    # can leave it one off for n beyond 2^51, so fix up once each way.
    rho = ((np.sqrt(2.0 * n) + 1.0) * 0.5).astype(np.int64)
    rho += 2 * rho * (rho + 1) < n  # ball_size(rho) <= n
    rho -= (2 * rho * (rho - 1) >= n) & (rho > 0)  # ball_size(rho - 1) > n

    # The centre (n == 0, rho == 0) takes offset -1 on a unit divisor, so
    # q = -1 clips to quadrant 0 and the cell is (0, 0) with no masking.
    offset = n - 2 * rho * (rho - 1) - 1
    q, i = np.divmod(offset, np.maximum(rho, 1))
    return _rotated_ring_cells(q, rho - i, i)


def sample_uniform_ball(
    rng: np.random.Generator, radius: int, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` cells uniformly (with replacement) from ``B(radius)``.

    Exact: a uniform integer index in ``[0, |B(radius)|)`` is mapped to its
    ring by integer inverse-CDF and to a position on the ring.  Returns
    ``(x, y)`` int64 arrays of length ``size``.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    n = rng.integers(0, ball_size(radius), size=size, dtype=np.int64)
    return ball_cells_from_index_array(n)


def sample_uniform_ring(
    rng: np.random.Generator, radius: int, size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` cells uniformly (with replacement) from ring ``radius``."""
    if radius == 0:
        return np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
    m = rng.integers(0, 4 * radius, size=size, dtype=np.int64)
    r = np.full(size, radius, dtype=np.int64)
    return ring_cells_from_index_array(r, m)
