"""Exhaustive checks of the vectorised primitives the excursion kernel uses.

The branch-free ``spiral_position_array``, the quadrant-rotation
``ring_cells_from_index_array``, the ball index map behind
``sample_uniform_ball`` and the kernel's spiral prefilter are each checked
against the scalar reference on every input of a small range and at the
boundaries where float64 rounding or a closed-form case split could slip.
"""

import math

import numpy as np

from repro.core.geometry import (
    ball_cells_from_index_array,
    ball_radius_from_index,
    ball_size,
    ring_cell_from_index,
    ring_cells_from_index_array,
    sample_uniform_ball,
)
from repro.core.spiral import (
    spiral_hit_time_array,
    spiral_position,
    spiral_position_array,
)
from repro.sim.events import _spiral_reach


def _pairs(xs, ys):
    return list(zip(xs.tolist(), ys.tolist()))


def _boundary_values(top_exponent, rng, samples=2000):
    """Every v below 2^12, each power of two and its neighbours up to
    ``2^top_exponent``, and random v in between."""
    vs = set(range(1, 1 << 12))
    for e in range(12, top_exponent + 1):
        vs.update({(1 << e) - 1, 1 << e, (1 << e) + 1})
    vs.update(rng.integers(1 << 12, 1 << top_exponent, samples).tolist())
    return sorted(vs)


class TestSpiralPosition:
    def test_every_time_below_two_million(self):
        ts = np.arange(2_000_000, dtype=np.int64)
        xs, ys = spiral_position_array(ts)
        expected = np.array(
            [spiral_position(t) for t in range(2_000_000)], dtype=np.int64
        )
        assert np.array_equal(xs, expected[:, 0])
        assert np.array_equal(ys, expected[:, 1])

    def test_run_boundaries_up_to_v_2_pow_26(self):
        """t = v^2 - 1, v^2, v^2 + v, v^2 + v + 1: the ends of every run."""
        vs = _boundary_values(26, np.random.default_rng(0))
        ts = sorted({v * v + d for v in vs for d in (-1, 0, v, v + 1)})
        xs, ys = spiral_position_array(np.array(ts, dtype=np.int64))
        assert _pairs(xs, ys) == [spiral_position(t) for t in ts]

    def test_times_beyond_float64_precision(self):
        """Up to 2^62 (the harmonic budget cap) float sqrt needs fix-ups."""
        rng = np.random.default_rng(1)
        ts = rng.integers(1 << 52, 1 << 62, 20_000)
        vs = rng.integers(1 << 26, 1 << 31, 2_000)
        near_squares = (vs[:, None] ** 2 + np.array([-1, 0, 1])).ravel()
        ts = np.concatenate([ts, near_squares, [(1 << 62) - 1, 1 << 62]])
        xs, ys = spiral_position_array(ts)
        assert _pairs(xs, ys) == [spiral_position(int(t)) for t in ts]


class TestRingCells:
    def test_every_cell_of_every_ring_up_to_64(self):
        rs = np.concatenate([np.full(4 * r, r) for r in range(1, 65)])
        ms = np.concatenate([np.arange(4 * r) for r in range(1, 65)])
        xs, ys = ring_cells_from_index_array(rs, ms)
        expected = [
            ring_cell_from_index(r, m) for r in range(1, 65) for m in range(4 * r)
        ]
        assert _pairs(xs, ys) == expected

    def test_harmonic_radius_cap(self):
        """r = 2^40, the largest radius the harmonic sampler draws."""
        r = 1 << 40
        rng = np.random.default_rng(2)
        corners = [q * r + d for q in range(4) for d in (0, 1, r - 1)]
        ms = np.array(corners + rng.integers(0, 4 * r, 5000).tolist())
        xs, ys = ring_cells_from_index_array(np.full(ms.size, r), ms)
        assert _pairs(xs, ys) == [ring_cell_from_index(r, int(m)) for m in ms]

    def test_float_rounded_index_4r_continues_quadrant_3(self):
        """A float-scaled ring draw can round to m == 4r; it maps as the
        last quadrant's formula does, onto (0, -r)."""
        xs, ys = ring_cells_from_index_array(
            np.array([5, 1 << 40]), np.array([20, 4 << 40])
        )
        assert _pairs(xs, ys) == [(0, -5), (0, -(1 << 40))]


def _scalar_ball_cell(n):
    rho = ball_radius_from_index(n)
    if rho == 0:
        return (0, 0)
    return ring_cell_from_index(rho, n - ball_size(rho - 1))


class TestBallIndexMap:
    def test_every_index_of_every_ball_up_to_radius_40(self):
        """The enumeration is radius-independent: B(40) holds every B(r)."""
        ns = np.arange(ball_size(40))
        xs, ys = ball_cells_from_index_array(ns)
        assert _pairs(xs, ys) == [_scalar_ball_cell(int(n)) for n in ns]
        assert len(set(_pairs(xs, ys))) == ns.size

    def test_ring_boundaries(self):
        """First and last index of rings up to 2^25, and on to 2^30 where
        2n no longer fits a float64 mantissa."""
        rhos = _boundary_values(30, np.random.default_rng(3))
        ns = sorted({
            n
            for rho in rhos
            for n in (ball_size(rho - 1) + d for d in (-1, 0, 1))
        } | {ball_size(rho) - 1 for rho in rhos})
        xs, ys = ball_cells_from_index_array(np.array(ns, dtype=np.int64))
        assert _pairs(xs, ys) == [_scalar_ball_cell(n) for n in ns]

    def test_sampler_maps_its_uniform_indices(self):
        n = np.random.default_rng(4).integers(0, ball_size(300), 1000)
        xs, ys = sample_uniform_ball(np.random.default_rng(4), 300, 1000)
        assert _pairs(xs, ys) == _pairs(*ball_cells_from_index_array(n))


class TestSpiralPrefilter:
    """The kernel resolves spiral hits only inside a Chebyshev box."""

    def test_hit_within_budget_lies_in_the_isqrt_box(self):
        """spiral_hit_time(dx, dy) <= b implies max(|dx|, |dy|) <=
        (isqrt(b) + 1) // 2, for every offset within radius 60 and every
        b <= 15000: the bound is checked at b = hit time and is monotone
        in b."""
        d = np.arange(-60, 61)
        dx, dy = (a.ravel() for a in np.meshgrid(d, d))
        hit = spiral_hit_time_array(dx, dy)
        cheb = np.maximum(np.abs(dx), np.abs(dy))
        bound = np.array([(math.isqrt(b) + 1) // 2 for b in range(15001)])
        assert np.all(np.diff(bound) >= 0)
        reached = hit <= 15000
        assert np.all(cheb[reached] <= bound[hit[reached]])
        # Tight: ring m is first entered at exactly (2m - 1)^2.
        for m in range(1, 61):
            assert hit[cheb == m].min() == (2 * m - 1) ** 2

    def test_kernel_box_is_the_isqrt_box_below_2_pow_52(self):
        rng = np.random.default_rng(6)
        budgets = np.concatenate([
            np.arange(1, 15001), rng.integers(1, 1 << 52, 20_000),
        ])
        exact = [(math.isqrt(b) + 1) // 2 for b in budgets.tolist()]
        assert _spiral_reach(budgets).tolist() == exact

    def test_kernel_box_never_narrower_than_the_isqrt_box(self):
        budgets = np.random.default_rng(7).integers(1 << 52, 1 << 62, 20_000)
        exact = np.array([(math.isqrt(b) + 1) // 2 for b in budgets.tolist()])
        assert np.all(_spiral_reach(budgets) >= exact)

    def test_kernel_box_survives_float_rounding(self):
        """The first ring outside the box starts strictly after the budget
        even in float64, the precision the hit test compares in."""
        rng = np.random.default_rng(5)
        roots = rng.integers(1 << 20, 1 << 31, 20_000)
        near_squares = roots * roots + rng.integers(-4096, 4096, roots.size)
        budgets = np.concatenate([
            rng.integers(1, 1 << 62, 20_000),
            near_squares.clip(1, 1 << 62),
            [1 << 62, (1 << 62) - 1, (1 << 53) + 1],
        ])
        outside = _spiral_reach(budgets) + 1
        first_entry = (2 * outside - 1) ** 2
        assert np.all(
            first_entry.astype(np.float64) > budgets.astype(np.float64)
        )
