"""Closed-form quantities from the paper's proofs.

Everything here is *predicted*, not measured — the experiment harness
compares these against Monte-Carlo estimates, and the unit tests check the
algebra (e.g. that Assertion 1's geometric-sum bound really holds for the
implemented schedules, including all rounding).
"""

from __future__ import annotations

import math

from ..algorithms.harmonic import harmonic_normalizing_constant, zeta
from ..core.schedule import (
    nonuniform_stage_phases,
    phase_max_duration,
    uniform_big_stage_phases,
    uniform_stage_phases,
)

__all__ = [
    "lower_bound_time",
    "nonuniform_stage_time_bound",
    "uniform_stage_time",
    "uniform_critical_stage",
    "assertion2_phase_index",
    "harmonic_alpha",
    "harmonic_failure_bound",
    "harmonic_time_bound",
    "zeta_constant",
]


def lower_bound_time(distance: float, k: float) -> float:
    """The Section 2 observation: no algorithm beats ``max(D, D^2/(4k))``.

    The proof shows expected time ``T >= D`` trivially and ``T >= D^2/(4k)``
    by the counting argument (``2Tk`` node-visits cannot half-cover
    ``B(D)`` if ``T < D^2/4k``).
    """
    return max(distance, distance * distance / (4.0 * k))


def nonuniform_stage_time_bound(stage: int, k: float) -> float:
    """Worst-case duration of stage ``j`` of ``A_k``: ``sum_i O(2^i + 2^{2i}/k)``.

    Returned as the exact sum of per-phase worst cases for the *implemented*
    schedule (including rounding), which the proof bounds by
    ``O(2^j + 2^{2j}/k)``.
    """
    return float(
        sum(phase_max_duration(spec) for spec in nonuniform_stage_phases(stage, k))
    )


def uniform_stage_time(i: int, eps: float) -> float:
    """Exact worst-case duration of stage ``i`` of ``A_uniform(eps)``.

    Assertion 1 of Theorem 3.3 bounds this by ``O(2^i)``; the unit tests
    verify the implemented schedule meets ``C * 2^i`` with a constant ``C``
    depending only on ``eps``.
    """
    return float(sum(phase_max_duration(spec) for spec in uniform_stage_phases(i, eps)))


def uniform_big_stage_time(ell: int, eps: float) -> float:
    """Exact worst-case duration of big-stage ``ell`` (sum of its stages)."""
    return float(
        sum(phase_max_duration(spec) for spec in uniform_big_stage_phases(ell, eps))
    )


def uniform_critical_stage(distance: int, k: int, eps: float) -> int:
    """The proof's ``s = ceil(log2(D^2 * log^(1+eps) k / k)) + 1``.

    From stage ``s`` on, every stage contains a phase that succeeds with
    constant probability (Assertion 2).
    """
    if distance < 1 or k < 1:
        raise ValueError("distance and k must be >= 1")
    log_k = max(math.log2(k), 1.0)
    value = distance * distance * log_k ** (1.0 + eps) / k
    return max(0, math.ceil(math.log2(max(value, 1.0)))) + 1


def assertion2_phase_index(k: int) -> int:
    """The phase ``j`` with ``2^j <= k < 2^(j+1)`` used by Assertion 2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return int(math.floor(math.log2(k)))


def zeta_constant(delta: float) -> float:
    """``zeta(1 + delta)`` — the tail mass of the harmonic distribution."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return zeta(1.0 + delta)


def harmonic_alpha(eps: float, delta: float) -> float:
    """Theorem 5.1's ``alpha = 12 * beta / c`` with ``beta = ln(1/eps)``.

    ``c = 1/(4 zeta(1+delta))`` is the normalising constant of ``p(u)``;
    the theorem guarantees success probability ``>= 1 - eps`` whenever
    ``k > alpha * D^delta``.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    beta = math.log(1.0 / eps)
    c = harmonic_normalizing_constant(delta)
    return 12.0 * beta / c


def harmonic_failure_bound(k: float, distance: float, delta: float) -> float:
    """Upper bound on the one-shot harmonic failure probability.

    Following the proof of Theorem 5.1 with ``beta = c*k / (12 * D^delta)``
    (the largest beta permitted by ``k > alpha * D^delta``): failure
    probability at most ``exp(-beta)``, clipped to 1.
    """
    if k <= 0 or distance < 1:
        raise ValueError("k must be positive and distance >= 1")
    c = harmonic_normalizing_constant(delta)
    beta = c * k / (12.0 * distance**delta)
    return min(1.0, math.exp(-beta))


def harmonic_time_bound(distance: float, k: float, delta: float) -> float:
    """The Theorem 5.1 running-time envelope ``D + D^(2+delta)/k``."""
    if k <= 0 or distance < 1:
        raise ValueError("k must be positive and distance >= 1")
    return distance + distance ** (2.0 + delta) / k
