"""Vectorised excursion-level simulation of excursion algorithms.

For every algorithm built from go/spiral/return excursions (all of the
paper's constructions), the only randomness in a phase is the excursion
draw; conditioned on it, the time at which the agent would stand on the
treasure is a closed form:

* on the outbound Manhattan leg (x-first), if the treasure lies on it;
* during the spiral, at ``travel + spiral_hit_time(tau - u)`` if that hit
  time is within the budget;
* on the return leg, again geometrically.

The engines therefore never step the grid: each phase samples all
``trials x k`` excursion draws at once, resolves hits with the closed forms
of :mod:`repro.core.spiral`, and advances per-agent clocks.  This is exact
in distribution — validated against the step engine by
``tests/test_engine_vs_events.py`` — and several orders of magnitude
faster, which is what makes the paper-scale parameter sweeps feasible.

There is one static kernel, :func:`simulate_find_times_batch`, which
shares each phase's draws across many treasure positions;
:func:`simulate_find_times` on a static world is its one-world call.  Hits
are resolved *sparsely* (:func:`_excursion_hits`): a crossing needs an
exact coordinate match (``ux == tx`` outbound, ``ey == ty`` on the way
back) or a treasure inside the spiral's Chebyshev box, so one boolean
``(worlds, draws)`` grid per leg picks the few candidates, and only those
pay for the exact test.  The filters are necessary conditions of the
closed forms, so nothing they drop could have hit, and the candidates'
offsets fold straight into the per-world minima because adding a start
clock and dividing by a speed are monotone in IEEE arithmetic: the result
is bitwise the dense evaluation's.  Moving, late or multiple targets take
the dense dynamic kernel, whose targets differ per draw.

:func:`excursion_find_time` is the scalar single-agent twin used for exact
replay tests against the step engine: given the same RNG it consumes
random numbers in exactly the same order as
:meth:`repro.algorithms.base.ExcursionAlgorithm.step_program`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms.base import ExcursionAlgorithm
from ..core.spiral import (
    SAFE_OFFSET,
    spiral_hit_time,
    spiral_hit_time_array,
    spiral_hit_time_float_array,
    spiral_position,
    spiral_position_array,
)
from ..scenarios import ScenarioSpec, resolve_scenario
from .rng import BLOCK_STREAM, SeedLike, derive_rng, derive_seed, make_rng
from .world import (
    TARGET_STREAM,
    TargetTrack,
    World,
    WorldSpec,
    initial_targets,
    resolve_world,
)

__all__ = [
    "simulate_find_times",
    "simulate_find_times_block",
    "simulate_find_times_batch",
    "excursion_find_time",
    "expected_find_time",
    "find_time_statistics",
]

WorldsLike = Union[Sequence[World], Sequence[Tuple[int, int]], np.ndarray]


def _hit_times(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Spiral hit times as float64: exact int64 path, float64 for far offsets.

    Heavy-tailed samplers (harmonic search) occasionally draw start nodes
    so distant that the int64 closed form would overflow; those entries are
    resolved in float64, whose few-ULP error is irrelevant at that scale.
    """
    dx = np.asarray(dx, dtype=np.int64)
    dy = np.asarray(dy, dtype=np.int64)
    far = (np.abs(dx) > SAFE_OFFSET) | (np.abs(dy) > SAFE_OFFSET)
    if not np.any(far):
        return spiral_hit_time_array(dx, dy).astype(np.float64)
    out = np.empty(dx.shape, dtype=np.float64)
    near = ~far
    out[near] = spiral_hit_time_array(dx[near], dy[near])
    out[far] = spiral_hit_time_float_array(dx[far], dy[far])
    return out


def _outbound_hit_offsets(
    ux: np.ndarray, uy: np.ndarray, tx: int, ty: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Treasure hits on the x-first Manhattan walk from the source to ``u``.

    Returns ``(mask, offset)``: whether the treasure lies on the leg and the
    number of steps into the walk at which it is reached.
    """
    sgnx = np.sign(ux)
    sgny = np.sign(uy)
    on_x_leg = (ty == 0) & (tx * sgnx >= 1) & (abs(tx) <= np.abs(ux))
    on_y_leg = (tx == ux) & (ty * sgny >= 1) & (abs(ty) <= np.abs(uy))
    offset = np.where(on_x_leg, abs(tx), np.abs(ux) + abs(ty))
    return on_x_leg | on_y_leg, offset


def _return_hit_offsets(
    ex: np.ndarray, ey: np.ndarray, tx: int, ty: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Treasure hits on the x-first Manhattan walk from ``e`` back to the source."""
    on_x_leg = (ty == ey) & (tx * np.sign(ex) >= 0) & (abs(tx) <= np.abs(ex))
    on_y_leg = (tx == 0) & (ty * np.sign(ey) >= 0) & (abs(ty) <= np.abs(ey))
    off_x = np.abs(ex) - abs(tx)
    off_y = np.abs(ex) + np.abs(ey) - abs(ty)
    offset = np.where(on_x_leg, off_x, off_y)
    return on_x_leg | on_y_leg, offset


def _scenario_state(
    scn: Optional[ScenarioSpec],
    k: int,
    trials: int,
    cum: np.ndarray,
    rng: np.random.Generator,
) -> Tuple[
    np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[float]
]:
    """Resolve an active scenario against the initial agent clocks.

    Returns ``(cum, speeds, crash_abs, q)``: the (possibly delayed)
    per-slot clocks, the per-agent speed row (``None`` for unit speeds),
    the absolute wall-clock crash times (``None`` for immortal agents;
    lifetimes are geometric with the spec's per-time-unit hazard, measured
    from each agent's own start) and the detection probability (``None``
    for perfect detection).  A ``None`` scenario returns everything
    untouched — the engines then never branch off the legacy path.

    Crash lifetimes come from a *spawned child* of ``rng``, not the main
    stream: the excursion draws that follow are then identical across
    hazard settings of the same seed, so a hazard sweep (E11) compares
    paired executions rather than independent resamples.
    """
    if scn is None:
        return cum, None, None, None
    if scn.start_stagger > 0:
        cum = cum + scn.delays(k)
    speeds = scn.speeds(k) if scn.speed_spread > 0 else None
    crash_abs = None
    if scn.crash_hazard > 0:
        (life_rng,) = rng.spawn(1)
        lifetimes = life_rng.geometric(scn.crash_hazard, size=(trials, k))
        crash_abs = cum + lifetimes.astype(np.float64)
    q = scn.detection_prob if scn.detection_prob < 1 else None
    return cum, speeds, crash_abs, q


def _compose_detection(
    spec: WorldSpec, q: Optional[float]
) -> Optional[float]:
    """World-level detection composed with the scenario's lossy knob."""
    q_world = spec.detection_prob if spec.detection_prob < 1 else None
    if q_world is None:
        return q
    return q_world if q is None else q_world * q


def _simulate_find_times_dynamic(
    algorithm: ExcursionAlgorithm,
    targets0: np.ndarray,
    spec: WorldSpec,
    k: int,
    trials: int,
    seed: SeedLike,
    *,
    horizon: Optional[float],
    max_phases: int,
    start_delays: Optional[np.ndarray],
    scenario: Optional[ScenarioSpec],
) -> np.ndarray:
    """Dynamic/multi-target twin of :func:`simulate_find_times`.

    Target positions are advanced *at excursion granularity*: each phase,
    every trial's targets are moved in closed form to that trial's
    earliest active-agent clock and frozen for the phase's excursions
    (exact for static multi-target worlds; the documented modelling
    granularity for moving targets — see DESIGN.md §10).  Hits are
    resolved per target with the same outbound/spiral/return closed forms
    as the legacy kernel; a hit is valid only at wall-clock times at or
    after the target's arrival, gated per leg because arrival is a lower
    bound (a return-leg crossing can count even when the outbound crossing
    of the same excursion was too early).
    """
    if spec.motion != "static" and horizon is None:
        raise ValueError(
            "dynamic-motion worlds need a horizon: a moving target can "
            "escape every searcher, so an un-capped run may never end"
        )
    rng = make_rng(seed)
    motion_rng = derive_rng(seed, TARGET_STREAM)
    scn = resolve_scenario(scenario)

    cum = np.zeros((trials, k), dtype=np.float64)
    if start_delays is not None:
        delays = np.asarray(start_delays, dtype=np.float64)
        if np.any(delays < 0):
            raise ValueError("start delays must be non-negative")
        cum = cum + np.broadcast_to(delays, (trials, k))
    cum, speeds, crash_abs, q = _scenario_state(scn, k, trials, cum, rng)
    q_eff = _compose_detection(spec, q)
    track = TargetTrack(spec, targets0, trials, motion_rng)
    best = np.full(trials, np.inf)
    cap = np.inf if horizon is None else float(horizon)

    families = algorithm.families()
    for phase_index in itertools.count():
        if phase_index >= max_phases:
            raise RuntimeError(
                f"simulation exceeded max_phases={max_phases}; "
                f"pass a horizon or raise the cap"
            )
        if crash_abs is not None:
            cum[cum >= crash_abs] = np.inf
        active = cum < np.minimum(best, cap)[:, None]
        if not np.any(active):
            break
        family = next(families, None)
        if family is None:
            break

        rows, cols = np.nonzero(active)
        count = rows.size
        ux, uy, budgets = family.sample(rng, count)
        start = cum[rows, cols]
        travel = np.abs(ux) + np.abs(uy)
        dx_end, dy_end = spiral_position_array(budgets)
        ex = ux + dx_end
        ey = uy + dy_end
        speed = speeds[cols] if speeds is not None else None

        # Freeze each trial's targets at its earliest active clock.
        t_query = np.where(
            active.any(axis=1),
            np.min(np.where(active, cum, np.inf), axis=1),
            0.0,
        )
        pos = track.positions(t_query)

        # Earliest valid hit on any target, per draw, in wall-clock time.
        hit_wall = np.full(count, np.inf)
        for j in range(spec.n_targets):
            txj = pos[rows, j, 0]
            tyj = pos[rows, j, 1]
            arr_j = track.arrival[rows, j]

            out_mask, out_off = _outbound_hit_offsets(ux, uy, txj, tyj)
            if q_eff is not None:
                out_mask = out_mask & (rng.random(count) < q_eff)
            spiral_hit = _hit_times(txj - ux, tyj - uy)
            sp_mask = spiral_hit <= budgets
            if q_eff is not None:
                sp_mask = sp_mask & (rng.random(count) < q_eff)
            ret_mask, ret_off = _return_hit_offsets(ex, ey, txj, tyj)
            if q_eff is not None:
                ret_mask = ret_mask & (rng.random(count) < q_eff)

            target_wall = np.full(count, np.inf)
            for mask, off in (
                (out_mask, out_off.astype(np.float64)),
                (sp_mask, travel + spiral_hit),
                (ret_mask, travel + budgets + ret_off),
            ):
                wall = start + (off / speed if speed is not None else off)
                ok = mask & (wall >= arr_j)
                target_wall = np.where(
                    ok, np.minimum(target_wall, wall), target_wall
                )
            hit_wall = np.minimum(hit_wall, target_wall)

        found = np.isfinite(hit_wall)
        if crash_abs is not None:
            found &= hit_wall <= crash_abs[rows, cols]
        if np.any(found):
            np.minimum.at(best, rows[found], hit_wall[found])
            cum[rows[found], cols[found]] = np.inf

        not_found = ~found
        duration = travel + budgets + np.abs(ex) + np.abs(ey)
        if speed is not None:
            duration = duration / speed
        cum[rows[not_found], cols[not_found]] = (
            start[not_found] + duration[not_found]
        )

    best[best > cap] = np.inf
    return best


def simulate_find_times(
    algorithm: ExcursionAlgorithm,
    world: World,
    k: int,
    trials: int,
    seed: SeedLike = None,
    *,
    horizon: Optional[float] = None,
    max_phases: int = 1_000_000,
    start_delays: Optional[np.ndarray] = None,
    scenario: Optional[ScenarioSpec] = None,
    world_spec: Optional[WorldSpec] = None,
) -> np.ndarray:
    """First times at which any of ``k`` agents finds the treasure.

    Runs ``trials`` independent executions of ``algorithm`` with ``k``
    agents each and returns a float array of shape ``(trials,)`` holding the
    first find time per execution (``inf`` when the excursion stream ends —
    one-shot algorithms — or ``horizon`` is exceeded without a find).

    Semantics are identical to the step engine: a find is recorded on the
    outbound leg, the spiral, or the return leg, whichever comes first.

    ``start_delays`` (shape ``(k,)`` or ``(trials, k)``, non-negative)
    models the paper's asynchronous-start remark (Section 2): agent ``i``
    only begins executing at its delay; times remain measured from ``t0 = 0``.

    ``scenario`` (:class:`repro.scenarios.ScenarioSpec`) perturbs agents
    with crash failures, heterogeneous speeds, staggered starts, and lossy
    detection; all times stay wall-clock (an edge costs ``1 / speed``).
    A ``None`` or all-default scenario takes exactly the legacy code path
    and is bitwise identical to the unperturbed engine.

    ``world_spec`` (:class:`repro.sim.world.WorldSpec`) declares the world
    process.  A ``None`` or all-default spec resolves to ``None`` and runs
    the static kernel as the one-world call of
    :func:`simulate_find_times_batch` (so the two are bitwise twins);
    anything else routes to the dynamic kernel, where ``world`` may also be
    an ``(n_targets, 2)`` array of initial target positions.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    wspec = resolve_world(world_spec)
    if wspec is not None:
        return _simulate_find_times_dynamic(
            algorithm,
            initial_targets(world, wspec),
            wspec,
            k,
            trials,
            seed,
            horizon=horizon,
            max_phases=max_phases,
            start_delays=start_delays,
            scenario=scenario,
        )
    return simulate_find_times_batch(
        algorithm, [world], k, trials, seed,
        horizon=horizon, max_phases=max_phases, start_delays=start_delays,
        scenario=scenario,
    )[0]


def simulate_find_times_block(
    algorithm: ExcursionAlgorithm,
    world: World,
    k: int,
    trials: int,
    root_seed: SeedLike,
    *,
    distance: int,
    block: int,
    horizon: Optional[float] = None,
    max_phases: int = 1_000_000,
    scenario: Optional[ScenarioSpec] = None,
    world_spec: Optional[WorldSpec] = None,
) -> np.ndarray:
    """One deterministic trial *block* of cell ``(distance, k)``.

    The incremental sweep runner's entry point: block ``block`` of a cell
    is seeded ``derive_seed(root_seed, BLOCK_STREAM, distance, k, block)``
    and simulated with :func:`simulate_find_times`.  Because the seed
    depends only on ``(root_seed, distance, k, block)`` — never on how
    many blocks ran before, which process runs it, or which other cells
    exist — blocks are *appendable*: a cached 200-trial cell tops up to
    1000 by simulating blocks 3.. and concatenating, bitwise identical to
    having run all blocks in one session.
    """
    if block < 0:
        raise ValueError(f"block index must be >= 0, got {block}")
    seed = derive_seed(root_seed, BLOCK_STREAM, int(distance), int(k), int(block))
    return simulate_find_times(
        algorithm, world, k, trials, seed,
        horizon=horizon, max_phases=max_phases, scenario=scenario,
        world_spec=world_spec,
    )


def _as_treasure_arrays(worlds: WorldsLike) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise a worlds argument to ``(tx, ty)`` int64 arrays, one per world.

    Accepts a sequence of :class:`World` instances, a sequence of
    ``(tx, ty)`` pairs, or an ``(n, 2)`` integer array.
    """
    if isinstance(worlds, np.ndarray):
        pairs = worlds
    else:
        seq: Iterable = worlds
        pairs = np.asarray(
            [w.treasure if isinstance(w, World) else tuple(w) for w in seq]
        )
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise ValueError(
            f"worlds must be a non-empty sequence of (tx, ty) pairs; "
            f"got array of shape {pairs.shape}"
        )
    if np.any((pairs[:, 0] == 0) & (pairs[:, 1] == 0)):
        raise ValueError("treasure must not be placed on the source")
    return pairs[:, 0], pairs[:, 1]


def _spiral_reach(budgets: np.ndarray) -> np.ndarray:
    """Half-width of the Chebyshev box a spiral of ``budgets`` steps stays in.

    The spiral first enters L-inf ring ``m`` at step ``(2m - 1)^2``, so the
    box is ``(isqrt(b) + 1) // 2``.  The float64 ``isqrt`` here is exact
    below 2^52 and beyond can only round up, to a wider box that also
    holds every cell whose hit time the kernel's float64 comparison
    cannot tell apart from ``b``: the box never drops a hit.
    """
    return (np.sqrt(budgets.astype(np.float64)).astype(np.int64) + 1) // 2


Leg = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _excursion_hits(
    ux: np.ndarray,
    uy: np.ndarray,
    budgets: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
) -> Tuple[List[Leg], np.ndarray]:
    """Every treasure crossing of a phase's excursions, resolved sparsely.

    Draw ``s`` goes x-first from the source to ``(ux, uy)``, spirals
    ``budgets[s]`` steps and returns x-first; ``tx, ty`` hold one treasure
    per world.  Returns the outbound, spiral and return legs as
    ``(world, draw, offset)`` triples of the crossings, ``offset`` being
    the float64 step count into the excursion, and each draw's length in
    steps.

    Each leg builds one ``(worlds, draws)`` boolean grid from an exact
    necessary condition (``ux == tx`` for the outbound y-run, the spiral's
    Chebyshev box, ``ey == ty`` for the return x-run) and resolves the full
    condition and offset on its few candidates only.  The outbound x-run
    (worlds with ``ty == 0``) and the return y-run (``tx == 0``) have no
    such filter and are resolved per world on the draw arrays.
    """
    dx_end, dy_end = spiral_position_array(budgets)
    ex = ux + dx_end
    ey = uy + dy_end
    ax, ay = np.abs(ux), np.abs(uy)
    aex, aey = np.abs(ex), np.abs(ey)
    travel = ax + ay
    ret_base = travel + budgets
    tx_col, ty_col = tx[:, None], ty[:, None]

    def cells(grid):
        # flatnonzero is several times faster than 2-D nonzero on a
        # sparse grid; only the few candidates pay the divmod.
        return np.divmod(np.flatnonzero(grid), grid.shape[1])

    def leg(parts):
        w, s, off = (np.concatenate(p) for p in zip(*parts))
        return w, s, off.astype(np.float64)

    # Outbound y-run at x == ux, then x-runs along y == 0.
    w, s = cells(ux == tx_col)
    t = ty[w]
    ok = (t * np.sign(uy[s]) >= 1) & (np.abs(t) <= ay[s])
    w, s, t = w[ok], s[ok], t[ok]
    outbound = [(w, s, ax[s] + np.abs(t))]
    for j in np.nonzero(ty == 0)[0]:
        c = tx[j]
        s = np.nonzero(ux >= c if c > 0 else ux <= c)[0]
        outbound.append((np.full(s.size, j), s, np.full(s.size, abs(c))))

    # Spiral: exact hit times only inside the Chebyshev box.
    reach = _spiral_reach(budgets)
    box = (tx_col >= ux - reach) & (tx_col <= ux + reach)
    box &= ty_col >= uy - reach
    box &= ty_col <= uy + reach
    w, s = cells(box)
    hit = _hit_times(tx[w] - ux[s], ty[w] - uy[s])
    ok = hit <= budgets[s]
    s = s[ok]
    spiral = [(w[ok], s, travel[s] + hit[ok])]

    # Return x-run at y == ey, then y-runs along x == 0.
    w, s = cells(ey == ty_col)
    t = tx[w]
    ok = (t * np.sign(ex[s]) >= 0) & (np.abs(t) <= aex[s])
    w, s, t = w[ok], s[ok], t[ok]
    ret = [(w, s, ret_base[s] + aex[s] - np.abs(t))]
    for j in np.nonzero(tx == 0)[0]:
        c = ty[j]
        s = np.nonzero(ey >= c if c > 0 else ey <= c)[0]
        ret.append((np.full(s.size, j), s, ret_base[s] + aex[s] + aey[s] - abs(c)))

    return [leg(outbound), leg(spiral), leg(ret)], ret_base + aex + aey


def simulate_find_times_batch(
    algorithm: ExcursionAlgorithm,
    worlds: WorldsLike,
    k: int,
    trials: int,
    seed: SeedLike = None,
    *,
    horizon: Optional[float] = None,
    max_phases: int = 1_000_000,
    start_delays: Optional[np.ndarray] = None,
    scenario: Optional[ScenarioSpec] = None,
) -> np.ndarray:
    """First find times for many worlds at once, sharing excursion draws.

    The static excursion kernel; :func:`simulate_find_times` is its
    one-world call.  ``worlds`` is a sequence of treasure positions
    (``World`` instances or ``(tx, ty)`` pairs) and the result has shape
    ``(len(worlds), trials)`` — row ``w`` holds the per-trial first find
    times for world ``w``.

    Each phase's ``trials x k`` excursion draws are sampled **once** and
    resolved against every world (see :func:`_excursion_hits`), so the
    per-draw sampling cost is paid once instead of once per world.  Per
    world, every row is distributed exactly as a one-world trial (the
    excursion draws are i.i.d., so conditioning on which slots are still
    running never biases them).  Across worlds the shared draws act as
    common random numbers: per-world means are unbiased, and cross-world
    comparisons (the point of a D-sweep) see reduced variance because the
    noise is paired.

    An agent keeps drawing excursions while *any* world still needs it
    (different worlds find at different times); per-world ``best`` clocks
    record each world's first find, and later excursions of an agent that
    already found in some world can never improve that world's ``best``
    because a hit is never later than the end of its excursion.

    ``horizon``, ``max_phases``, ``start_delays`` and ``scenario`` behave
    exactly as in :func:`simulate_find_times`; the horizon is shared by all
    worlds.  Scenario perturbations are per *slot* (trial, agent) or per
    draw — crash times, speeds, delays and detection coins are all
    world-independent — so the shared-draw pairing across worlds is
    preserved under any scenario.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    tx, ty = _as_treasure_arrays(worlds)
    n_worlds = tx.shape[0]
    rng = make_rng(seed)
    scn = resolve_scenario(scenario)

    cum = np.zeros((trials, k), dtype=np.float64)
    if start_delays is not None:
        delays = np.asarray(start_delays, dtype=np.float64)
        if np.any(delays < 0):
            raise ValueError("start delays must be non-negative")
        cum = cum + np.broadcast_to(delays, (trials, k))
    cum, speeds, crash_abs, q = _scenario_state(scn, k, trials, cum, rng)
    best = np.full((n_worlds, trials), np.inf)
    cap = np.inf if horizon is None else float(horizon)

    families = algorithm.families()
    for phase_index in itertools.count():
        if phase_index >= max_phases:
            raise RuntimeError(
                f"simulation exceeded max_phases={max_phases}; "
                f"pass a horizon or raise the cap"
            )
        if crash_abs is not None:
            # Crashed slots never move again (crashes are world-independent,
            # so parking keeps the clocks world-independent too).
            cum[cum >= crash_abs] = np.inf
        # A slot (trial, agent) is live while the slowest world still wants
        # it: cum < min(best[w], cap) for some w.
        targets = np.minimum(best, cap)
        active = cum < targets.max(axis=0)[:, None]
        if not np.any(active):
            break
        family = next(families, None)
        if family is None:
            break

        # A world is *open* while some slot can still improve it; resolving
        # hits only for open worlds matches the one-world stopping rule per
        # world and keeps late phases (where only the slowest worlds
        # remain) cheap.
        open_worlds = np.nonzero(
            (targets > cum.min(axis=1)[None, :]).any(axis=1)
        )[0]

        rows, cols = np.nonzero(active)
        count = rows.size
        ux, uy, budgets = family.sample(rng, count)
        start = cum[rows, cols]
        legs, duration = _excursion_hits(
            ux, uy, budgets, tx[open_worlds], ty[open_worlds]
        )
        if q is not None:
            # One detection coin per draw and leg, in leg order, drawn
            # whether or not the draw crosses any treasure and shared
            # across worlds (common random numbers, like the draws).
            for n, (w, s, off) in enumerate(legs):
                seen = rng.random(count)[s] < q
                legs[n] = (w[seen], s[seen], off[seen])

        # Fold every crossing into ``best``.  Crossings need not be reduced
        # per draw first: adding ``start`` and dividing by a speed are
        # monotone in IEEE arithmetic, so the minimum over a draw's
        # crossings maps to the minimum of their find times, bit for bit.
        w_sub, s_idx, offset = (np.concatenate(p) for p in zip(*legs))
        speed = speeds[cols] if speeds is not None else None
        if speed is not None:
            find_times = start[s_idx] + offset / speed[s_idx]
        else:
            find_times = start[s_idx] + offset
        if crash_abs is not None:
            # Hits after the slot's crash time never happen, in any world.
            alive = find_times <= crash_abs[rows[s_idx], cols[s_idx]]
            w_sub, s_idx, find_times = w_sub[alive], s_idx[alive], find_times[alive]
        w_idx = open_worlds[w_sub]
        np.minimum.at(best.ravel(), w_idx * trials + rows[s_idx], find_times)

        # Finders are not parked: whether a draw found is world-dependent.
        # Advancing every live slot by the full excursion duration is safe
        # (see docstring) and keeps the clocks world-independent.
        if speed is not None:
            duration = duration / speed
        cum[rows, cols] = start + duration

    best[best > cap] = np.inf
    return best


def excursion_find_time(
    algorithm: ExcursionAlgorithm,
    world: World,
    rng: np.random.Generator,
    *,
    horizon: float = math.inf,
    max_phases: int = 1_000_000,
) -> float:
    """Exact find time of a *single* agent, replaying the step program's draws.

    Consumes ``rng`` exactly as
    :meth:`repro.algorithms.base.ExcursionAlgorithm.step_program` does (one
    ``sample_one`` per excursion), so for any seed this returns precisely
    the step at which the step-level engine would see the agent stand on
    the treasure.  Used by cross-engine validation and by instrumentation
    that needs per-agent determinism.
    """
    tx, ty = world.treasure
    elapsed = 0.0
    for phase_index, family in enumerate(algorithm.families()):
        if phase_index >= max_phases or elapsed >= horizon:
            return math.inf
        (ux, uy), budget = family.sample_one(rng)
        travel = abs(ux) + abs(uy)

        candidates = []
        # Outbound leg.
        if ty == 0 and tx * np.sign(ux) >= 1 and abs(tx) <= abs(ux):
            candidates.append(abs(tx))
        if tx == ux and ty * np.sign(uy) >= 1 and abs(ty) <= abs(uy):
            candidates.append(abs(ux) + abs(ty))
        # Spiral.
        hit = spiral_hit_time(tx - ux, ty - uy)
        if hit <= budget:
            candidates.append(travel + hit)
        # Return leg.
        dxe, dye = spiral_position(budget)
        ex, ey = ux + dxe, uy + dye
        if ty == ey and tx * np.sign(ex) >= 0 and abs(tx) <= abs(ex):
            candidates.append(travel + budget + abs(ex) - abs(tx))
        if tx == 0 and ty * np.sign(ey) >= 0 and abs(ty) <= abs(ey):
            candidates.append(travel + budget + abs(ex) + abs(ey) - abs(ty))

        if candidates:
            return elapsed + min(candidates)
        elapsed += travel + budget + abs(ex) + abs(ey)
    return math.inf


def expected_find_time(
    algorithm: ExcursionAlgorithm,
    world: World,
    k: int,
    trials: int,
    seed: SeedLike = None,
    **kwargs,
) -> Tuple[float, float]:
    """Convenience wrapper: mean find time and its standard error.

    Returns ``(mean, stderr)`` over ``trials`` executions.  Truncated
    (non-finding) runs propagate ``inf`` into the mean, which is the honest
    answer for one-shot algorithms.

    ``stderr`` sentinels: ``inf`` when any run failed to find (the spread
    is unbounded), and ``nan`` for a single finite trial — one sample
    carries no spread information, and reporting ``0.0`` would silently
    overstate confidence.
    """
    times = simulate_find_times(algorithm, world, k, trials, seed, **kwargs)
    return find_time_statistics(times)


def find_time_statistics(times: np.ndarray) -> Tuple[float, float]:
    """``(mean, stderr)`` of a find-time sample, with the shared sentinels.

    The single source of the sentinel rules used by
    :func:`expected_find_time` and the sweep subsystem's cell statistics:
    ``stderr`` is ``inf`` when any trial failed to find and ``nan`` for a
    single finite trial.
    """
    times = np.asarray(times, dtype=np.float64)
    mean = float(np.mean(times))
    if not np.all(np.isfinite(times)):
        stderr = math.inf
    elif times.size == 1:
        stderr = math.nan
    else:
        stderr = float(np.std(times, ddof=1) / math.sqrt(times.size))
    return mean, stderr
