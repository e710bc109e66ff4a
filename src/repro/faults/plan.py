"""Declarative fault plans and the process-local injector singleton.

A :class:`FaultPlan` names instrumented *seams* (``FAULT_SITES``) and
attaches rules: fire with probability ``p``, skip the first ``after``
opportunities, fire at most ``times`` times, optionally carry a
``delay`` (slow links) or a ``mode`` refining *how* the seam fails.
Rules draw from ``derive_rng(plan.seed, FAULT_STREAM, rule, occurrence)``
— the plan's own seed, never the spec's — so chaos schedules are exactly
reproducible and simulation RNG draw order is untouched.  The plan is
deliberately **outside** spec identity: ``SweepSpec.spec_hash`` /
``data_hash`` never see it, so faulted and clean runs share cache
entries (which is what the bitwise chaos-parity tests compare).

The injector mirrors ``repro.obs.BUS``: seams read ``FAULTS.enabled``
and nothing else when no plan is active, keeping the production-path
cost to one attribute read (pinned by ``benchmarks/test_bench_faults.py``).
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..checks.registry import register_stream
from ..sim.rng import derive_rng

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_SITES",
    "FAULT_STREAM",
    "FAULTS",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "activate",
    "deactivate",
    "ensure_env_plan",
    "fault_plan",
    "load_plan",
]

#: Environment activation: a path to a plan JSON file, or the JSON text
#: itself (anything starting with ``{``).  Read once per process by
#: :func:`ensure_env_plan`; inherited by pool workers, which is how
#: worker-side seams (shm attach, pool kill) see the same plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The dedicated chaos-scheduling stream (``repro.checks`` registry).
FAULT_STREAM = register_stream("FAULT_STREAM", 0xFA017)

#: Every instrumented seam.  A plan naming an unknown site is rejected
#: at construction — a typo must not silently disable a chaos suite.
FAULT_SITES = (
    "cache.read",      # cache open/read raises (injected I/O error)
    "cache.corrupt",   # cache archive reads as truncated/corrupt
    "cache.write",     # cache write fails (mode "crash" orphans the tmp)
    "shm.attach",      # worker-side shared-memory attach fails
    "pool.kill",       # process-pool worker hard-exits mid-task
    "executor.process", # process tier unreachable (degradation chain)
    "remote.connect",  # connect refused (retried with backoff)
    "remote.disconnect",  # established worker connection drops mid-task
    "remote.blackhole",   # worker stops answering heartbeats
    "remote.slow",     # dispatch pays an injected latency (``delay``)
)


class FaultError(ConnectionError):
    """The exception injected seams raise.

    Subclasses :class:`ConnectionError` (itself an :class:`OSError`) so
    the *real* recovery handlers — cache best-effort ``except OSError``,
    remote ``except ConnectionError`` resubmission — catch it without
    any injection-aware code on the recovery paths.
    """


class FaultPlanError(ValueError):
    """A fault plan source (flag, variable or argument) that cannot be loaded."""


@dataclass(frozen=True)
class FaultRule:
    """One seam's failure schedule."""

    site: str
    mode: str = "error"  # seam-specific refinement (e.g. cache.write "crash")
    p: float = 1.0  # per-opportunity firing probability
    after: int = 0  # skip the first N opportunities
    times: Optional[int] = None  # fire at most N times (None = unlimited)
    delay: float = 0.0  # seconds, for "remote.slow"

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: "
                f"{', '.join(FAULT_SITES)}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"rule p must be in [0, 1], got {self.p!r}")
        if self.after < 0:
            raise ValueError(f"rule after must be >= 0, got {self.after!r}")
        if self.times is not None and self.times < 0:
            raise ValueError(f"rule times must be >= 0, got {self.times!r}")
        if self.delay < 0:
            raise ValueError(f"rule delay must be >= 0, got {self.delay!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "site": self.site, "mode": self.mode, "p": self.p,
            "after": self.after, "times": self.times, "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultRule":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown fault rule keys: {sorted(unknown)}")
        if "site" not in data:
            raise ValueError("fault rule needs a 'site'")
        return cls(
            site=str(data["site"]),
            mode=str(data.get("mode", "error")),
            p=float(data.get("p", 1.0)),  # type: ignore[arg-type]
            after=int(data.get("after", 0)),  # type: ignore[arg-type]
            times=(
                None if data.get("times") is None
                else int(data["times"])  # type: ignore[arg-type]
            ),
            delay=float(data.get("delay", 0.0)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules — the unit of chaos reproducibility."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": int(self.seed),
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be an object, got {data!r}")
        rules = data.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise ValueError("fault plan 'rules' must be a list")
        return cls(
            rules=tuple(FaultRule.from_dict(r) for r in rules),
            seed=int(data.get("seed", 0)),  # type: ignore[arg-type]
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def load_plan(source: str, origin: str = "fault plan") -> FaultPlan:
    """Load a plan from a JSON file path, or inline JSON text.

    Any failure raises :class:`FaultPlanError` naming *origin*, e.g. the flag.
    """
    try:
        text = source
        if not source.lstrip().startswith("{"):
            with open(source) as handle:
                text = handle.read()
        return FaultPlan.from_json(text)
    except (OSError, TypeError, ValueError) as error:
        raise FaultPlanError(
            f"{origin}={source!r} is not a usable fault plan (expected a "
            f"JSON file path or an inline JSON object): {error}"
        ) from error


class FaultInjector:
    """The process singleton seams consult (see :data:`FAULTS`).

    ``enabled`` is the whole disabled-path cost.  With a plan active,
    :meth:`check` counts the opportunity against every rule matching the
    site, draws the rule's firing decision from the fault stream, and
    returns the first rule that fires (or ``None``).  Opportunity
    counters are per ``(rule, process)``: driver-side seams see a
    deterministic opportunity sequence by construction, and worker-side
    seams only ever fire recoverable faults whose fallback is bitwise
    identical, so parity never depends on cross-process ordering.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._plan: Optional[FaultPlan] = None
        self._lock = threading.Lock()
        self._seen: Dict[int, int] = {}  # rule index -> opportunities
        self._fired: Dict[int, int] = {}  # rule index -> injections
        self.injections: Dict[str, int] = {}  # site -> injections (telemetry)
        #: site -> :meth:`check` calls while armed.  Telemetry only —
        #: the disabled-path benchmark uses it as the structural bound
        #: on how many ``FAULTS.enabled`` reads a disarmed run pays.
        self.opportunities: Dict[str, int] = {}
        self._armed_crash_file: Optional[str] = None
        self._prior_crash_env: Optional[str] = None

    @property
    def plan(self) -> Optional[FaultPlan]:
        return self._plan

    def activate(self, plan: FaultPlan) -> None:
        with self._lock:
            self._plan = plan
            self._seen = {}
            self._fired = {}
            self.injections = {}
            self.opportunities = {}
            self.enabled = bool(plan.rules)
        self._arm_pool_kill(plan)

    def deactivate(self) -> None:
        with self._lock:
            self._plan = None
            self._seen = {}
            self._fired = {}
            self.opportunities = {}
            self.enabled = False
        self._disarm_pool_kill()

    # ``pool.kill`` budgets must be shared across worker *processes*: a
    # per-process counter would re-fire in every rebuilt worker and burn
    # the pool's whole restart budget on one rule.  The executor already
    # solved exactly this with its file-backed crash hook (a count that
    # workers atomically decrement before hard-exiting), so pool.kill
    # rules arm that hook rather than reimplementing it.  The env name
    # is ``repro.sweep.executor.CRASH_ENV`` — spelled literally here to
    # keep the fault layer importable below the executor.
    _CRASH_ENV = "REPRO_EXECUTOR_CRASH"

    def _arm_pool_kill(self, plan: FaultPlan) -> None:
        self._disarm_pool_kill()
        kills = sum(
            (rule.times if rule.times is not None else 1)
            for rule in plan.rules
            if rule.site == "pool.kill"
        )
        if not kills:
            return
        import tempfile

        fd, path = tempfile.mkstemp(prefix="repro_fault_kill_", suffix=".txt")
        with os.fdopen(fd, "w") as handle:
            handle.write(str(kills))
        self._armed_crash_file = path
        self._prior_crash_env = os.environ.get(self._CRASH_ENV)
        os.environ[self._CRASH_ENV] = path

    def _disarm_pool_kill(self) -> None:
        path = getattr(self, "_armed_crash_file", None)
        if path is None:
            return
        prior = getattr(self, "_prior_crash_env", None)
        if prior is None:
            os.environ.pop(self._CRASH_ENV, None)
        else:
            os.environ[self._CRASH_ENV] = prior
        try:
            os.unlink(path)
        except OSError:
            pass
        self._armed_crash_file = None

    def check(self, site: str) -> Optional[FaultRule]:
        """One opportunity at ``site``: the firing rule, or ``None``."""
        with self._lock:
            plan = self._plan
            if plan is None:
                return None
            self.opportunities[site] = self.opportunities.get(site, 0) + 1
            hit: Optional[FaultRule] = None
            hit_index = -1
            for index, rule in enumerate(plan.rules):
                if rule.site != site:
                    continue
                occurrence = self._seen.get(index, 0)
                self._seen[index] = occurrence + 1
                if hit is not None:
                    continue  # still count the opportunity for later rules
                if occurrence < rule.after:
                    continue
                fired = self._fired.get(index, 0)
                if rule.times is not None and fired >= rule.times:
                    continue
                if rule.p < 1.0:
                    draw = derive_rng(
                        plan.seed, FAULT_STREAM, index, occurrence
                    ).random()
                    if draw >= rule.p:
                        continue
                self._fired[index] = fired + 1
                self.injections[site] = self.injections.get(site, 0) + 1
                hit, hit_index = rule, index
        if hit is not None:
            from ..obs import BUS

            if BUS.enabled:
                BUS.counter(
                    "fault.inject", site=site, mode=hit.mode, rule=hit_index,
                )
        return hit


#: The process singleton every instrumented seam reads.
FAULTS = FaultInjector()


def activate(plan: FaultPlan) -> None:
    """Activate ``plan`` on the process singleton (resets counters)."""
    FAULTS.activate(plan)


def deactivate() -> None:
    """Deactivate any active plan."""
    FAULTS.deactivate()


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Scope a plan to a ``with`` block (deactivated on exit)."""
    FAULTS.activate(plan)
    try:
        yield FAULTS
    finally:
        FAULTS.deactivate()


#: Guard so the environment is consulted once per process.
_ENV_LOADED = False


def ensure_env_plan() -> None:
    """Honour :data:`FAULT_PLAN_ENV` (idempotent; cheap after first call).

    Called by ``run_sweep`` on the driver and by the pool-worker task
    wrapper, so one exported variable arms every process of a run.  A
    malformed plan raises on every call — chaos testing with a silently
    ignored plan would report vacuous green.
    """
    global _ENV_LOADED
    if _ENV_LOADED:
        return
    source = os.environ.get(FAULT_PLAN_ENV)
    if source:
        FAULTS.activate(load_plan(source, origin=FAULT_PLAN_ENV))
    _ENV_LOADED = True
