"""Per-layer measurement for the traced run.

Two sources, both outside ``src/``:

* the program's own ``repro.obs`` events (sweep spans, ``cell.block``
  spans, ``executor.*``, ``cache.*``, ``sweep.checkpoint``), reduced by
  :func:`event_metrics`;
* :class:`StageClock`, which wraps public functions under the names
  their callers bind (:data:`STAGES`) and keeps wall time, self time
  (minus nested wrapped calls), calls and element counts per stage.

Pool workers never see the wrappers, so kernel and stage numbers for the
pool workloads come from a serial replay of the same specs.
"""

from __future__ import annotations

import importlib
import os
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


def _size(value) -> int:
    size = getattr(value, "size", None)
    return int(size) if size is not None else int(value)


def _world_trials(args, kwargs) -> int:
    worlds, trials = args[1], args[3]
    return len(worlds) * int(trials)


def _trials(args, kwargs) -> int:
    return int(args[3])


def _stored_bytes(args, kwargs) -> int:
    path = args[1]
    directory, stem = os.path.split(path)
    total = 0
    for name in os.listdir(directory or "."):
        if name.startswith(stem) and not name.endswith(".lock"):
            total += os.path.getsize(os.path.join(directory, name))
    return total


#: ``(module, attribute, stage, counter)``: what the traced run wraps.
#: ``counter(args, kwargs)`` gives the call's element count (the kernel
#: entry points count cell-trials; cache writes count bytes on disk).
STAGES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.sweep.runner", "simulate_find_times_batch", "events", _world_trials),
    ("repro.sweep.runner", "simulate_find_times_block", "events", _trials),
    ("repro.sweep.runner", "walker_find_times_block", "walkers", _trials),
    ("repro.sweep.runner", "load_result", "cache.load", None),
    ("repro.sweep.runner", "load_blocks", "cache.load", None),
    ("repro.sweep.runner", "save_result", "cache.save", _stored_bytes),
    ("repro.sweep.runner", "append_blocks", "cache.append", _stored_bytes),
    ("repro.algorithms.base", "sample_uniform_ball", "core.sample_ball",
     lambda a, kw: _size(kw.get("size", a[2] if len(a) > 2 else 1))),
    ("repro.sim.events", "spiral_position_array", "core.spiral_position",
     lambda a, kw: _size(a[0])),
    ("repro.sim.events", "spiral_hit_time_array", "core.spiral_hit",
     lambda a, kw: _size(a[0])),
    ("repro.sim.events", "spiral_hit_time_float_array", "core.spiral_hit",
     lambda a, kw: _size(a[0])),
)


class StageClock:
    """Accumulated wall and self time per stage of wrapped calls."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.count: Dict[str, int] = defaultdict(int)
        self._children: List[float] = []

    def wrap(self, stage: str, fn: Callable, counter: Optional[Callable]):
        def timed(*args, **kwargs):
            self._children.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.total[stage] += elapsed
                self.own[stage] += elapsed - children
                self.calls[stage] += 1
                if counter is not None:
                    self.count[stage] += counter(args, kwargs)

        return timed


@contextmanager
def instrumented(clock: StageClock) -> Iterator[StageClock]:
    """Install :data:`STAGES` wrappers for the ``with`` block, then restore."""
    saved = []
    try:
        for module_name, attribute, stage, counter in STAGES:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, clock.wrap(stage, original, counter))
        yield clock
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def stage_metrics(clock: StageClock) -> Dict[str, float]:
    """Kernel, stage and cache-call metrics of one op's wrapped calls."""
    core = ("core.sample_ball", "core.spiral_position", "core.spiral_hit")
    out: Dict[str, float] = {}
    for stage in ("events", "walkers"):
        seconds = clock.total.get(stage, 0.0)
        out[f"{stage}.s"] = seconds
        out[f"{stage}.calls"] = clock.calls.get(stage, 0)
        out[f"{stage}.trials_per_s"] = (
            clock.count.get(stage, 0) / seconds if seconds > 0 else 0.0
        )
    out["events.self_s"] = clock.own.get("events", 0.0)
    for stage in core:
        seconds = clock.total.get(stage, 0.0)
        count = clock.count.get(stage, 0)
        out[f"{stage}_s"] = seconds
        out[f"{stage}_n"] = count
        out[f"{stage}_per_s"] = count / seconds if seconds > 0 else 0.0
    for stage in ("load", "save", "append"):
        out[f"cache.{stage}_s"] = clock.total.get(f"cache.{stage}", 0.0)
    out["cache.bytes_written"] = clock.count.get(
        "cache.save", 0
    ) + clock.count.get("cache.append", 0)
    return out


def kernel_seconds(clock: StageClock) -> float:
    """Serial kernel-entry time: what ``exec_s`` would be with no executor."""
    return clock.total.get("events", 0.0) + clock.total.get("walkers", 0.0)


def event_metrics(records: List[Dict]) -> Dict[str, float]:
    """Runner, executor and cache metrics of one op's trace records.

    An op may hold several sweeps (run one after another), so per-sweep
    figures are summed: the op's critical path is the sum of each
    sweep's longest task, and its orchestration self time the sum of
    each sweep's wall minus its best possible schedule of the tasks it
    ran, ``max(sum(exec_s) / workers, max(exec_s))`` (which is
    ``wall - sum(exec_s)`` on one worker).
    """
    counts: Dict[str, int] = defaultdict(int)
    sweeps = []
    current: Optional[Dict] = None
    blocks = speculative = discarded = 0
    lock_wait = 0.0
    for record in sorted(records, key=lambda r: r["seq"]):
        name, data = record["name"], record.get("data", {})
        counts[name] += 1
        if name == "sweep.start":
            current = {"workers": max(1, int(data.get("workers") or 1)),
                       "exec": []}
        elif name == "sweep.end" and current is not None:
            current["wall"] = float(data["dur_s"])
            sweeps.append(current)
            current = None
        elif name == "executor.complete" and current is not None:
            current["exec"].append(float(data["exec_s"]))
        elif name == "cell.block.start" and data.get("kind") == "block":
            blocks += 1
            speculative += bool(data.get("speculative"))
        elif name == "cell.block.end" and data.get("kind") == "block":
            discarded += bool(data.get("discarded"))
        elif name == "cache.lock_wait":
            lock_wait += float(data.get("value", 0.0))
    busy = sum(sum(s["exec"]) for s in sweeps)
    wall = sum(s["wall"] for s in sweeps)
    slot_s = sum(s["wall"] * s["workers"] for s in sweeps)
    longest = sum(max(s["exec"], default=0.0) for s in sweeps)
    runner_self = sum(
        s["wall"] - max(sum(s["exec"]) / s["workers"],
                        max(s["exec"], default=0.0))
        for s in sweeps
    )
    return {
        "sweep.wall_s": wall,
        "runner.self_s": runner_self,
        "runner.tasks": sum(len(s["exec"]) for s in sweeps),
        "runner.max_task_frac": longest / busy if busy > 0 else 0.0,
        "runner.speedup_bound": busy / longest if longest > 0 else 0.0,
        "runner.blocks": blocks,
        "runner.blocks_speculative": speculative,
        "runner.blocks_stolen": counts["executor.steal"],
        "runner.blocks_discarded": discarded,
        "runner.block_useful_frac": (
            (blocks - discarded) / blocks if blocks else 1.0
        ),
        "executor.busy_s": busy,
        "executor.idle_worker_s": slot_s - busy,
        "executor.utilization": busy / slot_s if slot_s > 0 else 0.0,
        "executor.restarts": counts["executor.restart"],
        "executor.resubmits": counts["executor.resubmit"],
        "cache.lock_wait_s": lock_wait,
        "cache.hits": counts["cache.hit"],
        "cache.misses": counts["cache.miss"],
        "cache.appends": counts["cache.append"],
        "cache.checkpoints": counts["sweep.checkpoint"],
    }


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_metrics(stderr: str) -> Dict[str, float]:
    """Import seconds from ``python -X importtime -c 'import repro.cli'``.

    ``import.cli_s`` is the ``repro.cli`` entry's cumulative time (the
    whole statement, ``repro`` included), ``import.repro_s`` the
    ``repro`` package's, and ``import.scipy_s`` the summed self time of
    every ``scipy`` module.
    """
    seconds = {"repro": 0.0, "repro.cli": 0.0}
    scipy = 0.0
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        own, cumulative, name = match.groups()
        if name in seconds:
            seconds[name] = int(cumulative) / 1e6
        if name == "scipy" or name.startswith("scipy."):
            scipy += int(own) / 1e6
    return {
        "import.repro_s": seconds["repro"],
        "import.cli_s": seconds["repro.cli"],
        "import.scipy_s": scipy,
    }
