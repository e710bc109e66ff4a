"""One workload process: set up, print ``ready``, run the closed loop.

Started by ``run.py`` with a scrubbed environment.  Prints ``ready`` on
stdout once the first op can start (the parent times set-up up to that
line), then, unless ``--setup-only``, one JSON line with what it
measured.

Untraced mode runs ops back to back for about ``--seconds``.  Traced mode
(``--trace 1``) runs half that time untraced and half inside
``repro.obs.tracing(MemorySink())`` with the :mod:`layers` wrappers
installed.  Where the ops ran out of this process's sight (a CLI
subprocess, pool workers) it then replays the op once on the serial
backend for the kernel and stage split, and it always times ``import
repro.cli`` under ``python -X importtime``.
"""

from __future__ import annotations

import argparse
from importlib import metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True,
                        help="directory for the per-op cache dirs")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Loop:
    """The closed loop: one op at a time, each in a fresh cache dir."""

    def __init__(self, args, executor) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.tmp = args.tmp
        self.executor = executor
        self.env = dict(os.environ)
        self.walls = []
        self.trials = []
        self.digests = []
        self.failures = []
        self.attempted = 0

    def one(self, executor=None, trace_path=None):
        """Run, check and time one op; a failure is recorded, not raised."""
        executor = executor or self.executor
        self.attempted += 1
        cache_dir = tempfile.mkdtemp(prefix="op-", dir=self.tmp)
        os.environ["REPRO_SWEEP_CACHE"] = cache_dir
        started = time.perf_counter()
        result = None
        try:
            if executor is None:
                result = workloads.run_cli_op(
                    self.seed, cache_dir, self.env, trace_path
                )
            else:
                result = workloads.run_op(
                    self.workload, self.seed, executor, cache_dir
                )
        except Exception as error:  # every failure mode counts the same
            self.failures.append(f"{type(error).__name__}: {error}")
        finally:
            wall = time.perf_counter() - started
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.walls.append(wall)
        self.trials.append(result.trials if result else 0)
        self.digests.append(result.digest if result else None)

    def run_for(self, seconds: float) -> slice:
        """Ops back to back for about ``seconds`` (at least one op).

        Another op starts while the loop would end nearer ``seconds``
        with it than without it.
        """
        start = len(self.walls)
        started = time.perf_counter()
        while True:
            self.one()
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / (len(self.walls) - start) / 2 >= seconds:
                break
        return slice(start, len(self.walls))


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of the sweeping process plus its largest joined child, MB.

    On ``cli_small`` the sweeping process is the CLI child; this process
    only waits for it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if workload == "cli_small":
        return children / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + children) / 1024.0


def context() -> dict:
    """Where the numbers came from, so boxes are never compared."""
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def traced_op(loop: Loop, clock) -> dict:
    """One op under tracing; its event and wrapped-call metrics."""
    import layers
    from repro.obs import MemorySink, tracing

    if loop.executor is None:
        path = os.path.join(loop.tmp, f"trace-{len(loop.walls)}.jsonl")
        loop.one(trace_path=path)
        records = []
        if os.path.exists(path):  # a failed CLI op may leave no trace
            with open(path, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle if line.strip()]
            os.remove(path)
    else:
        with layers.instrumented(clock), tracing(MemorySink()) as sink:
            loop.one()
        records = sink.records
    return {
        **layers.event_metrics(records),
        **layers.stage_metrics(clock),
        "kernel_s": layers.kernel_seconds(clock),
        "op_s": loop.walls[-1],
    }


def layer_metrics(args, loop: Loop) -> dict:
    """The traced run: per-layer metrics of this workload's op."""
    import layers
    from repro.sweep import make_executor

    untraced = loop.run_for(args.seconds / 2)
    per_op = []
    deadline = time.perf_counter() + args.seconds / 2
    while not per_op or time.perf_counter() < deadline:
        per_op.append(traced_op(loop, layers.StageClock()))
    traced = slice(len(loop.walls) - len(per_op), len(loop.walls))
    layer = {name: statistics.median(op[name] for op in per_op)
             for name in per_op[0]}

    if args.workload != "grid_serial":
        clock = layers.StageClock()
        with make_executor(backend="serial") as serial, \
                layers.instrumented(clock):
            loop.one(executor=serial)
        loop.walls.pop()
        loop.trials.pop()
        digest = loop.digests.pop()
        if loop.executor is not None and digest not in (None, loop.digests[0]):
            loop.failures.append("serial replay digest differs from the pool's")
        replay = layers.stage_metrics(clock)
        if loop.executor is not None:
            # Cache calls ran in this process during the pool op itself.
            replay = {k: v for k, v in replay.items()
                      if not k.startswith("cache.")}
        layer.update(replay)
        layer["kernel_s"] = layers.kernel_seconds(clock)

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=loop.env, capture_output=True, text=True, timeout=120,
    )
    layer.update(layers.import_metrics(proc.stderr))
    layer["cli.self_s"] = (
        layer["op_s"] - layer["import.cli_s"] - layer["sweep.wall_s"]
        if args.workload == "cli_small" else 0.0
    )
    layer["executor.busy_inflation"] = (
        layer["executor.busy_s"] / layer["kernel_s"]
        if layer["kernel_s"] > 0 else 0.0
    )
    layer["obs.overhead_frac"] = (
        statistics.median(loop.walls[traced])
        / statistics.median(loop.walls[untraced]) - 1.0
    )
    return layer


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "cli_small":
        import repro.cli  # noqa: F401  (set-up: a fresh interpreter's import)

        executor = None
    else:
        executor = workloads.make_workload_executor(args.workload)
    try:
        if executor is not None:
            workloads.warm(executor)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        loop = Loop(args, executor)
        if args.trace:
            layer = layer_metrics(args, loop)
            measured = slice(0, 0)
        else:
            layer = None
            measured = loop.run_for(args.seconds)
    finally:
        if executor is not None:
            executor.close()
    # Every op of a run sweeps the same specs, traced or not: their
    # results must agree bitwise.
    reference = next((d for d in loop.digests if d is not None), None)
    for index, digest in enumerate(loop.digests):
        if digest is not None and digest != reference:
            loop.failures.append(f"op {index}: digest differs from op 0")
    peak_rss = peak_rss_mb(args.workload)
    print(json.dumps({
        "context": context(),
        "walls": loop.walls[measured],
        "trials": loop.trials[measured],
        "digest": reference,
        "attempted": loop.attempted,
        "failures": loop.failures,
        "peak_rss_mb": peak_rss,
        "layer": layer,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
