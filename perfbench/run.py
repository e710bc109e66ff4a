"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload grid_serial --seed 1 --seconds 30 --trace 0

Workloads: ``cli_small``, ``grid_serial``, ``grid_pool2``,
``adaptive_pool2`` (see ``perfbench/README.md``).  The program is run
from ``src/`` of the checkout, in child processes with a scrubbed
environment.  With ``--trace 0`` the metrics are the end-to-end ones
``BENCHMARK.json`` lists; with ``--trace 1`` the per-layer ones.  A run
takes about ``--seconds`` in all, set-up included.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

The line before it is the full record of the run (machine context, git
revision, seed, result digest, every set-up and op wall time);
``--out FILE`` also appends that record to a result set for ``suite.py`` and
``compare.py``.  Exits non-zero without a result when the checkout holds
no program or the workload process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from results import HERE, ROOT, benchmark_config, tail
from workloads import WORKLOADS

#: Variables that would inject faults, turn tracing on, reroute a
#: backend, trace RNG draws, crash workers or switch result transport.
SCRUBBED = (
    "REPRO_FAULT_PLAN", "REPRO_TRACE_FILE", "REPRO_REMOTE_HOSTS",
    "REPRO_RNG_TRACE", "REPRO_EXECUTOR_CRASH", "REPRO_SWEEP_SHM",
    "REPRO_SWEEP_CACHE",
)
PINNED = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}

#: Set-up is timed this many extra times in fresh processes, besides the
#: workload process itself; ``setup_s`` is the median of all of them.
#: One set-up lasts about a second, so it lands in either the fast or the
#: slow state the shared host switches between every few seconds.
SETUP_PROBES = 3

#: Hard cap on one run, below the 180 s a run may take.
RUN_TIMEOUT_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=None,
                        help="append the run's record to this JSONL file")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update(PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def launch(args, env, tmp, deadline, seconds, setup_only=False):
    """Start one workload process; ``(set-up seconds, its report)``.

    The process runs ops for about ``seconds``.  Set-up runs from just
    before the process is spawned until it prints ``ready``.  A process
    still alive at ``deadline`` is killed with its whole process group
    (pool workers, CLI children).
    """
    command = [
        sys.executable, os.path.join(HERE, "load.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--tmp", tmp,
    ] + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    watchdog = threading.Timer(
        max(1.0, deadline - time.monotonic()), _kill_group, (proc,)
    )
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip()
        setup_s = time.perf_counter() - started
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
        proc.wait()
        proc.stdout.close()
    if ready != "ready" or proc.returncode != 0:
        raise RuntimeError(
            f"workload process exited {proc.returncode} "
            f"({'after' if ready == 'ready' else 'before'} set-up)"
        )
    return setup_s, (None if setup_only else json.loads(lines[-1]))


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def end_to_end(setups, report) -> dict:
    walls, trials = report["walls"], report["trials"]
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(walls),
        "trials_per_s": sum(trials) / sum(walls),
        "trials_per_op": sum(trials) / len(walls),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env()
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # Anything that still reaches for the default cache stays in here.
    env["REPRO_SWEEP_CACHE"] = os.path.join(tmp, "default-cache")
    try:
        # Byte-compile once, so no timed process pays for it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q",
             os.path.join(ROOT, "src"), HERE],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        started = time.perf_counter()
        setups = [] if args.trace else [
            launch(args, env, tmp, deadline, 0.0, setup_only=True)[0]
            for _ in range(SETUP_PROBES)
        ]
        # The ops get what is left of --seconds after the probes and the
        # measured process's own set-up.
        ops_s = args.seconds - (time.perf_counter() - started) - (
            statistics.median(setups) if setups else 0.0
        )
        setup_s, report = launch(args, env, tmp, deadline, max(ops_s, 0.0))
    except (RuntimeError, subprocess.SubprocessError, ValueError,
            IndexError) as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    setups.append(setup_s)
    if args.trace:
        values = report["layer"]
    else:
        values = end_to_end(setups, report)
    listed = benchmark_config()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    attempted = max(1, report["attempted"])
    failed = min(attempted, len(report["failures"]))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git": git_revision(),
        "context": report["context"],
        "digest": report["digest"],
        "attempted": attempted,
        "failed": failed,
        "failures": report["failures"],
        "setups": setups,
        "walls": report["walls"],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    op_tail = tail(report["walls"])
    if op_tail is not None:
        record["op_s_tail"] = op_tail
    line = json.dumps(record)
    print(line)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    print(json.dumps({
        "correct": failed == 0 and report["digest"] is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
