"""Run the benchmark over several seeds and print every metric.

    python3 perfbench/suite.py --label base --runs 10        # end-to-end
    python3 perfbench/suite.py --label base-trace --runs 1 --trace
    python3 perfbench/suite.py --report bench-out/perfbench/base.jsonl

Each run is ``run.py`` for one workload and seed; seeds go round the
workloads in turn so slow drift of the machine hits all of them alike.
Records are appended to ``bench-out/perfbench/<label>.jsonl`` (a result
set for ``compare.py``).  The report gives, per workload, every
end-to-end metric with its unit: median, quartiles and spread (the
quartile distance as a share of the median) against the bound in
``BENCHMARK.json``, the pooled tail latency, and ``failed_frac``.  It
also checks that ``grid_serial`` and ``grid_pool2`` produced the same
result digest at every seed both ran.  The exit status is 1 if any op
failed, the digests differ, or any bounded metric (``setup_s``
included) spreads wider than its bound.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

from results import (
    POOLED,
    ROOT,
    benchmark_config,
    by_workload,
    machines,
    quartiles,
    read_set,
    spread,
    tail,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--label", help="result set name (runs the suite)")
    parser.add_argument("--report", metavar="FILE",
                        help="only print the report of an existing result set")
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per workload (default 10)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="per-layer (traced) runs instead")
    args = parser.parse_args(argv)
    if not (args.label or args.report):
        parser.error("give --label to run the suite or --report FILE")
    return args


def run_suite(args, config) -> str:
    names = [w["name"] for w in config["workloads"]]
    path = os.path.join(ROOT, "bench-out", "perfbench", f"{args.label}.jsonl")
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            command = config["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]),
                "--trace", "1" if args.trace else "0", "--out", path,
            ]
            proc = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True
            )
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"seed {seed} {name}: exit {proc.returncode} {last[0][:120]}",
                  file=sys.stderr, flush=True)
    return path


def report(records, config) -> int:
    grouped = by_workload(records)
    contexts = machines(records)
    print(f"git {records[0]['git']}  machine {' | '.join(contexts)}"
          + ("  (MIXED MACHINES: do not compare)" if len(contexts) > 1 else ""))
    status = 0
    traced = [r for r in records if r["trace"]]
    untraced = [r for r in records if not r["trace"]]
    if untraced:
        status |= _end_to_end_table(by_workload(untraced), config)
    if traced:
        _layer_table(by_workload(traced), config["per_layer"])
    status |= _digest_check(grouped)
    return status


def _end_to_end_table(grouped, config) -> int:
    metrics = [(m["name"], m["unit"], m["bound"]) for m in config["end_to_end"]]
    metrics += [(name, unit, None) for name, unit in POOLED.items()]
    status = 0
    print(f"\n{'workload':<15} {'metric':<14} {'unit':<9} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, runs in grouped.items():
        ops = sorted(len(r["walls"]) for r in runs)
        print(f"{workload:<15} {len(runs)} runs of {ops[0]}-{ops[-1]} ops")
        for name, unit, bound in metrics:
            if name == "op_s_tail":
                walls = [w for r in runs for w in r["walls"]]
                found = tail(walls)
                text = ("n/a (fewer than 11 ops)" if found is None else
                        f"p{found[0]:.1f} = {found[1]:.4f} s over "
                        f"{found[2]} ops of {len(runs)} runs")
                print(f"{workload:<15} {name:<14} {unit:<9} {text}")
                continue
            if name == "failed_frac":
                failed = sum(r["failed"] for r in runs)
                attempted = sum(r["attempted"] for r in runs)
                frac = failed / attempted
                status |= failed > 0
                print(f"{workload:<15} {name:<14} {unit:<9} {frac:>11.4g}"
                      f"   ({failed} of {attempted} ops)")
                continue
            values = [r["metrics"][name] for r in runs]
            q1, median, q3 = quartiles(values)
            share = spread(values)
            flag = ""
            if bound is not None and share > bound:
                flag, status = "  SPREAD > BOUND", 1
            print(f"{workload:<15} {name:<14} {unit:<9} {median:>11.5g} "
                  f"{q1:>11.5g} {q3:>11.5g} {share:>7.2%} "
                  f"{'' if bound is None else f'{bound:.2f}':>6}{flag}")
    return status


def _layer_table(grouped, per_layer) -> None:
    names = list(grouped)
    print(f"\n{'per-layer metric':<28} {'unit':<9}"
          + "".join(f"{n:>16}" for n in names))
    for metric, unit in ((m["name"], m["unit"]) for m in per_layer):
        cells = []
        for name in names:
            values = [r["metrics"][metric] for r in grouped[name]]
            cells.append(f"{statistics.median(values):>16.5g}")
        print(f"{metric:<28} {unit:<9}" + "".join(cells))


def _digest_check(grouped) -> int:
    serial = {r["seed"]: r["digest"] for r in grouped.get("grid_serial", [])}
    pooled = {r["seed"]: r["digest"] for r in grouped.get("grid_pool2", [])}
    shared = sorted(set(serial) & set(pooled))
    if not shared:
        return 0
    bad = [s for s in shared if serial[s] != pooled[s] or serial[s] is None]
    print(f"\ngrid_serial vs grid_pool2 result digest at {len(shared)} "
          f"seeds: {'MISMATCH at ' + str(bad) if bad else 'identical'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    config = benchmark_config()
    path = args.report or run_suite(args, config)
    records = read_set(path)
    if not records:
        print(f"{path}: no records", file=sys.stderr)
        return 1
    print(f"result set {os.path.relpath(path, ROOT)} ({len(records)} runs)")
    return report(records, config)


if __name__ == "__main__":
    sys.exit(main())
