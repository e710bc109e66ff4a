"""Compare two result sets, metric by metric, workload by workload.

    python3 perfbench/compare.py bench-out/perfbench/base.jsonl \\
        bench-out/perfbench/change.jsonl

For each workload and end-to-end metric in ``BENCHMARK.json`` this
prints each side's median and quartiles, the bound, and a verdict:

* ``better``: the change wins at least 9 in 10 of the seed-paired runs
  (ties count for neither side), over at least 10 pairs, and the
  medians differ by more than the base's quartile distance;
* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``unresolved``: neither, and either side's spread (quartile distance
  over median) is wider than the bound, unless every run of the change
  reads better than every run of the base;
* ``not worse``: too noisy to resolve, but every run of the change
  reads better than every run of the base;
* ``same``: within the bound, on sets steady enough to tell.

Traced runs in both sets add a per-layer table (medians and their
ratio; no verdict, since counts and self times are not bounded).
"""

from __future__ import annotations

import argparse
import statistics
import sys

from results import benchmark_config, by_workload, machines, quartiles, read_set


def verdict(base, change, bound, higher_is_better, pairs) -> str:
    sign = 1.0 if higher_is_better else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    if sign * (c_med - b_med) < -bound * abs(b_med):
        return "worse"
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (c_med - b_med) > (b_q3 - b_q1)):
        return "better"
    noisy = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med) > bound
    if noisy:
        if sign * (c_med - b_med) > 0 and all(
            sign * (c - b) > 0 for c in change for b in base
        ):
            return "not worse"
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base", help="result set of the parent commit")
    parser.add_argument("change", help="result set of the change")
    args = parser.parse_args(argv)
    config = benchmark_config()
    base_all, change_all = read_set(args.base), read_set(args.change)
    if machines(base_all) != machines(change_all):
        print("WARNING: the sets come from different machines or library "
              "versions; their numbers are not comparable", file=sys.stderr)

    base = by_workload([r for r in base_all if not r["trace"]])
    change = by_workload([r for r in change_all if not r["trace"]])
    print(f"{'workload':<15} {'metric':<14} {'unit':<9} "
          f"{'base median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'bound':>6}  verdict")
    worse = 0
    for workload in [w["name"] for w in config["workloads"]]:
        if workload not in base or workload not in change:
            continue
        b_runs, c_runs = base[workload], change[workload]
        c_by_seed = {r["seed"]: r for r in c_runs}
        for metric in config["end_to_end"]:
            name = metric["name"]
            b_vals = [r["metrics"][name] for r in b_runs]
            c_vals = [r["metrics"][name] for r in c_runs]
            pairs = [
                (r["metrics"][name], c_by_seed[r["seed"]]["metrics"][name])
                for r in b_runs if r["seed"] in c_by_seed
            ]
            result = verdict(b_vals, c_vals, metric["bound"],
                             metric["better"] == "higher", pairs)
            worse += result == "worse"
            print(f"{workload:<15} {name:<14} {metric['unit']:<9} "
                  f"{_summary(b_vals):>34} {_summary(c_vals):>34} "
                  f"{metric['bound']:>6.2f}  {result}")

    base_t = by_workload([r for r in base_all if r["trace"]])
    change_t = by_workload([r for r in change_all if r["trace"]])
    shared = [w for w in base_t if w in change_t]
    if shared:
        print(f"\n{'per-layer metric':<28} {'workload':<15} "
              f"{'base':>12} {'change':>12} {'ratio':>8}")
        for metric in config["per_layer"]:
            name = metric["name"]
            for workload in shared:
                b = statistics.median(r["metrics"][name]
                                      for r in base_t[workload])
                c = statistics.median(r["metrics"][name]
                                      for r in change_t[workload])
                ratio = f"{c / b:8.3f}" if b else f"{'-':>8}"
                print(f"{name:<28} {workload:<15} {b:>12.5g} {c:>12.5g} "
                      f"{ratio}")
    return 1 if worse else 0


def _summary(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


if __name__ == "__main__":
    sys.exit(main())
