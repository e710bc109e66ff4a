"""Result records and the statistics shared by ``run``, ``suite`` and ``compare``.

A result set is a JSON-lines file with one record per benchmark run:
its workload, seed, machine context, result digest, per-op wall times,
attempted/failed op counts and metrics.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics ``BENCHMARK.json`` leaves unbounded, with units.
#: ``op_s_tail`` needs more ops than one run holds and ``failed_frac``
#: is zero on a healthy tree, so ``suite.py`` reports both over all of a
#: set's runs.
POOLED = {"op_s_tail": "s", "failed_frac": "ratio"}


def benchmark_config() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def read_set(path: str) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def tail(walls: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, ops)``: the highest percentile with at least
    ten ops beyond it, or ``None`` with fewer than eleven ops."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def machines(records: List[Dict]) -> List[str]:
    """The distinct machine contexts (JSON) a set of records came from."""
    return sorted({json.dumps(r["context"], sort_keys=True) for r in records})


def by_workload(records: List[Dict]) -> Dict[str, List[Dict]]:
    grouped: Dict[str, List[Dict]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    for runs in grouped.values():
        runs.sort(key=lambda r: r["seed"])
    return grouped
