"""Compare two sets of benchmark results: A/A, or parent (A) against change (B).

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are result directories (or single result files) written by
``run.py --out``; only untraced results are compared.  Each row is one workload
and one gated end-to-end metric of ``BENCHMARK.json``, with both sides'
median and quartiles and a verdict:

* ``unresolved`` — a side's spread (quartile distance over median) exceeds
  the metric's bound, unless every run of B beats every run of A;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least nine tenths of the run pairs and the medians
  differ by more than A's quartile distance;
* ``within bound`` — otherwise.

Results whose input digests or host CPU counts differ are not comparable:
the script refuses them with exit code 2.  It exits 1 when any row is worse
or unresolved, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class NotComparable(Exception):
    """The two result sets did not measure the same inputs on the same host."""


def load(path: Path) -> list[dict]:
    """Every untraced result at ``path``, a result file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for file in files:
        record = json.loads(file.read_text(encoding="utf-8"))
        if isinstance(record, dict) and record.get("trace") == 0 and "metrics" in record:
            results.append(record)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, B's change relative to A's median, worst relative spread)``."""
    sign = 1.0 if better == "higher" else -1.0
    a_low, a_median, a_high = quartiles(a)
    b_low, b_median, b_high = quartiles(b)
    spread = max((a_high - a_low) / a_median, (b_high - b_low) / b_median)
    change = (b_median - a_median) / a_median
    if spread > bound:
        if min(sign * value for value in b) > max(sign * value for value in a):
            return "better", change, spread
        return "unresolved", change, spread
    if -sign * change > bound:
        return "worse", change, spread
    wins = sum(sign * (new - old) > 0 for old, new in zip(a, b))
    if wins >= 0.9 * min(len(a), len(b)) and abs(b_median - a_median) > a_high - a_low:
        return "better", change, spread
    return "within bound", change, spread


def _by_workload(results: list[dict]) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for record in results:
        grouped.setdefault(record["workload"], []).append(record)
    for records in grouped.values():
        # Pair runs on the same inputs: order by digest, then by time.
        records.sort(key=lambda record: (record["inputs_digest"], record["recorded_at"]))
    return grouped


def compare(a_results: list[dict], b_results: list[dict], spec: dict) -> list[tuple]:
    """One row per workload and end-to-end metric; raises :class:`NotComparable`."""
    cpus = {record["host"]["cpu_count"] for record in a_results + b_results}
    if len(cpus) > 1:
        raise NotComparable(f"results come from hosts with {sorted(cpus)} CPUs")
    a_runs, b_runs = _by_workload(a_results), _by_workload(b_results)
    rows = []
    for workload in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        a_digests = sorted(record["inputs_digest"] for record in a)
        b_digests = sorted(record["inputs_digest"] for record in b)
        if a_digests != b_digests:
            raise NotComparable(f"{workload}: the two sets ran different inputs "
                                f"({len(a)} vs {len(b)} runs, digests differ)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_values = [record["metrics"][name]["value"] for record in a]
            b_values = [record["metrics"][name]["value"] for record in b]
            outcome, change, spread = verdict(a_values, b_values,
                                              metric["better"], metric["bound"])
            rows.append((workload, name, metric["unit"], quartiles(a_values),
                         quartiles(b_values), change, spread, metric["bound"], outcome))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent results (A): a directory or file")
    parser.add_argument("b", type=Path, help="change results (B): a directory or file")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    a_results, b_results = load(args.a), load(args.b)
    if not a_results or not b_results:
        print("error: no untraced results on one side", file=sys.stderr)
        return 2
    try:
        rows = compare(a_results, b_results, spec)
    except NotComparable as exc:
        print(f"error: not comparable: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':13s} {'metric':12s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, name, unit, (a1, a2, a3), (b1, b2, b3), change, spread, bound, outcome in rows:
        print(f"{workload:13s} {name:12s} {a2:12.5g} [{a1:.5g}, {a3:.5g}] "
              f"{b2:12.5g} [{b1:.5g}, {b3:.5g}] {change:+8.1%} {spread:7.1%} "
              f"{bound:6.0%}  {outcome} ({unit})")
    return 1 if any(row[-1] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
