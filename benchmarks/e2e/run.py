"""Run the end-to-end benchmark: one workload, or all four one after another.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out DIR]

With ``--workload`` the workload runs in this process.  Without it, each
workload runs in a fresh interpreter of its own, one after another, and
``--trace`` runs each twice: untraced for the end-to-end metrics, then
traced for the per-layer ones.

An untraced run prints every end-to-end metric of ``BENCHMARK.json`` with
its unit; a traced run (``--trace 1``) prints every per-layer metric and
the per-layer budget table, and writes a Chrome trace.  Either way the run
writes a result JSON under ``--out`` and prints, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  An output that fails its oracle ends the run with exit code 1
and no metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def host_stamp() -> dict:
    """What ran the benchmark: results from different hosts do not compare."""
    import numpy

    commit = ""
    # Only a checkout's own .git: git would otherwise search the parents.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit or "unknown",
    }


def with_units(values: dict, spec: dict, section: str) -> dict:
    """``values`` of every metric ``BENCHMARK.json`` lists under ``section``,
    each with its unit; a metric the run did not emit raises ``KeyError``."""
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in spec[section]}


def run_one(args, spec: dict) -> int:
    """Run one workload in this process and report it."""
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result = workloads.measure_traced(
                workload, args.seconds, trace_path=args.out / f"{stem}.trace.json",
                scratch=args.out)
        else:
            result = workloads.measure(workload, args.seconds)
    except workloads.OracleError as exc:
        print(f"error: {args.workload} failed its oracle: {exc}", file=sys.stderr)
        return 1

    metrics = with_units(result["metrics"], spec,
                         "per_layer" if args.trace else "end_to_end")
    extras = {name: {"value": value, "unit": workloads.EXTRA_UNITS[name]}
              for name, value in result.get("extras", {}).items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_digest": result["inputs_digest"],
        "host": host_stamp(),
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "correct": True, "attempted": result["attempted"], "failed": result["failed"],
        "failures": workload.failures,
        "metrics": metrics, "extras": extras,
        "samples": result.get("samples"), "budget": result.get("budget"),
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    (args.out / f"{stem}-{stamp}.json").write_text(
        json.dumps(record, indent=2, allow_nan=False) + "\n", encoding="utf-8")

    print(f"{args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}): "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for name, entry in {**metrics, **extras}.items():
        print(f"  {name:36s} {entry['value']:>14.6g} {entry['unit']}")
    if record["budget"]:
        print("  per-layer budget of the traced loop (self time, share of wall):")
        for layer, seconds, share in record["budget"]:
            print(f"    {layer:16s} {seconds:10.4f} s {share:8.1%}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in a fresh interpreter of its own, one after another."""
    status = 0
    for workload in spec_names(spec):
        for trace in ([0, 1] if args.trace else [0]):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", str(args.out)]
            code = subprocess.run(command, check=False).returncode
            status = status or code
    return status


def spec_names(spec: dict) -> list[str]:
    return [entry["name"] for entry in spec["workloads"]]


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        return _fail(f"no repro package under {ROOT / 'src'} or no {spec_path}; "
                     "run from a checkout of the repository")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec_names(spec))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args, spec)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
