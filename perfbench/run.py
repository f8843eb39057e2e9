"""The S-Ariadne discovery benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload catalog-scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in a fresh process

Workloads: live-lookup, catalog-scan, catalog-churn, backbone-sim (see
README.md).  All inputs derive from ``--seed``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The lines before it say, for
people, how many operations of each type were attempted and failed,
plus figures that are not metrics (tail percentile, sample counts).

Exit status: 0 when every checked answer matched the oracle, 1 when
some did not (the JSON line is still printed), 2 when the benchmark
could not run at all (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

WORKLOADS = ("live-lookup", "catalog-scan", "catalog-churn", "backbone-sim")


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload in this process and return its ``Result``."""
    if name == "live-lookup":
        from live import run_live

        return run_live(seed, seconds, trace, scale)
    if name == "catalog-scan":
        from catalog import run_scan

        return run_scan(seed, seconds, trace, scale)
    if name == "catalog-churn":
        from catalog import run_churn

        return run_churn(seed, seconds, trace, scale)
    if name == "backbone-sim":
        from backbone import run_backbone

        return run_backbone(seed, seconds, trace, scale)
    raise ValueError(f"unknown workload {name!r}")


def summary(result, trace: bool) -> dict:
    """The final JSON object for one run.

    In traced mode every per-layer metric is present; a layer that the
    workload never calls reads 0 (README.md lists which layer each
    workload exercises).
    """
    from common import END_TO_END, PER_LAYER, UNITS

    if trace:
        values = {name: result.layers.get(name, 0.0) for name in PER_LAYER}
    else:
        values = {name: result.e2e[name] for name in END_TO_END}
    return {
        "correct": not result.problems and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }


def _run_all(args) -> int:
    """Each workload in a fresh process; prints a combined JSON line."""
    combined = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if completed.returncode not in (0, 1) or not lines:
            sys.stderr.write(completed.stderr)
            print(f"[{name}] failed to run (exit {completed.returncode})", file=sys.stderr)
            return 2
        combined[name] = json.loads(lines[-1])
        print(f"[{name}] {lines[-1]}")
        status = max(status, completed.returncode)
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(HERE), str(SOURCE)]

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for kind, (attempted, failed) in result.ops.items():
        print(f"{args.workload}: {kind}: attempted {attempted}, failed {failed}")
    for problem in result.problems[:20]:
        print(f"{args.workload}: FAIL {problem}")
    print(f"{args.workload}: " + json.dumps(result.info, sort_keys=True))
    final = summary(result, bool(args.trace))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
