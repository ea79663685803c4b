"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 tools/ab_bench.py --base ../parent --change . --pairs 10 --seconds 40

Each pair runs ``perfbench/run.py --workload all --seed 0`` once from
each checkout, each with its own sources and its own ``perfbench/``. The base
runs first in even pairs and the change first in odd ones, so a drift in the
host's speed favours neither side. For every workload and metric the script
prints each side's median and quartiles, the change in the median, the
median gap over the base's interquartile range, and how many pairs the
change won (better in the direction ``BENCHMARK.json`` gives; a tie is not a
win). Then it prints each side's failed and attempted operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, seconds: int, trace: int) -> dict:
    """One ``run.py --workload all``; its last output line, parsed."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", "all",
        "--seed", "0",
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    """Table lines for runs given pair by pair (``base[i]`` with ``change[i]``)."""
    lines = [
        f"{'workload':<22} {'metric':<36} {'base median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'change':>8} {'gap/IQR':>8} {'won':>6}"
    ]
    for workload, doc in base[0].items():
        for metric, entry in doc["metrics"].items():
            a = [run[workload]["metrics"][metric]["value"] for run in base]
            b = [run[workload]["metrics"][metric]["value"] for run in change]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            rel = f"{(bm - am) / abs(am):+.1%}" if am else "n/a"
            gap = f"{abs(bm - am) / (a3 - a1):.1f}" if a3 > a1 else "n/a"
            sign = {"higher": 1, "lower": -1}.get(better.get(metric))
            won = f"{sum(sign * (y - x) > 0 for x, y in zip(a, b))}/{len(a)}" if sign else "-"
            lines.append(
                f"{workload:<22} {metric + ' (' + entry['unit'] + ')':<36} "
                f"{f'{am:.5g} [{a1:.5g}, {a3:.5g}]':>32} "
                f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>32} {rel:>8} {gap:>8} {won:>6}"
            )
    for side, runs in (("base", base), ("change", change)):
        for workload in runs[0]:
            failed = sum(run[workload]["failed"] for run in runs)
            attempted = sum(run[workload]["attempted"] for run in runs)
            lines.append(f"{side} {workload}: {failed} failed of {attempted} operations")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
            runs[side].append(run_once(sides[side], args.seconds, args.trace))
    print("\n".join(summarize(runs["base"], runs["change"], directions(sides["change"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
