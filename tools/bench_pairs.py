"""Run the benchmark harness in alternating pairs on two checkouts.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload tune_grid \\
        --seed 11 --seconds 24 --pairs 10

Each pair runs ``python3 perfbench/run.py`` once in each checkout's
directory, with the same workload, seed, seconds and scale; which side runs
first alternates from pair to pair. A run that exits non-zero or does not
report ``correct: true`` stops the script with exit code 1.

For every ``metric`` and ``stage`` line the harness prints, the script
prints each side's median and quartiles and in how many pairs the change
was better (ties count for neither side). Which way is better comes from
``BENCHMARK.json`` in the change's checkout; a metric it does not declare is
better lower if its unit is a time and higher if it is a rate, and gets no
count otherwise.

For each end-to-end metric, the script then prints a no-regression verdict
against the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the
parent's median: ``within bound`` when the change's median is worse than the
parent's by at most the bound, ``over bound`` when by more, and
``unresolved`` when the parent's quartile spread is wider than the bound,
unless every run of the change beats every run of the parent.

Next to it the script prints a gain verdict: ``gain met`` when the change
is better in at least nine tenths of the pairs (ties count for neither
side) and its median is better than the parent's by more than the parent's
quartile spread, else ``gain not met``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TIME_UNITS = {"s", "ms", "us"}
RATE_UNITS = {"1/s"}


def run_harness(checkout: Path, args) -> dict[str, tuple[float, str]]:
    """One harness run in ``checkout``: {name: (value, unit)}."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", args.scale]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=20 * args.seconds + 600)
    lines = done.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or summary.get("correct") is not True:
        raise SystemExit(f"{checkout}: run not correct (exit "
                         f"{done.returncode}): {lines[-1:] or done.stderr}")
    values = {}
    for line in lines:
        kind, *rest = line.split()
        if kind in ("metric", "stage") and len(rest) == 3:
            name, value, unit = rest
            values[name] = (float(value), unit)
    return values


def declared(change: Path) -> dict[str, dict]:
    """The metrics ``BENCHMARK.json`` declares, by name; end-to-end ones
    carry a ``bound``."""
    doc = json.loads((change / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for key in ("end_to_end", "per_layer")
            for entry in doc.get(key, [])}


def wins(old: list[float], new: list[float], way: str) -> int:
    """Pairs in which ``new`` is better than ``old`` in the direction
    ``way`` ("lower" or "higher"); ties count for neither side."""
    sign = 1 if way == "lower" else -1
    return sum(sign * (n - o) < 0 for o, n in zip(old, new))


def spread(values: list[float]) -> float:
    """Distance between the quartiles (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def gain(old: list[float], new: list[float], way: str) -> str:
    """Whether ``new`` is better than ``old`` in at least nine tenths of
    the pairs and in the median by more than the parent's quartile
    spread."""
    sign = 1 if way == "lower" else -1
    better = sign * (statistics.median(old) - statistics.median(new))
    met = 10 * wins(old, new, way) >= 9 * len(old) and better > spread(old)
    return "gain met" if met else "gain not met"


def verdict(old: list[float], new: list[float], way: str,
            bound: float) -> str:
    """Whether ``new`` regresses on ``old`` by more than ``bound`` times the
    parent's median, in the direction ``way`` ("lower" or "higher")."""
    sign = 1 if way == "lower" else -1
    if max(sign * n for n in new) < min(sign * o for o in old):
        return "within bound"  # every change run beats every parent run
    median = statistics.median(old)
    if spread(old) > bound * abs(median):
        return "unresolved"
    worse = sign * (statistics.median(new) - median)
    return "over bound" if worse > bound * abs(median) else "within bound"


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{statistics.median(values):.6g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    metrics = declared(args.change)

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_harness(getattr(args, side), args))
        print(f"pair {pair + 1} ({order[0]} first): wall_s parent "
              f"{runs['parent'][-1]['wall_s'][0]:.6g} change "
              f"{runs['change'][-1]['wall_s'][0]:.6g}", flush=True)

    print(f"\nworkload {args.workload} seed {args.seed} seconds "
          f"{args.seconds} scale {args.scale}, {args.pairs} pairs; "
          f"median [q1, q3]")
    for name, (_, unit) in runs["parent"][0].items():
        old = [run[name][0] for run in runs["parent"]]
        new = [run[name][0] for run in runs["change"]]
        way = metrics.get(name, {}).get("better") or ("lower" if unit in TIME_UNITS else
                                   "higher" if unit in RATE_UNITS else None)
        better = "-" if way is None else \
            f"{wins(old, new, way)}/{args.pairs} {way}"
        print(f"{name} ({unit}): parent {summary(old)}  change "
              f"{summary(new)}  change better in {better}")

    print("\nno-regression verdict (bound: a fraction of the parent median); "
          "gain verdict")
    for name, entry in metrics.items():
        if "bound" in entry and name in runs["parent"][0]:
            old = [run[name][0] for run in runs["parent"]]
            new = [run[name][0] for run in runs["change"]]
            way = entry["better"]
            print(f"{name}: {verdict(old, new, way, entry['bound'])}"
                  f" (bound {entry['bound']}); {gain(old, new, way)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
