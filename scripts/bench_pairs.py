#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Usage, with both checkouts holding ``perfbench/`` and ``src/``:

    python3 scripts/bench_pairs.py PARENT CHANGE --workload mul-small-many \
        --count 10 --seconds 20 --first-seed 11

``--workload`` may be given more than once, or as ``all`` for every
workload of the change's ``BENCHMARK.json``; the workloads run one after
another, each with its own pairs and its own table.  Pair i (from 0) runs
``perfbench/run.py --trace 0 --seed s``, s = first seed + i (default 1),
once in each checkout, one right after the other, and the side that goes
first alternates from pair to pair, so drift in the machine's load falls
on both sides alike.  Each run's metrics are read from the last line it
prints.  For every end-to-end metric of that ``BENCHMARK.json`` this prints
both medians, the change's gain over the parent in the metric's better
direction, the pairs the change won (ties count for neither side) and the
distance between the quartiles of the parent's runs, as a share of the
parent's median.  A gain is shown when the change wins at least nine pairs
in ten and the medians differ by more than that distance.  Against the
metric's ``bound`` in ``BENCHMARK.json``, a metric is flagged ``worse`` when
the change's median is worse than the parent's by more than the bound, and
``unresolved`` when the parent's quartile distance exceeds the bound, unless
every run of the change beats every run of the parent.  The exit status
is 1 when any metric of any workload is flagged ``worse`` or any output of
either side is wrong, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from record import spread  # noqa: E402  (the quartiles the baseline records use)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def summary(name: str, better: str, bound: float, parent: list[float],
            change: list[float]) -> tuple[str, list[str]]:
    base = spread(parent)
    p_med = base["median"]
    c_med = statistics.median(change)
    sign = 1 if better == "higher" else -1
    gain = sign * (c_med - p_med) / p_med
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    shown = won >= 0.9 * len(parent) and abs(c_med - p_med) > base["q3"] - base["q1"]
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    flags = [flag for flag, raised in (("shown", shown), ("worse", gain < -bound),
                                       ("unresolved", base["iqr_frac"] > bound and not apart))
             if raised]
    return (f"{name:28s} parent {p_med:12.6g}  change {c_med:12.6g}  gain {gain:+7.2%}  "
            f"won {won}/{len(parent)}  parent IQR {base['iqr_frac']:6.2%}"
            + "".join(f"  {flag}" for flag in flags)), flags


def compare(sides: dict, spec: dict, workload: str, count: int, first: int,
            seconds: float) -> bool:
    """Run one workload's pairs and print its table; True if nothing is worse or wrong."""
    runs = {side: [] for side in sides}
    for i in range(count):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            result = run_once(sides[side], workload, first + i, seconds)
            runs[side].append(result)
            if not result["correct"]:
                print(f"{workload} pair {i + 1} {side}: {result['failed']} of "
                      f"{result['attempted']} outputs wrong", file=sys.stderr)
        print(f"{workload} pair {i + 1}/{count} done ({order[0]} first)", file=sys.stderr,
              flush=True)

    values = {side: {m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                     for m in spec["end_to_end"]}
              for side, results in runs.items()}
    print(f"{workload}: {count} pairs of {seconds:g} s runs, seeds {first}..{first + count - 1}")
    worse = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        line, flags = summary(name, metric["better"], metric["bound"], values["parent"][name],
                              values["change"][name])
        print(line)
        worse = worse or "worse" in flags
    failed = {side: sum(r["failed"] for r in results) for side, results in runs.items()}
    print(f"failed outputs: parent {failed['parent']}, change {failed['change']}", flush=True)
    return not worse and not any(failed.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload to run, again for more, or 'all'")
    ap.add_argument("--count", type=int, default=10, help="pairs to run per workload")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if "all" in args.workload else args.workload
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        ap.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(names)}")
    sides = {"parent": args.parent, "change": args.change}
    ok = [compare(sides, spec, w, args.count, args.first_seed, args.seconds) for w in workloads]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
