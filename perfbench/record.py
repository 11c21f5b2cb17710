"""Run the benchmark over several seeds and record the spread of every metric.

Usage, from the repository root:

    python3 perfbench/record.py --runs 10 --out perfbench/BENCH_0.json

For each workload in BENCHMARK.json this runs ``run.py --trace 0`` once per
seed (1..runs), one after another, then one ``--trace 1`` run with seed 1.
It prints, per end-to-end metric, the median and the distance between the
first and third quartiles as a share of the median, next to a third of the
metric's bound.  With ``--out`` it also writes those figures, the per-layer
metrics, and the environment (interpreter and numpy versions, cores, CPU model,
``src/`` line count) to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else 0.0, "values": values}


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "src_lines": src_lines,
        "note": "shared machine, CPU not pinned; one process, one thread",
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write the record to this JSON file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"environment": environment(), "seconds": args.seconds,
              "seeds": list(range(1, args.runs + 1)), "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, seed, args.seconds, 0) for seed in record["seeds"]]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name in bounds:
            s = spread([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = s
            print(f"{workload:18s} {name:30s} median {s['median']:12.6g}  "
                  f"iqr/median {s['iqr_frac']:.4f}  (bound/3 {bounds[name] / 3:.4f})",
                  flush=True)
        traced = run_once(workload, 1, args.seconds, 1)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
