#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out spread.json
    python3 perfbench/spread.py --workloads solve-rational --seeds 1-5
    python3 perfbench/spread.py --trace 1 --seeds 1,1   # counts must repeat

The spread of a metric is the distance between the first and third
quartile of its values over the seeds (``statistics.quantiles(n=4)``), as
a share of their median.  A workload is steady when every end-to-end
spread except set-up time is below a third of the metric's bound in
BENCHMARK.json.  With ``--trace 1`` it reports instead whether every
count metric repeated exactly across the runs.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """"1-10" or "1,1,4": a range or a list of seeds."""
    if "-" in text:
        lo, _, hi = text.partition("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write every run and the spreads here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, args.seconds, args.trace))
            res = runs[-1]["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                             if not args.trace),
                  file=sys.stderr, flush=True)
        names = runs[0]["result"]["metrics"]
        report[workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "metrics": {
                name: summarize([r["result"]["metrics"][name]["value"] for r in runs],
                                bounds.get(name) if not args.trace else None)
                for name in names
            },
            "runs": runs,
        }
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, s in report[workload]["metrics"].items():
            if args.trace:
                if units[name] == "count":
                    s["repeats"] = len(set(s["values"])) == 1
                    print(f"  {workload:15s} {name:40s} {s['values'][0]} repeats={s['repeats']}")
            else:
                print(f"  {workload:15s} {name:18s} median={s['median']:.4g} "
                      f"spread={s['spread']:.3f} bound={s['bound']} steady={s['steady']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
