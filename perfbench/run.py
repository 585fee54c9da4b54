#!/usr/bin/env python3
"""The lsgreen benchmark: cold-process passes over one workload.

    python3 perfbench/run.py --workload search-sweep --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; lsgreen is imported from its ``src/``.
Every pass runs in a fresh interpreter (``worker.py``), because lsgreen's
lru caches would make a second in-process pass nearly free while every
real user pays for them once per process.  Load is a closed loop with one
caller: one process, one thread, one operation at a time.

``--trace 0`` runs as many passes as fit in ``--seconds`` (at least
two), adds set-up-only processes, and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Lines before the last describe the run; the last line
is the result as one JSON object.

Times are the worker's CPU time scaled to a reference speed: the worker
runs short bursts of a fixed reference computation all through a pass
(``reference.py``) and scales each stretch of work by the bursts' nominal
CPU time over their measured one.  On a shared VM the host's load moves
the speed of this code by up to 80 % within seconds, and it moves the
reference with it.  Raw CPU and wall-clock times are on the details line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search-sweep", "verify-suite", "solve-rational")
MIN_PASSES = 2
SETUP_ONLY = 9
# Every run must end within 180 s; a child that would overrun this is killed.
RUN_DEADLINE_S = 170
# SearchConfig.from_env reads the first two.  The third is removed so that
# the untimed warm-up process writes bytecode and every timed set-up
# imports from it, as an installed package does, whatever the caller's
# environment says.
SCRUBBED_ENV = ("LSGREEN_MAX_CANDIDATES", "LSGREEN_MAX_M", "PYTHONDONTWRITEBYTECODE")


class ChildFailed(Exception):
    pass


def child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker process; its wall-clock set-up time is measured from
    the spawn."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process killed after {exc.timeout:.0f} s") from None
    elapsed = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} pass exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["t_ready"] - t_spawn
    result["elapsed_s"] = elapsed
    return result


def pass_time(p: dict, clock: str = "ref_s") -> float:
    return sum(rec[clock] for rec in p["ops"])


def environment(seed: int) -> dict:
    src = ROOT / "src" / "lsgreen"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "seed": seed,
    }


def untraced(workload: str, seed: int, seconds: int, deadline: float):
    """As many passes as fit in ``seconds`` of wall-clock time (at least
    two), then set-up-only processes."""
    passes, measured = [], 0.0
    while len(passes) < MIN_PASSES or measured + passes[-1]["elapsed_s"] <= seconds:
        passes.append(child(workload, seed, "pass", deadline))
        measured += passes[-1]["elapsed_s"]
    setups = passes + [child(workload, seed, "setup", deadline) for _ in range(SETUP_ONLY)]
    attempted, failed, problems = tally(passes)

    scaled = [pass_time(p) for p in passes]
    # An operation's time is its median over the passes, so a burst of host
    # noise in one pass does not decide the tail.  The tail is the highest
    # percentile with ten operations beyond it (nearest rank), or the
    # slowest operation when a pass has fewer than eleven.
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["ops"]:
            per_op.setdefault(rec["key"], []).append(rec["ref_s"])
    op_s = sorted(statistics.median(v) for v in per_op.values())
    tail_rank = len(op_s) - 10 if len(op_s) > 10 else len(op_s)
    metrics = {
        "pass_s": statistics.median(scaled),
        "setup_s": statistics.median(p["setup_ref_s"] for p in setups),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_tail_ms": op_s[tail_rank - 1] * 1e3,
        "candidates_per_s": statistics.median(p["candidates"] / t
                                              for p, t in zip(passes, scaled)),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
    }
    details = {
        "passes": len(passes),
        "scaled_s_per_pass": scaled,
        "cpu_s_per_pass": [pass_time(p, "cpu_s") for p in passes],
        "wall_s_per_pass": [pass_time(p, "wall_s") for p in passes],
        "reference_burst_ms_median_per_pass": [statistics.median(p["bursts"]) * 1e3
                                               for p in passes],
        "setup_scaled_s_samples": [p["setup_ref_s"] for p in setups],
        "setup_cpu_s_samples": [p["setup_cpu_s"] for p in setups],
        "setup_wall_s_samples": [p["setup_wall_s"] for p in setups],
        "operations": len(op_s),
        "op_tail_percentile": 100 * tail_rank / len(op_s),
        "operations_beyond_tail": len(op_s) - tail_rank,
        "candidates_per_pass": passes[0]["candidates"],
        "error_rate": failed / attempted,
    }
    return metrics, attempted, failed, problems, details


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and every problem found.  Each
    operation must also reproduce the output it had in the first pass."""
    problems = []
    reference = {rec["key"]: rec["digest"] for rec in passes[0]["ops"]}
    attempted = failed = 0
    for i, p in enumerate(passes):
        if p["wrappers_seen"] and "layers" not in p:
            problems.append(f"pass {i}: tracing wrappers installed in an untraced pass")
        if p.get("restored") is False:
            problems.append(f"pass {i}: a wrapped name was not restored")
        problems += [f"pass {i}: {e}" for e in p["pass_errors"]]
        for rec in p["ops"]:
            errors = rec["errors"]
            if rec["digest"] != reference[rec["key"]]:
                errors = errors + ["output differs from the run's first pass"]
            attempted += 1
            failed += bool(errors)
            problems += [f"pass {i}: {rec['key']}: {e}" for e in errors]
    return attempted, failed, problems


def traced(workload: str, seed: int, deadline: float):
    """One untraced and one traced pass; per-layer metrics from the latter."""
    plain = child(workload, seed, "pass", deadline)
    trace = child(workload, seed, "traced", deadline)
    attempted, failed, problems = tally([plain, trace])
    metrics = dict(trace["layers"])
    metrics["tracing.overhead_s"] = pass_time(trace) - pass_time(plain)
    details = {"untraced_s": pass_time(plain), "traced_s": pass_time(trace),
               "error_rate": failed / attempted}
    return metrics, attempted, failed, problems, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "lsgreen" / "__init__.py").is_file():
        print(f"error: no lsgreen sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        child(args.workload, args.seed, "setup", deadline)  # writes bytecode; not timed
        if args.trace:
            metrics, attempted, failed, problems, details = traced(
                args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, problems, details = untraced(
                args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in problems[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "environment": environment(args.seed), **details}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
