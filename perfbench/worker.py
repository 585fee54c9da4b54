"""One cold benchmark process: import lsgreen, make the inputs, run a pass.

    python3 perfbench/worker.py --workload search-sweep --seed 0 --mode pass

Modes:
  setup   stop where the first operation would start (a set-up sample);
  pass    time every operation of one pass and check its output;
  traced  the same pass with the tracing wrappers installed, then the
          per-layer metrics and the kernel replay.

The last line of stdout is one JSON object.  Times are the CPU time of
this single-threaded process without the reference bursts, and that time
scaled to the reference speed (``ref_s``, ``setup_ref_s``; see
``reference.py``): the work is CPU-bound, so on a dedicated machine CPU
time is wall time, while on a shared VM wall time also counts the time
the host gave the CPU to someone else.
``setup_cpu_s`` is the CPU time from process start to the first operation;
``t_ready`` is the system-wide monotonic clock at that point, from which
the parent gets the wall-clock set-up time.  Every lsgreen call and check
runs in this process, so the lru caches start empty, as they do for a
user's first command.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402

# CPU time between two reference bursts during set-up.
SETUP_EVERY_S = 0.04
# Bursts after set-up, so that its last stretch has bursts on both sides.
SETUP_TRAILING = 3

if __name__ == "__main__":
    # sample the machine's speed from here, before lsgreen is imported
    SAMPLER = reference.Sampler()
    SAMPLER.start(SETUP_EVERY_S)

import lsgreen  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload, ops, sampler: reference.Sampler, tracer=None) -> dict:
    """Time each operation, then check its output with tracing paused.

    ``sampler`` runs reference bursts all through the pass (see
    ``reference.py``); ``cpu_s`` is an operation's CPU time without them,
    and ``ref_s`` that time at the reference speed."""
    records, outcomes, failed_ops = [], [], 0
    wrappers_seen = bool(tracing.installed_wrappers())
    sampler.start()
    try:
        for op in ops:
            if tracer is not None:
                tracer.start()
            start_wall, start, burst_s = (time.perf_counter(), sampler.work_time(),
                                          sampler.burst_total)
            try:
                out = workload.run(op)
                error = None
            except Exception:  # an operation that raises is a failed operation
                out, error = None, traceback.format_exc(limit=3)
            end = sampler.work_time()
            wall_s = time.perf_counter() - start_wall - (sampler.burst_total - burst_s)
            if tracer is not None:
                tracer.stop()
            if error is None:
                oc, errors = workload.check(op, out)
            else:
                oc, errors = workloads.Outcome("error"), [error]
            del out  # so a pass holds one operation's output at a time
            outcomes.append(oc)
            failed_ops += bool(errors)
            records.append({"key": workload.key(op), "span": (start, end),
                            "cpu_s": end - start, "wall_s": wall_s,
                            "digest": oc.digest, "errors": errors})
    finally:
        sampler.stop()
    for rec in records:
        rec["ref_s"] = sampler.scaled(*rec.pop("span"))
    pass_errors = workload.check_pass(ops, outcomes) if not failed_ops else []
    return {
        "bursts": [b for _, b in sampler.marks],
        "ops": records,
        "failed": failed_ops,
        "pass_errors": pass_errors,
        "candidates": sum(oc.candidates for oc in outcomes),
        "wrappers_seen": wrappers_seen or bool(tracing.installed_wrappers()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    args = ap.parse_args(argv)

    if not Path(lsgreen.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: lsgreen imported from {lsgreen.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    ops = workload.ops(args.seed)
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(args.seed, clock=SAMPLER.work_time)
        before = tracing.bindings_snapshot()
        tracer.install()
    result = {"t_ready": time.monotonic(), "setup_cpu_s": SAMPLER.work_time()}
    SAMPLER.stop(trailing=SETUP_TRAILING)
    result["setup_ref_s"] = SAMPLER.scaled(0.0, result["setup_cpu_s"])
    if args.mode != "setup":
        result.update(run_pass(workload, ops, SAMPLER, tracer))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        after = tracing.bindings_snapshot()
        result["restored"] = after == before and not tracing.installed_wrappers()
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
