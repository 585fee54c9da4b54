"""Record the goldens the benchmark checks outputs against.

    python3 perfbench/record_goldens.py

Run from the root of the repository, on a commit whose outputs are known
good.  The per-m table of search-sweep comes from ``scripts/sweep.py``
itself; every other golden comes from running the operation once here.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from lsgreen import fakedegree, greensolver  # noqa: E402
from sweep import run_sweep  # noqa: E402

import workloads  # noqa: E402


def write(name: str, obj: dict):
    path = workloads.GOLDEN_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def search_sweep() -> dict:
    rows = run_sweep(min(workloads.SWEEP_MS), max(workloads.SWEEP_MS))
    table = {
        str(r["m"]): {k: r[k] for k in ("sets", "candidates", "accepted",
                                         "nonconforming", "singular")}
        for r in rows
    }
    w = workloads.SearchSweep({"digests": {}, "table": table})
    digests = {}
    for op in w.ops(0):
        outcome, _ = w.check(op, w.run(op))
        digests[w.key(op)] = outcome.digest
    return {"digests": digests, "table": table}


def verify_suite() -> dict:
    """stdout of each command."""
    w = workloads.VerifySuite({})
    stdout = {}
    for op in w.ops(0):
        rc, text = w.run(op)
        if rc != 0:
            raise SystemExit(f"{op} exited with {rc}")
        stdout[w.key(op)] = text
    return {"stdout": stdout}


def solve_rational() -> dict:
    w = workloads.SolveRational({})
    digests = {}
    for op in w.ops(0):
        system, text = w.run(op)
        if system is not None and not greensolver.verify_system(
            system, fakedegree.omega(system.datum.m, method="closed")
        ):
            raise SystemExit(f"{w.key(op)}: P Lambda P^t != omega")
        digests[w.key(op)] = "singular" if system is None else workloads.digest(text)
    return {"pool_seed": workloads.RATIONAL_POOL_SEED, "digests": digests}


if __name__ == "__main__":
    write("search-sweep", search_sweep())
    write("verify-suite", verify_suite())
    write("solve-rational", solve_rational())
