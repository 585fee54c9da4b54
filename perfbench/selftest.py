"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's own test run; pytest
collects a file named on its command line whatever its name.  Each test
runs a few cheap operations in-process.
"""
from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import worker  # noqa: F401  (puts the checkout's src/ on sys.path)

from lsgreen import exactalg, fakedegree, greensolver, springer  # noqa: E402
from lsgreen.dihedral import all_labels  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_M = 7


def small_sweep_ops(seed):
    return [s for s in workloads.SearchSweep.ops(seed) if s.m <= SMALL_M]


def op_list_digest(name: str, seed: int) -> str:
    w = workloads.WORKLOADS[name]
    ops = w.ops(seed)
    if name == "solve-rational":
        return workloads.digest(json.dumps(
            [[k, greensolver.datum_to_jsonable(d)] for k, d in ops]))
    return workloads.digest(json.dumps([w.key(op) for op in ops]))


def test_traced_pass_restores_every_original():
    before = tracing.bindings_snapshot()
    tracer = tracing.Tracer(seed=0)
    tracer.install()
    assert springer.solve is not before[("lsgreen.springer", "solve")]
    assert exactalg.IntPoly.__rmul__ is exactalg.IntPoly.__mul__
    result = worker.run_pass(workloads.SearchSweep(), small_sweep_ops(0), reference.Sampler(),
                             tracer)
    tracer.uninstall()
    assert result["failed"] == 0
    assert result["wrappers_seen"]
    assert tracer.counters["springer.candidates.count"] == result["candidates"] > 0
    assert tracing.bindings_snapshot() == before
    assert tracing.installed_wrappers() == []


def test_every_binding_of_a_wrapped_name_is_patched():
    tracer = tracing.Tracer(seed=0)
    tracer.install()
    try:
        wrapped = set(tracing.installed_wrappers())
    finally:
        tracer.uninstall()
    for name in ("lsgreen.springer.solve", "lsgreen.greensolver.solve",
                 "lsgreen.greensolver.matrix_solve", "lsgreen.greensolver.verify_system",
                 "lsgreen.cli.check_symmetry", "lsgreen.cli.search",
                 "lsgreen.exactalg.poly_gcd", "IntPoly.__mul__", "IntPoly.__rmul__",
                 "CycloNum.__mul__", "CycloNum.__rmul__"):
        assert name in wrapped, name


def test_untraced_pass_has_no_wrappers():
    result = worker.run_pass(workloads.SearchSweep(), small_sweep_ops(0), reference.Sampler())
    assert result["failed"] == 0
    assert not result["wrappers_seen"]
    assert springer.solve is greensolver.solve


def test_same_seed_same_operations_and_digests():
    here = Path(__file__).resolve().parent
    for name in workloads.WORKLOADS:
        assert op_list_digest(name, 3) != op_list_digest(name, 4)
        # other processes, with other string-hash seeds, make the same list
        for hash_seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", "import selftest; "
                 f"print(selftest.op_list_digest({name!r}, 3))"],
                cwd=here, env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=60, check=True)
            assert proc.stdout.strip() == op_list_digest(name, 3)
    w = workloads.SolveRational()
    ops = w.ops(3)[:4]
    digests = [[w.check(op, w.run(op))[0].digest for op in ops] for _ in range(2)]
    assert digests[0] == digests[1]
    sweep = [[rec["digest"] for rec in worker.run_pass(
        workloads.SearchSweep(), small_sweep_ops(5), reference.Sampler())["ops"]]
        for _ in range(2)]
    assert sweep[0] == sweep[1]


def test_reservoir_is_seeded_and_uniform_in_size():
    picks = []
    for _ in range(2):
        r = tracing.Reservoir(random.Random(11), size=50)
        for i in range(10_000):
            r.offer(i)
        picks.append(r.items)
    assert picks[0] == picks[1]
    assert len(picks[0]) == 50 and len(set(picks[0])) == 50
    assert max(picks[0]) > 5_000


def test_a_wrong_output_is_a_failed_operation():
    ops = small_sweep_ops(0)
    golden = json.loads(json.dumps(workloads.load_golden("search-sweep")))
    golden["digests"][workloads.SearchSweep.key(ops[0])] = "0" * 64
    result = worker.run_pass(workloads.SearchSweep(golden), ops, reference.Sampler())
    assert result["failed"] == 1
    attempted, failed, problems = run.tally([result])
    assert (attempted, failed) == (len(ops), 1) and problems  # correct: false

    verify = workloads.VerifySuite({"stdout": {"atlas": "not what atlas prints\n"}})
    result = worker.run_pass(verify, [("atlas",)], reference.Sampler())
    assert result["failed"] == 1
    assert "stdout differs from the golden" in result["ops"][0]["errors"]

    w = workloads.SolveRational()
    op = min(w.ops(0), key=lambda op: op[1].m)
    golden = {"digests": {w.key(op): "0" * 64}}
    result = worker.run_pass(workloads.SolveRational(golden), [op], reference.Sampler())
    assert result["failed"] == 1


def test_a_wrong_per_m_table_is_a_pass_error():
    ops = small_sweep_ops(0)
    golden = workloads.load_golden("search-sweep")
    table = {m: row for m, row in golden["table"].items() if int(m) <= SMALL_M}
    result = worker.run_pass(workloads.SearchSweep({**golden, "table": table}), ops,
                             reference.Sampler())
    assert result["failed"] == 0 and result["pass_errors"] == []
    assert run.tally([result]) == (len(ops), 0, [])

    table[str(SMALL_M)] = {**table[str(SMALL_M)],
                           "candidates": table[str(SMALL_M)]["candidates"] + 1}
    result = worker.run_pass(workloads.SearchSweep({**golden, "table": table}), ops,
                             reference.Sampler())
    assert result["failed"] == 0 and result["pass_errors"]
    assert run.tally([result])[2]  # correct: false


def test_a_singular_block_is_an_outcome_not_a_failure(monkeypatch):
    op = min(workloads.SolveRational.ops(3), key=lambda op: op[1].m)
    w = workloads.SolveRational({"digests": {workloads.SolveRational.key(op): "singular"}})
    labels = list(all_labels(op[1].m))
    zero = exactalg.PolyMatrix(labels, labels,
                               [[exactalg.RatFunc(0)] * len(labels) for _ in labels])
    # no datum of the workload meets a singular block with the true
    # pairing matrix; the zero matrix makes every block singular
    monkeypatch.setattr(fakedegree, "omega", functools.lru_cache(lambda m, method: zero))
    tracer = tracing.Tracer(seed=0)
    tracer.install()
    try:
        result = worker.run_pass(w, [op], reference.Sampler(), tracer)
    finally:
        tracer.uninstall()
    assert result["ops"][0]["digest"] == "singular"
    assert result["failed"] == 0 and result["ops"][0]["errors"] == []
    assert tracer.counters["greensolver.singular.count"] == 1
