"""scripts/exhaustive_check.py, the opt-in comparison of the pruned search
with solving every candidate.  Its oracle is the one
tests/test_springer.py::test_pruned_search_equals_exhaustive runs for
m = 3..12; here only the script's table and exit status are checked, at
m = 3."""
import dataclasses
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = ["m", "sets", "candidates", "unfiltered", "singular", "differences", "seconds"]


def load_script():
    path = ROOT / "scripts" / "exhaustive_check.py"
    spec = importlib.util.spec_from_file_location("exhaustive_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exhaustive_check_prints_one_row_per_m(capsys):
    assert load_script().main(["3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == HEADER
    assert len(lines) == 2
    row = dict(zip(HEADER, lines[1].split("\t")))
    assert (row["m"], row["differences"]) == ("3", "0")


def test_exhaustive_check_fails_on_a_difference(monkeypatch, capsys):
    script = load_script()
    real = script.search

    def one_more_candidate(*args, **kwargs):
        out = real(*args, **kwargs)
        return dataclasses.replace(out, tried=out.tried + 1)

    monkeypatch.setattr(script, "search", one_more_candidate)
    assert script.main(["3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split("\t")[5] != "0"
    assert lines[2].startswith("  differs: S=")
