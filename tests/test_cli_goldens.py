"""Byte-for-byte goldens of the command line.

Each run in ``cli_goldens.json`` is a fixed argument list; its exit code,
stdout and stderr must come out exactly as recorded, in each of the three
output formats.  The datum file of the ``solve`` runs is written afresh
into a temporary directory and stands in the argument list as ``DATUM``.

To record the goldens again (only when an output change is intended):

    PYTHONPATH=src python tests/test_cli_goldens.py
"""
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from lsgreen import cli
from lsgreen.greensolver import datum_to_jsonable
from lsgreen.springer import maximal
from lsgreen.sprefatlas import s_pref

GOLDEN_FILE = Path(__file__).with_name("cli_goldens.json")

COMMANDS = (
    ("irr", "5"),
    ("omega", "4"),
    ("solve", "5", "--datum", "DATUM"),
    ("maximal", "6", "--springer", "0,1,2,r',eps", "--emit-certificates"),
    ("search", "10", "--springer", "0,1,2,3,r',eps"),
    ("spref", "12"),
    ("atlas", "G2"),
    ("verify", "5"),
)
FORMATS = ("json", "tsv", "latex")


def all_runs() -> list[list[str]]:
    return [list(cmd) + ["--format", fmt] for cmd in COMMANDS for fmt in FORMATS]


def run_cli(argv: list[str], datum_path: str) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main([datum_path if a == "DATUM" else a for a in argv])
    return {"argv": argv, "exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_datum(directory: Path) -> str:
    path = directory / "datum.json"
    path.write_text(json.dumps(datum_to_jsonable(maximal(s_pref(5)))))
    return str(path)


@pytest.fixture(scope="module")
def goldens() -> dict[str, dict]:
    records = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    return {" ".join(r["argv"]): r for r in records}


@pytest.mark.parametrize("argv", all_runs(), ids=" ".join)
def test_cli_golden(argv, goldens, tmp_path):
    assert run_cli(argv, write_datum(tmp_path)) == goldens[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        datum = write_datum(Path(tmp))
        records = [run_cli(argv, datum) for argv in all_runs()]
    GOLDEN_FILE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
