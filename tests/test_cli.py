"""End-to-end runs of the command-line entry point.

Everything goes through ``cli.main(argv)`` so exit codes and both output
streams are observable without spawning subprocesses.
"""
import json
import re

import pytest

from lsgreen import cli
from lsgreen.greensolver import datum_from_jsonable, datum_to_jsonable
from lsgreen.springer import maximal
from lsgreen.sprefatlas import s_pref


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths, one per subcommand
# ---------------------------------------------------------------------------

def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert re.match(r"\d+\.\d+", capsys.readouterr().out)


def test_irr_json(capsys):
    rc, out, _ = run(capsys, "irr", "5")
    assert rc == 0
    data = json.loads(out)
    assert data["m"] == 5
    by_label = {c["label"]: c for c in data["characters"]}
    assert set(by_label) == {"0", "1", "2", "eps"}
    assert by_label["1"]["b"] == 1
    assert by_label["1"]["degree"] == 2
    assert by_label["1"]["fake_degree"] == {"1": 1, "4": 1}
    assert by_label["eps"]["fake_degree"] == {"5": 1}


def test_irr_tsv(capsys):
    rc, out, _ = run(capsys, "irr", "4", "--format", "tsv")
    assert rc == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].split("\t")[:2] == ["label", "degree"]
    assert len(lines) == 6  # header plus five characters for m=4
    assert lines[-1].split("\t")[0] == "eps"


def test_omega_both_routes(capsys):
    rc, out, _ = run(capsys, "omega", "6", "--method", "both")
    assert rc == 0
    data = json.loads(out)
    labels = data["rows"]
    i1, i2 = labels.index("1"), labels.index("2")
    assert data["entries"][i1][i2] == {"11": 1, "9": 2, "7": 1}


def test_omega_latex(capsys):
    rc, out, _ = run(capsys, "omega", "4", "--format", "latex")
    assert rc == 0
    assert r"\chi_{1}" in out and "tabular" in out


def test_solve_datum_file(capsys, tmp_path):
    datum = maximal(s_pref(5))
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_jsonable(datum)))
    rc, out, _ = run(capsys, "solve", "5", "--datum", str(path))
    assert rc == 0
    data = json.loads(out)
    assert datum_from_jsonable(data["datum"]) == datum
    assert set(data) == {"datum", "P", "Lambda", "closure_order"}
    # top class of the maximal datum carries chi_0 with a = 0
    assert data["datum"]["classes"][-1] == ["0"]
    assert data["datum"]["a"][-1] == 0


def test_solve_accepts_full_system_json(capsys, tmp_path):
    datum = maximal(s_pref(4))
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"datum": datum_to_jsonable(datum), "P": {}}))
    rc, out, _ = run(capsys, "solve", "4", "--datum", str(path))
    assert rc == 0
    assert datum_from_jsonable(json.loads(out)["datum"]) == datum


def test_maximal_certificate(capsys):
    rc, out, _ = run(capsys, "maximal", "4", "--springer", "0,1,r',eps",
                     "--emit-certificates")
    assert rc == 0
    data = json.loads(out)
    cert = data["certificate"]
    assert cert["factorization_verified"] is True
    assert cert["nonpolynomial_y"] == []
    assert data["conditions"]["accepted"] is True
    assert set(data) >= {"P", "Lambda", "pieces", "smoothness"}


def test_search_reports_hits_and_stray_data(capsys):
    rc, out, err = run(capsys, "search", "10", "--springer", "0,1,2,3,r',eps")
    assert rc == 0
    hits = json.loads(out)
    assert len(hits) == 4
    assert all(h["conditions"]["accepted"] for h in hits)
    assert "4 accepted of 9 candidates (0 singular)" in err
    assert "reported separately" in err
    assert "{1,4,r}" in err  # the stray datum's middle class


def test_search_family_filter_off(capsys):
    rc, out, err = run(capsys, "search", "6", "--springer", "all",
                       "--no-family-filter")
    assert rc == 0
    assert "[family filter off]" in err
    assert len(json.loads(out)) == 1


def test_maximal(capsys):
    rc, out, _ = run(capsys, "maximal", "6", "--springer", "0,1,2,r',eps")
    assert rc == 0
    data = json.loads(out)
    assert datum_from_jsonable(data["datum"]) == maximal(s_pref(6))


def test_spref(capsys):
    rc, out, _ = run(capsys, "spref", "10")
    assert rc == 0
    data = json.loads(out)
    assert data["labels"] == ["0", "1", "2", "eps", "r'"]
    assert data["d_sequence"] == [0, 1, 2]
    assert data["dropped_divisors"] == []
    assert data["formula_check"] and data["induction_check"]


def test_atlas_all(capsys):
    rc, out, _ = run(capsys, "atlas")
    assert rc == 0
    results = json.loads(out)
    assert len(results) == 7
    assert all(r["passed"] for r in results)


def test_atlas_single(capsys):
    rc, out, _ = run(capsys, "atlas", "G2")
    assert rc == 0
    results = json.loads(out)
    assert [r["name"] for r in results] == ["G2"]


def test_verify(capsys):
    rc, out, _ = run(capsys, "verify", "5")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {
        "pairing-matrix-cross-derivation",
        "fake-degree-symmetry",
        "preferred-set-search",
        "atlas-fixtures",
    }


# ---------------------------------------------------------------------------
# configuration file
# ---------------------------------------------------------------------------

def test_config_file_supplies_m_and_set(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# G2 search\n"
        "m = 6\n"
        "springer_set = 0,1,2,r',eps\n"
        "output_format = json\n"
    )
    rc, out, err = run(capsys, "search", "--config", str(cfg))
    assert rc == 0
    assert len(json.loads(out)) == 2  # exactly two correspondences for G2
    assert "2 accepted" in err


def test_cli_args_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 6\n")
    rc, out, _ = run(capsys, "irr", "4", "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["m"] == 4


def test_config_bad_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mm = 6\n")
    rc, _, err = run(capsys, "irr", "--config", str(cfg))
    assert rc == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_bad_m(capsys):
    rc, _, err = run(capsys, "irr", "1")
    assert rc == 2
    assert "m must be an integer >= 3" in err


def test_search_needs_springer_set(capsys):
    rc, _, err = run(capsys, "search", "6")
    assert rc == 2
    assert "Springer set" in err


def test_search_bound(capsys):
    rc, _, err = run(capsys, "search", "99", "--springer", "all")
    assert rc == 1
    assert "exceeds the search bound" in err


def test_solve_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "solve", "5", "--datum", str(tmp_path / "no.json"))
    assert rc == 2
    assert "error" in err


def test_bad_springer_label(capsys):
    rc, _, err = run(capsys, "search", "6", "--springer", "0,1,zeta")
    assert rc == 2
    assert "error" in err


def test_atlas_unknown_fixture(capsys):
    rc, _, err = run(capsys, "atlas", "E8")
    assert rc == 2
    assert "error" in err


_GOOD_DATUM = {"m": 3, "classes": [["eps"], ["1"], ["0"]], "a": [3, 1, 0]}


@pytest.mark.parametrize("payload, message", [
    ({**_GOOD_DATUM, "a": [3, 1.7, 0]}, "a-value must be an integer"),
    ({**_GOOD_DATUM, "a": [3, True, 0]}, "a-value must be an integer"),
    ({**_GOOD_DATUM, "m": 3.0}, "m must be an integer"),
    ({**_GOOD_DATUM, "m": True}, "m must be an integer"),
    ({**_GOOD_DATUM, "classes": "eps,1,0"}, "classes must be a list"),
    ([_GOOD_DATUM], "must be a JSON object"),
], ids=["float-a", "bool-a", "float-m", "bool-m", "classes-not-list", "top-level-list"])
def test_solve_rejects_mistyped_datum(capsys, tmp_path, payload, message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "solve", "3", "--datum", str(path))
    assert rc == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, config", [
    (("--max-candidates", "-1"), None),
    (("--max-m", "-1"), None),
    ((), "max_candidates = -1\n"),
    ((), "max_m = -1\n"),
], ids=["flag-max-candidates", "flag-max-m", "key-max_candidates", "key-max_m"])
def test_negative_bound_is_bad_input(capsys, tmp_path, argv, config):
    extra = list(argv)
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        extra += ["--config", str(cfg)]
    rc, _, err = run(capsys, "search", "6", "--springer", "all", *extra)
    assert rc == 2
    assert "must be nonnegative" in err and "check failed" not in err
