"""End-to-end runs of the command-line entry point.

Everything goes through ``cli.main(argv)`` so exit codes and both output
streams are observable without spawning subprocesses.
"""
import contextlib
import io
import json
import re

import pytest
from hypothesis import given, strategies as st

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


def test_omega_closed_runs_above_the_sum_bound(capsys):
    # the bound of the Molien sum does not hold back the closed table
    rc, out, _ = run(capsys, "omega", "31", "--method", "closed")
    assert rc == 0
    assert len(json.loads(out)["rows"]) == 17  # two linear characters, 15 of degree 2


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


_G2 = "0,1,2,r',eps"
_SEARCH_ALL = ("search", "6", "--springer", "all")


@pytest.mark.parametrize("argv, config, flags", [
    (("irr",), "m = 5\n", ("5",)),
    (("search", "6"), f"springer_set = {_G2}\n", ("--springer", _G2)),
    (("irr", "5"), "output_format = tsv\n", ("--format", "tsv")),
    (_SEARCH_ALL, "max_candidates = 1\n", ("--max-candidates", "1")),
    (_SEARCH_ALL, "max_m = 5\n", ("--max-m", "5")),
    (_SEARCH_ALL, "no_family_filter = TRUE\n", ("--no-family-filter",)),
    (_SEARCH_ALL, "no_family_filter = No\n", ()),
    (("maximal", "6", "--springer", _G2), "emit_certificates = yes\n",
     ("--emit-certificates",)),
    (_SEARCH_ALL + ("--max-m", "0"), "max_m = 5\n", ()),
], ids=["m", "springer_set", "output_format", "max_candidates", "max_m",
        "no_family_filter", "no_family_filter-false", "emit_certificates",
        "flag-beats-key"])
def test_config_key_equals_flag(capsys, tmp_path, argv, config, flags):
    """A config key gives the same run as its flag; a flag given on the
    command line wins over the key, even when it is 0."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    from_config = run(capsys, *argv, "--config", str(cfg))
    assert from_config == run(capsys, *argv, *flags)


@pytest.mark.parametrize("key", ["no_family_filter", "emit_certificates"])
def test_config_boolean_is_strict(capsys, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = maybe\n")
    rc, out, err = run(capsys, *_SEARCH_ALL, "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert "'maybe'" in err and "Traceback" not in err


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


@pytest.mark.parametrize("m", ["-1", "2"])
def test_verify_rejects_m_below_3_as_bad_input(capsys, m):
    # every check would fail on m alone; that is bad input, not a failed check
    rc, out, err = run(capsys, "verify", m)
    assert (rc, out) == (2, "")
    assert err == f"error: m must be an integer >= 3, got {m}\n"


def test_search_needs_springer_set(capsys):
    rc, _, err = run(capsys, "search", "6")
    assert rc == 2
    assert "Springer set" in err


def test_search_bound(capsys):
    rc, _, err = run(capsys, "search", "99", "--springer", "all")
    assert rc == 3
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
    for name in ("E8", "nosuch"):
        rc, _, err = run(capsys, "atlas", name)
        assert rc == 2
        assert err == f"error: no atlas fixture named {name!r}\n"


def test_a_key_error_inside_a_command_is_not_bad_input(capsys, monkeypatch):
    # a KeyError is a fault of the program, not of its input: it is not
    # reported as "error: ..." with exit 2
    def lookup_fails(args):
        raise KeyError("no such entry")

    monkeypatch.setitem(cli._COMMANDS, "irr", lookup_fails)
    with pytest.raises(KeyError, match="no such entry"):
        cli.main(["irr", "5"])
    assert "error:" not in capsys.readouterr().err


_GOOD_DATUM = {"m": 3, "classes": [["eps"], ["1"], ["0"]], "a": [3, 1, 0]}


@pytest.mark.parametrize("payload, message", [
    ({**_GOOD_DATUM, "a": [3, 1.7, 0]}, "a-value must be an integer"),
    ({**_GOOD_DATUM, "a": [3, True, 0]}, "a-value must be an integer"),
    ({**_GOOD_DATUM, "m": 3.0}, "m must be an integer"),
    ({**_GOOD_DATUM, "m": True}, "m must be an integer"),
    ({**_GOOD_DATUM, "classes": "eps,1,0"}, "classes must be a list"),
    ([_GOOD_DATUM], "must be a JSON object"),
    ({k: v for k, v in _GOOD_DATUM.items() if k != "m"}, "datum is missing key 'm'"),
    ({k: v for k, v in _GOOD_DATUM.items() if k != "a"}, "datum is missing key 'a'"),
    ({**_GOOD_DATUM, "classes": [["eps"], ["1", "1"], ["0"]]}, "label '1' repeated"),
], ids=["float-a", "bool-a", "float-m", "bool-m", "classes-not-list", "top-level-list",
        "missing-m", "missing-a", "repeated-label"])
def test_solve_rejects_mistyped_datum(capsys, tmp_path, payload, message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "solve", "3", "--datum", str(path))
    assert rc == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_solve_compares_the_datum_files_m_before_building_the_datum(capsys, tmp_path):
    # a file for m = 200001 is refused on its m alone, not as a partition
    # of the 100 003 labels of that m
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"m": 200001, "classes": [["eps"]], "a": [0]}))
    rc, out, err = run(capsys, "solve", "3", "--datum", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: datum file is for m=200001, command line says m=3\n"
    assert len(err.encode()) < 1024


_LABEL_TEXT = st.sampled_from(["eps", "0", "1", "2", "r", "r'", " 1", "x", ""])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=4)
    | _LABEL_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _class_lists(d):
    """The classes of d that are still lists."""
    classes = d.get("classes")
    return [c for c in classes if isinstance(c, list)] if isinstance(classes, list) else []


@st.composite
def mutated_datum(draw):
    """_GOOD_DATUM after one to three edits: a key dropped, a value of any
    JSON type in place of a key's value, a class, a label or an a-value,
    a label repeated or moved between classes, or a class or an a-value
    added or removed."""
    d = json.loads(json.dumps(_GOOD_DATUM))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "repeat", "move", "resize"]))
        classes = _class_lists(d)
        labelled = [c for c in classes if c]
        if kind == "drop" and d:
            del d[draw(st.sampled_from(sorted(d)))]
        elif kind == "retype":
            slots = [(d, k) for k in ("m", "classes", "a", "class_order")]
            slots += [(d[k], i) for k in ("classes", "a") if isinstance(d.get(k), list)
                      for i in range(len(d[k]))]
            slots += [(c, i) for c in classes for i in range(len(c))]
            box, key = draw(st.sampled_from(slots))
            box[key] = draw(st.sampled_from(["top_first", "sideways"]) | _JSON_VALUES)
        elif kind in ("repeat", "move") and labelled and classes:
            source = draw(st.sampled_from(labelled))
            i = draw(st.integers(0, len(source) - 1))
            label = source[i] if kind == "repeat" else source.pop(i)
            draw(st.sampled_from(classes)).append(label)
        elif kind == "resize":
            key = draw(st.sampled_from(["classes", "a"]))
            seq = d.get(key)
            if isinstance(seq, list):
                if seq and draw(st.booleans()):
                    seq.pop(draw(st.integers(0, len(seq) - 1)))
                else:
                    seq.append([draw(_LABEL_TEXT)] if key == "classes"
                               else draw(st.integers(-2, 8)))
    return d


@given(mutated_datum())
def test_solve_survives_any_mutated_datum(tmp_path_factory, payload):
    # whatever the file holds, solve exits 0, 1 or 2 with no traceback, and
    # prints nothing on stdout unless it succeeds
    path = tmp_path_factory.mktemp("datum") / "datum.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["solve", "3", "--datum", str(path)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert out.getvalue() == ""


_CONFIG_VALUES = {
    "m": st.sampled_from([-1, 0, 1, 2, 3, 4, 6, "x"]),
    "springer_set": st.lists(_LABEL_TEXT, max_size=5).map(",".join) | st.just("all"),
    "output_format": st.sampled_from(["json", "tsv", "latex", "xml", ""]),
    "max_candidates": st.sampled_from([-1, 0, 2, 5, "x"]),
    "max_m": st.sampled_from([-1, 0, 2, 5, "x"]),
    "no_family_filter": st.sampled_from(["yes", "No", "0", "TRUE", "maybe"]),
    "emit_certificates": st.sampled_from(["yes", "No", "0", "TRUE", "maybe"]),
}


@st.composite
def config_file(draw):
    """The bytes of a config file: lines of the known keys with cheap
    values, an unknown key, a line without '=', comments, blank lines or
    bytes that are not UTF-8."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["key"] * 8 + ["unknown", "no-equals", "comment", "blank",
                                                   "not-utf8"]))
        if kind == "key":
            key = draw(st.sampled_from(sorted(cli._CONFIG_KEYS)))
            lines.append(f"{key} = {draw(_CONFIG_VALUES[key])}".encode())
        elif kind == "unknown":
            lines.append(b"springer = 0,1")
        elif kind == "no-equals":
            lines.append(b"m 3")
        elif kind == "comment":
            lines.append(b"# m = 5")
        elif kind == "blank":
            lines.append(b"")
        else:
            lines.append(b"m = \xff\xfe3")
    return b"\n".join(lines) + b"\n"


@given(st.sampled_from(["irr", "omega", "search", "maximal", "spref", "verify"]),
       config_file())
def test_every_command_survives_any_config_file(tmp_path_factory, command, text):
    # whatever the config file holds, each command that reads one exits 0,
    # 1, 2 or 3 with no traceback, and prints nothing on stdout unless it
    # succeeds
    path = tmp_path_factory.mktemp("config") / "run.cfg"
    path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", str(path)])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert out.getvalue() == ""


@pytest.mark.parametrize("argv", [
    ("irr", "3", "--config", "DIR"),
    ("solve", "3", "--datum", "DIR"),
], ids=["config", "datum"])
def test_a_directory_as_the_input_file_is_bad_input(capsys, tmp_path, argv):
    rc, out, err = run(capsys, *(str(tmp_path) if a == "DIR" else a for a in argv))
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "maximal"])
def test_max_candidates_is_not_an_option_of_a_single_solve(capsys, tmp_path, command):
    # solve and maximal enumerate nothing, so they have no candidate bound
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(_GOOD_DATUM))
    rest = ["--datum", str(path)] if command == "solve" else ["--springer", "all"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "3", *rest, "--max-candidates", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-candidates" in captured.err


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


@pytest.mark.parametrize("argv, message", [
    (_SEARCH_ALL + ("--max-m", "0"), "m=6 exceeds the search bound 0"),
    (("solve", "5", "--max-m", "4", "--datum", "DATUM"), "m=5 exceeds the solve bound 4"),
    (("verify", "17"), "m=17 exceeds the search bound 16"),
    (("verify", "6", "--max-candidates", "1"), "2 candidates exceed the bound 1"),
    (("irr", "61"), "m=61 exceeds the irr bound 60"),
    (("omega", "31"), "m=31 exceeds the omega bound 30"),
    (("omega", "31", "--method", "sum"), "m=31 exceeds the omega bound 30"),
    (("omega", "301", "--method", "closed"), "m=301 exceeds the omega bound 300"),
    (("spref", "1001"), "m=1001 exceeds the spref bound 1000"),
    (("irr", "5", "--max-m", "4"), "m=5 exceeds the irr bound 4"),
], ids=["search-max-m", "solve-max-m", "verify-search-bound", "verify-max-candidates",
        "irr-bound", "omega-bound", "omega-sum-bound", "omega-closed-bound", "spref-bound",
        "irr-max-m"])
def test_hit_bound_is_reported_as_bound(capsys, tmp_path, argv, message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_jsonable(maximal(s_pref(5)))))
    rc, out, err = run(capsys, *(str(path) if a == "DATUM" else a for a in argv))
    assert rc == 3
    assert out == ""
    assert err == f"bound exceeded: {message}\n"


def test_search_checks_m_before_building_the_springer_set(capsys, monkeypatch):
    # a Springer set lists all_labels(m), which a huge m would allocate
    # before the search's own bound check
    class Unbuilt:
        @staticmethod
        def from_strings(m, text):
            raise ValueError("Springer set built")

    monkeypatch.setattr(cli, "SpringerSet", Unbuilt)
    rc, out, err = run(capsys, "search", "17", "--springer", "0,1,eps")
    assert (rc, out) == (3, "")
    assert err == "bound exceeded: m=17 exceeds the search bound 16\n"
    # --max-m lifts the bound, and the Springer set is built next
    rc, _, err = run(capsys, "search", "17", "--springer", "0,1,eps", "--max-m", "17")
    assert (rc, err) == (2, "error: Springer set built\n")
