"""Command-line surface: character data, the pairing matrix, single
solves, the exhaustive search, the preferred set, the atlas, and a per-m
verification sweep.

Machine output goes to stdout; anything diagnostic goes to stderr.  JSON
output is canonical (sorted keys, compact separators), so identical
invocations are byte-identical.  Each command returns its exit code and
its stdout text; TSV and LaTeX tables go through one renderer.  Exit codes:
0 success, 1 a mathematical check failed, 2 usage error, 3 a work bound
was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .checks import VERIFY_CHECKS
from .dihedral import CharLabel, format_label, irreps
from .errors import BadInput, BadSubgroup, InvalidM, LsgreenError, SearchBoundExceeded
from .exactalg import IntPoly, PolyMatrix, RatFunc
# the verify checks live in checks; perfbench/selftest.py reads
# cli.check_symmetry
from .fakedegree import check_symmetry, fake_degree, omega  # noqa: F401
from .greensolver import (
    ClosureOrder,
    GreenSystem,
    LSDatum,
    closure_order,
    datum_from_jsonable,
    datum_to_jsonable,
    solve,
)
from .springer import (
    ConditionCheck,
    SearchConfig,
    SpringerSet,
    check_conditions,
    maximal,
    rational_smoothness,
    search,
    special_pieces,
)
from .sprefatlas import (
    atlas_check,
    d_sequence_formula_report,
    get_fixture,
    load_fixtures,
    s_pref_report,
    verify_spref_via_induction,
)

__all__ = [
    "main",
    "run_command",
    "poly_to_jsonable",
    "ratfunc_to_jsonable",
    "matrix_to_jsonable",
    "system_to_jsonable",
    "closure_to_jsonable",
    "render_json",
]


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def poly_to_jsonable(p: IntPoly) -> dict:
    """Sparse polynomial as {exponent-string: coefficient}."""
    return {str(e): c for e, c in sorted(p.c.items())}


def ratfunc_to_jsonable(v: RatFunc) -> dict:
    if v.is_polynomial():
        return poly_to_jsonable(v.num)
    return {"num": poly_to_jsonable(v.num), "den": poly_to_jsonable(v.den)}


def matrix_to_jsonable(mat: PolyMatrix) -> dict:
    return {
        "rows": [format_label(l) for l in mat.rows],
        "cols": [format_label(l) for l in mat.cols],
        "entries": [[ratfunc_to_jsonable(x) for x in row] for row in mat.data],
    }


def closure_to_jsonable(order: ClosureOrder) -> dict:
    return {
        "kind": order.diagram_kind(),
        "hasse_edges": [list(e) for e in order.hasse_edges()],
        "incomparable_pairs": [list(p) for p in order.incomparable_pairs()],
    }


def _check_to_jsonable(c: ConditionCheck) -> dict:
    return {"name": c.name, "passed": c.passed, "details": list(c.details)}


def _conditions_to_jsonable(report) -> dict:
    return {
        "accepted": report.accepted,
        "checks": [_check_to_jsonable(c) for c in report.checks],
        "class_minimizers": [
            format_label(l) if l is not None else None
            for l in report.springer_chars
        ],
    }


def _pieces_to_jsonable(pieces) -> dict:
    return {
        "specials": [format_label(l) for l in pieces.specials],
        "pieces": [list(p) for p in pieces.pieces],
        "tops": list(pieces.tops),
    }


def _smoothness_to_jsonable(rep) -> dict:
    return {
        "pieces": [
            {
                "special": format_label(p.special),
                "passed": p.passed,
                "details": list(p.details),
            }
            for p in rep.pieces
        ],
        "full_variety": rep.full_variety,
        "full_details": list(rep.full_details),
    }


def system_to_jsonable(system: GreenSystem, springer: SpringerSet | None = None,
                       *, certificate: bool = False) -> dict:
    """The exported shape of one solved correspondence.  The condition
    report (which needs the Springer set), the special pieces, and the
    smoothness report are attached when a Springer set is supplied."""
    out = {
        "datum": datum_to_jsonable(system.datum),
        "P": matrix_to_jsonable(system.P),
        "Lambda": matrix_to_jsonable(system.Lambda),
        "closure_order": closure_to_jsonable(closure_order(system)),
    }
    if springer is not None:
        out["conditions"] = _conditions_to_jsonable(check_conditions(system, springer))
        out["pieces"] = _pieces_to_jsonable(special_pieces(system.datum))
        out["smoothness"] = _smoothness_to_jsonable(rational_smoothness(system))
    if certificate:
        out["certificate"] = {
            "factorization_verified": True,  # solve() refuses to return otherwise
            "nonpolynomial_y": [
                [ci, format_label(r), format_label(c)]
                for ci, r, c in system.nonpolynomial_y
            ],
        }
    return out


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# LaTeX / TSV rendering
# ---------------------------------------------------------------------------

def latex_label(label: CharLabel) -> str:
    if label.kind == "chi":
        return rf"\chi_{{{label.index}}}"
    if label.kind == "chi_r":
        return r"\chi_{r}"
    if label.kind == "chi_r_prime":
        return r"\chi'_{r}"
    return r"\epsilon"


def latex_poly(v: RatFunc | IntPoly) -> str:
    if isinstance(v, RatFunc):
        if v.is_polynomial():
            return latex_poly(v.num)
        return rf"\frac{{{latex_poly(v.num)}}}{{{latex_poly(v.den)}}}"
    if v.is_zero():
        return "0"
    parts = []
    for e in sorted(v.c, reverse=True):
        c = v.c[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            qpow = "q" if e == 1 else rf"q^{{{e}}}"
            body = qpow if mag == 1 else f"{mag}{qpow}"
        parts.append(("-" if c < 0 else "+", body))
    sign, first = parts[0]
    text = ("-" if sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += sign + body
    return text


def latex_closure(order: ClosureOrder, datum: LSDatum) -> str:
    """A small Hasse diagram: one node per class, ranked by longest chain
    from the bottom class, drawn bottom-up."""
    n = order.n
    rank = [0] * n
    for _ in range(n):
        for lo, hi in order.hasse_edges():
            rank[hi] = max(rank[hi], rank[lo] + 1)
    by_rank: dict[int, list[int]] = {}
    for i in range(n):
        by_rank.setdefault(rank[i], []).append(i)
    lines = [r"\begin{tikzpicture}[every node/.style={inner sep=2pt}]"]
    for rk in sorted(by_rank):
        row = sorted(by_rank[rk])
        width = len(row) - 1
        for pos, i in enumerate(row):
            x = (pos - width / 2) * 3.0
            members = ",".join(
                latex_label(l)
                for l in sorted(datum.classes[i], key=lambda l: format_label(l))
            )
            lines.append(
                rf"\node (n{i}) at ({x:g},{1.4 * rk:g}) {{$\{{{members}\}}$}};"
            )
    for lo, hi in order.hasse_edges():
        lines.append(rf"\draw (n{lo}) -- (n{hi});")
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _cell(fmt: str, x) -> str:
    """One table cell: a label or a polynomial in the format's notation
    (``$...$`` in LaTeX), a list of labels comma-separated, anything else
    as ``str``."""
    latex = fmt == "latex"
    if isinstance(x, CharLabel):
        return f"${latex_label(x)}$" if latex else format_label(x)
    if isinstance(x, (IntPoly, RatFunc)):
        return f"${latex_poly(x)}$" if latex else str(x)
    if isinstance(x, list):
        return (", " if latex else ",").join(_cell(fmt, y) for y in x)
    return str(x)


def _table(fmt: str, rows, head: dict | None = None, spec: str = "") -> str:
    """Rows of cells as TSV lines, or as a LaTeX tabular with column spec
    ``spec``.  ``head`` maps a format to its header cells; a format it
    lacks gets no header row."""
    tsv = fmt == "tsv"

    def line(cells) -> str:
        return (("\t" if tsv else " & ").join(_cell(fmt, x) for x in cells)
                + ("" if tsv else r" \\"))

    top = (head or {}).get(fmt)
    lines = [line(top) + ("" if tsv else r" \hline")] if top else []
    lines += [line(row) for row in rows]
    if not tsv:
        lines = [rf"\begin{{tabular}}{{{spec}}}", *lines, r"\end{tabular}"]
    return "\n".join(lines) + "\n"


def _matrix_table(fmt: str, mat: PolyMatrix) -> str:
    return _table(fmt, [[r, *row] for r, row in zip(mat.rows, mat.data)],
                  {fmt: ["." if fmt == "tsv" else "", *mat.cols]},
                  "l|" + "c" * len(mat.cols))


def _system_table(fmt: str, system: GreenSystem) -> str:
    """The datum, one row per class from the top; TSV goes on with P and
    Lambda, LaTeX with the Hasse diagram of the closure order."""
    datum = system.datum
    rows = [[i, a, sorted(cls, key=format_label)] for i, (cls, a)
            in enumerate(zip(datum.display_classes(), reversed(datum.a)))]
    text = _table(fmt, rows, {"tsv": ["# datum", f"m={datum.m}"],
                              "latex": ["class", "$a$", "characters"]}, "ccl")
    if fmt == "tsv":
        return (text + "# P\n" + _matrix_table(fmt, system.P)
                + "# Lambda\n" + _matrix_table(fmt, system.Lambda))
    return text + latex_closure(closure_order(system), datum)


def _checks_table(fmt: str, what: str, rows, latex_name=str) -> str:
    """(name, passed, details) rows: TSV with the details, LaTeX as a
    two-column ``what`` / outcome tabular."""
    if fmt == "tsv":
        cells = [[n, "pass" if ok else "FAIL", "; ".join(d)] for n, ok, d in rows]
    else:
        cells = [[latex_name(n), "pass" if ok else "fail"] for n, ok, _ in rows]
    return _table(fmt, cells, {"latex": [what, "outcome"]}, "ll")


# ---------------------------------------------------------------------------
# configuration and bounds
# ---------------------------------------------------------------------------

SOLVE_M_BOUND = 30  # m bound of solve and maximal
# The m bounds of irr, omega and spref, each where the command takes a few
# seconds (wall time, 2-core VM, Python 3.11): irr 60 takes 2.1 s (80:
# 6.5 s); omega's closed table at 300 takes 1.6 s (400: 4.3 s); spref 1000
# takes 0.9 s (2000: 2.7-3.1 s, 3000: 4.0-4.2 s).  omega's Molien sum
# (--method sum or both) at 30 takes 0.3 s, 0.5 s at 29 (the slowest m up
# to 30) and 0.7 s at 40; its bound stays 30, the largest m at which the
# test-suite checks it against the closed table.  --max-m replaces every
# one of them.
IRR_M_BOUND = 60
OMEGA_SUM_M_BOUND = 30
OMEGA_CLOSED_M_BOUND = 300
SPREF_M_BOUND = 1000
_FORMATS = ("json", "tsv", "latex")


def _boolean(value: str) -> bool:
    word = value.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/0, true/false or yes/no, got {value!r}")
    return word in ("1", "true", "yes")


def _output_format(value: str) -> str:
    if value not in _FORMATS:
        raise ValueError(f"unknown output_format {value!r}")
    return value


# config key -> (argparse dest, value parser)
_CONFIG_KEYS = {
    "m": ("m", int),
    "springer_set": ("springer", lambda v: ",".join(
        s.strip() for s in v.split(",") if s.strip()) or None),
    "output_format": ("format", _output_format),
    "max_candidates": ("max_candidates", int),
    "max_m": ("max_m", int),
    "no_family_filter": ("no_family_filter", _boolean),
    "emit_certificates": ("emit_certificates", _boolean),
}


def _read_text(path: str | Path) -> str:
    """The file's text; a file that cannot be read (missing, a directory,
    not permitted) is bad input, a ValueError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from None


def parse_config_file(path: str | Path) -> dict:
    """``key = value`` lines, '#' starting a comment, read into
    {argparse dest: value}.  springer_set is a comma-separated label list;
    booleans are 1/0, true/false or yes/no in any case."""
    values = {}
    for raw in _read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        dest, parse = _CONFIG_KEYS[key]
        values[dest] = parse(value)
    # a negative bound is bad input even where a flag overrides it
    SearchConfig(**{k: values[k] for k in ("max_candidates", "max_m") if k in values})
    return values


def _bounds(args, max_m: int = SearchConfig.max_m) -> SearchConfig:
    """--max-candidates and --max-m over the defaults; a negative bound is
    bad input."""
    given = {k: v for k in ("max_candidates", "max_m")
             if (v := getattr(args, k, None)) is not None}
    return SearchConfig(**{"max_m": max_m, **given})


def _check_m_bound(args, m: int, what: str, default: int) -> None:
    """Stop before any work when m is over --max-m, or ``default`` without it."""
    bound = _bounds(args, default).max_m
    if m > bound:
        raise SearchBoundExceeded(f"m={m} exceeds the {what} bound {bound}")


def _need_m(args) -> int:
    if args.m is None:
        raise ValueError("no m given (positional argument or config file)")
    return args.m


def _springer_arg(args) -> SpringerSet:
    if args.springer is None:
        raise ValueError("no Springer set given (--springer or config file)")
    return SpringerSet.from_strings(args.m, args.springer)


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, stdout text)
# ---------------------------------------------------------------------------

def _cmd_irr(args):
    m = _need_m(args)
    _check_m_bound(args, m, "irr", IRR_M_BOUND)
    chars = irreps(m)
    if args.format == "json":
        return 0, render_json({"m": m, "characters": [
            {"label": format_label(c.label), "degree": c.degree, "b": c.b,
             "fake_degree": poly_to_jsonable(fake_degree(m, c.label))}
            for c in chars
        ]})
    rows = [[c.label, c.degree, c.b, fake_degree(m, c.label)] for c in chars]
    return 0, _table(args.format, rows, {
        "tsv": ["label", "degree", "b", "fake_degree"],
        "latex": [r"$\chi$", r"$\dim$", "$b$", "$R(q)$"],
    }, "cccl")


def _cmd_omega(args):
    m = _need_m(args)
    _check_m_bound(args, m, "omega", OMEGA_CLOSED_M_BOUND
                   if args.method == "closed" else OMEGA_SUM_M_BOUND)
    om = omega(m, method=args.method)
    if args.method == "both":
        print(f"omega({m}): sum and closed derivations agree", file=sys.stderr)
    if args.format == "json":
        return 0, render_json({"m": m, "method": args.method, **matrix_to_jsonable(om)})
    caption = f"% pairing matrix, m={m}\n" if args.format == "latex" else ""
    return 0, caption + _matrix_table(args.format, om)


def _load_datum_file(path: str, m: int) -> LSDatum:
    """The datum in the file, for m.  The file's m is compared with m (the
    command line's, already within its bound) before the datum is built,
    so a file for another m is not checked as a partition of its labels."""
    obj = json.loads(_read_text(path))
    if isinstance(obj, dict) and isinstance(obj.get("datum"), dict):
        obj = obj["datum"]
    if isinstance(obj, dict) and type(obj.get("m")) is int and obj["m"] != m:
        raise ValueError(f"datum file is for m={obj['m']}, command line says m={m}")
    return datum_from_jsonable(obj)


def _cmd_solve(args):
    m = _need_m(args)
    _check_m_bound(args, m, "solve", SOLVE_M_BOUND)
    datum = _load_datum_file(args.datum, m)
    system = solve(omega(m, method="both"), datum)
    if args.format == "json":
        return 0, render_json(system_to_jsonable(system))
    return 0, _system_table(args.format, system)


def _cmd_search(args):
    m = _need_m(args)
    _check_m_bound(args, m, "search", SearchConfig.max_m)
    bounds = _bounds(args)
    springer = _springer_arg(args)
    family_filter = not args.no_family_filter
    outcome = search(springer, family_filter=family_filter, bounds=bounds)
    if outcome.swapped:
        print("note: Springer set normalised to " + outcome.springer.describe(),
              file=sys.stderr)
    print(
        f"search m={m} {outcome.springer.describe()}: "
        f"{len(outcome.hits)} accepted of {outcome.tried} candidates "
        f"({outcome.rejected_singular} singular)"
        + ("" if family_filter else " [family filter off]"),
        file=sys.stderr,
    )
    for h in outcome.nonconforming:
        print(
            "note: condition-passing datum outside the two-run shape, "
            "reported separately: " + h.datum.describe(),
            file=sys.stderr,
        )
    if args.format == "json":
        return 0, render_json([
            system_to_jsonable(h.system, outcome.springer,
                               certificate=args.emit_certificates)
            for h in outcome.hits
        ])
    return 0, "\n".join(_system_table(args.format, h.system) for h in outcome.hits)


def _cmd_maximal(args):
    m = _need_m(args)
    _check_m_bound(args, m, "solve", SOLVE_M_BOUND)
    norm, swapped = _springer_arg(args).normalized()
    if swapped:
        print("note: Springer set normalised to " + norm.describe(), file=sys.stderr)
    system = solve(omega(m, method="closed"), maximal(norm))
    if args.format == "json":
        return 0, render_json(
            system_to_jsonable(system, norm, certificate=args.emit_certificates)
        )
    return 0, _system_table(args.format, system)


def _cmd_spref(args):
    m = _need_m(args)
    _check_m_bound(args, m, "spref", SPREF_M_BOUND)
    rep = s_pref_report(m)
    labels = sorted(rep.springer.labels, key=format_label)
    payload = {
        "m": m,
        "labels": [format_label(l) for l in labels],
        "dropped_divisors": list(rep.dropped_divisors),
        "notes": list(rep.notes),
    }
    ok = True
    if m >= 3:
        frep = d_sequence_formula_report(m)
        payload["d_sequence"] = list(frep.sequence)
        payload["formula_check"] = frep.passed
        payload["formula_discrepancies"] = list(frep.discrepancies)
        payload["induction_check"] = verify_spref_via_induction(m)
        ok = frep.passed and payload["induction_check"]
    code = 0 if ok else 1
    if args.format == "json":
        return code, render_json(payload)
    if args.format == "tsv":
        return code, _table("tsv", [[k, json.dumps(payload[k], sort_keys=True)]
                                    for k in sorted(payload)])
    return code, f"preferred set for $m={m}$: $\\{{$ {_cell('latex', labels)} $\\}}$\n"


def _cmd_atlas(args):
    fixtures = [get_fixture(args.name)] if args.name is not None else load_fixtures()
    results = [atlas_check(fx) for fx in fixtures]
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json":
        return code, render_json([
            {"name": r.name, "passed": r.passed, "diff": list(r.diff)}
            for r in results
        ])
    return code, _checks_table(args.format, "fixture",
                               [(r.name, r.passed, r.diff) for r in results])


def _cmd_verify(args):
    m = _need_m(args)
    _check_m_bound(args, m, "search", SearchConfig.max_m)
    if m < 3:  # every check would fail on m alone: bad input, not a failed check
        raise InvalidM(f"m must be an integer >= 3, got {m}")
    bounds = _bounds(args)
    checks = [check(m, bounds) for check in VERIFY_CHECKS]
    passed = all(c.passed for c in checks)
    code = 0 if passed else 1
    if args.format == "json":
        return code, render_json({"m": m, "passed": passed,
                                  "checks": [_check_to_jsonable(c) for c in checks]})
    return code, _checks_table(
        args.format, "check", [(c.name, c.passed, c.details) for c in checks],
        latex_name=lambda name: name.replace("-", " "),
    )


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(sp, *, with_m=True, with_springer=False, with_bounds=False,
                with_max_m=False, with_search_flags=False):
    if with_m:
        sp.add_argument("m", nargs="?", type=int, default=None,
                        help="dihedral parameter (the group has order 2m)")
    sp.add_argument("--format", choices=_FORMATS, default=None,
                    help="output format (default json)")
    sp.add_argument("--config", default=None, metavar="FILE",
                    help="key = value configuration file")
    if with_springer:
        sp.add_argument("--springer", default=None, metavar="SET",
                        help="comma-separated labels, e.g. 0,1,2,r',eps or all")
    if with_bounds:
        sp.add_argument("--max-candidates", type=int, default=None,
                        help="cap on enumerated candidates")
    if with_bounds or with_max_m:
        sp.add_argument("--max-m", type=int, default=None,
                        help="cap on m")
    if with_search_flags:
        sp.add_argument("--no-family-filter", action="store_true",
                        help="also enumerate data that ignore the family "
                             "pre-filter (rejections still apply)")
        sp.add_argument("--emit-certificates", action="store_true",
                        help="attach verification certificates to JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsgreen",
        description="Green-function systems for dihedral groups: characters, "
                    "the pairing matrix, solving, searching, and the atlas.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("irr", help="characters, b-invariants, fake degrees"),
                with_max_m=True)
    p = sub.add_parser("omega", help="the pairing matrix of fake-degree data")
    _add_common(p, with_max_m=True)
    p.add_argument("--method", choices=("sum", "closed", "both"), default="both")
    p = sub.add_parser("solve", help="solve one datum file")
    _add_common(p, with_max_m=True)
    p.add_argument("--datum", required=True, metavar="FILE",
                   help="JSON datum (or full system JSON with a 'datum' key)")
    p = sub.add_parser("search", help="enumerate and solve all candidates")
    _add_common(p, with_springer=True, with_bounds=True, with_search_flags=True)
    p = sub.add_parser("maximal", help="the dominant correspondence for a set")
    _add_common(p, with_springer=True, with_max_m=True)
    p.add_argument("--emit-certificates", action="store_true")
    _add_common(sub.add_parser("spref", help="the preferred Springer set"),
                with_max_m=True)
    p = sub.add_parser("atlas", help="check the fixture atlas")
    p.add_argument("name", nargs="?", default=None,
                   help="fixture name (default: all)")
    p.add_argument("--format", choices=_FORMATS, default=None)
    p.add_argument("--config", default=None, metavar="FILE")
    _add_common(sub.add_parser("verify", help="per-m invariant suite"),
                with_bounds=True)
    return parser


_COMMANDS = {
    "irr": _cmd_irr,
    "omega": _cmd_omega,
    "solve": _cmd_solve,
    "search": _cmd_search,
    "maximal": _cmd_maximal,
    "spref": _cmd_spref,
    "atlas": _cmd_atlas,
    "verify": _cmd_verify,
}


def run_command(argv=None) -> int:
    """Parse, fill from the config file what the command line left unset
    (None, or False for a switch), run the command and write its text."""
    args = build_parser().parse_args(argv)
    if args.config:
        for dest, value in parse_config_file(args.config).items():
            current = getattr(args, dest, None)
            if current is None or current is False:
                setattr(args, dest, value)
    args.format = args.format or "json"
    code, text = _COMMANDS[args.command](args)
    sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    try:
        return run_command(argv)
    except SearchBoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (InvalidM, BadSubgroup, BadInput, ValueError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LsgreenError, AssertionError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
