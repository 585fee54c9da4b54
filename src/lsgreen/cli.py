"""Command-line surface: character data, the pairing matrix, single
solves, the exhaustive search, the preferred set, the atlas, and a per-m
verification sweep.

Machine output goes to stdout; anything diagnostic goes to stderr.  JSON
output is canonical (sorted keys, compact separators), so identical
invocations are byte-identical.  Exit codes: 0 success, 1 a mathematical
check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .dihedral import CharLabel, format_label, irreps
from .errors import BadSubgroup, InvalidM, LsgreenError
from .exactalg import IntPoly, PolyMatrix, RatFunc
from .fakedegree import check_symmetry, fake_degree, omega
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
    SearchConfig,
    SpringerSet,
    check_conditions,
    closed_form_system,
    enumerate_f_sequences,
    maximal,
    predicted_partition,
    rational_smoothness,
    search,
    special_pieces,
)
from .sprefatlas import (
    atlas_check,
    d_sequence_formula_report,
    get_fixture,
    load_fixtures,
    s_pref,
    s_pref_report,
    verify_spref_via_induction,
)

__all__ = [
    "main",
    "run_command",
    "CliConfig",
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


def _conditions_to_jsonable(report) -> dict:
    return {
        "accepted": report.accepted,
        "checks": [
            {"name": c.name, "passed": c.passed, "details": list(c.details)}
            for c in report.checks
        ],
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


def _latex_matrix(mat: PolyMatrix, caption: str) -> str:
    lines = [r"% " + caption,
             r"\begin{tabular}{l|" + "c" * len(mat.cols) + "}"]
    head = " & ".join("$" + latex_label(c) + "$" for c in mat.cols)
    lines.append(" & " + head + r" \\ \hline")
    for i, r in enumerate(mat.rows):
        cells = " & ".join("$" + latex_poly(x) + "$" for x in mat.data[i])
        lines.append("$" + latex_label(r) + "$ & " + cells + r" \\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


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


def _latex_system(system: GreenSystem) -> str:
    datum = system.datum
    lines = [r"\begin{tabular}{ccl}",
             r"class & $a$ & characters \\ \hline"]
    for i, cls in enumerate(datum.display_classes()):
        ai = datum.a[len(datum.classes) - 1 - i]
        members = ", ".join(
            "$" + latex_label(l) + "$"
            for l in sorted(cls, key=lambda l: format_label(l))
        )
        lines.append(f"{i} & {ai} & {members} " + r"\\")
    lines.append(r"\end{tabular}")
    return ("\n".join(lines) + "\n" + latex_closure(closure_order(system), datum))


def _tsv_matrix(mat: PolyMatrix) -> str:
    out = [".\t" + "\t".join(format_label(c) for c in mat.cols)]
    for i, r in enumerate(mat.rows):
        out.append(
            format_label(r) + "\t" + "\t".join(str(x) for x in mat.data[i])
        )
    return "\n".join(out) + "\n"


def _tsv_system(system: GreenSystem) -> str:
    datum = system.datum
    parts = ["# datum\tm=" + str(datum.m)]
    ncls = len(datum.classes)
    for i in range(ncls - 1, -1, -1):
        members = ",".join(
            format_label(l)
            for l in sorted(datum.classes[i], key=lambda l: format_label(l))
        )
        parts.append(f"{ncls - 1 - i}\t{datum.a[i]}\t{members}")
    parts.append("# P")
    parts.append(_tsv_matrix(system.P).rstrip("\n"))
    parts.append("# Lambda")
    parts.append(_tsv_matrix(system.Lambda).rstrip("\n"))
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class CliConfig:
    m: int | None = None
    springer_set: list[str] | None = None
    output_format: str | None = None
    max_candidates: int | None = None
    max_m: int | None = None
    no_family_filter: bool = False
    emit_certificates: bool = False


def parse_config_file(path: str | Path) -> CliConfig:
    """key = value lines; '#' starts a comment.  Keys mirror the config
    dataclass; springer_set is a comma-separated label list."""
    cfg = CliConfig()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "m":
            cfg.m = int(value)
        elif key == "springer_set":
            cfg.springer_set = [s.strip() for s in value.split(",") if s.strip()]
        elif key == "output_format":
            if value not in ("json", "tsv", "latex"):
                raise ValueError(f"unknown output_format {value!r}")
            cfg.output_format = value
        elif key == "max_candidates":
            cfg.max_candidates = int(value)
        elif key == "max_m":
            cfg.max_m = int(value)
        elif key == "no_family_filter":
            cfg.no_family_filter = value.lower() in ("1", "true", "yes")
        elif key == "emit_certificates":
            cfg.emit_certificates = value.lower() in ("1", "true", "yes")
        else:
            raise ValueError(f"unknown config key {key!r}")
    return cfg


def _resolve_bounds(args, cfg: CliConfig) -> SearchConfig:
    """default < config file < command line; negative bounds are bad input."""
    bounds = SearchConfig()
    for layer in (cfg, args):
        mc = getattr(layer, "max_candidates", None)
        mm = getattr(layer, "max_m", None)
        if mc is not None:
            bounds = replace(bounds, max_candidates=mc)
        if mm is not None:
            bounds = replace(bounds, max_m_solve=mm, max_m_search=mm)
    return bounds


def _need_m(args, cfg: CliConfig) -> int:
    m = args.m if args.m is not None else cfg.m
    if m is None:
        raise ValueError("no m given (positional argument or config file)")
    return m


def _springer_arg(args, cfg: CliConfig, m: int) -> SpringerSet:
    text = args.springer if args.springer is not None else (
        ",".join(cfg.springer_set) if cfg.springer_set else None
    )
    if text is None:
        raise ValueError("no Springer set given (--springer or config file)")
    return SpringerSet.from_strings(m, text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_irr(args, cfg, fmt) -> int:
    m = _need_m(args, cfg)
    chars = irreps(m)
    if fmt == "json":
        payload = {
            "m": m,
            "characters": [
                {
                    "label": format_label(c.label),
                    "degree": c.degree,
                    "b": c.b,
                    "fake_degree": poly_to_jsonable(fake_degree(m, c.label)),
                }
                for c in chars
            ],
        }
        sys.stdout.write(render_json(payload))
    elif fmt == "tsv":
        rows = ["label\tdegree\tb\tfake_degree"]
        rows += [
            f"{format_label(c.label)}\t{c.degree}\t{c.b}\t{fake_degree(m, c.label)}"
            for c in chars
        ]
        sys.stdout.write("\n".join(rows) + "\n")
    else:
        lines = [r"\begin{tabular}{cccl}",
                 r"$\chi$ & $\dim$ & $b$ & $R(q)$ \\ \hline"]
        for c in chars:
            lines.append(
                f"${latex_label(c.label)}$ & {c.degree} & {c.b} & "
                f"${latex_poly(fake_degree(m, c.label))}$ " + r"\\"
            )
        lines.append(r"\end{tabular}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_omega(args, cfg, fmt) -> int:
    m = _need_m(args, cfg)
    om = omega(m, method=args.method)
    if args.method == "both":
        print(f"omega({m}): sum and closed derivations agree", file=sys.stderr)
    if fmt == "json":
        payload = {"m": m, "method": args.method}
        payload.update(matrix_to_jsonable(om))
        sys.stdout.write(render_json(payload))
    elif fmt == "tsv":
        sys.stdout.write(_tsv_matrix(om))
    else:
        sys.stdout.write(_latex_matrix(om, f"pairing matrix, m={m}"))
    return 0


def _load_datum_file(path: str) -> LSDatum:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and isinstance(obj.get("datum"), dict):
        obj = obj["datum"]
    return datum_from_jsonable(obj)


def _cmd_solve(args, cfg, fmt) -> int:
    m = _need_m(args, cfg)
    bounds = _resolve_bounds(args, cfg)
    if m > bounds.max_m_solve:
        raise LsgreenError(
            f"m={m} exceeds the solve bound {bounds.max_m_solve}"
        )
    datum = _load_datum_file(args.datum)
    if datum.m != m:
        raise ValueError(f"datum file is for m={datum.m}, command line says m={m}")
    system = solve(omega(m, method="both"), datum)
    if fmt == "json":
        sys.stdout.write(render_json(system_to_jsonable(system)))
    elif fmt == "tsv":
        sys.stdout.write(_tsv_system(system))
    else:
        sys.stdout.write(_latex_system(system))
    return 0


def _cmd_search(args, cfg, fmt) -> int:
    m = _need_m(args, cfg)
    bounds = _resolve_bounds(args, cfg)
    springer = _springer_arg(args, cfg, m)
    family_filter = not (args.no_family_filter or cfg.no_family_filter)
    certificates = args.emit_certificates or cfg.emit_certificates
    outcome = search(springer, family_filter=family_filter, bounds=bounds)
    if outcome.swapped:
        print(
            "note: Springer set normalised to " + outcome.springer.describe(),
            file=sys.stderr,
        )
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
    if fmt == "json":
        payload = [
            system_to_jsonable(h.system, outcome.springer, certificate=certificates)
            for h in outcome.hits
        ]
        sys.stdout.write(render_json(payload))
    elif fmt == "tsv":
        parts = [_tsv_system(h.system) for h in outcome.hits]
        sys.stdout.write("\n".join(parts))
    else:
        sys.stdout.write("\n".join(_latex_system(h.system) for h in outcome.hits))
    return 0


def _cmd_maximal(args, cfg, fmt) -> int:
    m = _need_m(args, cfg)
    bounds = _resolve_bounds(args, cfg)
    if m > bounds.max_m_solve:
        raise LsgreenError(f"m={m} exceeds the solve bound {bounds.max_m_solve}")
    springer = _springer_arg(args, cfg, m)
    norm, swapped = springer.normalized()
    if swapped:
        print("note: Springer set normalised to " + norm.describe(), file=sys.stderr)
    datum = maximal(norm)
    system = solve(omega(m, method="closed"), datum)
    certificates = getattr(args, "emit_certificates", False) or cfg.emit_certificates
    if fmt == "json":
        sys.stdout.write(
            render_json(system_to_jsonable(system, norm, certificate=certificates))
        )
    elif fmt == "tsv":
        sys.stdout.write(_tsv_system(system))
    else:
        sys.stdout.write(_latex_system(system))
    return 0


def _cmd_spref(args, cfg, fmt) -> int:
    m = _need_m(args, cfg)
    rep = s_pref_report(m)
    payload = {
        "m": m,
        "labels": [
            format_label(l)
            for l in sorted(rep.springer.labels, key=lambda l: format_label(l))
        ],
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
    if fmt == "json":
        sys.stdout.write(render_json(payload))
    elif fmt == "tsv":
        lines = [f"{k}\t{json.dumps(payload[k], sort_keys=True)}"
                 for k in sorted(payload)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        labels = ", ".join("$" + latex_label(l) + "$" for l in sorted(
            rep.springer.labels, key=lambda l: format_label(l)
        ))
        sys.stdout.write(f"preferred set for $m={m}$: $\\{{$ {labels} $\\}}$\n")
    return 0 if ok else 1


def _cmd_atlas(args, cfg, fmt) -> int:
    if args.name is not None:
        fixtures = [get_fixture(args.name)]
    else:
        fixtures = list(load_fixtures())
    results = [atlas_check(fx) for fx in fixtures]
    payload = [
        {"name": r.name, "passed": r.passed, "diff": list(r.diff)}
        for r in results
    ]
    if fmt == "json":
        sys.stdout.write(render_json(payload))
    elif fmt == "tsv":
        lines = [f"{r.name}\t{'pass' if r.passed else 'FAIL'}\t"
                 + "; ".join(r.diff) for r in results]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        lines = [r"\begin{tabular}{ll}", r"fixture & outcome \\ \hline"]
        lines += [f"{r.name} & " + ("pass" if r.passed else "fail") + r" \\"
                  for r in results]
        lines.append(r"\end{tabular}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _cmd_verify(args, cfg, fmt) -> int:
    m = _need_m(args, cfg)
    bounds = _resolve_bounds(args, cfg)
    checks: list[dict] = []

    def record(name: str, fn):
        try:
            ok, details = fn()
        except LsgreenError as exc:
            ok, details = False, [str(exc)]
        except AssertionError as exc:
            ok, details = False, [str(exc)]
        checks.append({"name": name, "passed": ok, "details": details})

    def _omega_both():
        omega(m, method="both")
        return True, []

    record("pairing-matrix-cross-derivation", _omega_both)

    def _symmetry():
        bad = [format_label(c.label) for c in irreps(m) if not check_symmetry(m, c)]
        return (not bad, bad)

    record("fake-degree-symmetry", _symmetry)

    def _b_matches():
        bad = [
            format_label(c.label)
            for c in irreps(m)
            if fake_degree(m, c.label).order() != c.b
        ]
        return (not bad, bad)

    record("b-invariant-is-fake-degree-valuation", _b_matches)

    def _spref_checks():
        details = []
        frep = d_sequence_formula_report(m)
        if not frep.passed:
            details.append("d-sequence formula check failed")
        if not verify_spref_via_induction(m):
            details.append("induction does not reproduce the preferred set")
        return (not details, details)

    record("preferred-set", _spref_checks)

    def _search_spref():
        details = []
        sp = s_pref(m)
        outcome = search(sp, bounds=bounds)
        if not outcome.hits:
            return False, ["no accepted correspondence for the preferred set"]
        expect = {predicted_partition(sp, f) for f in enumerate_f_sequences(sp)}
        got = set(outcome.data())
        if expect != got:
            details.append(
                f"accepted set has {len(got)} data, predicted family has {len(expect)}"
            )
        top = maximal(sp)
        if outcome.data()[0] != top:
            details.append("dominant result is not the maximal correspondence")
        cf = closed_form_system(sp)
        solved = next((h.system for h in outcome.hits if h.datum == top), None)
        if solved is not None and (
            cf.P != solved.P or cf.Lambda != solved.Lambda
        ):
            details.append("closed-form system disagrees with the solver")
        for h in outcome.hits:
            smooth = rational_smoothness(h.system)
            if not (smooth.all_pieces_smooth and smooth.full_variety):
                details.append("smoothness check failed for an accepted datum")
                break
        return (not details, details)

    record("preferred-set-search", _search_spref)

    def _atlas_m():
        bad = []
        for fx in load_fixtures():
            if fx.m != m:
                continue
            res = atlas_check(fx)
            if not res.passed:
                bad.append(fx.name)
        return (not bad, bad)

    record("atlas-fixtures", _atlas_m)

    passed = all(c["passed"] for c in checks)
    payload = {"m": m, "passed": passed, "checks": checks}
    if fmt == "json":
        sys.stdout.write(render_json(payload))
    elif fmt == "tsv":
        lines = [
            f"{c['name']}\t{'pass' if c['passed'] else 'FAIL'}\t"
            + "; ".join(c["details"])
            for c in checks
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        lines = [r"\begin{tabular}{ll}", r"check & outcome \\ \hline"]
        lines += [
            c["name"].replace("-", " ") + " & "
            + ("pass" if c["passed"] else "fail") + r" \\"
            for c in checks
        ]
        lines.append(r"\end{tabular}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common(sp, *, with_m=True, with_springer=False, with_bounds=False,
                with_search_flags=False):
    if with_m:
        sp.add_argument("m", nargs="?", type=int, default=None,
                        help="dihedral parameter (the group has order 2m)")
    sp.add_argument("--format", choices=("json", "tsv", "latex"), default=None,
                    help="output format (default json)")
    sp.add_argument("--config", default=None, metavar="FILE",
                    help="key = value configuration file")
    if with_springer:
        sp.add_argument("--springer", default=None, metavar="SET",
                        help="comma-separated labels, e.g. 0,1,2,r',eps or all")
    if with_bounds:
        sp.add_argument("--max-candidates", type=int, default=None,
                        help="cap on enumerated candidates")
        sp.add_argument("--max-m", type=int, default=None,
                        help="cap on m for solves and searches")
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

    _add_common(sub.add_parser("irr", help="characters, b-invariants, fake degrees"))
    p = sub.add_parser("omega", help="the pairing matrix of fake-degree data")
    _add_common(p)
    p.add_argument("--method", choices=("sum", "closed", "both"), default="both")
    p = sub.add_parser("solve", help="solve one datum file")
    _add_common(p, with_bounds=True)
    p.add_argument("--datum", required=True, metavar="FILE",
                   help="JSON datum (or full system JSON with a 'datum' key)")
    p = sub.add_parser("search", help="enumerate and solve all candidates")
    _add_common(p, with_springer=True, with_bounds=True, with_search_flags=True)
    p = sub.add_parser("maximal", help="the dominant correspondence for a set")
    _add_common(p, with_springer=True, with_bounds=True)
    p.add_argument("--emit-certificates", action="store_true")
    _add_common(sub.add_parser("spref", help="the preferred Springer set"))
    p = sub.add_parser("atlas", help="check the fixture atlas")
    p.add_argument("name", nargs="?", default=None,
                   help="fixture name (default: all)")
    p.add_argument("--format", choices=("json", "tsv", "latex"), default=None)
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
    args = build_parser().parse_args(argv)
    cfg = parse_config_file(args.config) if args.config else CliConfig()
    fmt = args.format or cfg.output_format or "json"
    return _COMMANDS[args.command](args, cfg, fmt)


def main(argv=None) -> int:
    try:
        return run_command(argv)
    except (InvalidM, BadSubgroup, ValueError, KeyError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LsgreenError, AssertionError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
