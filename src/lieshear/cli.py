"""Command-line front end: deterministic reports over algebra documents.

Documents are UTF-8 files holding either a shorthand string like
"(51,52,53,2.54,0)" or a JSON object {"salamon": "..."} /
{"dim": n, "d": {"1": "<form literal>", ...}}, optionally with
{"substitutions": {"name": "rational"}} applied textually before parsing
(overridable by repeated --set name=value flags).

Exit codes: 0 success, 1 parse/usage error, 2 Jacobi failure,
3 invalid construction data, 4 search-space cap exceeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys

from . import geometry, literals, search, shear
from .exterior import KForm, Vector
from .lie import LieAlgebra, parse_salamon, print_salamon

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_JACOBI = 2
EXIT_INVALID_DATA = 3
EXIT_SEARCH_CAP = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict(ok: bool | None) -> str:
    if ok is None:
        return "n/a"
    word = "pass" if ok else "FAIL"
    if _color_enabled():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


def _substitute(text: str, subs: dict[str, str]) -> str:
    for name in sorted(subs):
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise UsageError(f"bad substitution name {name!r}")
        pattern = rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])"
        if re.search(pattern, text):  # an unused value is never converted
            text = re.sub(pattern, str(literals.parse_rational(subs[name])), text)
    return text


def _field(doc: dict, key: str, kind: type, wanted: str, default=None):
    """doc[key] (or the default when absent), which must be of the given type."""
    value = doc.get(key, default)
    # bool is a subclass of int, but true and false are not numbers
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise UsageError(f'"{key}" must be {wanted}')
    return value


def load_document(path: str, set_flags: list[str] | None):
    """Read an algebra document; returns (algebra, the report's "input" object:
    the document's path and its sha256)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("utf-8")
    cli_subs: dict[str, str] = {}
    for item in set_flags or []:
        if "=" not in item:
            raise UsageError(f"--set expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        cli_subs[name.strip()] = value.strip()
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except RecursionError:
            raise UsageError("document nests too deeply") from None
        subs = _field(doc, "substitutions", dict, "an object of strings", {})
        if not all(isinstance(v, str) for v in subs.values()):
            raise UsageError('"substitutions" must be an object of strings')
        subs = {**subs, **cli_subs}
        has_salamon = "salamon" in doc
        has_json = "dim" in doc or "d" in doc
        if has_salamon == has_json:
            raise UsageError('document must have exactly one of "salamon" or "dim"+"d"')
        if has_salamon:
            g = parse_salamon(_substitute(_field(doc, "salamon", str, "a string"), subs))
        else:
            dim = _field(doc, "dim", int, "an integer")
            dmap = _field(doc, "d", dict, "an object", {})
            diffs = []
            for k in range(1, dim + 1):
                lit = dmap.get(str(k), "0")
                diffs.append(literals.parse_form(_substitute(str(lit), subs), dim, degree=2))
            for key in dmap:  # "01" or "١" would name no generator: refused, not ignored
                if key not in map(str, range(1, dim + 1)):
                    raise UsageError(f'bad generator key {key!r} in "d"')
            g = LieAlgebra(diffs)
    else:
        g = parse_salamon(_substitute(stripped, cli_subs))
    return g, {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}


def _subspace_json(basis) -> list[str]:
    return [literals.format_vector(Vector(row)) for row in basis]


# -- commands -----------------------------------------------------------------


def cmd_algebra_check(g: LieAlgebra, args) -> tuple[dict, int]:
    jac = g.jacobi_check()
    result: dict = {
        "dim": g.dim,
        "algebra": print_salamon(g),
        "jacobi": {
            "passed": jac.passed,
            "failures": [{"generator": k, "d2": str(f)} for k, f in jac.failures],
        },
    }
    if not jac.passed:
        return result, EXIT_JACOBI
    rep = g.series()
    verdict, reason = g.is_almost_abelian()
    result["classification"] = {
        "abelian": rep.is_abelian,
        "nilpotent": rep.is_nilpotent,
        "solvable": rep.is_solvable,
        "step_length": rep.step_length,
        "derived_length": rep.derived_length,
        "almost_abelian": verdict,
        "almost_abelian_reason": reason,
    }
    result["lower_central"] = [_subspace_json(s) for s in rep.lower_central]
    result["derived"] = [_subspace_json(s) for s in rep.derived]
    return result, EXIT_OK


def _parse_shear_flags(g: LieAlgebra, args) -> shear.ShearData:
    x = literals.parse_vector(args.x, g.dim)
    alpha = literals.parse_form(args.alpha, g.dim, degree=1)
    f0 = literals.parse_form(args.f0, g.dim, degree=2)
    a = literals.parse_rational(args.a)
    eta_g = None
    if getattr(args, "eta_g", None):
        eta_g = literals.parse_form(args.eta_g, g.dim, degree=1)
    return shear.ShearData(X=x, alpha=alpha, F0=f0, a=a, eta_g=eta_g)


def _report_json(report: shear.ShearReport) -> dict:
    """The shear report, its fields in the order the text report prints them."""
    return {
        "eta": str(report.decomp.eta),
        "f": str(report.decomp.f),
        "eta_bracket": str(report.decomp.eta_bracket),
        "nu": str(report.nu),
        "eta_prime": str(report.eta_prime),
        "eta_0": str(report.eta_0),
        "eta_tilde": str(report.eta_tilde),
        "f_prime": str(report.f_prime),
        "f_tilde": str(report.f_tilde),
        "f_eff": str(report.f_eff),
        "conditions": dict(report.conditions),
        "valid": report.valid,
    }


def cmd_shear(g: LieAlgebra, args) -> tuple[dict, int]:
    data = _parse_shear_flags(g, args)
    report = shear.validate_shear(g, data)
    result = {"algebra": print_salamon(g), "report": _report_json(report)}
    if not report.valid:
        return result, EXIT_INVALID_DATA
    if not args.validate_only:
        result["sheared"] = print_salamon(shear._sheared(g, data, report))
    return result, EXIT_OK


def cmd_twist(g: LieAlgebra, args) -> tuple[dict, int]:
    alpha = literals.parse_form(args.alpha, g.dim, degree=1)
    f2 = literals.parse_form(args.f, g.dim, degree=2)
    twisted = shear.apply_twist(g, alpha, f2)
    return {"algebra": print_salamon(g), "twisted": print_salamon(twisted)}, EXIT_OK


def cmd_form_ds(g: LieAlgebra, args) -> tuple[dict, int]:
    data = _parse_shear_flags(g, args)
    form = literals.parse_form(args.form, g.dim)
    out = shear.ds_form(g, data, form)
    return {"algebra": print_salamon(g), "form": str(form), "ds": str(out)}, EXIT_OK


# the forms each --type needs; its keys are the --type choices
STRUCTURE_FORMS = {
    "symplectic": ("omega",),
    "kahler": ("omega",),
    "half-flat": ("omega", "rho_minus"),
    "g2-cocal": ("psi",),
    "g2-phi": ("phi",),
}


def cmd_check_structure(g: LieAlgebra, args) -> tuple[dict, int]:
    kind = args.type
    forms: dict[str, KForm] = {}
    metric = jstruct = None
    if args.standard:
        if g.dim % 2:
            raise UsageError("--standard needs an even dimension")
        forms["omega"] = KForm(g.dim, 2, {(1 << k) | (1 << (k + 1)): 1 for k in range(0, g.dim, 2)})
        metric = geometry.Metric.standard(g.dim)
        jstruct = geometry.ComplexStructure.standard(g.dim)
    for name, degree in (("omega", 2), ("rho_minus", 3), ("psi", 4), ("phi", 3)):
        if getattr(args, name):
            forms[name] = literals.parse_form(getattr(args, name), g.dim, degree=degree)
    if args.metric:
        metric = geometry.Metric(literals.parse_matrix(args.metric, g.dim))
    if args.j:
        jstruct = geometry.ComplexStructure(literals.parse_matrix(args.j, g.dim))
    missing = [name for name in STRUCTURE_FORMS[kind] if name not in forms]
    if missing:
        raise UsageError(f"{kind} structure needs forms: {', '.join(missing)}")
    if kind == "symplectic":
        fields = {"passed": geometry.symplectic_check(g, forms["omega"])}
    elif kind == "kahler":
        if metric is None or jstruct is None:
            raise UsageError("kahler structure needs a metric and a complex structure")
        fields = dataclasses.asdict(geometry.kahler_check(g, metric, jstruct, forms["omega"]))
    elif kind == "half-flat":
        checks = dataclasses.asdict(geometry.half_flat_check(g, forms["omega"], forms["rho_minus"]))
        fields = {"passed": checks.pop("passed"), "checks": checks}
    elif kind == "g2-cocal":
        fields = {"passed": geometry.g2_cocal_check(g, forms["psi"])}
    else:
        if g.dim != 7:
            raise UsageError("g2-phi check needs a dimension-7 algebra")
        report = geometry.phi_stability(forms["phi"])
        fields = {"passed": report.stable, "definiteness": report.definiteness,
                  "b_matrix": [[str(x) for x in row] for row in report.b_matrix]}
    return {"algebra": print_salamon(g), "type": kind, **fields}, EXIT_OK


def cmd_search(g: LieAlgebra, args) -> tuple[dict, int]:
    x = literals.parse_vector(args.x, g.dim)
    alpha = literals.parse_form(args.alpha, g.dim, degree=1)
    coeffs = tuple(literals.parse_rational(c) for c in args.coeffs.split(","))
    support = None
    if args.support:
        support = []
        for token in args.support.split(","):
            f = literals.parse_form(token.strip(), g.dim, degree=2)
            terms = f.sorted_terms()
            if len(terms) != 1 or terms[0][1] != 1:
                raise UsageError(f"support entries must be bare monomials, got {token!r}")
            support.append(terms[0][0])
        support = tuple(support)
    preserve = tuple(
        literals.parse_form(p, g.dim) for p in (args.preserve or [])
    )
    spec = search.SearchSpec(
        base=g,
        X=x,
        alpha=alpha,
        a=literals.parse_rational(args.a),
        coefficients=coeffs,
        support=support,
        max_terms=args.max_terms,
        preserve=preserve,
        cap=args.cap,
    )
    hits = search.enumerate_f0(spec)
    result = {
        "algebra": print_salamon(g),
        "candidates": spec.candidate_count(),
        "hits": [{"f0": str(h.f0), "sheared": print_salamon(h.sheared)} for h in hits],
    }
    return result, EXIT_OK


def cmd_shear_lines(g: LieAlgebra, args) -> tuple[dict, int]:
    try:
        rep = g.find_shear_lines()
    except ValueError as exc:  # abelian / not solvable: construction-data class
        raise shear.ShearDataError(str(exc)) from None
    result = {
        "algebra": print_salamon(g),
        "derived_subalgebra": _subspace_json(rep.derived_subalgebra),
        "target": _subspace_json(rep.target),
        "acting": [literals.format_vector(v) for v in rep.acting],
        "eigenspaces": [
            {"eigenvalues": [str(e) for e in es.eigenvalues], "basis": _subspace_json(es.basis)}
            for es in rep.eigenspaces
        ],
        "nonrational_present": rep.nonrational_present,
    }
    return result, EXIT_OK


# -- rendering ------------------------------------------------------------------


def _render_text(report: dict) -> str:
    info = report["input"]
    lines = [f"command: {report['command']}", f"input: {info['path']} sha256={info['sha256']}",
             *_render_fields(report["result"]), f"exit-status: {report['exit_status']}"]
    return "\n".join(lines)


def _render_fields(result: dict) -> list[str]:
    lines = []
    for key, value in result.items():
        if key == "report":  # a shear report, its fields already in text order
            lines.extend(_render_fields(value))
        elif key in ("checks", "conditions"):
            lines.append(f"{key}:")
            for name, ok in value.items():
                lines.append(f"  {name}: {_verdict(ok)}")
        elif key == "jacobi":
            lines.append(f"jacobi: {_verdict(value['passed'])}")
            for failure in value["failures"]:
                lines.append(f"  d2(e{failure['generator']}) = {failure['d2']}")
        elif key == "classification":
            flags = [name for name in ("abelian", "nilpotent", "solvable") if value[name]]
            parts = [", ".join(flags) if flags else "not solvable"]
            if value["step_length"] is not None:
                parts.append(f"step {value['step_length']}")
            if value["derived_length"] is not None:
                parts.append(f"derived length {value['derived_length']}")
            lines.append(f"classification: {'; '.join(parts)}")
            aa = value["almost_abelian"]
            aa_word = "undecided" if aa is None else ("yes" if aa else "no")
            lines.append(f"almost-abelian: {aa_word} ({value['almost_abelian_reason']})")
        elif key == "hits":
            lines.append(f"hits: {len(value)}")
            for hit in value:
                lines.append(f"  F0 = {hit['f0']} -> {hit['sheared']}")
        elif key == "eigenspaces":
            lines.append("eigenspaces:")
            for es in value:
                eigs = ", ".join(es["eigenvalues"])
                lines.append(f"  eigenvalues ({eigs}): span{{{', '.join(es['basis'])}}}")
        elif key in ("lower_central", "derived"):
            chain = " > ".join("span{" + ", ".join(s) + "}" if s else "0" for s in value)
            lines.append(f"{key.replace('_', '-')}: {chain}")
        elif isinstance(value, bool):
            word = _verdict(value) if key in ("passed", "valid") else ("yes" if value else "no")
            lines.append(f"{key}: {word}")
        elif isinstance(value, list):
            lines.append(f"{key}: {json.dumps(value)}")
        else:
            lines.append(f"{key}: {value}")
    return lines


def _emit(report: dict, code: int, as_json: bool) -> None:
    report["exit_status"] = code
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2, default=str))
    else:
        print(_render_text(report))


# -- entry point ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="lieshear", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("file", help="algebra document (shorthand or JSON)")
        p.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="substitute a parameter before parsing (repeatable)")
        p.add_argument("--json", action="store_true", help="emit the JSON report")

    def shear_flags(p, f0=True):
        p.add_argument("--x", required=True, help="vector spanning the ideal, e.g. E4")
        p.add_argument("--alpha", required=True, help="one-form with alpha(X)=1, e.g. e4")
        if f0:
            p.add_argument("--f0", required=True, help="deformation two-form literal")
        p.add_argument("--a", default="-1", help="nonzero transfer constant (default -1)")

    p = sub.add_parser("algebra-check", help="Jacobi verdict, series, classification")
    common(p)
    p.set_defaults(handler=cmd_algebra_check)

    p = sub.add_parser("shear", help="validate and apply a shear")
    common(p)
    shear_flags(p)
    p.add_argument("--eta-g", dest="eta_g", help="closed one-form with dF = eta ^ F")
    p.add_argument("--validate-only", action="store_true")
    p.set_defaults(handler=cmd_shear)

    p = sub.add_parser("twist", help="twist a nilpotent algebra")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--f", required=True, help="closed two-form in Lambda^2 V1")
    p.set_defaults(handler=cmd_twist)

    p = sub.add_parser("form-ds", help="apply the transfer differential d_S to a form")
    common(p)
    shear_flags(p)
    p.add_argument("--form", required=True)
    p.set_defaults(handler=cmd_form_ds)

    p = sub.add_parser("check-structure", help="verify a geometric structure")
    common(p)
    p.add_argument("--type", required=True, choices=list(STRUCTURE_FORMS))
    p.add_argument("--omega")
    p.add_argument("--rho-minus", dest="rho_minus")
    p.add_argument("--psi")
    p.add_argument("--phi")
    p.add_argument("--metric", help="Gram matrix rows 'a,b;c,d'")
    p.add_argument("--j", help="complex structure matrix rows")
    p.add_argument("--standard", action="store_true",
                   help="use the flat metric, paired J, and omega = e12+e34+...")
    p.set_defaults(handler=cmd_check_structure)

    p = sub.add_parser("search", help="enumerate valid deformation two-forms")
    common(p)
    shear_flags(p, f0=False)
    p.add_argument("--coeffs", default="-1,0,1", help="comma-separated coefficient set")
    p.add_argument("--support", help="comma-separated monomials, e.g. 'e12,e13'")
    p.add_argument("--max-terms", dest="max_terms", type=int, default=1)
    p.add_argument("--preserve", action="append", help="form to keep closed (repeatable)")
    p.add_argument("--cap", type=int, default=search.DEFAULT_CAP)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("shear-lines", help="invariant lines usable for shearing")
    common(p)
    p.set_defaults(handler=cmd_shear_lines)

    return parser


_VALUE_FLAGS = {
    "--set", "--x", "--alpha", "--f0", "--a", "--eta-g", "--f", "--form", "--type",
    "--omega", "--rho-minus", "--psi", "--phi", "--metric", "--j", "--coeffs",
    "--support", "--max-terms", "--preserve", "--cap",
}


def _normalize_argv(argv: list[str]) -> list[str]:
    # glue values that start with '-' onto their flag so argparse keeps them
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    """Run one command: parse argv, load the document, apply the Jacobi gate,
    call the handler and emit its result wrapped in the report envelope."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_normalize_argv(list(argv)))
        g, info = load_document(args.file, args.set)
        # algebra-check reports the Jacobi failures instead of refusing them
        if args.cmd != "algebra-check" and not g.jacobi_check().passed:
            print("error: input algebra fails the Jacobi identity", file=sys.stderr)
            return EXIT_JACOBI
        result, code = args.handler(g, args)
    except search.SearchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_CAP
    except shear.InvalidShearError as exc:
        result, code = {"report": _report_json(exc.report)}, EXIT_INVALID_DATA
    except (shear.ShearDataError, shear.TwistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA
    except (UsageError, ValueError, OSError) as exc:  # parse, literal, JSON and decode errors
        message = str(exc)
        if literals.is_digit_limit(exc):
            message = (f"a number exceeds CPython's limit of {sys.get_int_max_str_digits()} "
                       "digits for integer string conversion")
        print(f"error: {message}", file=sys.stderr)
        return EXIT_PARSE
    _emit({"command": args.cmd, "input": info, "result": result}, code, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
