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
import hashlib
import json
import os
import re
import sys
from fractions import Fraction

from . import geometry, literals, search, shear
from .exterior import KForm, Vector
from .lie import LieAlgebra, SalamonError, parse_salamon, print_salamon

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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _substitute(text: str, subs: dict[str, str]) -> str:
    for name in sorted(subs):
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise UsageError(f"bad substitution name {name!r}")
        value = str(literals.parse_rational(subs[name]))
        text = re.sub(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])", value, text)
    return text


def _field(doc: dict, key: str, kind: type, wanted: str, default=None):
    """doc[key] (or the default when absent), which must be of the given type."""
    value = doc.get(key, default)
    # bool is a subclass of int, but true and false are not numbers
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise UsageError(f'"{key}" must be {wanted}')
    return value


def _input_info(path: str, raw: bytes) -> dict:
    """The report's "input" object: the document's path and its sha256."""
    return {"path": path, "sha256": _digest(raw)}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def load_document(path: str, set_flags: list[str] | None):
    """Read an algebra document; returns (algebra, info dict for the report)."""
    raw = _read(path)
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
            for key in dmap:
                if not (key.isdigit() and 1 <= int(key) <= dim):
                    raise UsageError(f'bad generator key {key!r} in "d"')
            g = LieAlgebra(diffs)
    else:
        g = parse_salamon(_substitute(stripped, cli_subs))
    return g, _input_info(path, raw)


def _subspace_json(basis) -> list[str]:
    return [literals.format_vector(Vector(row)) for row in basis]


# -- commands -----------------------------------------------------------------


def cmd_algebra_check(args) -> tuple[dict, int]:
    g, info = load_document(args.file, args.set)
    jac = g.jacobi_check()
    result: dict = {
        "dim": g.dim,
        "algebra": print_salamon(g),
        "jacobi": {
            "passed": jac.passed,
            "failures": [{"generator": k, "d2": str(f)} for k, f in jac.failures],
        },
    }
    code = EXIT_OK
    if jac.passed:
        rep = g.series()
        verdict, reason = g.is_almost_abelian() if not rep.is_abelian else (True, "abelian")
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
    else:
        code = EXIT_JACOBI
    return {"command": "algebra-check", "input": info, "result": result}, code


def _parse_shear_flags(g: LieAlgebra, args) -> shear.ShearData:
    x = literals.parse_vector(args.x, g.dim)
    alpha = literals.parse_form(args.alpha, g.dim, degree=1)
    f0 = literals.parse_form(args.f0, g.dim, degree=2)
    a = literals.parse_rational(args.a)
    eta_g = None
    if getattr(args, "eta_g", None):
        eta_g = literals.parse_form(args.eta_g, g.dim, degree=1)
    return shear.ShearData(X=x, alpha=alpha, F0=f0, a=a, eta_g=eta_g)


def _require_jacobi(g: LieAlgebra) -> None:
    if not g.jacobi_check().passed:
        raise JacobiFailure()


class JacobiFailure(Exception):
    pass


def _report_json(report: shear.ShearReport) -> dict:
    return {
        "valid": report.valid,
        "eta": str(report.decomp.eta),
        "f": str(report.decomp.f),
        "eta_bracket": str(report.decomp.eta_bracket),
        "eta_prime": str(report.eta_prime),
        "eta_0": str(report.eta_0),
        "eta_tilde": str(report.eta_tilde),
        "f_prime": str(report.f_prime),
        "f_tilde": str(report.f_tilde),
        "nu": str(report.nu),
        "f_eff": str(report.f_eff),
        "conditions": dict(report.conditions),
    }


def cmd_shear(args) -> tuple[dict, int]:
    g, info = load_document(args.file, args.set)
    _require_jacobi(g)
    data = _parse_shear_flags(g, args)
    report = shear.validate_shear(g, data)
    result = {"algebra": print_salamon(g), "report": _report_json(report)}
    code = EXIT_OK if report.valid else EXIT_INVALID_DATA
    if report.valid and not args.validate_only:
        sheared = shear.apply_shear(g, data)
        result["sheared"] = print_salamon(sheared)
    return {"command": "shear", "input": info, "result": result}, code


def cmd_twist(args) -> tuple[dict, int]:
    g, info = load_document(args.file, args.set)
    _require_jacobi(g)
    alpha = literals.parse_form(args.alpha, g.dim, degree=1)
    f2 = literals.parse_form(args.f, g.dim, degree=2)
    twisted = shear.apply_twist(g, alpha, f2)
    result = {"algebra": print_salamon(g), "twisted": print_salamon(twisted)}
    return {"command": "twist", "input": info, "result": result}, EXIT_OK


def cmd_form_ds(args) -> tuple[dict, int]:
    g, info = load_document(args.file, args.set)
    _require_jacobi(g)
    data = _parse_shear_flags(g, args)
    form = literals.parse_form(args.form, g.dim)
    out = shear.ds_form(g, data, form)
    result = {"algebra": print_salamon(g), "form": str(form), "ds": str(out)}
    return {"command": "form-ds", "input": info, "result": result}, EXIT_OK


def cmd_check_structure(args) -> tuple[dict, int]:
    g, info = load_document(args.file, args.set)
    _require_jacobi(g)
    kind = args.type
    forms: dict[str, KForm] = {}
    metric = jstruct = None
    if args.standard:
        if g.dim % 2:
            raise UsageError("--standard needs an even dimension")
        if not args.omega:
            forms["omega"] = KForm(
                g.dim, 2, {(1 << k) | (1 << (k + 1)): Fraction(1) for k in range(0, g.dim, 2)}
            )
        metric = geometry.Metric.standard(g.dim)
        jstruct = geometry.ComplexStructure.standard(g.dim)
    if args.omega:
        forms["omega"] = literals.parse_form(args.omega, g.dim, degree=2)
    if args.rho_minus:
        forms["rho_minus"] = literals.parse_form(args.rho_minus, g.dim, degree=3)
    if args.psi:
        forms["psi"] = literals.parse_form(args.psi, g.dim, degree=4)
    if args.phi:
        forms["phi"] = literals.parse_form(args.phi, g.dim, degree=3)
    if args.metric:
        metric = geometry.Metric(literals.parse_matrix(args.metric, g.dim))
    if args.j:
        jstruct = geometry.ComplexStructure(literals.parse_matrix(args.j, g.dim))
    spec = geometry.StructureSpec(kind=kind, forms=forms, metric=metric, j=jstruct)
    outcome = spec.check(g)
    result: dict = {"algebra": print_salamon(g), "type": kind}
    if isinstance(outcome, bool):
        result["passed"] = outcome
    elif isinstance(outcome, geometry.KahlerReport):
        result["passed"] = outcome.passed
        result["checks"] = dict(outcome.checks)
    elif isinstance(outcome, geometry.HalfFlatReport):
        result["passed"] = outcome.passed
        result["checks"] = {
            "co_symplectic": outcome.co_symplectic,
            "rho_minus_closed": outcome.rho_minus_closed,
            "omega_rho_compatible": outcome.omega_rho_compatible,
        }
    else:  # stability report
        result["passed"] = outcome.stable
        result["definiteness"] = outcome.definiteness
        result["b_matrix"] = [[str(x) for x in row] for row in outcome.b_matrix]
    return {"command": "check-structure", "input": info, "result": result}, EXIT_OK


def cmd_search(args) -> tuple[dict, int]:
    g, info = load_document(args.file, args.set)
    _require_jacobi(g)
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
    return {"command": "search", "input": info, "result": result}, EXIT_OK


def cmd_shear_lines(args) -> tuple[dict, int]:
    g, info = load_document(args.file, args.set)
    _require_jacobi(g)
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
    return {"command": "shear-lines", "input": info, "result": result}, EXIT_OK


# -- rendering ------------------------------------------------------------------


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    info = report["input"]
    lines.append(f"input: {info['path']} sha256={info['sha256']}")
    result = report["result"]
    for key, value in result.items():
        if key == "report":
            lines.extend(_render_shear_report(value))
        elif key == "checks":
            lines.append("checks:")
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
    lines.append(f"exit-status: {report['exit_status']}")
    return "\n".join(lines)


def _render_shear_report(rep: dict) -> list[str]:
    lines = []
    for name in ("eta", "f", "eta_bracket", "nu", "eta_prime", "eta_0", "eta_tilde",
                 "f_prime", "f_tilde", "f_eff"):
        lines.append(f"{name}: {rep[name]}")
    lines.append("conditions:")
    for name in shear.CONDITION_NAMES:
        lines.append(f"  {name}: {_verdict(rep['conditions'][name])}")
    lines.append(f"valid: {_verdict(rep['valid'])}")
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

    p = sub.add_parser("algebra-check", help="Jacobi verdict, series, classification")
    common(p)
    p.set_defaults(handler=cmd_algebra_check)

    p = sub.add_parser("shear", help="validate and apply a shear")
    common(p)
    p.add_argument("--x", required=True, help="vector spanning the ideal, e.g. E4")
    p.add_argument("--alpha", required=True, help="one-form with alpha(X)=1, e.g. e4")
    p.add_argument("--f0", required=True, help="deformation two-form literal")
    p.add_argument("--a", default="-1", help="nonzero transfer constant (default -1)")
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
    p.add_argument("--x", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--f0", required=True)
    p.add_argument("--a", default="-1")
    p.add_argument("--form", required=True)
    p.set_defaults(handler=cmd_form_ds)

    p = sub.add_parser("check-structure", help="verify a geometric structure")
    common(p)
    p.add_argument("--type", required=True, choices=list(geometry.STRUCTURE_KINDS))
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
    p.add_argument("--x", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--a", default="-1")
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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report, code = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except JacobiFailure:
        print("error: input algebra fails the Jacobi identity", file=sys.stderr)
        return EXIT_JACOBI
    except (SalamonError, literals.LiteralError, json.JSONDecodeError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except search.SearchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_CAP
    except shear.InvalidShearError as exc:
        # every command loads its document first, so it is read here again
        report = {
            "command": args.cmd,
            "input": _input_info(args.file, _read(args.file)),
            "result": {"report": _report_json(exc.report)},
        }
        _emit(report, EXIT_INVALID_DATA, args.json)
        return EXIT_INVALID_DATA
    except (shear.ShearDataError, shear.TwistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(report, code, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
