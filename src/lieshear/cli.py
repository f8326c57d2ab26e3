"""Command-line front end: deterministic reports over algebra documents.

Documents are UTF-8 files holding either a shorthand string like
"(51,52,53,2.54,0)" or a JSON object {"salamon": "..."} /
{"dim": n, "d": {"1": "<form literal>", ...}}, optionally with
{"substitutions": {"name": "rational"}} applied textually before parsing
(overridable by repeated --set name=value flags).

Exit codes: 0 success, 1 parse/usage error, 2 Jacobi failure,
3 invalid construction data, 4 search-space cap exceeded.

A process runs only the layers its command uses.  Every command runs
literals, exterior and lie; geometry, search and shear are bound as lazy
modules, each in sys.modules from this module's import on and run on the
first read of one of its attributes: check-structure runs geometry, search
runs search and shear, and shear, twist and form-ds run shear.  --help shows
this docstring up to this paragraph.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import sys
from fractions import Fraction

from . import literals
from .exterior import DEFAULT_CAP, MAX_DIM, KForm, Vector
from .lie import LieAlgebra, ShearLineError, parse_salamon, print_salamon


def _layer(name: str):
    """The submodule lieshear.<name>, whose code runs on the first read of one
    of its attributes; one already loaded is returned as it is.  Like an
    import, it goes into sys.modules and onto the package at once, so a caller
    that looks it up there (bench/tracing.py) finds the module this one uses."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


geometry, search, shear = _layer("geometry"), _layer("search"), _layer("shear")

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
        # e12 names a monomial and E1 a frame vector: replacing them would rewrite the form
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or re.fullmatch(r"[eE][0-9]+", name):
            raise UsageError(f"bad substitution name {name!r}")
        # a name before "[" is a bracketed monomial's e, as in e[1,2]
        pattern = rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_]|\s*\[)"
        if re.search(pattern, text):  # an unused value is never converted
            text = re.sub(pattern, str(literals.parse_rational(subs[name])), text)
    return text


def _field(doc: dict, key: str, kind: type, wanted: str, default=None):
    """doc[key] (or the default when absent), which must be of the given type;
    a document's objects ("d", "substitutions") map names to strings."""
    value = doc.get(key, default)
    # bool is a subclass of int, but true and false are not numbers
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise UsageError(f'"{key}" must be {wanted}')
    if kind is dict and not all(isinstance(v, str) for v in value.values()):
        raise UsageError(f'"{key}" must be an object of strings')
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
        subs = {**_field(doc, "substitutions", dict, "an object of strings", {}), **cli_subs}
        has_salamon = "salamon" in doc
        has_json = "dim" in doc or "d" in doc
        if has_salamon == has_json:
            raise UsageError('document must have exactly one of "salamon" or "dim"+"d"')
        if has_salamon:
            g = parse_salamon(_substitute(_field(doc, "salamon", str, "a string"), subs))
        else:
            dim = _field(doc, "dim", int, "an integer")
            if not 2 <= dim <= MAX_DIM:  # a Lie algebra document needs two-forms
                raise UsageError(f'"dim" must be in 2..{MAX_DIM}, got {dim}')
            dmap = _field(doc, "d", dict, "an object", {})
            diffs = [literals.parse_form(_substitute(dmap.get(str(k), "0"), subs), dim, degree=2)
                     for k in range(1, dim + 1)]
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


def _frame_flags(g: LieAlgebra, args) -> tuple[Vector, KForm, Fraction]:
    """--x, --alpha and --a, which shear, form-ds and search read alike."""
    return (literals.parse_vector(args.x, g.dim), literals.parse_form(args.alpha, g.dim, degree=1),
            literals.parse_rational(args.a))


def _parse_shear_flags(g: LieAlgebra, args) -> shear.ShearData:
    x, alpha, a = _frame_flags(g, args)
    f0 = literals.parse_form(args.f0, g.dim, degree=2)
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
        result["sheared"] = print_salamon(shear._sheared(report))
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


# the forms a structure can use, each read from its own --flag (omega from --omega)
FORM_DEGREES = {"omega": 2, "rho_minus": 3, "psi": 4, "phi": 3}


def _kahler(g: LieAlgebra, forms: dict, metric, jstruct) -> dict:
    if metric is None or jstruct is None:
        raise UsageError("kahler structure needs a metric and a complex structure")
    report = geometry.kahler_check(g, metric, jstruct, forms["omega"])
    return {"passed": report.passed, "checks": dict(report.checks)}


def _half_flat(g: LieAlgebra, forms: dict, metric, jstruct) -> dict:
    report = geometry.half_flat_check(g, forms["omega"], forms["rho_minus"])
    return {"passed": report.passed,
            "checks": {"co_symplectic": report.co_symplectic, "rho_minus_closed": report.rho_minus_closed,
                       "omega_rho_compatible": report.omega_rho_compatible}}


def _g2_phi(g: LieAlgebra, forms: dict, metric, jstruct) -> dict:
    if g.dim != 7:
        raise UsageError("g2-phi check needs a dimension-7 algebra")
    report = geometry.phi_stability(forms["phi"])
    return {"passed": report.stable, "definiteness": report.definiteness,
            "b_matrix": [[str(x) for x in row] for row in report.b_matrix]}


# each --type: the forms it needs, and its check (g, forms, metric, J) -> the report's fields
STRUCTURES = {
    "symplectic": (("omega",), lambda g, f, *_: {"passed": geometry.symplectic_check(g, f["omega"])}),
    "kahler": (("omega",), _kahler),
    "half-flat": (("omega", "rho_minus"), _half_flat),
    "g2-cocal": (("psi",), lambda g, f, *_: {"passed": geometry.g2_cocal_check(g, f["psi"])}),
    "g2-phi": (("phi",), _g2_phi),
}


def cmd_check_structure(g: LieAlgebra, args) -> tuple[dict, int]:
    forms: dict[str, KForm] = {}
    metric = jstruct = None
    if args.standard:
        if g.dim % 2:
            raise UsageError("--standard needs an even dimension")
        forms["omega"] = KForm(g.dim, 2, {(1 << k) | (1 << (k + 1)): 1 for k in range(0, g.dim, 2)})
        metric = geometry.Metric.standard(g.dim)
        jstruct = geometry.ComplexStructure.standard(g.dim)
    for name, degree in FORM_DEGREES.items():
        if getattr(args, name):
            forms[name] = literals.parse_form(getattr(args, name), g.dim, degree=degree)
    if args.metric:
        metric = geometry.Metric(literals.parse_matrix(args.metric, g.dim))
    if args.j:
        jstruct = geometry.ComplexStructure(literals.parse_matrix(args.j, g.dim))
    needed, check = STRUCTURES[args.type]
    missing = [name for name in needed if name not in forms]
    if missing:
        raise UsageError(f"{args.type} structure needs forms: {', '.join(missing)}")
    fields = check(g, forms, metric, jstruct)
    return {"algebra": print_salamon(g), "type": args.type, **fields}, EXIT_OK


def cmd_search(g: LieAlgebra, args) -> tuple[dict, int]:
    x, alpha, a = _frame_flags(g, args)
    coeffs = tuple(literals.parse_rational(c) for c in args.coeffs.split(","))
    support = None
    if args.support:
        support = []  # SearchSpec keeps it as a sorted tuple
        for token in args.support.split(","):
            terms = literals.parse_form(token.strip(), g.dim, degree=2).sorted_terms()
            if len(terms) != 1 or terms[0][1] != 1:
                raise UsageError(f"support entries must be bare monomials, got {token!r}")
            support.append(terms[0][0])
    preserve = tuple(literals.parse_form(p, g.dim) for p in (args.preserve or []))
    spec = search.SearchSpec(base=g, X=x, alpha=alpha, a=a, coefficients=coeffs, support=support,
                             max_terms=args.max_terms, preserve=preserve, cap=args.cap)
    hits = search.enumerate_f0(spec)
    result = {
        "algebra": print_salamon(g),
        "candidates": spec._count,  # the box count the search was planned on
        "hits": [{"f0": str(h.f0), "sheared": print_salamon(h.sheared)} for h in hits],
    }
    return result, EXIT_OK


def cmd_shear_lines(g: LieAlgebra, args) -> tuple[dict, int]:
    rep = g.find_shear_lines()
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
    try:
        if as_json:
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            print(_render_text(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): the rest of the report goes to
        # devnull, so the interpreter's final flush of stdout stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# -- entry point ------------------------------------------------------------------


# every subcommand's first flags, as (flag, argparse kwargs) pairs
_COMMON_FLAGS = (
    ("file", {"help": "algebra document (shorthand or JSON)"}),
    ("--set", {"action": "append", "metavar": "NAME=VALUE",
               "help": "substitute a parameter before parsing (repeatable)"}),
    ("--json", {"action": "store_true", "help": "emit the JSON report"}),
)


def _commands() -> dict:
    """Each subcommand: its help, its handler and its own flags.

    Built per call, so a cmd_* rebound on this module (a tracer's wrapper) is
    the handler that runs."""
    x = ("--x", {"required": True, "help": "vector spanning the ideal, e.g. E4"})
    alpha = ("--alpha", {"required": True, "help": "one-form with alpha(X)=1, e.g. e4"})
    f0 = ("--f0", {"required": True, "help": "deformation two-form literal"})
    a = ("--a", {"default": "-1", "help": "nonzero transfer constant (default -1)"})
    return {
        "algebra-check": ("Jacobi verdict, series, classification", cmd_algebra_check, ()),
        "shear": ("validate and apply a shear", cmd_shear, (
            x, alpha, f0, a,
            ("--eta-g", {"help": "closed one-form with dF = eta ^ F"}),
            ("--validate-only", {"action": "store_true"}))),
        "twist": ("twist a nilpotent algebra", cmd_twist, (
            (alpha[0], {"required": True}),  # the same flag, with no help line
            ("--f", {"required": True, "help": "closed two-form in Lambda^2 V1"}))),
        "form-ds": ("apply the transfer differential d_S to a form", cmd_form_ds, (
            x, alpha, f0, a, ("--form", {"required": True}))),
        "check-structure": ("verify a geometric structure", cmd_check_structure, (
            ("--type", {"required": True, "choices": list(STRUCTURES)}),
            *(("--" + name.replace("_", "-"), {}) for name in FORM_DEGREES),
            ("--metric", {"help": "Gram matrix rows 'a,b;c,d'"}),
            ("--j", {"help": "complex structure matrix rows"}),
            ("--standard", {"action": "store_true",
                            "help": "use the flat metric, paired J, and omega = e12+e34+..."}))),
        "search": ("enumerate valid deformation two-forms", cmd_search, (
            x, alpha, a,
            ("--coeffs", {"default": "-1,0,1", "help": "comma-separated coefficient set"}),
            ("--support", {"help": "comma-separated monomials, e.g. 'e12,e13'"}),
            ("--max-terms", {"type": int, "default": 1}),
            ("--preserve", {"action": "append", "help": "form to keep closed (repeatable)"}),
            ("--cap", {"type": int, "default": DEFAULT_CAP}))),
        "shear-lines": ("invariant lines usable for shearing", cmd_shear_lines, ()),
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="lieshear", description=__doc__.rsplit("\n\n", 1)[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, handler, flags) in _commands().items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*_COMMON_FLAGS, *flags):
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


# the options that take a value: the flags of the table above but the switches
_VALUE_FLAGS = {
    flag for _, _, flags in _commands().values() for flag, kwargs in (*_COMMON_FLAGS, *flags)
    if flag.startswith("-") and kwargs.get("action") != "store_true"
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


def _input_error(exc: Exception) -> int:
    """Print a usage, parse, literal, JSON, decode or OS error as its one line; exit 1."""
    message = str(exc)
    if literals.is_digit_limit(exc):
        message = (f"a number exceeds CPython's limit of {sys.get_int_max_str_digits()} "
                   "digits for integer string conversion")
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PARSE


def main(argv=None) -> int:
    """Run one command: parse argv, load the document, apply the Jacobi gate,
    call the handler and emit its result wrapped in the report envelope."""
    if argv is None:
        argv = sys.argv[1:]
    # no layer has run before the handler, so its errors are told apart
    # without naming a layer's error class, which would load the layer
    try:
        args = build_parser().parse_args(_normalize_argv(list(argv)))
        g, info = load_document(args.file, args.set)
        # algebra-check reports the Jacobi failures instead of refusing them
        if args.cmd != "algebra-check" and not g.jacobi_check().passed:
            print("error: input algebra fails the Jacobi identity", file=sys.stderr)
            return EXIT_JACOBI
    except (UsageError, ValueError, OSError) as exc:
        return _input_error(exc)
    try:
        result, code = args.handler(g, args)
    # errors that no layer defines come first, as naming a layer's error class loads the layer
    except (UsageError, literals.LiteralError) as exc:
        return _input_error(exc)
    except ShearLineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA
    except search.SearchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_CAP
    except shear.InvalidShearError as exc:
        result, code = {"report": _report_json(exc.report)}, EXIT_INVALID_DATA
    except (shear.ShearDataError, shear.TwistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA
    except (ValueError, OSError) as exc:
        return _input_error(exc)
    _emit({"command": args.cmd, "input": info, "result": result}, code, args.json)
    return code
