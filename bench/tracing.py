"""Per-layer tracing of lieshear from outside the package.

`Tracer.install` wraps the public functions of each layer and rebinds every
lieshear module attribute that holds the original, so calls between lieshear
modules are seen too.  Each wrapped call adds to its name's call count and
self time (its duration minus the durations of the wrapped calls nested inside
it).  Spans (name, start, end, parent) are kept for each op and for wrapped
calls up to two levels below it; aggregates and spans stay in memory until
`dump`.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

CLI_COMMANDS = ("cmd_algebra_check", "cmd_shear", "cmd_twist", "cmd_form_ds",
                "cmd_check_structure", "cmd_search", "cmd_shear_lines")
GEOMETRY_CHECKS = ("is_closed", "symplectic_check", "nijenhuis", "kahler_check",
                   "half_flat_check", "g2_cocal_check", "phi_stability")

# (aggregate name, module, attribute): several attributes may share a name.
TIMED = [
    ("exterior.wedge", "exterior", "wedge"),
    ("exterior.interior", "exterior", "interior"),
    ("lie.LieAlgebra", "lie", "LieAlgebra.__init__"),
    ("lie.LieAlgebra.d", "lie", "LieAlgebra.d"),
    ("lie.LieAlgebra.bracket", "lie", "LieAlgebra.bracket"),
    ("lie.LieAlgebra.series", "lie", "LieAlgebra.series"),
    ("lie.LieAlgebra.twist_filtration", "lie", "LieAlgebra.twist_filtration"),
    ("lie.LieAlgebra.find_shear_lines", "lie", "LieAlgebra.find_shear_lines"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.charpoly", "linalg", "charpoly"),
    ("linalg.rational_roots", "linalg", "rational_roots"),
    ("shear.validate_shear", "shear", "validate_shear"),
    ("shear.decompose_dalpha", "shear", "decompose_dalpha"),
    ("shear.shear_candidate", "shear", "shear_candidate"),
    ("geometry.preserves_closure", "geometry", "preserves_closure"),
    *[("geometry.checks", "geometry", name) for name in GEOMETRY_CHECKS],
    ("search.enumerate_f0", "search", "enumerate_f0"),
    ("literals.parse", "literals", "parse_form"),
    ("literals.parse", "literals", "parse_vector"),
    ("literals.parse", "lie", "parse_salamon"),
    ("cli.load_document", "cli", "load_document"),
    *[("cli.command", "cli", name) for name in CLI_COMMANDS],
    ("cli.main", "cli", "main"),
]
# Counted only: their time stays in the caller's self time.
COUNTED = [("exterior.KForm", "exterior", "KForm.__init__")]

SPAN_DEPTH = 3  # the op plus two levels of wrapped calls


def _observe_validate(counts, result, parent):
    counts["shear.validate_shear.valid"] += bool(result.valid)
    # enumerate_f0 validates each F0 candidate it examines
    counts["search.candidates"] += parent == "search.enumerate_f0"


def _observe_preserves(counts, result, parent):
    counts["geometry.preserves_closure.pass"] += bool(result)


def _observe_search(counts, result, parent):
    counts["search.hits"] += len(result)


OBSERVERS = {"shear.validate_shear": _observe_validate,
             "geometry.preserves_closure": _observe_preserves,
             "search.enumerate_f0": _observe_search}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.active = False
        self._frames: list[list] = []   # open calls: [time in wrapped children, span id, name]
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import lieshear  # noqa: F401  (loads every module that gets wrapped)
        import lieshear.cli  # noqa: F401
        modules = [m for name, m in sys.modules.items()
                   if name == "lieshear" or name.startswith("lieshear.")]
        for name, module, attr in TIMED:
            self._rebind(modules, module, attr, lambda fn, name=name: self._timed(name, fn))
        for name, module, attr in COUNTED:
            self._rebind(modules, module, attr, lambda fn, name=name: self._counted(name, fn))

    def _rebind(self, modules, module: str, attr: str, make) -> None:
        home = sys.modules[f"lieshear.{module}"]
        if "." in attr:  # a method: one binding, on its class
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name)
            original = owner.__dict__[meth]
            self._undo.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(home, attr)
        wrapper = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = -1
        if len(self._frames) < SPAN_DEPTH:
            span = len(self.spans)
            parent = self._frames[-1][1] if self._frames else -1
            self.spans.append({"id": span, "name": name, "parent": parent})
        frame = [0.0, span, name]
        self._frames.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> float:
        self._frames.pop()
        elapsed = end - start
        self.calls[name] += 1
        self.self_s[name] += elapsed - frame[0]
        if self._frames:
            self._frames[-1][0] += elapsed
        if frame[1] >= 0:
            self.spans[frame[1]].update(start=start, end=end, self_s=elapsed - frame[0])
        return elapsed

    def _timed(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._frames[-1][2] if self._frames else None
            frame = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, perf_counter())
            if observe is not None:
                observe(self.counts, result, parent)
            return result
        return traced

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- ops --------------------------------------------------------------------

    def begin_op(self, name: str) -> tuple[list, float]:
        """Opens the op's span and starts counting; pair with `end_op`."""
        self.active = True
        frame = self._open(f"op.{name}")
        return frame, perf_counter()

    def end_op(self, name: str, token: tuple[list, float]) -> float:
        """Closes the op's span; returns its wall time in seconds."""
        end = perf_counter()
        frame, start = token
        self.active = False
        elapsed = self._close(f"op.{name}", frame, start, end)
        self.spans[frame[1]]["wrapped_s"] = frame[0]
        return elapsed

    def op_spans(self) -> list[dict]:
        return [s for s in self.spans if s["parent"] == -1]

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**extra,
               "aggregates": {name: {"calls": self.calls[name], "self_ms": self.self_s.get(name, 0.0) * 1e3}
                              for name in sorted(self.calls)},
               "counts": dict(sorted(self.counts.items())),
               "spans": self.spans}
        path.write_text(json.dumps(doc, indent=1))
