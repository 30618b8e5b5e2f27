"""Spans around calls into symres, recorded from outside the package.

``Tracer.install`` wraps the public functions of each symres module (and
the private ``_perturbed_resultant``, whose calls are the perturbation
count) in every module namespace that holds them, which is where callers
look the names up: ``determinant`` is patched in ``symres.ring`` and as
imported by ``symres.resultant`` and ``symres.divdiff``,
``macaulay_resultant`` in ``symres.resultant`` and as imported by
``symres.equivariant``, ``symres.discriminant`` and ``symres.cli``, and
so on.  Methods are patched on their class.  ``Tracer.remove`` puts every
original back.

Each wrapped call records a span: name, start, end, parent span and
problem id, plus a few sizes.  ``Coefficient`` multiplication and exact
division run about a million times per pass, so they are not spans:
their call counts and times are summed into the span they ran in, which
keeps self times exact.  Spans stay in memory until the run writes them
out.
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

WRAPPED = "__bench_wrapped__"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "pid", "attrs",
                 "leaf", "in_check")

    def __init__(self, sid, name, start, parent, pid, in_check):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pid = pid
        self.attrs: Dict[str, object] = {}
        self.leaf: Dict[str, List[float]] = {}
        self.in_check = in_check

    @property
    def duration(self) -> float:
        return self.end - self.start


def _entries(m):
    return m.entries if hasattr(m, "entries") else m


def _parameter_free(x) -> bool:
    if isinstance(x, int):
        return True
    if hasattr(x, "is_constant"):
        return x.is_constant()
    return all(c.is_constant() for c in x.terms.values())


def _det_attrs(span: Span, args, result) -> None:
    rows = _entries(args[0])
    span.attrs["dim"] = len(rows)
    span.attrs["const"] = all(_parameter_free(x) for row in rows
                              for x in row)


def _macaulay_data_attrs(span: Span, args, result) -> None:
    rows, _, dod = result
    span.attrs["dim"] = len(rows)
    span.attrs["dod"] = len(dod)


def _parse_attrs(span: Span, args, result) -> None:
    span.attrs["bytes"] = len(args[0].encode("utf-8"))


def _table_attrs(span: Span, args, result) -> None:
    span.attrs["entries"] = len(result.cached_subsets())


def _main_attrs(span: Span, args, result) -> None:
    argv = args[0] if args else None
    span.attrs["subcommand"] = argv[0] if argv else ""


# (module, attribute, span name, size recorder); functions are patched in
# every symres module that binds the same object.
FUNCTIONS = (
    ("symres.ring", "determinant", "ring.det", _det_attrs),
    ("symres.resultant", "macaulay_resultant", "resultant.macaulay", None),
    ("symres.resultant", "macaulay_data", "resultant.build",
     _macaulay_data_attrs),
    ("symres.resultant", "_perturbed_resultant", "resultant.perturb", None),
    ("symres.resultant", "sylvester_resultant", "resultant.sylvester", None),
    ("symres.divdiff", "check_equivariance", "divdiff.check", None),
    ("symres.equivariant", "specialize_chain", "equivariant.specialize",
     None),
    ("symres.equivariant", "decompose_resultant", "equivariant.decompose",
     None),
    ("symres.equivariant", "verify_decomposition", "equivariant.verify",
     None),
    ("symres.discriminant", "partial_derivatives", "discriminant.partials",
     None),
    ("symres.discriminant", "discriminant_decomposition",
     "discriminant.decompose", None),
    ("symres.discriminant", "discriminant_value", "discriminant.value",
     None),
    ("symres.parser", "parse_system_file", "parser.parse", _parse_attrs),
    ("symres.parser", "print_coefficient", "parser.print", None),
    ("symres.cli", "main", "cli.main", _main_attrs),
)

# (module, class, method, span name, size recorder)
METHODS = (
    ("symres.ring", "Coefficient", "__pow__", "ring.coeff_pow", None),
    ("symres.divdiff", "DividedDifferenceTable", "freeze", "divdiff.table",
     _table_attrs),
)

# (module, class, methods, counter name): summed, not spans.
LEAVES = (
    ("symres.ring", "Coefficient", ("__mul__", "__rmul__"), "ring.coeff_mul"),
    ("symres.ring", "Coefficient", ("exact_div",), "ring.coeff_div"),
)


class Tracer:
    """Records spans of the current problem; one thread, one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.top: Optional[Span] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, pid: str = "") -> Span:
        parent = self.top
        span = Span(len(self.spans), name, self.clock(),
                    parent.sid if parent else None,
                    pid or (parent.pid if parent else ""),
                    name == "check" or bool(parent and parent.in_check))
        self.spans.append(span)
        self.top = span
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        self.top = self.spans[span.parent] if span.parent is not None \
            else None

    @contextlib.contextmanager
    def span(self, name: str, pid: str = ""):
        span = self.begin(name, pid)
        try:
            yield span
        finally:
            self.finish(span)

    def check_scope(self):
        """Context for a benchmark-side check: its calls are not program
        work and drop out of the per-layer metrics."""
        return self.span("check")

    # -- wrappers -----------------------------------------------------------

    def wrap_span(self, name: str, func, recorder=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.finish(span)
            if recorder is not None:
                recorder(span, args, result)
            return result

        setattr(wrapper, WRAPPED, func)
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def wrap_leaf(self, name: str, func):
        tracer = self
        clock = self.clock

        def wrapper(a, b):
            t0 = clock()
            result = func(a, b)
            elapsed = clock() - t0
            acc = tracer.top.leaf
            slot = acc.get(name)
            if slot is None:
                acc[name] = [1, elapsed]
            else:
                slot[0] += 1
                slot[1] += elapsed
            return result

        setattr(wrapper, WRAPPED, func)
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap symres's functions where its callers look them up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "symres" or name.startswith("symres."))
                   and m is not None]
        for modname, attr, name, recorder in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap_span(name, original, recorder)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for modname, clsname, method, name, recorder in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self._patch(cls, method,
                        self.wrap_span(name, vars(cls)[method], recorder))
        for modname, clsname, methods, name in LEAVES:
            cls = getattr(sys.modules[modname], clsname)
            wrapper = self.wrap_leaf(name, vars(cls)[methods[0]])
            for method in methods:
                self._patch(cls, method, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def installed_wrappers() -> List[str]:
    """Names of symres attributes that still hold a trace wrapper."""
    found = []
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == "symres"
                                  or modname.startswith("symres.")):
            continue
        for key, value in vars(module).items():
            if hasattr(value, WRAPPED):
                found.append(f"{modname}.{key}")
            if isinstance(value, type):
                for mkey, mvalue in vars(value).items():
                    if hasattr(mvalue, WRAPPED):
                        found.append(f"{modname}.{key}.{mkey}")
    return found


# -- derived figures ---------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the time covered by its children and by the
    leaf calls summed into it."""
    out = {s.sid: s.duration - sum(v[1] for v in s.leaf.values())
           for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _ancestor_names(spans: List[Span], span: Span):
    names = []
    while span.parent is not None:
        span = spans[span.parent]
        names.append(span.name)
    return names


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """The per-layer metrics over the program's spans (checks excluded)."""
    prog = [s for s in spans if not s.in_check]
    by: Dict[str, List[Span]] = {}
    for s in prog:
        by.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by.get(name, ()))

    def count(name):
        return len(by.get(name, ()))

    def leaf(name, i):
        return sum(s.leaf[name][i] for s in prog if name in s.leaf)

    dets = by.get("ring.det", [])
    builds = by.get("resultant.build", [])
    chains, direct = [], []
    for s in by.get("resultant.macaulay", []):
        above = _ancestor_names(spans, s)
        if "equivariant.decompose" in above \
                or "discriminant.decompose" in above:
            chains.append(s)
        elif "equivariant.verify" in above:
            direct.append(s)
    selfs = self_times(spans)
    calls = count("resultant.macaulay")
    attempts = count("resultant.build")
    return {
        "ring.det_calls": len(dets),
        "ring.det_s": total("ring.det"),
        "ring.det_max_dim": max((s.attrs["dim"] for s in dets), default=0),
        "ring.det_ops": sum(s.attrs["dim"] ** 3 for s in dets) / 3,
        "ring.det_const_share": (sum(s.attrs["const"] for s in dets)
                                 / len(dets) if dets else 0.0),
        "ring.coeff_mul_calls": leaf("ring.coeff_mul", 0),
        "ring.coeff_mul_s": leaf("ring.coeff_mul", 1),
        "ring.coeff_div_calls": leaf("ring.coeff_div", 0),
        "ring.coeff_div_s": leaf("ring.coeff_div", 1),
        "ring.coeff_pow_s": total("ring.coeff_pow"),
        "resultant.calls": calls,
        "resultant.s": total("resultant.macaulay"),
        "resultant.attempts": attempts,
        "resultant.useful_ratio": calls / attempts if attempts else 0.0,
        "resultant.perturbed": count("resultant.perturb"),
        "resultant.build_s": total("resultant.build"),
        "resultant.max_matrix_dim": max((s.attrs["dim"] for s in builds),
                                        default=0),
        "resultant.max_dod_dim": max((s.attrs["dod"] for s in builds),
                                     default=0),
        "divdiff.check_s": total("divdiff.check"),
        "divdiff.table_s": total("divdiff.table"),
        "divdiff.table_entries": sum(s.attrs["entries"]
                                     for s in by.get("divdiff.table", ())),
        "equivariant.specialize_s": total("equivariant.specialize"),
        "equivariant.chains": len(chains),
        "equivariant.chain_s": sum(s.duration for s in chains),
        "equivariant.chain_max_s": max((s.duration for s in chains),
                                       default=0.0),
        "equivariant.verify_direct_s": sum(s.duration for s in direct),
        "discriminant.partials_s": total("discriminant.partials"),
        "discriminant.decompose_s": total("discriminant.decompose"),
        "discriminant.value_s": total("discriminant.value"),
        "parser.parse_s": total("parser.parse"),
        "parser.parse_bytes": sum(s.attrs["bytes"]
                                  for s in by.get("parser.parse", ())),
        "parser.print_s": total("parser.print"),
        "cli.main_calls": count("cli.main"),
        "cli.self_s": sum(selfs[s.sid] for s in by.get("cli.main", ())),
    }


def problem_details(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per problem: quotient attempts and time, matrix sizes, perturbations."""
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        if s.in_check or not s.pid:
            continue
        rec = out.setdefault(s.pid, {
            "attempts": 0, "quotient_s": 0.0, "max_matrix_dim": 0,
            "max_dod_dim": 0, "perturbed": 0, "max_det_dim": 0})
        if s.name == "resultant.build":
            rec["attempts"] += 1
            rec["max_matrix_dim"] = max(rec["max_matrix_dim"], s.attrs["dim"])
            rec["max_dod_dim"] = max(rec["max_dod_dim"], s.attrs["dod"])
        elif s.name == "resultant.macaulay":
            rec["quotient_s"] += s.duration
        elif s.name == "resultant.perturb":
            rec["perturbed"] += 1
        elif s.name == "ring.det":
            rec["max_det_dim"] = max(rec["max_det_dim"], s.attrs["dim"])
    return out


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Program self time per span name, leaf sums listed under their own
    names."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        if s.in_check:
            continue
        out[s.name] = out.get(s.name, 0.0) + selfs[s.sid]
        for name, (_, secs) in s.leaf.items():
            out[name] = out.get(name, 0.0) + secs
    return out


def to_records(spans: List[Span]) -> List[dict]:
    selfs = self_times(spans)
    return [{"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "problem": s.pid, "self": selfs[s.sid],
             "check": s.in_check, **s.attrs,
             **{f"{k}.calls": v[0] for k, v in s.leaf.items()},
             **{f"{k}.s": v[1] for k, v in s.leaf.items()}}
            for s in spans]
