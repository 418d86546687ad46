"""Per-layer tracing of ``subtle`` from outside the package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers in every ``subtle.*`` namespace that binds them (``from .bigraded
import standard_monomials`` makes a separate binding in each importing
module) and on the classes that own the traced methods.  Each layer records
``calls`` and ``self_s`` (its time minus the time of traced calls nested in
it), plus the work counts that ``_extra`` defines.  The coarse boundaries in
``SPANS`` also keep full spans.

``bigraded._monomials_of_bidegree`` is counted only through the ``bigraded``
binding: the dense oracle keeps its own binding, so its enumeration stays in
``oracle.table`` and out of ``bigraded.basis.candidates``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types

# (layer, module, qualified name); one layer may cover several functions
TARGETS = (
    ("bigraded.basis", "subtle.bigraded", "standard_monomials"),
    ("bigraded.reduce", "subtle.bigraded", "AlgebraPresentation.reduce_poly"),
    ("bigraded.complete", "subtle.bigraded", "presentation_new"),
    ("bigraded.colon", "subtle.bigraded", "colon_ideal"),
    ("bigraded.table", "subtle.bigraded", "poincare_table"),
    ("milnor.ann", "subtle.milnor", "km_annihilator"),
    ("milnor.model", "subtle.milnor", "build_field_model"),
    ("maps.verify", "subtle.maps", "hom_verify"),
    ("maps.apply", "subtle.maps", "Homomorphism.apply"),
    ("maps.kernel", "subtle.maps", "kernel_match"),
    ("gf2.rank", "subtle.gf2", "RowSpace.add"),
    ("gf2.solve", "subtle.gf2", "solve"),
    ("gf2.kernel", "subtle.gf2", "kernel_of_map"),
    ("steenrod.check", "subtle.steenrod", "sq1_check"),
    ("steenrod.apply", "subtle.steenrod", "sq1_apply"),
    ("oracle.table", "subtle.oracle", "oracle_table"),
    ("rings.build", "subtle.rings", "block_presentation"),
    ("rings.build", "subtle.rings", "block_table"),
    ("motives.eval", "subtle.motives", "motive_cohomology"),
    ("motives.eval", "subtle.motives", "motive_tensor"),
    ("cli.run", "subtle.cli", "run"),
    ("verify.check1", "subtle.verify", "check_decomposition"),
    ("verify.check2", "subtle.verify", "check_kernel"),
    ("verify.check3", "subtle.verify", "check_diagonal_recursion"),
    ("verify.check4", "subtle.verify", "check_colimit_stabilization"),
    ("verify.check5", "subtle.verify", "check_twist"),
    ("verify.check6", "subtle.verify", "check_groebner_oracle"),
    ("verify.check7", "subtle.verify", "check_motive_suite"),
    ("verify.check8", "subtle.verify", "check_sq1"),
    ("verify.check9", "subtle.verify", "check_specialization"),
    ("verify.check10", "subtle.verify", "check_golden"),
)

# counted, not timed, and only through this module's own binding
CANDIDATES = ("subtle.bigraded", "_monomials_of_bidegree")

# layers that keep full spans (name, start, end, parent, request id)
SPANS = frozenset(
    ["cli.run", "maps.verify", "bigraded.table", "bigraded.complete"]
    + [f"verify.check{i}" for i in range(1, 11)]
)

# verify checks report inclusive time only; every other layer calls and self time
CHECKS = tuple(f"verify.check{i}" for i in range(1, 11))
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS if layer not in CHECKS))
# also inclusive: their own work is mostly basis enumeration of quotient cells
INCLUSIVE = ("bigraded.colon", "milnor.ann") + CHECKS


def _model_key(model) -> tuple:
    return (
        model.tag, model.generators, model.relation_strings,
        model.alpha_string, model.minus_one_string, model.degree_bound,
    )


def _build_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        bound = a["bound"] if "bound" in a else a["wmax"] + a["dmax"]
        return (_model_key(a["model"]), a["block"], bound)

    return key


def _extra(layer: str):
    """Work counter of a layer: (name, (args, kwargs, result) -> increment)."""
    if layer == "bigraded.basis":
        return "monomials", lambda a, k, r: len(r)
    if layer == "bigraded.reduce":
        return "terms_in", lambda a, k, r: len(a[1]) if len(a) > 1 else len(k["p"])
    if layer == "bigraded.complete":
        return "gb_size", lambda a, k, r: len(r.groebner)
    if layer in ("bigraded.table", "oracle.table"):
        return "cells", lambda a, k, r: (r.wmax + 1) * (r.dmax + 1)
    return None


class Tracer:
    """Installs the wrappers and accumulates per-layer numbers in memory."""

    def __init__(self) -> None:
        self.acc: dict[str, list] = {}  # layer -> [calls, self seconds, inclusive seconds]
        self.counts: dict[str, list[int]] = {}
        self.build_keys: set = set()
        self.spans: list[tuple] = []
        self.request_id = -1
        self._child: list[float] = []  # per open traced call: time of traced calls inside it
        self._open_spans: list[int] = []  # ids of open spans
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, old)

    # ----- wrapping -------------------------------------------------------

    def _wrap(self, layer: str, fn):
        extra = _extra(layer)
        if extra is not None:
            cnt = self.counts.setdefault(f"{layer}.{extra[0]}", [0])
            count = extra[1]
        build_key = _build_key(fn) if layer == "rings.build" else None
        span = layer in SPANS
        clock = time.perf_counter
        child = self._child
        acc = self.acc.setdefault(layer, [0, 0.0, 0.0])

        # reduce_poly takes any iterable; a one-shot one is materialized
        # before the call so that its terms can be counted
        materialize = layer == "bigraded.reduce"

        if not (span or build_key or layer == "cli.run"):
            # the hot inner functions: aggregates only, kept lean
            def wrapper(*args, **kwargs):
                if materialize and len(args) > 1 and not hasattr(args[1], "__len__"):
                    args = (args[0], tuple(args[1])) + args[2:]
                child.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = child.pop()
                    if child:
                        child[-1] += dt
                    acc[0] += 1
                    acc[1] += dt - inner
                    acc[2] += dt
                if extra is not None:
                    cnt[0] += count(args, kwargs, result)
                return result
        else:
            open_spans = self._open_spans
            spans = self.spans
            tracer = self

            def wrapper(*args, **kwargs):
                if layer == "cli.run" and not open_spans:
                    tracer.request_id += 1
                if build_key is not None:
                    tracer.build_keys.add(build_key(args, kwargs))
                if span:
                    sid = len(spans)
                    parent = open_spans[-1] if open_spans else None
                    spans.append(None)
                    open_spans.append(sid)
                child.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    inner = child.pop()
                    if child:
                        child[-1] += dt
                    acc[0] += 1
                    acc[1] += dt - inner
                    acc[2] += dt
                    if span:
                        open_spans.pop()
                        spans[sid] = (layer, t0, t1, parent, tracer.request_id)
                if extra is not None:
                    cnt[0] += count(args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        self._wrappers.add(id(wrapper))
        return wrapper

    def _count_candidates(self, fn):
        cnt = self.counts.setdefault("bigraded.basis.candidates", [0])

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            cnt[0] += len(result)
            return result

        wrapper.__wrapped__ = fn
        self._wrappers.add(id(wrapper))
        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target in every ``subtle.*`` namespace binding it."""
        modules = subtle_modules()
        for layer, modname, qualname in TARGETS:
            mod = importlib.import_module(modname)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._originals[id(fn)] = fn
                self._set(cls, meth, self._wrap(layer, fn))
                continue
            fn = getattr(mod, qualname)
            self._originals[id(fn)] = fn
            wrapped = self._wrap(layer, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, attr, wrapped)
        modname, name = CANDIDATES
        mod = importlib.import_module(modname)
        self._set(mod, name, self._count_candidates(getattr(mod, name)))

    def uninstall(self) -> None:
        """Put every original binding back (for in-process use in tests)."""
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def coverage_problems(self) -> list[str]:
        """Remaining references to an unwrapped traced function.

        Scans every ``subtle.*`` module namespace, the containers held at
        module level, every class defined there, and the defaults and closure
        cells of every function and method.
        """
        originals = self._originals
        problems: list[str] = []

        def check(where: str, value) -> None:
            if id(value) in originals and value is originals[id(value)]:
                problems.append(f"{where} -> {value.__qualname__}")

        def check_function(where: str, fn) -> None:
            if not isinstance(fn, types.FunctionType) or id(fn) in self._wrappers:
                return
            for i, d in enumerate(fn.__defaults__ or ()):
                check(f"{where} default {i}", d)
            for k, d in (fn.__kwdefaults__ or {}).items():
                check(f"{where} default {k}", d)
            for i, cell in enumerate(fn.__closure__ or ()):
                try:
                    check(f"{where} closure {i}", cell.cell_contents)
                except ValueError:  # empty cell
                    pass

        for m in subtle_modules():
            for attr, value in vars(m).items():
                where = f"{m.__name__}.{attr}"
                check(where, value)
                if isinstance(value, (tuple, list, frozenset, set)):
                    for item in value:
                        check(f"{where}[...]", item)
                elif isinstance(value, dict):
                    for item in value.values():
                        check(f"{where}[...]", item)
                if isinstance(value, types.FunctionType) and value.__module__ == m.__name__:
                    check_function(where, value)
                if isinstance(value, type) and value.__module__ == m.__name__:
                    for cattr, cvalue in vars(value).items():
                        inner = getattr(cvalue, "__func__", cvalue)
                        check(f"{where}.{cattr}", inner)
                        check_function(f"{where}.{cattr}", inner)
        return problems

    # ----- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer numbers, every layer present even when not entered."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            calls, self_s, _ = self.acc.get(layer, (0, 0.0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        for key in (
            "bigraded.basis.monomials", "bigraded.basis.candidates",
            "bigraded.reduce.terms_in", "bigraded.complete.gb_size",
            "bigraded.table.cells", "oracle.table.cells",
        ):
            out[key] = self.counts.get(key, (0,))[0]
        cand = out["bigraded.basis.candidates"]
        out["bigraded.basis.useful_ratio"] = out["bigraded.basis.monomials"] / cand if cand else 0.0
        out["rings.build.distinct"] = len(self.build_keys)
        for layer in INCLUSIVE:
            out[f"{layer}.incl_s"] = self.acc.get(layer, (0, 0.0, 0.0))[2]
        return out


def subtle_modules() -> list[types.ModuleType]:
    return [
        m for name, m in sorted(sys.modules.items())
        if (name == "subtle" or name.startswith("subtle.")) and m is not None
    ]
