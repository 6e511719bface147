"""Span and counter hooks for the traced run, attached from outside.

The program has no tracing of its own.  ``Tracer.install`` wraps the
public functions of each weylharm module by attribute name: a function is
replaced in every loaded ``weylharm`` module that binds the same object
(so ``from .weyl import weyl_mul`` call sites are covered too), and a
method is replaced on its class.  A target that no longer exists is
skipped, and the metrics that need it are reported as absent.

Every wrapped call records one span (name, start, end, parent span,
operation id) in flat arrays.  Spans stay in memory until ``write`` puts
them on disk after the measured work.  Calls too cheap to time
(GaussRational arithmetic, the contraction lookup) are only counted.
Hit ratios and working-set sizes come from the argument keys the
wrappers see, not from the program's own caches.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

UNIPOLY_METHODS = (
    "__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__neg__", "__truediv__", "__pow__", "__call__", "compose_linear",
    "compose_shift", "forward_difference", "backward_difference",
)

VERIFY_SUITES = ("sl2", "intertwine", "radial", "harmonics", "hahn",
                 "orthogonality", "genfun")

# (module, attribute) pairs wrapped with a span; "*" means every public
# function defined in that module.
SPAN_TARGETS = (
    [("weylharm.scalars", "UniPoly." + m) for m in UNIPOLY_METHODS]
    + [
        ("weylharm.weyl", "weyl_mul"),
        ("weylharm.ordering", "order_q"),
        ("weylharm.ordering", "ordered_monomial"),
        ("weylharm.ordering", "unorder_q"),
        ("weylharm.ordering", "cal_R"),
        ("weylharm.ordering", "cal_L"),
        ("weylharm.ordering", "cal_E"),
        ("weylharm.radial", "eta"),
        ("weylharm.radial", "express_in_N"),
        ("weylharm.radial", "decompose_weyl"),
        ("weylharm.radial", "omega"),
        ("weylharm.radial", "omega_by_raising"),
        ("weylharm.radial", "omega_closed_form"),
        ("weylharm.radial", "nonorthogonality_certificate"),
        ("weylharm.poly", "harmonic_decompose"),
        ("weylharm.specfun", "*"),
        ("weylharm.linalg", "*"),
        ("weylharm.numerics", "*"),
        ("weylharm.expr", "parse_poly"),
        ("weylharm.expr", "parse_weyl"),
        ("weylharm.expr", "format_weyl"),
        ("weylharm.expr", "format_cpoly"),
    ]
    + [("weylharm.verify", "suite_" + s) for s in VERIFY_SUITES]
)


def _resolve(module_name: str, attr: str):
    """(owner, name, object) for a dotted attribute, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    if obj is None or not callable(obj):
        return None
    return owner, name, obj


def _rebind(owner, name: str, original, wrapper) -> None:
    """Replace ``original`` everywhere weylharm binds it under ``name``."""
    if inspect.isclass(owner):
        setattr(owner, name, wrapper)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "weylharm" and getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return key


class KeyStats:
    """Calls, first-seen keys and repeats of one memoised entry point."""

    def __init__(self):
        self.calls = 0
        self.keys = set()

    def see(self, key) -> None:
        self.calls += 1
        self.keys.add(key)

    def raw(self) -> dict:
        return {"calls": self.calls, "hits": self.calls - len(self.keys),
                "distinct": len(self.keys)}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.op_id = -1
        self.counts: dict = {}
        self.stats: dict = {}
        self.extra: dict = {}
        self.missing: list = []

    # -- hooks -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        stack, name_arr, parent, op, start, end = (
            self._stack, self.name_id, self.parent, self.op, self.start, self.end)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_arr.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        for module_name, attr in SPAN_TARGETS:
            if attr == "*":
                self._wrap_module(module_name)
            else:
                self._wrap(module_name, attr)
        self._count_scalars()
        self._count_kernel()
        self._count("weylharm.poly", "op_L", "poly.op_L")

    def _wrap(self, module_name: str, attr: str) -> None:
        found = _resolve(module_name, attr)
        name = module_name.split(".")[1] + "." + attr
        if found is None:
            self.missing.append(name)
            return
        owner, leaf, original = found
        after = None
        if attr == "weyl_mul":
            after = self._after_weyl_mul
        elif attr == "ordered_monomial":
            stats = self.stats.setdefault("ordering", KeyStats())
            after = lambda args, kwargs, result: stats.see(_key(args, kwargs))  # noqa: E731
        _rebind(owner, leaf, original, self._span_wrapper(name, original, after))

    def _wrap_module(self, module_name: str) -> None:
        try:
            mod = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(module_name + ".*")
            return
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module_name):
                self._wrap(module_name, attr)

    def _after_weyl_mul(self, args, kwargs, result) -> None:
        counts = self.counts
        pairs = len(args[0].terms) * len(args[1].terms)
        counts["weyl.mul_term_pairs"] = counts.get("weyl.mul_term_pairs", 0) + pairs
        counts["weyl.mul_terms_out"] = counts.get("weyl.mul_terms_out", 0) + len(result.terms)

    def _count(self, module_name: str, attr: str, name: str) -> None:
        found = _resolve(module_name, attr)
        if found is None:
            self.missing.append(name)
            return
        owner, leaf, original = found
        counts = self.counts
        counts[name] = 0

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        _rebind(owner, leaf, original, wrapper)

    def _count_scalars(self) -> None:
        found = _resolve("weylharm.scalars", "GaussRational.__mul__")
        add = _resolve("weylharm.scalars", "GaussRational.__add__")
        if found is None or add is None:
            self.missing.append("scalars.GaussRational")
            return
        cls = found[0]
        cell = [0, 0, 0]  # multiplies, real x real multiplies, additions

        def counted_mul(mul):
            def wrapper(self, other):
                cell[0] += 1
                if not self.im and not getattr(other, "im", 0):
                    cell[1] += 1
                return mul(self, other)
            return wrapper

        def counted_add(plus):
            def wrapper(self, other):
                cell[2] += 1
                return plus(self, other)
            return wrapper

        for attr, make in (("__mul__", counted_mul), ("__rmul__", counted_mul),
                           ("__add__", counted_add), ("__radd__", counted_add)):
            original = cls.__dict__.get(attr)
            if original is not None:
                setattr(cls, attr, make(original))
        self.extra["scalars"] = cell

    def _count_kernel(self) -> None:
        found = _resolve("weylharm.weyl", "contractions")
        if found is None:
            self.missing.append("kernel.contractions")
            return
        owner, leaf, original = found
        stats = self.stats.setdefault("kernel", KeyStats())
        terms = [0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stats.see(_key(args, kwargs))
            result = original(*args, **kwargs)
            terms[0] += len(result)
            return result

        _rebind(owner, leaf, original, wrapper)
        self.extra["kernel_terms"] = terms

    # -- results -------------------------------------------------------------

    def raw(self) -> dict:
        """Per-name span count, inclusive and self time; counters; key stats."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        spans = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = spans[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        counts = dict(self.counts)
        if "scalars" in self.extra:
            mul, real, add = self.extra["scalars"]
            counts.update({"scalars.gr_mul": mul, "scalars.gr_mul_real": real,
                           "scalars.gr_add": add})
        if "kernel_terms" in self.extra:
            counts["kernel.expansion_terms"] = self.extra["kernel_terms"][0]
        return {
            "spans": spans,
            "counts": counts,
            "keys": {k: v.raw() for k, v in self.stats.items()},
            "missing": sorted(self.missing),
        }

    def write(self, path: str) -> None:
        """Spans as five flat arrays (machine byte order) plus a JSON header."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "fields": [["name_id", "H"], ["parent", "i"], ["op", "i"],
                       ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


# -- per-layer metrics ------------------------------------------------------------

def _merge(raws: list) -> dict:
    """Combine the raw results of several traced processes of one round."""
    spans: dict = {}
    counts: dict = {}
    keys: dict = {}
    missing: set = set()
    for raw in raws:
        for name, (c, incl, self_t) in raw["spans"].items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += c
            row[1] += incl
            row[2] += self_t
        for name, v in raw["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, st in raw["keys"].items():
            row = keys.setdefault(name, {"calls": 0, "hits": 0, "distinct": 0})
            row["calls"] += st["calls"]
            row["hits"] += st["hits"]
            # each process has its own caches: the working set is the largest
            row["distinct"] = max(row["distinct"], st["distinct"])
        missing.update(raw["missing"])
    return {"spans": spans, "counts": counts, "keys": keys, "missing": missing}


def layer_metrics(raws: list) -> dict:
    """name -> (value, unit) for every per-layer metric whose hooks exist."""
    m = _merge(raws)
    spans, counts, keys, missing = m["spans"], m["counts"], m["keys"], m["missing"]
    out: dict = {}

    def span_sum(prefix: str, field: int):
        names = [n for n in spans if n == prefix or n.startswith(prefix + ".")]
        return sum(spans[n][field] for n in names)

    def put(name, value, unit, needs):
        if not any(n in missing for n in needs):
            out[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    gr_mul = counts.get("scalars.gr_mul", 0)
    sc = ["scalars.GaussRational"]
    put("scalars.gr_mul_calls", gr_mul, "count", sc)
    put("scalars.gr_add_calls", counts.get("scalars.gr_add", 0), "count", sc)
    put("scalars.gr_mul_real_ratio", ratio(counts.get("scalars.gr_mul_real", 0), gr_mul),
        "ratio", sc)
    up = ["scalars.UniPoly.__mul__"]
    put("scalars.unipoly_mul_calls",
        span_sum("scalars.UniPoly.__mul__", 0) + span_sum("scalars.UniPoly.__rmul__", 0),
        "count", up)
    put("scalars.compose_linear_calls", span_sum("scalars.UniPoly.compose_linear", 0),
        "count", ["scalars.UniPoly.compose_linear"])
    put("scalars.unipoly_self_s", span_sum("scalars.UniPoly", 2), "s", up)

    kern = keys.get("kernel", {"calls": 0, "hits": 0, "distinct": 0})
    kn = ["kernel.contractions"]
    put("kernel.contractions_calls", kern["calls"], "count", kn)
    put("kernel.cache_hit_ratio", ratio(kern["hits"], kern["calls"]), "ratio", kn)
    put("kernel.expansion_terms", counts.get("kernel.expansion_terms", 0), "count", kn)
    put("kernel.distinct_keys", kern["distinct"], "count", kn)

    wm = ["weyl.weyl_mul"]
    put("weyl.mul_calls", span_sum("weyl.weyl_mul", 0), "count", wm)
    put("weyl.mul_self_s", span_sum("weyl.weyl_mul", 2), "s", wm)
    put("weyl.mul_term_pairs", counts.get("weyl.mul_term_pairs", 0), "count", wm)
    put("weyl.mul_terms_out", counts.get("weyl.mul_terms_out", 0), "count", wm)

    for fn in ("order_q", "unorder_q", "cal_R", "cal_L", "cal_E"):
        put(f"ordering.{fn}_self_s", span_sum("ordering." + fn, 2), "s", ["ordering." + fn])
    mono = keys.get("ordering", {"calls": 0, "hits": 0, "distinct": 0})
    om = ["ordering.ordered_monomial"]
    put("ordering.ordered_monomial_calls", span_sum("ordering.ordered_monomial", 0),
        "count", om)
    put("ordering.ordered_monomial_self_s", span_sum("ordering.ordered_monomial", 2),
        "s", om)
    put("ordering.monomial_hit_ratio", ratio(mono["hits"], mono["calls"]), "ratio", om)
    put("ordering.distinct_keys", mono["distinct"], "count", om)

    for fn in ("eta", "express_in_N", "decompose_weyl", "omega", "omega_by_raising",
               "omega_closed_form"):
        put(f"radial.{fn}_self_s", span_sum("radial." + fn, 2), "s", ["radial." + fn])
    put("radial.omega_by_raising_calls", span_sum("radial.omega_by_raising", 0), "count",
        ["radial.omega_by_raising"])
    put("radial.certificate_self_s", span_sum("radial.nonorthogonality_certificate", 2),
        "s", ["radial.nonorthogonality_certificate"])

    put("poly.op_L_calls", counts.get("poly.op_L", 0), "count", ["poly.op_L"])
    put("poly.harmonic_decompose_self_s", span_sum("poly.harmonic_decompose", 2), "s",
        ["poly.harmonic_decompose"])
    for mod in ("specfun", "linalg", "numerics"):
        put(f"{mod}.self_s", span_sum(mod, 2), "s", [f"weylharm.{mod}.*"])
    for suite in VERIFY_SUITES:
        put(f"verify.{suite}_s", span_sum("verify.suite_" + suite, 1), "s",
            ["verify.suite_" + suite])
    put("expr.parse_s", span_sum("expr.parse_poly", 1) + span_sum("expr.parse_weyl", 1),
        "s", ["expr.parse_poly", "expr.parse_weyl"])
    put("expr.format_s", span_sum("expr.format_weyl", 1) + span_sum("expr.format_cpoly", 1),
        "s", ["expr.format_weyl", "expr.format_cpoly"])
    return out
