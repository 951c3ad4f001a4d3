"""Spans recorded from outside the library, and their reduction to metrics.

``Tracer.install`` replaces the public functions of each layer module, the
series operator methods and every name that re-binds one of them (``from …
import``) with wrappers that append a span ``(id, parent, name, start, end)``
to an in-memory list.  ``Tracer.restore`` puts the originals back.
``summarize`` turns the span list into per-name statistics; it is pure
arithmetic over the list, so the tests drive it with hand-made spans.

Times are read from a virtual clock that stops while the tracer computes the
size statistics of a product (pair products, coefficient bits), so those
computations do not show up in any span's duration.
"""
from __future__ import annotations

import functools
import inspect
import math
import re
import sys
import time
from bisect import bisect_left
from fractions import Fraction

LAYERS = ("algebra", "qseries", "jacobi", "groups", "mckay", "reps", "siegel",
          "data", "cli")

# Scalar and per-element helpers: called up to millions of times per workload
# on tiny inputs, so a span would cost more than the work it measures.
UNTRACED = {
    "algebra.as_rat", "algebra.squarefree_part", "algebra.b_value",
    "algebra.a_value", "algebra.frac_exponent", "algebra.exponent_lcm_denom",
    "groups.frame_shapes", "groups.total_frame_direct", "groups.euler_chars",
    "groups.frame_str", "groups.parse_frame", "groups.sign_counts",
    "groups.z_partner_frame", "groups.order_from_frames",
    "groups.gamma_symbol_from_frames", "groups.gamma_symbol",
    "groups.merged_members", "reps.row_component", "reps.is_representable",
    "qseries.divisor_sigma", "data.data_dir",
}

# (module, class, attribute) -> span name.  __rmul__ is the same function as
# __mul__ in both series classes, so both attributes get the same wrapper.
METHODS = {
    ("qseries", "FracSeries", "__mul__"): "qseries.FracSeries.mul",
    ("qseries", "FracSeries", "__rmul__"): "qseries.FracSeries.mul",
    ("qseries", "FracSeries", "invert"): "qseries.FracSeries.invert",
    ("jacobi", "WindowedSeries", "__mul__"): "jacobi.WindowedSeries.mul",
    ("jacobi", "WindowedSeries", "__rmul__"): "jacobi.WindowedSeries.mul",
    ("jacobi", "WindowedSeries", "__add__"): "jacobi.WindowedSeries.add",
}

# Methods counted without a span.
COUNTED = {("algebra", "QuadValue", "__post_init__"): "algebra.QuadValue.constructions"}

# A gritsenko or identity_H span with a direct child of one of these names
# built its value; without one it was served from a memo.
BUILD_EVIDENCE = {
    "jacobi.WindowedSeries.mul", "jacobi.WindowedSeries.add", "jacobi.windowed_mul",
    "qseries.FracSeries.mul", "jacobi.jacobi_theta", "jacobi.gritsenko",
    "jacobi.extract_from_form", "jacobi.extract_H",
}
BUILT_BY_SPANS = ("jacobi.gritsenko", "mckay.identity_H")

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_metric_name(name: str) -> bool:
    """Letters, digits, '_', '.', '-'; starts with a letter or digit; <= 64."""
    return bool(METRIC_NAME.match(name))


def span_name(layer: str, func: str) -> str:
    if layer == "cli" and func.startswith("cmd_"):
        return "cli." + func[4:].replace("_", "-")
    return f"{layer}.{func}"


# ---------------------------------------------------------------------------
# size statistics of series products (computed from the operands, not timed)

def _bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _pairs_below(a_keys, b_sizes, kcut) -> int:
    """sum over (ka, wa) of wa * (total weight of b keys kb with ka + kb < kcut).

    ``a_keys`` is [(ka, wa)], ``b_sizes`` is [(kb, wb)]; keys are integers on
    a common lattice, ``kcut`` is an exact rational bound.
    """
    b_sorted = sorted(b_sizes)
    keys = [k for k, _ in b_sorted]
    prefix = [0]
    for _, w in b_sorted:
        prefix.append(prefix[-1] + w)
    total = 0
    for ka, wa in a_keys:
        total += wa * prefix[bisect_left(keys, math.ceil(kcut - ka))]
    return total


def fracseries_mul_stats(args, kwargs, result):
    a, b = args[0], args[1]
    if not hasattr(b, "coeffs") or not a.coeffs or not b.coeffs:
        return {"pair_products": 0, "coeff_bits_max": _max_bits(result.coeffs.values())}
    d = math.lcm(a.denom, b.denom)
    fa, fb = d // a.denom, d // b.denom
    cut = min(a.cutoff + b.low(), b.cutoff + a.low())
    pairs = _pairs_below([(k * fa, 1) for k in a.coeffs],
                         [(k * fb, 1) for k in b.coeffs], cut * d)
    return {"pair_products": pairs, "coeff_bits_max": _max_bits(result.coeffs.values())}


def _rows_of(s):
    """(denom, qcut, rows, low) of a WindowedSeries, or of a FracSeries
    embedded as a y-independent bi-series."""
    if hasattr(s, "rows"):
        return s.denom, s.qcut, {k: len(r) for k, r in s.rows.items()}, s.low_q()
    return s.denom, s.cutoff, {k: 1 for k in s.coeffs}, s.low()


def windowed_mul_stats(args, kwargs, result):
    """Pair products of the schoolbook kernel below the product's cutoff.

    For a windowed product this counts every pair of the two rows, including
    the ones whose y-power lands outside the target window.
    """
    a, b = args[0], args[1]
    qcut = kwargs.get("qcut", args[2] if len(args) > 2 else None)
    out_terms = [c for row in result.rows.values() for c in row.values()] \
        if hasattr(result, "rows") else []
    stats = {"terms_out": len(out_terms), "coeff_bits_max": _max_bits(out_terms),
             "pair_products": 0}
    if not hasattr(b, "rows") and not hasattr(b, "coeffs"):
        return stats  # scalar factor: a scale, no products
    da, ca, ra, la = _rows_of(a)
    db, cb, rb, lb = _rows_of(b)
    if not ra or not rb:
        return stats
    d = math.lcm(da, db)
    fa, fb = d // da, d // db
    cut = min(ca + lb, cb + la)
    if qcut is not None:
        cut = min(cut, Fraction(qcut))
    stats["pair_products"] = _pairs_below([(k * fa, w) for k, w in ra.items()],
                                          [(k * fb, w) for k, w in rb.items()], cut * d)
    return stats


def _max_bits(values) -> int:
    return max((_bits(c) for c in values), default=0)


def _gritsenko_key(args, kwargs, result):
    m, n, qcut = args[:3]
    return {"form": f"{m},{n}", "qcut": str(Fraction(qcut))}


def _identity_key(args, kwargs, result):
    ell, qcut = args[:2]
    return {"lambency": str(ell), "qcut": str(Fraction(qcut))}


def _elements(args, kwargs, result):
    return {"elements": len(result)}


STATS = {
    "qseries.FracSeries.mul": fracseries_mul_stats,
    "jacobi.WindowedSeries.mul": windowed_mul_stats,
    "jacobi.windowed_mul": windowed_mul_stats,
    "jacobi.gritsenko": _gritsenko_key,
    "mckay.identity_H": _identity_key,
    "groups.enumerate_group": _elements,
}


# ---------------------------------------------------------------------------
# the tracer

class Tracer:
    """Wraps the library from outside; one instance per traced process."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end), in exit order
        self.attrs = {}          # span id -> statistics dict
        self.counts = {}         # counted-method name -> calls
        self._stack = []
        self._next_id = 0
        self._lost = 0.0         # seconds spent computing statistics
        self._patches = []       # (owner, attribute, original), in install order

    def now(self) -> float:
        return time.perf_counter() - self._lost

    # -- wrappers ------------------------------------------------------------
    def _span_wrapper(self, name, fn, stats=None, cache_probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            misses = cache_probe().misses if cache_probe else 0
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.now()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if stats is not None or cache_probe is not None:
                t0 = time.perf_counter()
                attrs = stats(args, kwargs, result) if stats else {}
                if cache_probe:
                    attrs["misses"] = cache_probe().misses - misses
                tracer.attrs[sid] = attrs
                tracer._lost += time.perf_counter() - t0
            return result

        if cache_probe is not None:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the layers of ``package`` (the imported ``moonshine``)."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = span_name(layer, attr)
                if name in UNTRACED:
                    continue
                probe = getattr(fn, "cache_info", None)
                wrapped[id(fn)] = self._span_wrapper(name, fn, STATS.get(name), probe)
        for key, name in {**METHODS, **COUNTED}.items():
            layer, cls, attr = key
            owner = getattr(modules[layer], cls)
            fn = owner.__dict__[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (self._count_wrapper(name, fn) if key in COUNTED
                                   else self._span_wrapper(name, fn, STATS.get(name)))
            self._patch(owner, attr, wrapped[id(fn)])
        # every module-level binding of a wrapped function, re-bound names
        # included (jacobi.eta, mckay.class_table, siegel.umbral_Z, ...)
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and callable(val):
                    self._patch(mod, attr, wrapped[id(val)])
        # the CLI dispatches through a table of the verb functions
        table = modules["cli"]._DISPATCH
        for verb, fn in list(table.items()):
            if id(fn) in wrapped:
                self._patch_item(table, verb, wrapped[id(fn)])

    def _patch_item(self, table, key, new):
        self._patches.append((table, key, table[key]))
        table[key] = new

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# reduction

def summarize(spans, attrs=None, counts=None) -> dict:
    """Per-name statistics of a span list.

    For each name: ``calls``; ``total_s``, the summed duration of its
    outermost spans only (a span nested inside a span of the same name, as
    in recursion, adds nothing); ``self_s``, each span's duration minus the
    durations of its direct children; and the statistics attached to the
    spans (summed, or maximised for ``coeff_bits_max``).  For the memoized
    functions, ``builds`` counts spans with a child in ``BUILD_EVIDENCE`` and
    ``max_cutoffs_per_<kind>`` the most distinct cutoffs asked of one key
    (a form, a lambency).  A cached function gets ``hits`` beside ``misses``.
    ``counts`` maps ``<name>.<stat>`` of counted methods to their calls.

    Span ids must follow entry order, as the tracer assigns them.
    """
    attrs = attrs or {}
    ordered = sorted(spans)
    child_time = {}
    evidence = set()
    for sid, parent, name, start, end in ordered:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            if name in BUILD_EVIDENCE:
                evidence.add(parent)
    out = {}
    active = {}   # name -> number of open spans of that name on the chain
    chain = []    # the ancestor chain of the current span, as (id, name)
    cutoffs = {}  # (name, kind) -> key -> set of cutoffs
    for sid, parent, name, start, end in ordered:
        while chain and chain[-1][0] != parent:
            active[chain.pop()[1]] -= 1
        st = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = end - start
        st["calls"] += 1
        if not active.get(name):
            st["total_s"] += dur
        st["self_s"] += dur - child_time.get(sid, 0.0)
        a = attrs.get(sid, {})
        for key, val in a.items():
            if key == "coeff_bits_max":
                st[key] = max(st.get(key, 0), val)
            elif "qcut" in a:
                if key != "qcut":
                    per_key = cutoffs.setdefault((name, key), {})
                    per_key.setdefault(val, set()).add(a["qcut"])
            else:
                st[key] = st.get(key, 0) + val
        if name in BUILT_BY_SPANS:
            st["builds"] = st.get("builds", 0) + (sid in evidence)
        chain.append((sid, name))
        active[name] = active.get(name, 0) + 1
    for (name, kind), per_key in cutoffs.items():
        out[name][f"max_cutoffs_per_{kind}"] = max(len(v) for v in per_key.values())
    for st in out.values():
        if "misses" in st:
            st["hits"] = st["calls"] - st["misses"]
    for name, n in (counts or {}).items():
        span, stat = name.rsplit(".", 1)
        out.setdefault(span, {})[stat] = n
    return out


def top_level_coverage(spans, t0, t1) -> float:
    """Share of [t0, t1] covered by spans without a parent."""
    covered = sum(min(end, t1) - max(start, t0)
                  for _, parent, _, start, end in spans
                  if parent < 0 and end > t0 and start < t1)
    return covered / (t1 - t0)
