"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``stringbricks`` module from
the outside.  The package's modules import names from each other directly
(``bricks`` binds ``is_brick_word``, ``cli`` binds ``parse_presentation``),
so a function is replaced in every ``stringbricks.*`` namespace that holds
the same object, and ``Context`` methods are replaced on the class.  Hot
inner helpers (``make_string``, ``Mia.step``) are left alone.  Nothing is
patched until ``install`` runs, and ``uninstall`` restores every original.

Each span records its function name, start, end, parent span and query id;
the spans stay in memory until the benchmark writes them out.  A span's self
time is its duration minus the union of its children's intervals, and each
span's self time is charged to the metric of its function, so a layer's
time is counted once however its calls nest.
"""
from __future__ import annotations

import importlib
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple, Optional

# (module, function, metric its self time is charged to)
TRACED = (
    ("algebra", "parse_presentation", "algebra.self_s"),
    ("algebra", "validate_string_algebra", "algebra.self_s"),
    ("algebra", "solve_sign_maps", "algebra.self_s"),
    ("strings", "Context.enumerate_strings", "strings.self_s"),
    ("strings", "Context.enumerate_bands", "strings.self_s"),
    ("strings", "Context.parse_literal", "strings.self_s"),
    ("strings", "Context.is_band", "strings.self_s"),
    ("strings", "Context.validate_inf_str", "strings.self_s"),
    ("words", "classify_periodicity", "words.self_s"),
    ("construct", "build_mia", "construct.self_s"),
    ("construct", "parity_mia", "construct.self_s"),
    ("construct", "string_to_word", "construct.self_s"),
    ("construct", "binary_word", "construct.self_s"),
    ("mia", "is_brick_word", "mia.self_s"),
    ("mia", "is_weak_brick_word", "mia.self_s"),
    ("mia", "shift_basepoint", "mia.self_s"),
    ("mia", "transport", "mia.self_s"),
    ("mia", "relabel", "mia.self_s"),
    ("bricks", "string_brick_direct", "bricks.direct_self_s"),
    ("bricks", "band_brick_direct", "bricks.direct_self_s"),
    ("bricks", "string_brick_automaton", "bricks.automaton_self_s"),
    ("bricks", "band_brick_automaton", "bricks.automaton_self_s"),
    ("endo", "string_module", "endo.build_s"),
    ("endo", "band_module", "endo.build_s"),
    ("endo", "end_dim", "endo.solve_s"),
    ("endo", "end_dim_string", "endo.solve_s"),
    ("endo", "end_dim_band", "endo.solve_s"),
    ("sturmian", "characteristic_prefix", "sturmian.prefix_s"),
    ("sturmian", "sturmian_window_check", "sturmian.check_s"),
    ("sturmian", "bridge", "sturmian.bridge_self_s"),
    ("recover", "recover_presentation", "recover.self_s"),
    ("recover", "presentations_isomorphic", "recover.self_s"),
    ("cli", "main", "cli.self_s"),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric in TRACED))


class Span(NamedTuple):
    name: str
    metric: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    query: Optional[int]  # None during set-up


# ---------------------------------------------------------------------------
# counts taken from public arguments and results


def _rep_letters(rep) -> int:
    fields = ("letters", "prefix", "period", "suffix", "left_period", "core",
              "right_period")
    return sum(len(getattr(rep, f)) for f in fields if hasattr(rep, f))


def _count_enumerated(tracer, args, result):
    if not tracer.nested_in("strings.self_s"):
        tracer.counts["strings.enumerated"] += len(result)


def _count_mia(tracer, args, result):
    tracer.counts["construct.mia_calls"] += 1
    m = result[1] if isinstance(result, tuple) else result
    if id(m) not in tracer.mias:
        tracer.mias[id(m)] = m  # held so that ids stay unique
        tracer.counts["construct.mia_builds"] += 1
        tracer.counts["construct.mia_states"] += len(m.states)
        tracer.counts["construct.mia_transitions"] += len(m.trans)


def _count_scan(tracer, args, result):
    w = args[1]
    tracer.counts["mia.scans"] += 1
    tracer.counts["mia.scan_letters"] += _rep_letters(w.left) + _rep_letters(w.right)
    tracer.counts["mia.witnesses"] += result.witness is not None


def _count_direct(tracer, args, result):
    tracer.counts["bricks.direct_calls"] += 1
    tracer.counts["bricks.direct_witnesses"] += result.witness is not None


def _count_end_dim(tracer, args, result):
    ctx, rep = args[0], args[1]
    unknowns = sum(d * d for d in rep.dims.values())
    equations = sum(rep.dims[t] * rep.dims[s]
                    for a, s, t in ctx.presentation.arrows
                    if (rep.mats[a] % rep.prime).any())
    c = tracer.counts
    c["endo.calls"] += 1
    c["endo.unknowns"] += unknowns
    c["endo.equations"] += equations
    c["endo.dense_cells"] += equations * unknowns
    c["endo.max_unknowns"] = max(c["endo.max_unknowns"], unknowns)


def _count_check(tracer, args, result):
    tracer.counts["sturmian.checks"] += 1
    tracer.counts["sturmian.window_letters"] += len(args[0].letters)
    tracer.counts["sturmian.violations"] += result is not None


COUNTERS: dict[str, Callable] = {
    "Context.enumerate_strings": _count_enumerated,
    "Context.enumerate_bands": _count_enumerated,
    "build_mia": _count_mia,
    "parity_mia": _count_mia,
    "is_brick_word": _count_scan,
    "is_weak_brick_word": _count_scan,
    "string_brick_direct": _count_direct,
    "band_brick_direct": _count_direct,
    "end_dim": _count_end_dim,
    "sturmian_window_check": _count_check,
}

COUNT_METRICS = (
    "strings.enumerated", "construct.mia_calls", "construct.mia_builds",
    "construct.mia_states", "construct.mia_transitions", "mia.scans",
    "mia.scan_letters", "endo.calls", "endo.unknowns", "endo.equations",
    "endo.dense_cells", "endo.max_unknowns", "sturmian.window_letters",
)

# ratio metric -> (numerator count, denominator count)
RATIOS = {
    "mia.witness_ratio": ("mia.witnesses", "mia.scans"),
    "bricks.direct_witness_ratio": ("bricks.direct_witnesses", "bricks.direct_calls"),
    "sturmian.violation_ratio": ("sturmian.violations", "sturmian.checks"),
}


class Tracer:
    """Records spans and counts while installed; a no-op object otherwise."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.mias: dict = {}
        self.query: Optional[int] = None
        self.counting = True
        self._open: list[list] = []  # [name, metric, start, parent, query, end]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------
    def nested_in(self, metric: str) -> bool:
        """True when the innermost open span's parent is charged to metric."""
        parent = self._open[self._stack[-1]][3] if self._stack else -1
        return parent >= 0 and self._open[parent][1] == metric

    def _wrap(self, name: str, metric: str, fn: Callable) -> Callable:
        tracer = self
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack, opened = tracer._stack, tracer._open
            idx = len(opened)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            opened.append([name, metric, time.perf_counter(), parent, tracer.query, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                opened[idx][5] = time.perf_counter()
                stack.pop()
            if count is not None and tracer.counting:
                stack.append(idx)
                try:
                    count(tracer, args, result)
                finally:
                    stack.pop()
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def take_spans(self) -> list[Span]:
        """The spans recorded so far; recording starts a new list."""
        spans = [Span(name, metric, start, end, parent, query)
                 for name, metric, start, parent, query, end in self._open]
        self._open = []
        return spans

    # -- installation ----------------------------------------------------------
    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for sub in ("cli", "presets"):
            importlib.import_module("stringbricks." + sub)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "stringbricks" or n.startswith("stringbricks.")]
        for modname, attr, metric in TRACED:
            owner = importlib.import_module("stringbricks." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(attr, metric, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(attr, metric, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# self-time arithmetic


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [sp.end - sp.start - covered_length(children[i], sp.start, sp.end)
            for i, sp in enumerate(spans)]


def metric_self_times(spans: list[Span]) -> tuple[dict, dict]:
    """Self time per metric, and per (query id, metric)."""
    total: dict[str, float] = defaultdict(float)
    per_query: dict[tuple, float] = defaultdict(float)
    for sp, t in zip(spans, self_times(spans)):
        total[sp.metric] += t
        if sp.query is not None:
            per_query[(sp.query, sp.metric)] += t
    return total, per_query


def ratios(counts: Counter) -> dict[str, Optional[float]]:
    return {name: (counts[num] / counts[den] if counts[den] else None)
            for name, (num, den) in RATIOS.items()}


def loglog_slope(points: dict) -> Optional[float]:
    """Least-squares slope of log(value) against log(size)."""
    pts = [(math.log(s), math.log(v)) for s, v in points.items() if v > 0]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
