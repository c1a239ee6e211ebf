"""Spans around the calls into each ``betagap`` layer, recorded by the benchmark.

``install`` replaces each layer's public functions at the module where
the caller looks them up with a wrapper that records a span: layer name,
CPU start and end (``time.process_time``) and the span that caused it.
A layer's self time is its span's duration minus the part its child
spans cover.  The innermost layers (Jack evaluation, Pochhammer symbols,
partition enumeration) are called once per series term, so they are
only counted and timed; every other span is kept in memory and written
out when the run ends.

The Jack path is classified from the call's own arguments: identity
when all nonzero arguments are equal, Schur when alpha = 1, monomial
otherwise.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

#: Per-layer metrics, in the order they are reported, with their units.
PER_LAYER = {
    "partitions.pochhammer_calls": "count",
    "partitions.pochhammer_s": "s",
    "partitions.enum_s": "s",
    "jack.identity_calls": "count",
    "jack.identity_s": "s",
    "jack.schur_calls": "count",
    "jack.schur_s": "s",
    "jack.monomial_calls": "count",
    "jack.monomial_s": "s",
    "hypergeom.series_calls": "count",
    "hypergeom.terms": "count",
    "hypergeom.max_weight": "count",
    "hypergeom.series_s": "s",
    "hypergeom.self_s": "s",
    "gap.evals": "count",
    "gap.quad_nodes": "count",
    "gap.quad_order": "count",
    "gap.self_s": "s",
    "barnes.gamma2_calls": "count",
    "barnes.gamma2_s": "s",
    "contour.evals": "count",
    "contour.eval_s": "s",
    "mc.samples": "count",
    "mc.sample_s": "s",
    "mc.count_s": "s",
    "cli.calls": "count",
    "cli.import_s": "s",
    "cli.run_s": "s",
}

_LEAVES = frozenset(
    {"partitions.pochhammer", "partitions.enum", "jack.identity", "jack.schur", "jack.monomial"}
)

#: Gap entry points, at the lookup sites of the command line and the benchmark.
GAP_FUNCTIONS = (
    "exact_E0_hard",
    "exact_E0_hard_detailed",
    "exact_E0_finiteN",
    "exact_E0_finiteN_detailed",
    "exact_En_hard",
    "exact_En_hard_detailed",
    "exact_En_finiteN",
    "asymptotic_E0",
    "asymptotic_En",
    "log_large_deviation_E0",
    "duality_check",
)
_QUADRATURE = frozenset({"exact_En_hard", "exact_En_hard_detailed", "exact_En_finiteN"})
_CONTOUR_FUNCTIONS = ("hard_contour_E0", "torus_E0_hard", "torus_E0_finiteN")


class _Frame:
    __slots__ = ("layer", "span_id", "child_s", "attrs")

    def __init__(self, layer: str, span_id: int) -> None:
        self.layer = layer
        self.span_id = span_id
        self.child_s = 0.0
        self.attrs: dict = {}


class Tracer:
    """Spans and per-layer totals of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, layer, start, end, parent id, attrs)
        self._stack: list[_Frame] = []
        self.new_round()

    def new_round(self) -> None:
        """Start fresh per-layer totals (spans are kept)."""
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_weight = 0

    def wrap(self, layer, func, classify=None, after=None, attrs=None):
        """``func`` with a span of ``layer`` (or of ``classify(args)``) around it.

        ``after(frame, args, kwargs, result)`` records counts from a result;
        ``attrs`` are copied onto each span.
        """
        clock = time.process_time
        stack = self._stack

        def traced(*args, **kwargs):
            name = classify(args) if classify is not None else layer
            if name in _LEAVES:
                frame = _Frame(name, -1)
            else:
                frame = _Frame(name, len(self.spans))
                self.spans.append(None)  # placeholder keeps ids in start order
            if attrs:
                frame.attrs.update(attrs)
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, start, end)
            if after is not None:
                after(frame, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _close(self, frame: _Frame, start: float, end: float) -> None:
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        layer = frame.layer
        self.calls[layer] += 1
        self.total_s[layer] += duration
        self.self_s[layer] += duration - frame.child_s
        if frame.span_id >= 0:
            parent_id = parent.span_id if parent is not None else None
            self.spans[frame.span_id] = (
                frame.span_id, layer, start, end, parent_id, frame.attrs or None
            )
        if layer == "gap.eval" and "order" in frame.attrs:
            self.counts["gap.quad_order"] += frame.attrs["order"]
        elif layer == "hypergeom.series" and parent is not None and parent.attrs.get("quadrature"):
            self.counts["gap.quad_nodes"] += 1

    def count_rule(self, func):
        """Counter-only wrapper of a quadrature rule ``func(order, ...)``."""

        def counted(order, *args, **kwargs):
            for frame in reversed(self._stack):
                if frame.layer == "gap.eval":
                    frame.attrs["order"] = max(frame.attrs.get("order", 0), int(order))
                    break
            return func(order, *args, **kwargs)

        counted.__wrapped__ = func
        return counted

    def metrics(self, import_s: float) -> dict[str, float]:
        """The per-layer metrics of the current round."""
        c, t, own, n = self.calls, self.total_s, self.self_s, self.counts
        return {
            "partitions.pochhammer_calls": c["partitions.pochhammer"],
            "partitions.pochhammer_s": t["partitions.pochhammer"],
            "partitions.enum_s": t["partitions.enum"],
            "jack.identity_calls": c["jack.identity"],
            "jack.identity_s": t["jack.identity"],
            "jack.schur_calls": c["jack.schur"],
            "jack.schur_s": t["jack.schur"],
            "jack.monomial_calls": c["jack.monomial"],
            "jack.monomial_s": t["jack.monomial"],
            "hypergeom.series_calls": c["hypergeom.series"],
            "hypergeom.terms": n["hypergeom.terms"],
            "hypergeom.max_weight": self.max_weight,
            "hypergeom.series_s": t["hypergeom.series"],
            "hypergeom.self_s": own["hypergeom.series"],
            "gap.evals": c["gap.eval"],
            "gap.quad_nodes": n["gap.quad_nodes"],
            "gap.quad_order": n["gap.quad_order"],
            "gap.self_s": own["gap.eval"],
            "barnes.gamma2_calls": c["barnes.gamma2"],
            "barnes.gamma2_s": t["barnes.gamma2"],
            "contour.evals": c["contour.eval"],
            "contour.eval_s": t["contour.eval"],
            "mc.samples": n["mc.samples"],
            "mc.sample_s": t["mc.sample"],
            "mc.count_s": own["mc.estimate"],
            "cli.calls": c["cli.run"],
            "cli.import_s": import_s,
            "cli.run_s": t["cli.run"],
        }


def _jack_path(args) -> str:
    _, x, alpha = args[:3]
    nonzero = [v for v in x if v != 0.0]
    if all(v == nonzero[0] for v in nonzero):
        return "jack.identity"
    return "jack.schur" if alpha == 1.0 else "jack.monomial"


def install(tracer: Tracer, api: dict | None = None) -> None:
    """Wrap every layer of ``betagap`` (and the benchmark's ``api`` entries)."""
    from betagap import barnes, cli, gap, hypergeom, mc

    def series_done(frame, args, kwargs, result):
        tracer.counts["hypergeom.terms"] += result.term_count
        tracer.max_weight = max(tracer.max_weight, result.max_weight_used)

    def samples_drawn(frame, args, kwargs, result):
        tracer.counts["mc.samples"] += int(kwargs.get("size", args[2] if len(args) > 2 else 1))

    hypergeom.partitions_of_weight = tracer.wrap("partitions.enum", hypergeom.partitions_of_weight)
    hypergeom.gen_pochhammer_signlog = tracer.wrap(
        "partitions.pochhammer", hypergeom.gen_pochhammer_signlog
    )
    hypergeom.jack_C_eval_signlog = tracer.wrap(
        "jack", hypergeom.jack_C_eval_signlog, classify=_jack_path
    )
    gap.pFq_alpha = tracer.wrap("hypergeom.series", gap.pFq_alpha, after=series_done)
    gap.roots_jacobi = tracer.count_rule(gap.roots_jacobi)
    gamma2 = tracer.wrap("barnes.gamma2", barnes.log_gamma2)
    barnes.log_gamma2 = gamma2
    cli.log_gamma2 = gamma2
    mc.sample_bidiagonal = tracer.wrap("mc.sample", mc.sample_bidiagonal, after=samples_drawn)
    cli.estimate_gap = tracer.wrap("mc.estimate", cli.estimate_gap)
    for name in _CONTOUR_FUNCTIONS:
        setattr(cli, name, tracer.wrap("contour.eval", getattr(cli, name)))
    cli.run = tracer.wrap("cli.run", cli.run)

    def gap_wrapper(name, func):
        attrs = {"quadrature": True} if name in _QUADRATURE else None
        return tracer.wrap("gap.eval", func, attrs=attrs)

    for name in GAP_FUNCTIONS:
        if hasattr(cli, name):
            setattr(cli, name, gap_wrapper(name, getattr(cli, name)))
        if api is not None and name in api:
            api[name] = gap_wrapper(name, api[name])
