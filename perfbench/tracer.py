"""Spans and counters around the calls the `ifsdim` CLI makes into each layer.

`Tracer.installed()` replaces module attributes (and three methods) with
timing wrappers and restores them on exit; nothing under `src/` changes.
Coarse calls get one span each: name, start, end, parent span and job.
Hot calls (`FieldContext.sign_of`, `spectral_radius`,
`MatrixTable.cycle_matrix`) are only counted and timed in aggregate, since
a single explore makes over a million sign decisions.  A span's self time
is its duration minus the time of the spans and hot calls inside it.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import defaultdict
from time import perf_counter

from ifsdim import cli, dimension, report
from ifsdim.field import FieldContext
from ifsdim.matrices import MatrixTable

# span name -> the module attributes through which the CLI reaches the call
SPANS = {
    "config.load": [(cli, "load_config")],
    "net.explore": [(cli, "explore")],
    "net.locate": [(cli, "locate_point"), (dimension, "locate_point")],
    "cache.save": [(cli, "save_structure")],
    "cache.load": [(cli, "load_structure")],
    "classes.decompose": [(cli, "decompose"), (dimension, "decompose"), (report, "decompose")],
    "classes.triple": [(cli, "build_triple_diagram"), (dimension, "build_triple_diagram")],
    "matrices.table": [(MatrixTable, "__init__")],
    "dimension.report": [(cli, "build_dimension_report")],
    "dimension.hausdorff": [(dimension, "hausdorff_dimension"), (report, "hausdorff_dimension")],
    "dimension.bounds": [(cli, "essential_interval_bounds"), (dimension, "essential_interval_bounds")],
    "dimension.isolation": [(cli, "isolated_point_scan"), (dimension, "isolated_point_scan")],
    "dimension.local_dim": [(cli, "local_dim_periodic"), (dimension, "local_dim_periodic")],
    "report.payload": [(cli, "full_report"), (cli, "structural_report")],
    "report.render": [(cli, "render_text"), (cli, "dumps")],
    "dot.render": [(cli, "reduced_dot"), (cli, "triple_dot")],
}
# hot call name -> (owner, attribute, Tracer method that builds the wrapper)
HOT = {
    "field.sign": (FieldContext, "sign_of", "_sign_wrapper"),
    "spectral": (dimension, "spectral_radius", "_spectral_wrapper"),
    "matrices.cycle_product": (MatrixTable, "cycle_matrix", "_timed_wrapper"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_s")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Spans and counters of one traced pass; create a new one per pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.job: str | None = None
        self.hot_calls: dict[str, int] = defaultdict(int)
        self.hot_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(name, perf_counter(), parent, self.job)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += span.seconds

    def _hot(self, name: str, seconds: float) -> None:
        self.hot_calls[name] += 1
        self.hot_s[name] += seconds
        if self._open:
            self._open[-1].child_s += seconds

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._after(name, args, result)
            return result

        return wrapped

    def _after(self, name, args, result) -> None:
        c = self.counts
        if name == "net.explore":
            c["net.reduced_vectors"] += result.reduced_count
            c["net.full_vectors"] += result.full_count
            c["net.edges"] += result.edge_count()
        elif name == "cache.save":
            c["cache.bytes"] += os.path.getsize(args[0])
        elif name == "classes.triple":
            c["classes.triples"] = max(c["classes.triples"], result.node_count())
        elif name == "dimension.bounds":
            c["dimension.walks_included"] += result.cycle_count
            c["dimension.walks_excluded"] += result.excluded_count

    def _sign_wrapper(self, name, fn):
        @functools.wraps(fn)
        def sign_of(ctx, coeffs):
            # a rational rho (degree 1) is never bisected
            before = ctx.interval() if ctx.degree > 1 else None
            t = perf_counter()
            result = fn(ctx, coeffs)
            self._hot(name, perf_counter() - t)
            if before is not None:
                lo, hi = ctx.interval()
                if (lo, hi) != before:
                    # each bisection halves the isolating interval
                    halvings = (before[1] - before[0]) / (hi - lo)
                    self.counts["field.bisections"] += halvings.numerator.bit_length() - 1
            return result

        return sign_of

    def _spectral_wrapper(self, name, fn):
        @functools.wraps(fn)
        def spectral_radius(*args, **kwargs):
            t = perf_counter()
            result = fn(*args, **kwargs)
            self._hot(name, perf_counter() - t)
            c = self.counts
            if result.exact is not None:
                c["spectral.exact"] += 1
            if result.value:
                width = float(result.certified_hi - result.certified_lo) / result.value
                c["spectral.max_rel_width"] = max(c["spectral.max_rel_width"], width)
            return result

        return spectral_radius

    def _timed_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t = perf_counter()
            result = fn(*args, **kwargs)
            self._hot(name, perf_counter() - t)
            return result

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced attribute for the duration of the block."""
        saved = []
        wrappers = []
        for name, targets in SPANS.items():
            for owner, attr in targets:
                wrappers.append((owner, attr, self._span_wrapper(name, getattr(owner, attr))))
        for name, (owner, attr, factory) in HOT.items():
            wrappers.append((owner, attr, getattr(self, factory)(name, getattr(owner, attr))))
        try:
            for owner, attr, wrapped in wrappers:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def _total(self, name: str) -> tuple[int, float, float]:
        """Calls, seconds and self seconds of the spans called `name`."""
        spans = [s for s in self.spans if s.name == name]
        return len(spans), sum(s.seconds for s in spans), sum(s.self_s for s in spans)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced pass, by metric name."""
        c = self.counts
        t = {name: self._total(name) for name in SPANS}
        explore_s = t["net.explore"][1]
        spectral_calls = self.hot_calls["spectral"]
        walks = c["dimension.walks_included"] + c["dimension.walks_excluded"]
        return {
            "field.sign_calls": self.hot_calls["field.sign"],
            "field.sign_s": self.hot_s["field.sign"],
            "field.bisections": c["field.bisections"],
            "net.explore_s": explore_s,
            "net.reduced_vectors": c["net.reduced_vectors"],
            "net.full_vectors": c["net.full_vectors"],
            "net.edges": c["net.edges"],
            "net.vectors_per_s": c["net.reduced_vectors"] / explore_s if explore_s else 0.0,
            "net.locate_calls": t["net.locate"][0],
            "net.locate_s": t["net.locate"][1],
            "cache.save_s": t["cache.save"][1],
            "cache.load_s": t["cache.load"][1],
            "cache.bytes": c["cache.bytes"],
            "classes.decompose_calls": t["classes.decompose"][0],
            "classes.decompose_s": t["classes.decompose"][1],
            "classes.triple_builds": t["classes.triple"][0],
            "classes.triple_s": t["classes.triple"][1],
            "classes.triples": c["classes.triples"],
            "matrices.table_builds": t["matrices.table"][0],
            "matrices.table_s": t["matrices.table"][1],
            "matrices.cycle_products": self.hot_calls["matrices.cycle_product"],
            "matrices.cycle_product_s": self.hot_s["matrices.cycle_product"],
            "spectral.calls": spectral_calls,
            "spectral.s": self.hot_s["spectral"],
            "spectral.exact_share": c["spectral.exact"] / spectral_calls if spectral_calls else 0.0,
            "spectral.max_rel_width": c["spectral.max_rel_width"],
            "dimension.hausdorff_s": t["dimension.hausdorff"][1],
            "dimension.bounds_s": t["dimension.bounds"][1],
            "dimension.enum_self_s": t["dimension.bounds"][2],
            "dimension.walks_included": c["dimension.walks_included"],
            "dimension.walks_excluded": c["dimension.walks_excluded"],
            "dimension.walk_yield": c["dimension.walks_included"] / walks if walks else 0.0,
            "dimension.isolation_s": t["dimension.isolation"][1],
            "dimension.local_dim_s": t["dimension.local_dim"][1],
            "config.load_s": t["config.load"][1],
            "report.render_s": t["report.render"][1],
            "dot.render_s": t["dot.render"][1],
        }

    def span_records(self) -> list[list]:
        """Spans as [name, start, end, parent index, job], parents first."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end, None if s.parent is None else index[id(s.parent)], s.job]
            for s in self.spans
        ]

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.self_s
        return dict(out)
