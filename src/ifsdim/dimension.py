"""Dimensions and local-dimension bounds for finite-type systems.

Everything quantitative lives here: the Hausdorff dimension of the
attractor, local dimensions of the self-similar measure at eventually
periodic points, certified outer and inner bounds for the interval of
local dimensions attained at truly essential points, the isolation
verdict for a local dimension (with family bounds at the hull
endpoints), and two structural diagnostics (equal column sums, Pisot
reciprocal ratio).  No code here reads the triple diagram; the inner
bounds need none (see `essential_interval_bounds`).  The outer interval
also bounds the lower and upper local dimensions at every truly
essential point, so `pointdim` prints it for such a point with no period
in reach.

Numbers are reported as a float `value` plus rational certified bounds.
Every dimension is a rate -ln(q) / (n |ln rho|) of a mass factor q per n
levels, and `_rate` is the one place that forms it: the Hausdorff
dimension (q = 1/sp), periodic local dimensions and cycle rates, the
outer interval ends, the equal-column-sum exponent and the Bernoulli
family bound.  The isolation and column-sum verdicts compare these
enclosures, not their float values.
Logarithms of rationals are evaluated with the float `math.log` and padded
by 1e-12 relative plus about 1e-15 per bit of the rational.  The padding
rests on libm's `log` being within a few ulp of the true value, which
IEEE 754 recommends but does not require; it is not a proof (ROADMAP F4).
numpy is imported only inside the functions of the float cycle screen of
`essential_interval_bounds` (and by `MatrixTable.cycle_matrices`, which
multiplies the cycles it keeps) and in `pisot_check`, so importing this
module does not load it, and neither does an `inner=False` bounds call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .classes import (
    ClassDecomposition,
    build_triple_diagram,  # unused here; perfbench/tracer.py wraps this binding
    decompose,
    essential_incidence,
    positive_row_check,
    PositiveRowReport,
)
from .matrices import _WALK_BATCH, MatrixTable, TransitionMatrix
from .net import (
    FiniteTypeStructure,
    NetStructureError,
    PointLocation,
    Representation,
    locate_point,
)
from .spectral import SpectralResult, ln_fraction, safe_float, spectral_radius

__all__ = [
    "Certified",
    "HausdorffResult",
    "PeriodicSpec",
    "LocalDimensionResult",
    "CycleWitness",
    "EssentialBounds",
    "EndpointFinding",
    "IsolationFindings",
    "ColumnSumReport",
    "PisotResult",
    "DimensionReport",
    "ln_fraction",
    "log_enclosure",
    "rho_log_enclosure",
    "hausdorff_dimension",
    "local_dim_periodic",
    "essential_interval_bounds",
    "isolation_verdict",
    "isolated_point_scan",
    "equal_column_sum_check",
    "pisot_check",
    "pisot_check_reciprocal",
    "sanity_dim_in_interval",
    "build_dimension_report",
]

# relative margin of the float screen in `essential_interval_bounds`
_SCREEN_MARGIN = 1e-6
# most float cycle products that one `numpy.linalg.eigvals` call scores
_SCREEN_CHUNK = 1024
# relative pad that `log_enclosure` puts around a float logarithm
_LOG_REL_PAD = 1e-12
# distance from the unit circle below which `pisot_check` trusts no float root
_PISOT_TOL = 1e-9


def log_enclosure(q) -> tuple[Fraction, Fraction]:
    """Rational bracket around ln(q) that absorbs float rounding error.

    ln 1 = 0 exactly, so a rate of mass factor 1 (p_max = 1) is exactly 0.
    """
    q = Fraction(q)
    if q == 1:
        return Fraction(0), Fraction(0)
    v = ln_fraction(q)
    scale = q.numerator.bit_length() + q.denominator.bit_length()
    pad = abs(v) * _LOG_REL_PAD + scale * 1e-15 + 1e-15
    return Fraction(v - pad), Fraction(v + pad)


def rho_log_enclosure(structure: FiniteTypeStructure) -> tuple[Fraction, Fraction]:
    """Certified bracket around |ln rho|."""
    rho = structure.system.context.rho
    eps = Fraction(1, 10**18)
    a = rho.approx(eps)
    lo_r, hi_r = a - eps, a + eps
    if lo_r <= 0 or hi_r >= 1:
        raise NetStructureError("contraction ratio must lie strictly inside (0, 1)")
    _, top = log_enclosure(hi_r)
    bot, _ = log_enclosure(lo_r)
    return -top, -bot


@dataclass(frozen=True)
class Certified:
    """A float answer together with rational bounds that contain the truth."""

    value: float
    lo: Fraction
    hi: Fraction

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


def _certify(lo: Fraction, hi: Fraction) -> Certified:
    return Certified(safe_float((lo + hi) / 2), lo, hi)


def _rate(lo, hi, steps: int, den: tuple[Fraction, Fraction]) -> Certified:
    """-ln[lo, hi] / (steps * |ln rho|) for a positive bracket [lo, hi].

    `den` is the `rho_log_enclosure`.  Every dimension is formed here: a
    mass factor q per `steps` levels scales like rho^(rate * steps).
    """
    l1, _ = log_enclosure(lo)
    _, h2 = log_enclosure(hi)
    n1, n2 = -h2, -l1
    d1, d2 = steps * den[0], steps * den[1]
    return _certify(n1 / d2 if n1 >= 0 else n1 / d1, n2 / d1 if n2 >= 0 else n2 / d2)


# -- Hausdorff dimension of the attractor ----------------------------------


@dataclass(frozen=True)
class HausdorffResult:
    dimension: Certified
    spectral: SpectralResult
    reduced_ids: tuple[int, ...]


def hausdorff_dimension(
    structure: FiniteTypeStructure, dec: ClassDecomposition
) -> HausdorffResult:
    """dim_H K = log sp(I) / |log rho| for the essential incidence matrix I."""
    ids, rows = essential_incidence(structure, dec)
    sp = spectral_radius(rows)
    if sp.certified_lo < 1:
        # every net interval keeps at least one child, so sp >= 1 holds
        raise NetStructureError("incidence spectral radius could not be certified")
    dim = _rate(
        1 / sp.certified_hi, 1 / sp.certified_lo, 1, rho_log_enclosure(structure)
    )
    return HausdorffResult(dim, sp, tuple(ids))


# -- local dimensions at eventually periodic points -------------------------


@dataclass(frozen=True)
class PeriodicSpec:
    """A symbolic address that is eventually periodic.

    `prefix` is a root path of edge choices, `cycle` the edges repeated
    forever after it.  Boundary points have a second address; keep it in
    `second` so both one-sided rates enter the comparison.
    """

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]
    second: "PeriodicSpec | None" = None

    @staticmethod
    def from_representation(rep: Representation) -> "PeriodicSpec":
        if rep.cycle is None:
            raise NetStructureError(
                "no period detected within the explored depth; raise the depth"
            )
        start, period = rep.cycle
        return PeriodicSpec(
            tuple(rep.edges[:start]), tuple(rep.edges[start : start + period])
        )

    @staticmethod
    def from_location(location: PointLocation) -> "PeriodicSpec":
        specs = [
            PeriodicSpec.from_representation(rep)
            for rep in location.representations
            if rep.alive
        ]
        if not specs:
            raise NetStructureError("point has no live symbolic address")
        if len(specs) == 1:
            return specs[0]
        return PeriodicSpec(specs[0].prefix, specs[0].cycle, specs[1])


@dataclass(frozen=True)
class LocalDimensionResult:
    dimension: Certified
    winner: int
    rates: tuple[Certified, ...]
    spectral: tuple[SpectralResult, ...]


def _walk_from(structure: FiniteTypeStructure, fid: int, edges: Sequence[int]) -> int:
    cur = fid
    for e in edges:
        records = structure.children_of_full(cur)
        if not 0 <= e < len(records):
            raise ValueError(
                f"edge {e} is out of range for a vector with {len(records)} children"
            )
        cur = records[e].child
    return cur


def local_dim_periodic(
    structure: FiniteTypeStructure,
    table: MatrixTable,
    spec: PeriodicSpec,
) -> LocalDimensionResult:
    """Local dimension of the measure at an eventually periodic point.

    Each address contributes log sp(T(cycle)) / (period * log rho); a
    boundary point takes the smaller of its two one-sided rates, which is
    the max-spectral-radius comparison after equalizing cycle lengths.
    """
    branches = [spec] + ([spec.second] if spec.second is not None else [])
    den1 = rho_log_enclosure(structure)
    rates: list[Certified] = []
    spectra: list[SpectralResult] = []
    for branch in branches:
        if not branch.cycle:
            raise ValueError("periodic cycle must not be empty")
        anchor = _walk_from(structure, structure.root_full, branch.prefix)
        if _walk_from(structure, anchor, branch.cycle) != anchor:
            raise ValueError("cycle is not admissible: it does not return to its anchor")
        sp = spectral_radius(table.cycle_matrix(anchor, branch.cycle))
        if sp.certified_lo <= 0:
            raise NetStructureError("cycle product has an uncertified spectral radius")
        rates.append(_rate(sp.certified_lo, sp.certified_hi, len(branch.cycle), den1))
        spectra.append(sp)
    winner = min(range(len(rates)), key=lambda i: rates[i].value)
    dim = _certify(min(r.lo for r in rates), min(r.hi for r in rates))
    return LocalDimensionResult(dim, winner, tuple(rates), tuple(spectra))


# -- bounds for the truly essential interval of local dimensions ------------


@dataclass(frozen=True)
class CycleWitness:
    start: int
    edges: tuple[int, ...]
    rate: Certified
    positive: bool


@dataclass(frozen=True)
class EssentialBounds:
    outer_lo: Certified
    outer_hi: Certified
    inner_lo: Certified | None
    inner_hi: Certified | None
    p_max: Fraction
    p_min: Fraction
    min_witness: CycleWitness | None
    max_witness: CycleWitness | None
    cycle_count: int
    certified_count: int
    excluded: tuple
    excluded_count: int
    cycle_budget: int


def _lyndon_cycles(children, start: int, budget: int):
    """Closed walks from `start` of at most `budget` steps, one per cycle.

    A step is a (vector, edge) pair.  The walk is extended depth first
    while its steps form a pre-necklace (Fredricksen and Maiorana): `p` is
    the period of the prefix, and a step below the one `p` places back is
    pruned, since no Lyndon word has that prefix.  A walk back at `start`
    is yielded when its period is its length, that is when it is the
    Lyndon word of a primitive cycle: its least rotation, which starts at
    the cycle's least vector.  Powers of a cycle are skipped; they repeat
    its rate.
    """
    stack = [(start, (), 0)]
    while stack:
        fid, steps, p = stack.pop()
        n = len(steps) + 1
        for rec in children[fid]:
            step = (fid, rec.edge_index)
            if steps:
                back = steps[n - 1 - p]
                if step < back:
                    continue
                q = p if step == back else n
            else:
                q = 1
            nxt = steps + (step,)
            if rec.child == start and q == n:
                yield nxt
            if n < budget:
                stack.append((rec.child, nxt, q))


def _end_steps(children) -> tuple[set, set]:
    """The steps onto a first child at the left end, and onto a last at the right."""
    leftmost = {(f, 0) for f, recs in children.items() if recs[0].abuts_left}
    rightmost = {
        (f, len(recs) - 1) for f, recs in children.items() if recs[-1].abuts_right
    }
    return leftmost, rightmost


def _excluded_cycles(children, budget: int) -> tuple[list, int]:
    """The cycles whose steps all hug one end: the first 50 with their reason, and the count.

    They are the Lyndon cycles of the child lists cut down to the end
    steps.  Cutting lists only drops subtrees of the depth-first walk of
    `_lyndon_cycles`, so the cycles it keeps come in the order the walk
    over the whole lists meets them.
    """
    leftmost, rightmost = _end_steps(children)
    ends = leftmost | rightmost
    cut = {f: [r for r in recs if (f, r.edge_index) in ends] for f, recs in children.items()}
    excluded: list[tuple] = []
    count = 0
    for start in sorted(children):
        for steps in _lyndon_cycles(cut, start, budget):
            if leftmost.issuperset(steps):
                reason = "all_leftmost"
            elif rightmost.issuperset(steps):
                reason = "all_rightmost"
            else:
                continue
            count += 1
            if len(excluded) < 50:
                excluded.append((steps, reason))
    return excluded, count


def _included_cycle_batches(children, budget: int, floats):
    """The included Lyndon cycles of at most `budget` steps, in float batches.

    `children` maps each vector of a closed class to its child records and
    `floats[step]` is the float matrix of a (vector, edge) step.  Yields
    (start, edges, products): the (N, n) edge choices of N Lyndon cycles
    of n steps from `start` that hug neither end (`_excluded_cycles` has
    those), and their (N, k, k) float products, multiplied left to right.

    The walks are those of `_lyndon_cycles`, extended a batch of walks of
    one length at a time.  Steps are coded by their (vector, edge) order,
    so the pre-necklace test compares codes: a step is kept when its code
    is at least the one `p` places back, and the period stays `p` when
    they are equal; a code -1 before the first step lets every first step
    pass.  A pre-necklace holds no step below its first, so a walk from
    `start` only visits vectors >= `start`, and a step is dropped when the
    fewest steps back to `start` through such vectors would take the walk
    past `budget`: that drops no cycle, and keeps every walk that can
    still close.  Products are padded with zero columns to the largest
    neighbour count of the class, so one matmul extends a whole batch; a
    zero term adds nothing to a finite entry, and a product with an entry
    that overflows stays not finite either way.
    """
    import numpy

    vectors = sorted(children)
    index = {f: i for i, f in enumerate(vectors)}
    # a child record's edge index is its position, so this is (vector, edge) order
    records = [(f, r) for f in vectors for r in children[f]]
    steps = [(f, r.edge_index) for f, r in records]
    src = numpy.array([index[f] for f, _ in records])
    dst = numpy.array([index[r.child] for _, r in records])
    edge = numpy.array([r.edge_index for _, r in records])
    # the codes of a vector's steps are first[v], ..., first[v] + count[v] - 1
    count = numpy.array([len(children[f]) for f in vectors])
    first = numpy.cumsum(count) - count
    leftmost, rightmost = _end_steps(children)
    # bit 1: the step is leftmost, bit 2: rightmost
    hugs = numpy.array([(s in leftmost) + 2 * (s in rightmost) for s in steps])
    width = max(max(floats[s].shape) for s in steps)
    mats = numpy.zeros((len(steps), width, width))
    for c, s in enumerate(steps):
        m = floats[s]
        mats[c, : m.shape[0], : m.shape[1]] = m
    for s, start in enumerate(vectors):
        # the fewest steps from each vector back to `start`, through vectors >= `start`
        far = numpy.full(len(vectors), budget + 1)
        far[s] = 0
        up = (src >= s) & (dst >= s)
        for _ in range(budget):
            numpy.minimum.at(far, src[up], far[dst[up]] + 1)
        reach = far[dst]
        k = floats[steps[first[s]]].shape[0]
        # walks of n steps: codes after a -1, periods, end bits, vectors, products
        stack = [(0, numpy.full((1, 1), -1), numpy.ones(1, int), numpy.full(1, 3),
                  numpy.full(1, s), numpy.eye(k, width)[None])]
        while stack:
            n, hist, period, hug, at, products = stack.pop()
            back = hist[numpy.arange(len(hist)), n + 1 - period]
            fan = count[at]
            walk = numpy.repeat(numpy.arange(len(at)), fan)
            # the codes of each walk's vector, one after the other
            codes = numpy.arange(len(walk)) - numpy.repeat(
                numpy.cumsum(fan) - fan - first[at], fan
            )
            keep = (codes >= back[walk]) & (n + 1 + reach[codes] <= budget)
            walk, codes = walk[keep], codes[keep]
            n += 1
            period = numpy.where(codes == back[walk], period[walk], n)
            hug = hug[walk] & hugs[codes]
            at = dst[codes]
            hist = numpy.concatenate([hist[walk], codes[:, None]], axis=1)
            products = numpy.matmul(products[walk], mats[codes])
            closed = (at == s) & (period == n) & (hug == 0)
            if closed.any():
                yield start, edge[hist[closed, 1:]], products[closed, :, :k]
            if n < budget:
                batch = hist, period, hug, at, products
                stack += [
                    (n, *(x[a : a + _WALK_BATCH] for x in batch))
                    for a in range(0, len(codes), _WALK_BATCH)
                ]


def _float_entry(x: Fraction) -> float:
    """float(x) for a nonnegative x, inf where the conversion overflows."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _chunk_scores(stack, lengths):
    """ln sp / n of each float product in `stack`, nan where that is not finite.

    One `numpy.linalg.eigvals` call takes the products whose entries are
    all finite; the others score nan without it, and so do all of them if
    the call fails.
    """
    import numpy

    finite = numpy.isfinite(stack).all(axis=(1, 2))
    radii = numpy.full(len(stack), math.nan)
    if finite.any():
        try:
            radii[finite] = numpy.abs(numpy.linalg.eigvals(stack[finite])).max(axis=-1)
        except numpy.linalg.LinAlgError:
            pass
    scores = numpy.full(len(stack), math.nan)
    ok = (radii > 0) & (radii < math.inf)
    scores[ok] = numpy.log(radii[ok]) / lengths[ok]
    return scores


def _near_extreme(g, g_lo: float, g_hi: float):
    """Which scores in the array g are within `_SCREEN_MARGIN` of g_lo or g_hi, or not finite."""
    import numpy

    return (
        ~numpy.isfinite(g)
        | (g <= g_lo + _SCREEN_MARGIN * abs(g_lo))
        | (g >= g_hi - _SCREEN_MARGIN * abs(g_hi))
    )


class _CycleScreen:
    """The float screen of `essential_interval_bounds`.

    `add` queues a batch of cycle products with the others of their shape;
    each full `_SCREEN_CHUNK` of a queue is scored by one `_chunk_scores`
    call.  `near` holds the (start, edges) of the scored cycles near the
    extremes of the scores so far, and `near_g` their scores.  The
    extremes only move outward, and the margin test only tightens as they
    do, so `near` is refiltered only when they move.
    """

    def __init__(self, budget: int):
        import numpy

        self.budget = budget
        # shape -> batches of (products, lengths, starts, edges padded with -1)
        self.queues: dict[int, list[tuple]] = {}
        self.g_lo, self.g_hi = math.inf, -math.inf
        self.near_g = numpy.empty(0)
        self.near: list[tuple[int, tuple[int, ...]]] = []

    def add(self, start: int, edges, products) -> None:
        import numpy

        size, n = edges.shape
        padded = numpy.full((size, self.budget), -1)
        padded[:, :n] = edges
        queue = self.queues.setdefault(products.shape[1], [])
        queue.append((products, numpy.full(size, n), numpy.full(size, start), padded))
        total = sum(len(batch[0]) for batch in queue)
        if total >= _SCREEN_CHUNK:
            parts = [numpy.concatenate(column) for column in zip(*queue)]
            full = total - total % _SCREEN_CHUNK
            for a in range(0, full, _SCREEN_CHUNK):
                self._score(*(part[a : a + _SCREEN_CHUNK] for part in parts))
            queue[:] = [tuple(part[full:] for part in parts)] if full < total else []

    def _score(self, products, lengths, starts, edges) -> None:
        import numpy

        g = _chunk_scores(products, lengths)
        finite = g[numpy.isfinite(g)]
        if finite.size:
            g_lo = min(self.g_lo, float(finite.min()))
            g_hi = max(self.g_hi, float(finite.max()))
            if (g_lo, g_hi) != (self.g_lo, self.g_hi):
                self.g_lo, self.g_hi = g_lo, g_hi
                keep = _near_extreme(self.near_g, g_lo, g_hi)
                self.near_g = self.near_g[keep]
                self.near = [c for c, k in zip(self.near, keep.tolist()) if k]
        near = numpy.flatnonzero(_near_extreme(g, self.g_lo, self.g_hi))
        self.near_g = numpy.concatenate([self.near_g, g[near]])
        self.near += [
            (start, tuple(row[:n]))
            for start, row, n in zip(
                starts[near].tolist(), edges[near].tolist(), lengths[near].tolist()
            )
        ]

    def candidates(self) -> list[tuple[int, tuple[int, ...]]]:
        """Score what is queued; the (start, edges) near the final extremes, sorted."""
        import numpy

        for queue in self.queues.values():
            if queue:
                self._score(*(numpy.concatenate(column) for column in zip(*queue)))
        self.queues.clear()
        return sorted(self.near)


def _witness(certificates, attains) -> CycleWitness:
    """The witness among the cycles whose certified rate `attains` the extreme.

    `certificates` holds (rate, positive, cycles) with the (start, edges)
    of the cycles that share that rate and positivity.
    """
    best = min(
        (not positive, len(edges), start, edges, rate, positive)
        for rate, positive, cycles in certificates
        if attains(rate)
        for start, edges in cycles
    )
    return CycleWitness(*best[2:])


def essential_interval_bounds(
    structure: FiniteTypeStructure,
    dec: ClassDecomposition,
    table: MatrixTable,
    cycle_budget: int = 8,
    inner: bool = True,
) -> EssentialBounds:
    """Outer and inner bounds for the local dimensions at truly essential points.

    Outer: [|log P_max|, |log P_min|] / |log rho| with P_max and P_min the
    extreme column sums over the transition matrices of the essential class.
    Inner: the min and max certified rate over the cycles of the class of
    at most `cycle_budget` edges (at least 1, else ValueError), less two
    kinds.  Each primitive cycle is met once, as its least rotation (the
    Lyndon walks of `_lyndon_cycles`), so no rotation or power is tested
    twice.  A cycle whose steps all go to a first child that abuts its
    parent's left end (`all_leftmost`), or all to a last child that abuts
    the right end (`all_rightmost`), repeats to the end point of its net
    intervals; the mass on the other side of that point also decides its
    local dimension, so the cycle's rate need not be it.  Those cycles
    (`_excluded_cycles`) are counted and sampled in `excluded`, in the
    order of `_lyndon_cycles`, not included; `cycle_count` counts the
    included ones.  Every other cycle is realized at a truly essential
    point, so no triple diagram is needed: the centres of the triple
    diagram's closed class are exactly the essential class (K. G. Hare,
    K. E. Hare and K. R. Matthews, J. Fractal Geom. 3 (2016)), and
    repeating a cycle from a triple of that class stays in it.

    Each included cycle is screened in floats: `_included_cycle_batches`
    enumerates them level by level and multiplies the float edge matrices
    of all walks of a level at once, left to right, and its score g = ln
    sp / n (n edges) is read off that product; the rate is -g / |ln rho|.
    Products are queued per shape (`_CycleScreen`) and scored
    `_SCREEN_CHUNK` at a time by one `numpy.linalg.eigvals` call on the
    stack; a product with a non-finite entry scores nan without it, and a
    chunk whose call raises `LinAlgError` scores nan throughout.  Only the
    cycles whose g lies within the relative `_SCREEN_MARGIN` of the least
    or greatest score, and those whose g is not finite (a product that
    under- or overflows, or a failed eigensolver), get an exact product, a
    certified spectral radius and a certified rate; `certified_count`
    counts them.  The margin test only tightens as the extremes move out,
    so the screen keeps the cycles near the extremes seen so far, drops
    those the new extremes leave behind after each chunk, and ends with
    exactly the cycles near the final extremes, whatever the chunk size.
    This is sound: every included cycle's rate is a local dimension at a
    truly essential point, so the rates of any subset of the cycles bound
    the interval from inside.  The margin also keeps the bounds that
    certifying every cycle gives: float products and eigenvalues err by
    about 1e-15 relative, and the certified rate enclosures are at most
    about 2e-11 wide on the suite systems, so every cycle whose enclosure
    could reach an extreme of the certified rates scores far inside the
    margin.
    The exact products of all candidates come from one
    `MatrixTable.cycle_matrices` call, batched integer products in which
    tied cycles share one `TransitionMatrix`, and one spectral radius and
    rate serve all cycles with the same product and length: many cycles
    tie exactly at an extreme.  The inner ends are taken over these
    distinct certificates.

    `min_witness` and `max_witness` are taken among the certified cycles
    whose enclosure reaches the extreme enclosure (`rate.lo <=
    inner_lo.hi`, resp. `rate.hi >= inner_hi.lo`): a positive product
    wins, then the fewest edges, then the least (start, edges), so the
    witnesses depend neither on the order of enumeration nor on float
    midpoints.

    With `inner=False` the walk enumeration (whose cost grows quickly with
    the budget on classes with many parallel edges) is skipped, and only
    the outer interval and the extreme column sums are produced.
    """
    if cycle_budget < 1:
        raise ValueError(f"cycle budget must be at least 1, not {cycle_budget}")
    den1 = rho_log_enclosure(structure)
    p_max = None
    p_min = None
    for rid in dec.essential_reduced:
        for rec in structure.children_of_reduced(rid):
            for s in table.of_edge(rid, rec.edge_index).column_sums():
                p_max = s if p_max is None or s > p_max else p_max
                p_min = s if p_min is None or s < p_min else p_min
    if p_min is None or p_min <= 0:
        raise NetStructureError("essential class has no transition matrices")
    outer_lo = _rate(p_max, p_max, 1, den1)
    outer_hi = _rate(p_min, p_min, 1, den1)

    cycle_count = 0
    candidates: list[tuple[int, tuple[int, ...]]] = []
    excluded: list[tuple] = []
    excluded_count = 0
    if inner:
        import numpy

        children = {fid: structure.children_of_full(fid) for fid in sorted(dec.essential)}
        excluded, excluded_count = _excluded_cycles(children, cycle_budget)
        floats = {
            (f, r.edge_index): numpy.array(
                [[_float_entry(x) for x in row] for row in table.of_full_edge(f, r.edge_index).rows]
            )
            for f, recs in children.items()
            for r in recs
        }
        screen = _CycleScreen(cycle_budget)
        # inf * 0 in a product that overflows is nan: it scores nan, and is certified
        with numpy.errstate(over="ignore", invalid="ignore"):
            for start, edges, products in _included_cycle_batches(
                children, cycle_budget, floats
            ):
                cycle_count += len(edges)
                screen.add(start, edges, products)
            candidates = screen.candidates()

    loose = Fraction(1, 10**9)
    # the rate and positivity of a cycle depend only on its product and length
    certificates: dict[tuple[TransitionMatrix, int], tuple[Certified, bool, list]] = {}
    for (start, edges), product in zip(candidates, table.cycle_matrices(candidates)):
        key = (product, len(edges))
        cert = certificates.get(key)
        if cert is None:
            sp = spectral_radius(product, rel_tol=loose)
            rate = _rate(sp.certified_lo, sp.certified_hi, len(edges), den1)
            cert = certificates[key] = rate, product.is_positive(), []
        cert[2].append((start, edges))

    if certificates:
        rates = [rate for rate, _, _ in certificates.values()]
        inner_lo = _certify(min(r.lo for r in rates), min(r.hi for r in rates))
        inner_hi = _certify(max(r.lo for r in rates), max(r.hi for r in rates))
        min_witness = _witness(certificates.values(), lambda r: r.lo <= inner_lo.hi)
        max_witness = _witness(certificates.values(), lambda r: r.hi >= inner_hi.lo)
    else:
        inner_lo = inner_hi = None
        min_witness = max_witness = None
    return EssentialBounds(
        outer_lo,
        outer_hi,
        inner_lo,
        inner_hi,
        p_max,
        p_min,
        min_witness,
        max_witness,
        cycle_count,
        len(candidates),
        tuple(excluded),
        excluded_count,
        cycle_budget,
    )


# -- isolation of the endpoint dimensions ------------------------------------


@dataclass(frozen=True)
class EndpointFinding:
    point: str
    dimension: LocalDimensionResult
    isolated: bool
    reason: str | None
    family_bound: float | None


@dataclass(frozen=True)
class IsolationFindings:
    at_zero: EndpointFinding
    at_one: EndpointFinding
    cantor_criterion: dict | None


def isolation_verdict(
    structure: FiniteTypeStructure,
    bounds: EssentialBounds,
    x,
    result: LocalDimensionResult,
) -> tuple[bool, str | None, float | None]:
    """(isolated, reason, family_bound) for the local dimension `result` at x.

    Any point is isolated when its enclosure lies strictly outside the
    certified outer interval ("outside_outer").  At x = 0 and 1 the two-map
    Bernoulli bound and the Cantor column-sum criterion
    ("column_sum_criterion": the first or last probability is below the
    smallest column sum) can also prove it.  The Bernoulli bound is the
    rate of q = p^(4k-1) (1 - p) per 4k levels, p the probability of the
    map that fixes x.  It proves isolation ("family_bound") when the
    enclosure of `result` lies strictly above the bound's enclosure; the
    bound's float value is returned.
    """
    dim = result.dimension
    isolated = dim.lo > bounds.outer_hi.hi or dim.hi < bounds.outer_lo.lo
    reason = "outside_outer" if isolated else None
    family_bound = None
    system = structure.system
    family = (system.family or {}) if x in (0, 1) else {}
    if family.get("name") == "bernoulli_simple_pisot":
        p = Fraction(family["p"])
        pr = p if x == 0 else 1 - p
        steps = 4 * int(family["k"])
        q = pr ** (steps - 1) * (1 - pr)
        bound = _rate(q, q, steps, rho_log_enclosure(structure))
        family_bound = bound.value
        if not isolated and dim.lo > bound.hi:
            isolated, reason = True, "family_bound"
    if family.get("name") == "cantor" and not isolated:
        probs = system.probabilities
        if (probs[0] if x == 0 else probs[-1]) < bounds.p_min:
            isolated, reason = True, "column_sum_criterion"
    return isolated, reason, family_bound


def isolated_point_scan(
    structure: FiniteTypeStructure,
    dec: ClassDecomposition,
    table: MatrixTable,
    bounds: EssentialBounds,
    depth: int = 60,
) -> IsolationFindings:
    """Local dimensions at 0 and 1 and their `isolation_verdict`s."""
    system = structure.system
    cantor = None
    if (system.family or {}).get("name") == "cantor":
        probs = system.probabilities
        cantor = {
            "p_first": probs[0],
            "p_last": probs[-1],
            "p_min": bounds.p_min,
            "first_isolated": probs[0] < bounds.p_min,
            "last_isolated": probs[-1] < bounds.p_min,
        }

    findings = []
    for x, label in ((0, "0"), (1, "1")):
        spec = PeriodicSpec.from_location(locate_point(structure, x, depth))
        result = local_dim_periodic(structure, table, spec)
        verdict = isolation_verdict(structure, bounds, x, result)
        findings.append(EndpointFinding(label, result, *verdict))
    return IsolationFindings(findings[0], findings[1], cantor)


# -- diagnostics --------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSumReport:
    holds: bool
    common_sum: Fraction | None
    counterexample: tuple | None
    exponent: float | None
    matches_hausdorff: bool


def equal_column_sum_check(
    structure: FiniteTypeStructure,
    dec: ClassDecomposition,
    table: MatrixTable,
    hausdorff: HausdorffResult | None = None,
) -> ColumnSumReport:
    """Do all columns of all essential matrices share one sum?

    When they do, every cylinder of the class scales its mass by the same
    factor v per level; v = rho^s with s the Hausdorff dimension is the
    classical indication of an absolutely continuous part.
    """
    common = None
    for rid in dec.essential_reduced:
        for rec in structure.children_of_reduced(rid):
            for s in table.of_edge(rid, rec.edge_index).column_sums():
                if common is None:
                    common = s
                elif s != common:
                    return ColumnSumReport(
                        False,
                        None,
                        (rid, rec.edge_index, s, common),
                        None,
                        False,
                    )
    exponent = _rate(common, common, 1, rho_log_enclosure(structure))
    matches = (
        hausdorff is not None
        and exponent.lo <= hausdorff.dimension.hi
        and hausdorff.dimension.lo <= exponent.hi
    )
    return ColumnSumReport(True, common, None, exponent.value, matches)


@dataclass(frozen=True)
class PisotResult:
    is_pisot: bool
    indeterminate: bool
    dominant_root: float | None
    conjugate_moduli: tuple[float, ...]
    reason: str | None


def pisot_check(minpoly: Sequence) -> PisotResult:
    """Is the dominant root of this minimal polynomial a Pisot number?

    `minpoly` lists coefficients lowest degree first.  A Pisot number is a
    real algebraic integer q > 1 whose conjugates all have modulus < 1,
    so non-integer or non-monic input fails immediately and conjugates
    within `_PISOT_TOL` of the unit circle flag the answer as indeterminate.
    """
    coeffs = [Fraction(c) for c in minpoly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return PisotResult(False, False, None, (), "polynomial is constant")
    if any(c.denominator != 1 for c in coeffs):
        return PisotResult(False, False, None, (), "coefficients are not integers")
    ints = [int(c) for c in coeffs]
    if abs(ints[-1]) != 1:
        return PisotResult(
            False, False, None, (), "not monic: the root is no algebraic integer"
        )
    if ints[-1] == -1:
        ints = [-c for c in ints]
    import numpy

    roots = numpy.roots(list(reversed(ints)))
    order = sorted(roots, key=lambda z: abs(z), reverse=True)
    dominant, rest = order[0], order[1:]
    if abs(dominant.imag) > _PISOT_TOL * (1 + abs(dominant)):
        return PisotResult(False, False, None, (), "dominant root is not real")
    q = float(dominant.real)
    moduli = tuple(float(abs(z)) for z in rest)
    if q <= 1 + _PISOT_TOL:
        return PisotResult(False, False, q, moduli, "dominant root is not > 1")
    if any(1 - _PISOT_TOL <= m <= 1 + _PISOT_TOL for m in moduli):
        return PisotResult(
            False, True, q, moduli, "a conjugate sits too close to the unit circle"
        )
    if all(m < 1 - _PISOT_TOL for m in moduli):
        return PisotResult(True, False, q, moduli, None)
    return PisotResult(False, False, q, moduli, "a conjugate has modulus >= 1")


def pisot_check_reciprocal(system) -> PisotResult:
    """Pisot test for 1/rho, read off the reversed minimal polynomial of rho."""
    return pisot_check(tuple(reversed(system.context.minpoly_int)))


def sanity_dim_in_interval(
    hausdorff: HausdorffResult, bounds: EssentialBounds
) -> bool:
    """The Hausdorff dimension must meet the certified outer interval."""
    dim = hausdorff.dimension
    return dim.hi >= bounds.outer_lo.lo and dim.lo <= bounds.outer_hi.hi


# -- aggregate report ---------------------------------------------------------


@dataclass(frozen=True)
class DimensionReport:
    decomposition: ClassDecomposition
    hausdorff: HausdorffResult
    bounds: EssentialBounds
    positive_rows: PositiveRowReport
    column_sums: ColumnSumReport
    pisot: PisotResult
    isolation: IsolationFindings
    sane: bool


def build_dimension_report(
    structure: FiniteTypeStructure,
    cycle_budget: int = 8,
    depth: int = 60,
) -> DimensionReport:
    """One-stop aggregation of every quantitative output for a structure.

    Analysis at a chosen point is `pointdim`'s job; the report covers the
    system and its hull endpoints 0 and 1.
    """
    dec = decompose(structure)
    table = MatrixTable(structure)
    hausdorff = hausdorff_dimension(structure, dec)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget)
    rows = positive_row_check(structure, dec, table)
    sums = equal_column_sum_check(structure, dec, table, hausdorff)
    pisot = pisot_check_reciprocal(structure.system)
    isolation = isolated_point_scan(structure, dec, table, bounds, depth)

    sane = sanity_dim_in_interval(hausdorff, bounds)
    if bounds.inner_lo is not None:
        sane = sane and (
            bounds.inner_lo.hi >= bounds.outer_lo.lo
            and bounds.inner_hi.lo <= bounds.outer_hi.hi
            and bounds.inner_lo.lo <= bounds.inner_hi.hi
        )
    return DimensionReport(
        dec,
        hausdorff,
        bounds,
        rows,
        sums,
        pisot,
        isolation,
        sane,
    )
