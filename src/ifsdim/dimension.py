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
outer interval ends (the lower one is the equal-column-sum exponent) and
the Bernoulli family bound.  The isolation and column-sum verdicts compare
these enclosures, not their float values.
The logarithm of a rational q = n/d is bracketed rigorously by
`log_enclosure`, from the correctly rounded `Decimal.ln` of n and of d:
each is within half a unit in its last place (ulp) of the truth, so the
result widened by one ulp on each side contains it, and the difference
of the two brackets contains ln q.  A q within 10^-40 of 1 takes the
exact bracket [1 - 1/q, q - 1] instead, as ln n - ln d would cancel every
digit.  |ln rho| comes from the same brackets at the two ends of an
interval around rho (`rho_log_enclosure`).
The cycles of the inner bounds are enumerated in batches, each batch
screened in floats as it is enumerated, and the exact products of the
cycles near the extreme scores read off those floats, all from one table
of the essential class's steps, `_StepTable`.  numpy is imported only
inside that table, the functions that read it, and `pisot_check`, so importing this module does
not load it, and neither does an `inner=False` bounds call.
"""

from __future__ import annotations

import decimal
import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .classes import (
    ClassDecomposition,
    build_triple_diagram,  # unused here; perfbench/tracer.py wraps this binding
    decompose,
    essential_incidence,
)
from .matrices import MatrixTable, TransitionMatrix
from .net import (
    FiniteTypeStructure,
    NetStructureError,
    PointLocation,
    Representation,
    locate_point,
)
from .spectral import (
    SpectralResult,
    _positive_eigenvector,
    safe_float,
    spectral_radius,
)

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
    "PositiveRowReport",
    "PisotResult",
    "DimensionReport",
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
# the screen drops a cycle by its row and column sums alone when that
# bracket of its float spectral radius, widened by this much relative, lies
# inside the margins; float sums and `eigvals` err by about 1e-15 relative
_SCREEN_SLACK = 1e-9
# most matrix entries, walks times the class's largest neighbour count
# squared, that `_cycle_batches` extends (and so the float screen scores)
# at once: 1024 walks of 2 x 2 products, 256 of 4 x 4.  Fewer numpy calls
# per walk, and the pending batches hold `int32` step codes and views, so
# the perfbench `enumeration` peak RSS stays where 256 walks a batch left it
_BATCH_ENTRIES = 4096
# significant digits of the logarithms in `log_enclosure`; a q within
# 10^-_LN_DIGITS of 1 takes the exact near-1 bracket instead
_LN_DIGITS = 40
# `rho_log_enclosure` brackets rho to within rho (1 - rho) * _RHO_REL
_RHO_REL = Fraction(1, 10**45)
# distance from the unit circle below which `pisot_check` trusts no float root
_PISOT_TOL = 1e-9


@functools.lru_cache(maxsize=1024)
def _ln_int(m: int, prec: int) -> tuple[Fraction, Fraction]:
    """Bracket around ln m, for an integer m >= 1: the correctly rounded
    `prec`-digit `Decimal.ln`, widened by one ulp on each side."""
    if m == 1:
        return Fraction(0), Fraction(0)
    r = decimal.Context(prec=prec).ln(m)
    mid, ulp = Fraction(r), Fraction(10) ** (r.adjusted() - prec + 1)
    return mid - ulp, mid + ulp


def log_enclosure(q) -> tuple[Fraction, Fraction]:
    """Rational bracket around ln(q), for a positive rational q = n/d.

    Proof.  `Decimal.ln` rounds correctly, so at P significant digits its
    result r for an integer m is within half a unit in its last place,
    ulp(r) = 10^(adjusted(r) - P + 1), of ln m (closer still when r is a
    power of 10 that ln m rounds up to).  Widened by one ulp on each side,
    [r - ulp(r), r + ulp(r)] holds ln m, and ln q = ln n - ln d lies
    between lo(ln n) - hi(ln d) and hi(ln n) - lo(ln d).  When
    |q - 1| < 10^-40, ln n and ln d agree in more digits than P = 40 holds,
    and the bracket is instead 1 - 1/q <= ln q <= q - 1, true for every
    q > 0, whose width (q - 1)^2 / q is at most about 10^-40 |ln q|.
    Further from 1, about -log10 |q - 1| guard digits on top of 40 keep the
    width within a few 10^-36 of |ln q| while ln n has at most four
    integer digits.
    ln 1 = 0 exactly, so a rate of mass factor 1 (p_max = 1) is exactly 0.
    """
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    if n <= 0:
        raise ValueError("logarithm of a non-positive rational")
    gap = abs(n - d)
    if gap == 0:
        return Fraction(0), Fraction(0)
    if gap * 10**_LN_DIGITS < d:
        return 1 - 1 / q, q - 1
    # 3/10 < log10 2, so the guard is at most -log10 |q - 1| + 1
    prec = _LN_DIGITS + (max(0, d.bit_length() - gap.bit_length()) * 3 // 10)
    n_lo, n_hi = _ln_int(n, prec)
    d_lo, d_hi = _ln_int(d, prec)
    return n_lo - d_hi, n_hi - d_lo


def rho_log_enclosure(structure: FiniteTypeStructure) -> tuple[Fraction, Fraction]:
    """Certified bracket around |ln rho|.

    The ends lo <= rho <= hi come from `FieldContext.rho_bracket`, so
    hi - lo <= rho (1 - rho) * 10^-45; a rational rho is used exactly.  As
    |ln rho| >= 1 - rho, the ends move |ln rho| by at most 10^-45 of itself,
    however close rho lies to 0 or to 1.
    """
    lo_r, hi_r = structure.system.context.rho_bracket(_RHO_REL)
    _, top = log_enclosure(hi_r)
    bot, _ = log_enclosure(lo_r)
    return -top, -bot


class Certified(NamedTuple):
    """A float answer together with rational bounds that contain the truth."""

    value: float
    lo: Fraction
    hi: Fraction


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


class HausdorffResult(NamedTuple):
    dimension: Certified
    spectral: SpectralResult
    reduced_ids: tuple[int, ...]


def hausdorff_dimension(
    structure: FiniteTypeStructure, dec: ClassDecomposition
) -> HausdorffResult:
    """dim_H K = log sp(I) / |log rho| for the essential incidence matrix I."""
    ids, rows = essential_incidence(structure, dec)
    sp = spectral_radius(TransitionMatrix._from_integer(1, rows))
    if sp.certified_lo < 1:
        # every net interval keeps at least one child, so sp >= 1 holds
        raise NetStructureError("incidence spectral radius could not be certified")
    dim = _rate(
        1 / sp.certified_hi, 1 / sp.certified_lo, 1, rho_log_enclosure(structure)
    )
    return HausdorffResult(dim, sp, tuple(ids))


# -- local dimensions at eventually periodic points -------------------------


class PeriodicSpec(NamedTuple):
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


class LocalDimensionResult(NamedTuple):
    dimension: Certified
    winner: int
    rates: tuple[Certified, ...]
    spectral: tuple[SpectralResult, ...]


def _walk_from(structure: FiniteTypeStructure, fid: int, edges: Sequence[int]) -> int:
    cur = fid
    for e in edges:
        span = structure.edges_of_full(cur)
        if not 0 <= e < len(span):
            raise ValueError(
                f"edge {e} is out of range for a vector with {len(span)} children"
            )
        cur = structure.child[span[e]]
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


class CycleWitness(NamedTuple):
    start: int
    edges: tuple[int, ...]
    rate: Certified
    positive: bool


class EssentialBounds(NamedTuple):
    outer_lo: Certified
    outer_hi: Certified
    inner_lo: Certified | None
    inner_hi: Certified | None
    p_max: Fraction
    p_min: Fraction
    # (rid, edge index, sum, first sum) of the first column sum unlike the first
    unequal_sum: tuple | None
    # (rid, edge index) of each matrix with a zero row
    zero_rows: tuple[tuple[int, int], ...]
    min_witness: CycleWitness | None
    max_witness: CycleWitness | None
    cycle_count: int
    certified_count: int
    excluded: tuple
    excluded_count: int
    cycle_budget: int


class _StepTable:
    """The (vector, edge) steps of a set of vectors closed under children.

    `vectors` are full vectors of `structure`, and `table` gives each
    step's matrix (`of_full_edge`).  Steps are coded in (vector,
    edge) order, vectors sorted: the codes of vector index v are
    `first[v]` to `first[v] + count[v] - 1`, and code c leaves vector
    index `src[c]` by edge `edge[c]` for vector index `dst[c]`.  `hugs`
    has bit 1 for a step onto a first child that abuts the left end and
    bit 2 for one onto a last child that abuts the right end.  `size` holds
    the neighbour counts of the vectors and `width` the greatest.

    Each step's matrix is read once, as its integer form m / d.  `floats`
    holds m (L / d) 2^-s, padded with zeros to `width` square, for the
    common denominator L (`den`) of the steps and the least s (`scale`)
    with 2^s >= L; int / int division rounds correctly.  These are the
    `Fraction` entries times L / 2^s, in (1/2, 1], so the screen adds
    `shift` = ln(2^s / L) to each score ln sp / n.
    A float product of n steps is exact when `bound`^n <= 2^53, `bound`
    the larger of L and the greatest row sum of the m (L / d).  Proof: the
    product of j steps, multiplied left to right from the identity, is the
    integer product M_j of their m (L / d) times 2^-sj.  An entry of M_j
    is at most the product of the steps' greatest row sums, so at most
    bound^j, and each term and partial sum `matmul` forms for it is a
    nonnegative integer no greater, times 2^-sj > 2^-(j + 53) (as 2^s <
    2 L): float64 holds each exactly.  So the walk's product is M_n / L^n,
    which `products` reads off.  Edge matrices have row sums at most 1
    (`matrices.edge_matrix`), so their bound is L.
    """

    def __init__(self, structure: FiniteTypeStructure, vectors, table: MatrixTable):
        import numpy

        self.table = table
        self.vectors = sorted(vectors)
        index = {f: i for i, f in enumerate(self.vectors)}
        spans = [structure.edges_of_full(f) for f in self.vectors]
        steps = [(f, i) for f, span in zip(self.vectors, spans) for i in range(len(span))]
        child, left, right = structure.child, structure.abuts_left, structure.abuts_right
        self.src = numpy.array([index[f] for f, _ in steps])
        self.dst = numpy.array([index[child[e]] for span in spans for e in span])
        self.edge = numpy.array([i for _, i in steps])
        self.count = numpy.array([len(span) for span in spans])
        self.first = numpy.cumsum(self.count) - self.count
        self.hugs = numpy.array(
            [
                (e == span.start and left[e]) + 2 * (e == span.stop - 1 and right[e])
                for span in spans
                for e in span
            ]
        )
        forms = [(m.den, m.ints) for m in (table.of_full_edge(*s) for s in steps)]
        self.size = numpy.zeros(len(self.vectors), dtype=numpy.int64)
        self.size[self.src] = [len(m) for _, m in forms]
        self.width = w = int(self.size.max())
        # walks per batch of `_cycle_batches`
        self.batch = max(1, _BATCH_ENTRIES // (w * w))
        self.den = den = math.lcm(*(d for d, _ in forms))
        self.scale = (den - 1).bit_length()
        self.shift = math.log((1 << self.scale) / den)
        scaled = [[[x * (den // d) for x in row] for row in m] for d, m in forms]
        self.bound = max(den, *(sum(row) for m in scaled for row in m))
        self.floats = numpy.zeros((len(steps), w, w))
        unit = 1 << self.scale
        for c, m in enumerate(scaled):
            self.floats[c, : len(m), : len(m[0])] = [[x / unit for x in row] for row in m]

    def cycle(self, codes: list[int]) -> tuple[int, tuple[int, ...]]:
        """The (start, edges) of the walk of step `codes`."""
        return self.vectors[self.src[codes[0]]], tuple(self.edge[codes].tolist())

    def hugging(self, codes, hug) -> list[tuple]:
        """The (steps, reason) of each cycle of step `codes` with end bits
        `hug`, steps its (vector, edge) pairs: `all_leftmost` where bit 1 is
        set, else `all_rightmost`, so a cycle that hugs both ends counts once."""
        return [
            (
                tuple((self.vectors[v], e) for v, e in zip(src, edge)),
                "all_leftmost" if bits & 1 else "all_rightmost",
            )
            for src, edge, bits in zip(
                self.src[codes].tolist(), self.edge[codes].tolist(), hug.tolist()
            )
        ]

    def products(self, codes, floats) -> list[tuple[TransitionMatrix, list[int]]]:
        """The distinct exact products of the closed walks of step `codes`, an
        (N, n) array of walks from starts of one neighbour count k, each with
        the rows of `codes` whose walks give it.  `floats` holds the walks'
        (N, k, k) float products from `_cycle_batches`.

        When `bound`^n <= 2^53 those are exact (see the class): a walk's
        product is M / L^n for M = 2^(`scale` n) times its float product, and
        walks whose M have the same bytes share one `TransitionMatrix`; none
        is multiplied again.  Longer walks go to `MatrixTable.cycle_matrix`.
        So each product equals `cycle_matrix` of the `cycle` of each of its
        rows, and no two groups share a product.
        """
        import numpy

        n, k = codes.shape[1], floats.shape[1]
        groups: dict = {}
        if self.bound**n > 2**53:
            for i, row in enumerate(codes.tolist()):
                groups.setdefault(self.table.cycle_matrix(*self.cycle(row)), []).append(i)
            return list(groups.items())
        exact = numpy.ldexp(floats, self.scale * n).astype(numpy.int64)
        raw, length = exact.tobytes(), exact.strides[0]
        for i, at in enumerate(range(0, len(raw), length)):
            groups.setdefault(raw[at : at + length], []).append(i)
        out = []
        for key, which in groups.items():
            rows = tuple(map(tuple, numpy.frombuffer(key, numpy.int64).reshape(k, k).tolist()))
            out.append((TransitionMatrix._from_integer(self.den**n, rows), which))
        return out


def _cycle_batches(steps: _StepTable, budget: int):
    """The Lyndon cycles of at most `budget` steps, in float batches.

    `steps` is the step table of a closed class.  Yields (codes,
    products, hug): the (N, n) step codes of N Lyndon cycles of n steps
    from one start, their (N, k, k) float products, multiplied left to
    right, and their end bits, the `_StepTable.hugs` of all their steps
    and-ed together: bit 1 when every step hugs the left end, bit 2 when
    every step hugs the right end.

    A walk is extended while its steps form a pre-necklace (Fredricksen
    and Maiorana), a batch of walks of one length at a time, and a walk
    back at its start is a cycle when its period `p` is its length: it is
    then the Lyndon word of a primitive cycle, its least rotation, which
    starts at the cycle's least vector.  Powers of a cycle, which repeat
    its rate, are skipped.  Step codes follow the (vector, edge) order, so
    the pre-necklace test compares codes: a step is kept when its code is
    at least the one `p` places back, and the period stays `p` when they
    are equal; a code -1 before the first step lets every first step
    pass.  A pre-necklace holds no step below its first, so a walk only
    visits vectors >= its start, and a step is dropped when the fewest
    steps back to the start through such vectors would take the walk past
    `budget`: that drops no cycle, and keeps every walk that can
    still close.  Products are padded with zero columns to the largest
    neighbour count of the class, so one matmul extends a whole batch, and
    a zero term adds nothing to an entry.
    """
    import numpy

    src, dst, count, first = steps.src, steps.dst, steps.count, steps.first
    for s in range(len(steps.vectors)):
        # the fewest steps from each vector back to start s, through vectors >= s
        far = numpy.full(len(steps.vectors), budget + 1)
        far[s] = 0
        up = (src >= s) & (dst >= s)
        for _ in range(budget):
            numpy.minimum.at(far, src[up], far[dst[up]] + 1)
        reach = far[dst]
        k = int(steps.size[s])
        # walks of n steps: codes after a -1, periods, end bits, vectors, products
        stack = [(0, numpy.full((1, 1), -1, numpy.int32), numpy.ones(1, int),
                  numpy.full(1, 3), numpy.full(1, s), numpy.eye(k, steps.width)[None])]
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
            hug = hug[walk] & steps.hugs[codes]
            at = dst[codes]
            hist = numpy.concatenate([hist[walk], codes[:, None]], axis=1, dtype=numpy.int32)
            products = numpy.matmul(products[walk], steps.floats[codes])
            closed = (at == s) & (period == n)
            if closed.any():
                yield hist[closed, 1:], products[closed, :, :k], hug[closed]
            if n < budget:
                batch = hist, period, hug, at, products
                stack += [
                    (n, *(x[a : a + steps.batch] for x in batch))
                    for a in range(0, len(codes), steps.batch)
                ]


def _chunk_scores(stack, n: int):
    """ln sp / n of each float product in `stack`, from one
    `numpy.linalg.eigvals` call: nan where sp is 0 (a product that
    underflows) or not a number, and for all of them if the call raises
    `LinAlgError`.
    """
    import numpy

    scores = numpy.full(len(stack), math.nan)
    try:
        radii = numpy.abs(numpy.linalg.eigvals(stack)).max(axis=-1)
    except numpy.linalg.LinAlgError:
        return scores
    ok = radii > 0
    scores[ok] = numpy.log(radii[ok]) / n
    return scores


def _near_extreme(g, g_lo: float, g_hi: float):
    """Which scores in the array g are within `_SCREEN_MARGIN` of g_lo or g_hi, or not finite."""
    import numpy

    return (
        ~numpy.isfinite(g)
        | (g <= g_lo + _SCREEN_MARGIN * abs(g_lo))
        | (g >= g_hi - _SCREEN_MARGIN * abs(g_hi))
    )


def _screen_scores(products, n: int, shift: float, g_lo: float, g_hi: float):
    """The scores ln sp / n + `shift` of the float `products` of a batch of
    cycles of n steps, scored against the extremes g_lo and g_hi of the
    scores so far; `shift` is the step table's, which undoes its scaling.

    For a nonnegative square matrix, sp lies between the larger of its
    least column sum and least row sum and the smaller of its greatest
    column sum and greatest row sum (Collatz-Wielandt with the all-ones
    vector).  A product whose bracket, widened by `_SCREEN_SLACK` relative,
    scores strictly between the margins of the extremes so far cannot be
    near the final ones, which lie further out, and a bracket whose ends
    are equal is sp: both score its upper end.  Only the others go to
    `_chunk_scores`.
    """
    import numpy

    cols, rows = products.sum(axis=1), products.sum(axis=2)
    lo = numpy.maximum(cols.min(axis=1), rows.min(axis=1))
    hi = numpy.minimum(cols.max(axis=1), rows.max(axis=1))
    low = g_lo + _SCREEN_MARGIN * abs(g_lo)
    high = g_hi - _SCREEN_MARGIN * abs(g_hi)
    with numpy.errstate(divide="ignore"):
        inside = (numpy.log(lo * (1 - _SCREEN_SLACK)) / n + shift > low) & (
            numpy.log(hi * (1 + _SCREEN_SLACK)) / n + shift < high
        )
        g = numpy.log(hi) / n + shift
    rest = ~(inside | ((lo == hi) & (lo > 0)))
    if rest.any():
        g[rest] = _chunk_scores(products[rest], n) + shift
    return g


def _witness(certificates, attains, steps: _StepTable) -> CycleWitness:
    """The witness among the cycles whose certified rate `attains` the extreme.

    `certificates` holds (rate, positive, codes) with the (N, n) step
    codes of the cycles that share that rate and positivity.  A positive
    product wins, then the fewest edges, then the least (start, edges).
    Step codes follow the (vector, edge) order, and the steps before a
    code fix the vector it leaves, so among walks of one length the least
    row of codes is the least (start, edges): only that row is read back.
    """
    not_positive, _, row, rate = min(
        (not positive, codes.shape[1], min(codes.tolist()), rate)
        for rate, positive, codes in certificates
        if attains(rate)
    )
    return CycleWitness(*steps.cycle(row), rate, not not_positive)


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
    That scan, over the (reduced id, edge index) pairs of the class in
    order, is the only reader of those matrices: it also records the first
    column sum unlike the very first one, `unequal_sum` (rid, edge index,
    sum, first sum), for `equal_column_sum_check`, and the pairs whose
    matrix has a zero row, `zero_rows`, for the positive-row check.
    Inner: the min and max certified rate over the cycles of the class of
    at most `cycle_budget` edges (at least 1, else ValueError), less two
    kinds.  Each primitive cycle is met once, as its least rotation (its
    Lyndon word of steps), so no rotation or power is tested twice.  A
    cycle whose steps all go to a first child that abuts its parent's
    left end (`all_leftmost`), or all to a last child that abuts the
    right end (`all_rightmost`), repeats to the end point of its net
    intervals; the mass on the other side of that point also decides its
    local dimension, so the cycle's rate need not be it.  The one
    enumeration, `_cycle_batches`, marks those cycles by their end bits:
    they are counted in `excluded_count`, the first 10 sorted are sampled
    in `excluded` (`_StepTable.hugging`), and `cycle_count` counts the
    included ones.
    Every other cycle is realized at a truly essential point, so no
    triple diagram is needed: the centres of the triple diagram's closed
    class are exactly the essential class (K. G. Hare, K. E. Hare and
    K. R. Matthews, J. Fractal Geom. 3 (2016)), and repeating a cycle
    from a triple of that class stays in it.

    Each included cycle is screened in floats: `_cycle_batches`
    enumerates them level by level and multiplies the float edge matrices
    of all walks of a level at once, left to right, and its score g = ln
    sp / n (n edges) is read off that product; the rate is -g / |ln rho|.
    Each batch it yields, of one start, length and shape, is scored as it
    comes (`_screen_scores`) against the extremes of the scores so far.
    Only the cycles whose g lies within the relative `_SCREEN_MARGIN` of
    the least or greatest score, and those whose g is not finite (a
    product that underflows to 0, or a failed eigensolver), get an
    exact product, a certified spectral radius and a certified rate;
    `certified_count` counts them.  The margin test only tightens as the
    extremes move out, so each batch keeps the cycles near the extremes
    seen so far, and those are filtered once more against the final
    extremes: that leaves exactly the cycles near the final extremes.
    Most scores need no eigenvalues.  For a nonnegative k x k matrix P
    and the all-ones vector, Collatz-Wielandt gives min row sum <= sp(P)
    <= max row sum, and the same for column sums (P transposed has the
    same sp), so sp(P) lies in [max(least column sum, least row sum),
    min(greatest column sum, greatest row sum)].  A cycle whose bracket,
    widened by `_SCREEN_SLACK` relative, scores strictly between the
    margins of the extremes seen so far is not near them, and as those
    margins only move out it is not near the final ones either: it is
    dropped.  The float sums err by about k 1e-16 relative and `eigvals`
    by about 1e-15, far inside the slack, so the score `eigvals` would give
    lies inside the margins too.  A bracket with equal ends is sp and
    scores it (as every exact product of equal-column-sum matrices has; see
    `_StepTable` for which float products are exact).  The others go to one
    `numpy.linalg.eigvals` call, and a call that raises `LinAlgError`
    scores its cycles nan; no product overflows, as the entries of a
    product of edge matrices lie in [0, 1] (`matrices.edge_matrix`).  So
    the cycles certified do not depend on how the cycles are batched: a
    cycle near the final extremes is never dropped by its sums, and its
    score is either its bracket's end or `eigvals` of its own product,
    which LAPACK computes one matrix at a time.  Every score adds the step
    table's `shift`, which undoes the scaling of its floats.
    This is sound: every included cycle's rate is a local dimension at a
    truly essential point, so the rates of any subset of the cycles bound
    the interval from inside.  The margin also keeps the bounds that
    certifying every cycle gives: float products and eigenvalues err by
    about 1e-15 relative, and the certified rate enclosures are at most
    about 2e-11 wide on the suite systems, so every cycle whose enclosure
    could reach an extreme of the certified rates scores far inside the
    margin.
    The enumeration, the screen and the exact products all read one
    `_StepTable` of the class, built once per call, and a kept cycle
    travels as its row of step codes and its float product, from which
    `_StepTable.products` reads the exact product of all but the longest
    cycles, a batch at a time; the groups of one length are merged by
    `TransitionMatrix`, and one spectral radius and rate serve each group,
    all its cycles having the same product and length: many cycles tie
    exactly at an extreme.  The inner ends are taken over these distinct
    certificates, and each witness turns one row of step codes back into
    (start, edges).

    `min_witness` and `max_witness` are taken among the certified cycles
    whose enclosure reaches the extreme enclosure (`rate.lo <=
    inner_lo.hi`, resp. `rate.hi >= inner_hi.lo`): a positive product
    wins, then the fewest edges, then the least (start, edges), so the
    witnesses depend neither on the order of enumeration nor on float
    midpoints.

    With `inner=False` the walk enumeration (whose cost grows quickly with
    the budget on classes with many parallel edges) is skipped, and only
    the outer interval and the facts of the scan are produced.
    """
    if cycle_budget < 1:
        raise ValueError(f"cycle budget must be at least 1, not {cycle_budget}")
    den1 = rho_log_enclosure(structure)
    p_max = p_min = first = unequal_sum = None
    zero_rows = []
    for rid in dec.essential_reduced:
        for edge_index in range(len(structure.edges_of_reduced(rid))):
            matrix = table.of_edge(rid, edge_index)
            if matrix.has_zero_row():
                zero_rows.append((rid, edge_index))
            for s in matrix.column_sums():
                if first is None:
                    first = p_max = p_min = s
                p_max, p_min = max(p_max, s), min(p_min, s)
                if unequal_sum is None and s != first:
                    unequal_sum = (rid, edge_index, s, first)
    if p_min is None or p_min <= 0:
        raise NetStructureError("essential class has no transition matrices")
    outer_lo = _rate(p_max, p_max, 1, den1)
    outer_hi = _rate(p_min, p_min, 1, den1)

    cycle_count = 0
    certified_count = 0
    excluded: list[tuple] = []
    # (rate, positive, step codes of the cycles) per distinct product and length
    certificates: list[tuple[Certified, bool, object]] = []
    if inner:
        import numpy

        steps = _StepTable(structure, dec.essential, table)
        g_lo, g_hi = math.inf, -math.inf
        # (scores, step codes) of the cycles near the extremes when they were scored
        near: list[tuple] = []
        for codes, products, hug in _cycle_batches(steps, cycle_budget):
            if hug.any():
                excluded += steps.hugging(codes[hug != 0], hug[hug != 0])
                codes, products = codes[hug == 0], products[hug == 0]
            if not len(codes):
                continue
            cycle_count += len(codes)
            g = _screen_scores(products, codes.shape[1], steps.shift, g_lo, g_hi)
            finite = g[numpy.isfinite(g)]
            if finite.size:
                g_lo = min(g_lo, float(finite.min()))
                g_hi = max(g_hi, float(finite.max()))
            keep = _near_extreme(g, g_lo, g_hi)
            near.append((g[keep], codes[keep], products[keep]))
        # (step codes, float products) of each batch's cycles near the final extremes
        by_length: dict[int, list] = {}
        for g, codes, products in near:
            keep = _near_extreme(g, g_lo, g_hi)
            if keep.any():
                by_length.setdefault(codes.shape[1], []).append((codes[keep], products[keep]))

        loose = Fraction(1, 10**9)
        for n in sorted(by_length):
            # the rate and positivity of a cycle depend only on its product and length
            groups: dict[TransitionMatrix, list] = {}
            for codes, products in by_length[n]:
                certified_count += len(codes)
                for product, which in steps.products(codes, products):
                    groups.setdefault(product, []).append(codes[which])
            for product, rows in groups.items():
                sp = spectral_radius(product, rel_tol=loose)
                rate = _rate(sp.certified_lo, sp.certified_hi, n, den1)
                certificates.append((rate, product.is_positive(), numpy.concatenate(rows)))

    if certificates:
        rates = [rate for rate, _, _ in certificates]
        inner_lo = _certify(min(r.lo for r in rates), min(r.hi for r in rates))
        inner_hi = _certify(max(r.lo for r in rates), max(r.hi for r in rates))
        min_witness = _witness(certificates, lambda r: r.lo <= inner_lo.hi, steps)
        max_witness = _witness(certificates, lambda r: r.hi >= inner_hi.lo, steps)
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
        unequal_sum,
        tuple(zero_rows),
        min_witness,
        max_witness,
        cycle_count,
        certified_count,
        tuple(sorted(excluded)[:10]),
        len(excluded),
        cycle_budget,
    )


# -- isolation of the endpoint dimensions ------------------------------------


class EndpointFinding(NamedTuple):
    point: str
    dimension: LocalDimensionResult
    isolated: bool
    reason: str | None
    family_bound: float | None


class IsolationFindings(NamedTuple):
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
) -> IsolationFindings:
    """Local dimensions at 0 and 1 and their `isolation_verdict`s.

    The addresses of 0 and 1 are forced chains: the first, resp. last,
    child at every step while it abuts its parent's end.  `locate_point`
    follows a chain to the first full vector it meets twice, or to where
    it dies, within `full_count + 1` edges, so no depth is passed.
    """
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
        spec = PeriodicSpec.from_location(locate_point(structure, x))
        result = local_dim_periodic(structure, table, spec)
        verdict = isolation_verdict(structure, bounds, x, result)
        findings.append(EndpointFinding(label, result, *verdict))
    return IsolationFindings(findings[0], findings[1], cantor)


# -- diagnostics --------------------------------------------------------------


class ColumnSumReport(NamedTuple):
    holds: bool
    common_sum: Fraction | None
    counterexample: tuple | None
    exponent: float | None
    matches_hausdorff: bool


class PositiveRowReport(NamedTuple):
    holds: bool
    witnesses: tuple[tuple[int, int], ...]  # (reduced id, edge index) with a zero row


def equal_column_sum_check(
    structure: FiniteTypeStructure,
    dec: ClassDecomposition,
    bounds: EssentialBounds,
    hausdorff: HausdorffResult | None = None,
) -> ColumnSumReport:
    """Do all columns of all essential matrices share one sum?

    The scan of `essential_interval_bounds` answers it: `bounds.unequal_sum`
    is the counterexample, and without one the common sum is `p_min` and
    its exponent -ln v / |ln rho| is the outer end `outer_lo`.  When the
    sums agree, every cylinder of the class scales its mass by the same
    factor v per level; v = rho^s with s the Hausdorff dimension is the
    classical indication of an absolutely continuous part.  Since
    rho^dim_H = 1/sp(I) for the essential incidence matrix I, that equality
    is decided exactly: 1/v must be an eigenvalue of I with a positive
    eigenvector, which makes it sp(I).
    """
    if bounds.unequal_sum is not None:
        return ColumnSumReport(False, None, bounds.unequal_sum, None, False)
    common, exponent = bounds.p_min, bounds.outer_lo
    matches = (
        hausdorff is not None
        and exponent.lo <= hausdorff.dimension.hi
        and hausdorff.dimension.lo <= exponent.hi
        and _positive_eigenvector(essential_incidence(structure, dec)[1], 1 / common)
    )
    return ColumnSumReport(True, common, None, exponent.value, matches)


class PisotResult(NamedTuple):
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


class DimensionReport(NamedTuple):
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
) -> DimensionReport:
    """One-stop aggregation of every quantitative output for a structure.

    Analysis at a chosen point is `pointdim`'s job; the report covers the
    system and its hull endpoints 0 and 1, which need no depth
    (`isolated_point_scan`).
    """
    dec = decompose(structure)
    table = MatrixTable(structure)
    hausdorff = hausdorff_dimension(structure, dec)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget)
    rows = PositiveRowReport(not bounds.zero_rows, bounds.zero_rows)
    sums = equal_column_sum_check(structure, dec, bounds, hausdorff)
    pisot = pisot_check_reciprocal(structure.system)
    isolation = isolated_point_scan(structure, dec, table, bounds)

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
