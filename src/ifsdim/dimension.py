"""Dimensions and local-dimension bounds for finite-type systems.

Everything quantitative lives here: the Hausdorff dimension of the
attractor, local dimensions of the self-similar measure at eventually
periodic points, certified outer and inner bounds for the interval of
local dimensions attained at truly essential points, a crude slope
estimator along arbitrary symbolic paths, the isolation verdict for a
local dimension (with family bounds at the hull endpoints), and two
structural diagnostics (equal column sums, Pisot reciprocal ratio).

Numbers are reported as a float `value` plus rational certified bounds.
Logarithms of rationals are evaluated with the float `math.log` and padded
by 1e-12 relative plus about 1e-15 per bit of the rational.  The padding
rests on libm's `log` being within a few ulp of the true value, which
IEEE 754 recommends but does not require; it is not a proof (ROADMAP F4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy

from .classes import (
    ClassDecomposition,
    TripleDiagram,
    build_triple_diagram,
    decompose,
    essential_incidence,
    positive_row_check,
    PositiveRowReport,
)
from .matrices import MatrixTable, TransitionMatrix
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
    "PointReport",
    "DimensionReport",
    "ln_fraction",
    "log_enclosure",
    "rho_log_enclosure",
    "hausdorff_dimension",
    "local_dim_periodic",
    "essential_interval_bounds",
    "local_dim_estimate",
    "isolation_verdict",
    "isolated_point_scan",
    "equal_column_sum_check",
    "pisot_check",
    "pisot_check_reciprocal",
    "sanity_dim_in_interval",
    "build_dimension_report",
]

def log_enclosure(q, rel: float = 1e-12) -> tuple[Fraction, Fraction]:
    """Rational bracket around ln(q) that absorbs float rounding error."""
    q = Fraction(q)
    v = ln_fraction(q)
    scale = q.numerator.bit_length() + q.denominator.bit_length()
    pad = abs(v) * rel + scale * 1e-15 + 1e-15
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


def _neg_log_interval(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of -ln over a positive bracket [lo, hi]."""
    l1, _ = log_enclosure(lo)
    _, h2 = log_enclosure(hi)
    return -h2, -l1


def _interval_div(num, den) -> tuple[Fraction, Fraction]:
    n1, n2 = num
    d1, d2 = den
    lo = n1 / d2 if n1 >= 0 else n1 / d1
    hi = n2 / d1 if n2 >= 0 else n2 / d2
    return lo, hi


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
    num_lo, _ = log_enclosure(sp.certified_lo)
    _, num_hi = log_enclosure(sp.certified_hi)
    num = (max(Fraction(0), num_lo), max(Fraction(0), num_hi))
    dim = _certify(*_interval_div(num, rho_log_enclosure(structure)))
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
    def from_location(location: PointLocation) -> "PeriodicSpec":
        specs = []
        for rep in location.representations:
            if not rep.alive:
                continue
            if rep.cycle is None:
                raise NetStructureError(
                    "no period detected within the explored depth; raise the depth"
                )
            start, period = rep.cycle
            specs.append(
                PeriodicSpec(
                    tuple(rep.edges[:start]),
                    tuple(rep.edges[start : start + period]),
                )
            )
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
        period = len(branch.cycle)
        num = _neg_log_interval(sp.certified_lo, sp.certified_hi)
        den = (period * den1[0], period * den1[1])
        rates.append(_certify(*_interval_div(num, den)))
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
    excluded: tuple
    excluded_count: int
    cycle_budget: int


def _step_is_leftmost(records, edge: int) -> bool:
    return edge == 0 and records[edge].abuts_left


def _step_is_rightmost(records, edge: int) -> bool:
    return edge == len(records) - 1 and records[edge].abuts_right


def _cycle_realizable(diagram: TripleDiagram, by_centre, steps) -> bool:
    """Does some point with this cyclic tail have all flank limits essential?"""
    edges = [e for _, e in steps]
    return any(
        diagram.cycle_limit(nid, edges) in diagram.essential
        for nid in by_centre.get(steps[0][0], ())
    )


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


def essential_interval_bounds(
    structure: FiniteTypeStructure,
    dec: ClassDecomposition,
    table: MatrixTable,
    diagram: TripleDiagram | None = None,
    cycle_budget: int = 8,
    inner: bool = True,
) -> EssentialBounds:
    """Outer and inner bounds for the local dimensions at truly essential points.

    Outer: [|log P_max|, |log P_min|] / |log rho| with P_max and P_min the
    extreme column sums over the transition matrices of the essential class.
    Inner: the min and max certified rate over the cycles of the class of
    at most `cycle_budget` edges whose descent pattern is realizable at a
    truly essential point.  `_lyndon_cycles` yields each primitive cycle
    once, as its least rotation, so no rotation or power is tested twice.
    Cycles that fail the filter are counted and sampled in `excluded`, not
    included.  `min_witness` and `max_witness` attain the extreme rates;
    ties go to a positive product, then to the fewest edges, then to the
    least (start, edges), so the witnesses do not depend on the order of
    enumeration.

    With `inner=False` the walk enumeration (whose cost grows quickly with
    the budget on classes with many parallel edges) is skipped, no triple
    diagram is built, and only the outer interval and the extreme column
    sums are produced.
    """
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
    outer_lo = _certify(*_interval_div(_neg_log_interval(p_max, p_max), den1))
    outer_hi = _certify(*_interval_div(_neg_log_interval(p_min, p_min), den1))

    included: list[CycleWitness] = []
    excluded: list[tuple] = []
    excluded_count = 0
    if inner:
        if diagram is None:
            diagram = build_triple_diagram(structure, dec)
        essential = sorted(dec.essential)
        children = {fid: structure.children_of_full(fid) for fid in essential}
        by_centre: dict[int, list[int]] = {}
        for nid, key in enumerate(diagram.keys):
            by_centre.setdefault(key[1], []).append(nid)
        loose = Fraction(1, 10**9)
        for start in essential:
            for steps in _lyndon_cycles(children, start, cycle_budget):
                recs = [children[f] for f, _ in steps]
                if all(_step_is_leftmost(r, e) for r, (_, e) in zip(recs, steps)):
                    reason = "all_leftmost"
                elif all(_step_is_rightmost(r, e) for r, (_, e) in zip(recs, steps)):
                    reason = "all_rightmost"
                elif not _cycle_realizable(diagram, by_centre, steps):
                    reason = "flank_limit_not_essential"
                else:
                    reason = None
                if reason is not None:
                    excluded_count += 1
                    if len(excluded) < 50:
                        excluded.append((steps, reason))
                    continue
                edges = tuple(e for _, e in steps)
                product = table.cycle_matrix(start, edges)
                sp = spectral_radius(product, rel_tol=loose)
                num = _neg_log_interval(sp.certified_lo, sp.certified_hi)
                den = (len(edges) * den1[0], len(edges) * den1[1])
                included.append(
                    CycleWitness(
                        start,
                        edges,
                        _certify(*_interval_div(num, den)),
                        product.is_positive(),
                    )
                )

    if included:
        inner_lo = _certify(
            min(w.rate.lo for w in included), min(w.rate.hi for w in included)
        )
        inner_hi = _certify(
            max(w.rate.lo for w in included), max(w.rate.hi for w in included)
        )
        min_witness = min(
            included,
            key=lambda w: (w.rate.value, not w.positive, len(w.edges), w.start, w.edges),
        )
        max_witness = min(
            included,
            key=lambda w: (-w.rate.value, not w.positive, len(w.edges), w.start, w.edges),
        )
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
        len(included),
        tuple(excluded),
        excluded_count,
        cycle_budget,
    )


# -- slope estimates along arbitrary symbolic paths --------------------------


def _path_edges(path, depth: int) -> list[int]:
    if isinstance(path, PointLocation):
        live = [r for r in path.representations if r.alive]
        path = (live or path.representations)[0]
    if isinstance(path, Representation):
        if path.cycle is not None:
            start, period = path.cycle
            edges = list(path.edges[:start])
            cyc = list(path.edges[start : start + period])
            while len(edges) < depth:
                edges.extend(cyc)
            return edges[:depth]
        return list(path.edges)[:depth]
    if isinstance(path, PeriodicSpec):
        edges = list(path.prefix)
        while len(edges) < depth:
            edges.extend(path.cycle)
        return edges[:depth]
    return list(path)[:depth]


def local_dim_estimate(
    structure: FiniteTypeStructure,
    diagram: TripleDiagram,
    table: MatrixTable,
    path,
    depth: int,
) -> list[tuple[int, float]]:
    """Slope sequence log(mass around the path) / (n log rho), no limit claim.

    The mass surrogate at step n adds the path-product entry sums of the
    net interval and of whichever adjacent intervals exist at that level,
    following the triple diagram, so points on a shared endpoint pick up
    the mass on both sides automatically.
    """
    edges = _path_edges(path, depth)
    den_lo, den_hi = rho_log_enclosure(structure)
    ln_rho = -float((den_lo + den_hi) / 2)
    nid = diagram.root
    size = len(structure.neighbours_of_full(structure.root_full))
    centre_row = TransitionMatrix.identity(size)
    left_row = None
    right_row = None
    out = []
    for n, e in enumerate(edges, start=1):
        key = diagram.keys[nid]
        step = diagram.edges[nid][e]
        centre_rid = structure.reduced_of(key[1])

        def flank(rule, old_row, flank_fid):
            if rule[0] == "sibling":
                return centre_row * table.of_edge(centre_rid, rule[1])
            if rule[0] == "flank":
                return old_row * table.of_edge(
                    structure.reduced_of(flank_fid), rule[1]
                )
            return None

        new_left = flank(step.left_rule, left_row, key[0])
        new_right = flank(step.right_rule, right_row, key[2])
        centre_row = centre_row * table.of_edge(centre_rid, e)
        left_row, right_row, nid = new_left, new_right, step.child
        mass = centre_row.entry_sum()
        if left_row is not None:
            mass += left_row.entry_sum()
        if right_row is not None:
            mass += right_row.entry_sum()
        out.append((n, ln_fraction(mass) / (n * ln_rho)))
    return out


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
    Bernoulli bound ("family_bound", returned for that family) and the
    Cantor column-sum criterion ("column_sum_criterion": the first or last
    probability is below the smallest column sum) can also prove it.
    """
    dim = result.dimension
    isolated = dim.lo > bounds.outer_hi.hi or dim.hi < bounds.outer_lo.lo
    reason = "outside_outer" if isolated else None
    family_bound = None
    system = structure.system
    family = (system.family or {}) if x in (0, 1) else {}
    if family.get("name") == "bernoulli_simple_pisot":
        den_lo, den_hi = rho_log_enclosure(structure)
        ln_rho = -float((den_lo + den_hi) / 2)
        p = Fraction(family["p"])
        pr = p if x == 0 else 1 - p
        other = 1 - pr
        n_levels = 2 * int(family["k"])
        family_bound = ln_fraction(pr) / ln_rho + (
            ln_fraction(other) - ln_fraction(pr)
        ) / (2 * n_levels * ln_rho)
        if not isolated and dim.value > family_bound + 1e-12:
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
    den_lo, den_hi = rho_log_enclosure(structure)
    exponent = -ln_fraction(common) / float((den_lo + den_hi) / 2)
    matches = (
        hausdorff is not None
        and abs(exponent - hausdorff.dimension.value) < 1e-9
    )
    return ColumnSumReport(True, common, None, exponent, matches)


@dataclass(frozen=True)
class PisotResult:
    is_pisot: bool
    indeterminate: bool
    dominant_root: float | None
    conjugate_moduli: tuple[float, ...]
    reason: str | None


def pisot_check(minpoly: Sequence, tol: float = 1e-9) -> PisotResult:
    """Is the dominant root of this minimal polynomial a Pisot number?

    `minpoly` lists coefficients lowest degree first.  A Pisot number is a
    real algebraic integer q > 1 whose conjugates all have modulus < 1,
    so non-integer or non-monic input fails immediately and conjugates
    within `tol` of the unit circle flag the answer as indeterminate.
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
    roots = numpy.roots(list(reversed(ints)))
    order = sorted(roots, key=lambda z: abs(z), reverse=True)
    dominant, rest = order[0], order[1:]
    if abs(dominant.imag) > tol * (1 + abs(dominant)):
        return PisotResult(False, False, None, (), "dominant root is not real")
    q = float(dominant.real)
    moduli = tuple(float(abs(z)) for z in rest)
    if q <= 1 + tol:
        return PisotResult(False, False, q, moduli, "dominant root is not > 1")
    if any(1 - tol <= m <= 1 + tol for m in moduli):
        return PisotResult(
            False, True, q, moduli, "a conjugate sits too close to the unit circle"
        )
    if all(m < 1 - tol for m in moduli):
        return PisotResult(True, False, q, moduli, None)
    return PisotResult(False, False, q, moduli, "a conjugate has modulus >= 1")


def pisot_check_reciprocal(system, tol: float = 1e-9) -> PisotResult:
    """Pisot test for 1/rho, read off the reversed minimal polynomial of rho."""
    return pisot_check(tuple(reversed(system.context.minpoly_int)), tol)


def sanity_dim_in_interval(
    hausdorff: HausdorffResult, bounds: EssentialBounds
) -> bool:
    """The Hausdorff dimension must meet the certified outer interval."""
    dim = hausdorff.dimension
    return dim.hi >= bounds.outer_lo.lo and dim.lo <= bounds.outer_hi.hi


# -- aggregate report ---------------------------------------------------------


@dataclass(frozen=True)
class PointReport:
    label: str
    classification: str
    boundary: bool
    dimension: LocalDimensionResult | None


@dataclass(frozen=True)
class DimensionReport:
    decomposition: ClassDecomposition
    hausdorff: HausdorffResult
    bounds: EssentialBounds
    positive_rows: PositiveRowReport
    column_sums: ColumnSumReport
    pisot: PisotResult
    isolation: IsolationFindings
    points: tuple[PointReport, ...]
    sane: bool


def build_dimension_report(
    structure: FiniteTypeStructure,
    points: Sequence = (),
    cycle_budget: int = 8,
    depth: int = 60,
) -> DimensionReport:
    """One-stop aggregation of every quantitative output for a structure."""
    from .classes import classify_truly_essential

    dec = decompose(structure)
    table = MatrixTable(structure)
    diagram = build_triple_diagram(structure, dec)
    hausdorff = hausdorff_dimension(structure, dec)
    bounds = essential_interval_bounds(structure, dec, table, diagram, cycle_budget)
    rows = positive_row_check(structure, dec, table)
    sums = equal_column_sum_check(structure, dec, table, hausdorff)
    pisot = pisot_check_reciprocal(structure.system)
    isolation = isolated_point_scan(structure, dec, table, bounds, depth)

    reports = []
    for x in points:
        location = locate_point(structure, x, depth)
        classification = classify_truly_essential(diagram, location)
        try:
            result = local_dim_periodic(
                structure, table, PeriodicSpec.from_location(location)
            )
        except (NetStructureError, ValueError):
            result = None
        reports.append(
            PointReport(str(x), classification, location.boundary, result)
        )

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
        tuple(reports),
        sane,
    )
