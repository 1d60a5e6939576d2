"""Independent brute-force enumerations used as oracles in tests.

Everything here works directly from the maps S_j(x) = rho*x + d_j by
enumerating words, with no reference to the package's net-interval or
matrix machinery, so agreement is meaningful evidence of correctness.
The exceptions are `reference_subdivide`, the explorer's former all-pairs
subdivision loop, kept as the slow exact reference for the sorted sweep
that replaced it, with `reference_explore`, a memo-free breadth-first
exploration on it, the reference for the interned-id explorer, which
builds a `RecordTable`: the table held record by record, one `Record`
per child edge, as the package once held it;
`reference_letters`, the former per-record letter table,
kept as the reference for the letters `matrices.edge_matrix` derives, with
`with_letter_probabilities`, which reweights a structure so that each
matrix entry names its letter; `reference_edge_matrix`, the
pair-by-pair sums that `edge_matrix` once formed on every edge, kept as
the reference for the per-row tables of differences it takes when a row
has more columns than the system has translations;
`whole_triple_diagram`, the former whole-diagram build: every triple
expanded in id order, with the loop classes and the closed class found by
Tarjan over all of it, kept as the reference for the closed class that
`TripleDiagram.is_essential` reads off one forward closure;
`reference_cycle_limit`, the former (node, phase) trail of periodic point
classification, kept as the reference for `TripleDiagram.cycle_limit`;
`essential_not_truly_witness` with `side_chain_class`, a scan of a whole
triple diagram for a boundary point that is essential on one side only,
which checks the essential-but-not-truly taxonomy of the fixtures;
`reference_cycles`, the former all-rotations walk enumeration of the
inner bounds, kept as the reference for the Lyndon walks of
`dimension._cycle_batches`, both those it includes and the end-hugging
ones it excludes;
`reference_inner_bounds`, the former loop that certifies every included
cycle exactly, kept as the reference for the float screen of
`dimension.essential_interval_bounds`; `reference_screen`, the cycles
that screen keeps, found by scoring every batch first and filtering once
against the global extremes; `reference_eigvals_rows`, how many cycles
of each batch that screen sends to `numpy.linalg.eigvals`, followed one
cycle at a time over the batches of the pruned enumeration, the
reference for the equal column sums that score the others;
`reference_product`, the former
entry-by-entry `Fraction` matrix product, kept as the reference for the
integer multiply of `TransitionMatrix`; `reference_matrix_flags`, the
column sums and sign flags of a matrix read off its `Fraction` entries, the
reference for those `TransitionMatrix` reads off its integer form;
`reference_spectral_radius`, the former `spectral_radius` that made every
matrix into `Fraction` rows, found its blocks and took their column sums
on those, with the column-sum shortcut inside `_reference_cw_bounds`,
and made a point of the enclosure only when the block of greatest upper end
was exact and no other block reached above it, kept as the reference for
the integer-form block reduction of `spectral.spectral_radius` (it calls
the package's `_rational_dominant_root`, which `test_spectral.py` checks
against radii known by construction);
`reference_load`, a record-by-record reader of a version-6 cache payload
into a `RecordTable`: it unpacks each column with `unpack_columns`, a
digit-by-digit decode of its own, then applies the per-id checks and
`FieldElement`-keyed duplicate registries of the former row loader, kept
as the reference for the column checks of `cache._structure_from`;
`ReferenceField`, the former `Fraction` kernel of `field.FieldContext`:
its isolating interval, bisection, interval evaluation, signs and
approximations, kept as the reference for the integer-numerator kernel;
`ReferenceElement`, an element held as `Fraction` coordinates whose
products are reduced modulo the minimal polynomial by long division, the
reference for the integer numerators `field.FieldElement` stores;
`reference_essential_scan`, the column-sum range, first unequal sum and
zero-row edges of the essential class read off a fresh `edge_matrix` per
edge, one `Fraction` entry at a time, the reference for the one scan of
`dimension.essential_interval_bounds`; `reference_has_rational_root`, the
former divisor-pair rational-root test of `field`, kept as the slow
reference for its Sturm-bracket test; `reference_sturm_root_count`, the
former `Fraction` Sturm chain p, p', -rem, ... of `field` and its root
count, kept as the reference for the integer pseudo-remainder chain, with
`poly_value`, a `Fraction` Horner; `vectors_reaching`, a plain
search over the explored child records; and `closed_walks`, every
closed walk of a few edges, the inputs on which the batched products of
`dimension._StepTable` are checked against `MatrixTable.cycle_matrix`.
`padded_log_enclosure` and `padded_rho_log_enclosure` are the former
logarithms of `dimension`: a float `math.log` padded by 1e-12 relative,
and rho taken to an absolute 1e-18.  They were not rigorous, but they
held the truth on every system here, and every enclosure of the exact
logarithms must lie inside theirs.

The last section holds views of package objects that only tests read,
such as the layout a cache stores, the child edges of a vector as
`Record`s, the reduced child map, a path product, a rational element's
value and the float products of walks over a step table, kept here
rather than as members the package never calls.
"""

import copy
import json
import math
import string
from fractions import Fraction
from typing import NamedTuple

from ifsdim import dimension, spectral
from ifsdim.classes import TripleDiagram, strongly_connected_components
from ifsdim.field import FieldError
from ifsdim.matrices import TransitionMatrix, edge_matrix
from ifsdim.cache import CacheError
from ifsdim.net import DISPLAY_EPS
from ifsdim.spectral import spectral_radius


def cylinder_start_sets(system, n_max):
    """Per level m = 0..n_max, the distinct values {S_sigma(0) : |sigma| = m}.

    Uses S_{sigma e}(0) = S_sigma(0) + rho^m d_e and deduplicates exactly.
    """
    ctx = system.context
    starts = {ctx.zero.coeffs: ctx.zero}
    out = [list(starts.values())]
    power = ctx.one
    for _ in range(n_max):
        nxt = {}
        for s in starts.values():
            for d in system.translations:
                v = s + power * d
                nxt.setdefault(v.coeffs, v)
        starts = nxt
        power = power * system.rho
        out.append(list(starts.values()))
    return out


def endpoint_sets(system, n_max):
    """Per level, the sorted endpoint set {S_sigma(0), S_sigma(1)}."""
    start_sets = cylinder_start_sets(system, n_max)
    out = []
    power = system.context.one
    for starts in start_sets:
        endpoints = {s.coeffs: s for s in starts}
        for s in starts:
            e = s + power
            endpoints.setdefault(e.coeffs, e)
        out.append(sorted(endpoints.values()))
        power = power * system.rho
    return out


def brute_net_intervals(system, n, probe):
    """Level-n net intervals [(a, b), ...] by direct enumeration.

    A candidate interval between consecutive level-n endpoints is kept iff
    some endpoint of level n + probe lies strictly inside it.  Cylinder
    starts all belong to the attractor and every attractor point is a limit
    of them, so with a generous probe this converges to the true answer;
    endpoints are nested across levels (d_0 = 0 and d_m = 1 - rho fix both
    ends of every cylinder), so only the deepest set needs scanning.
    """
    sets = endpoint_sets(system, n + probe)
    level_n = sets[n]
    deepest = sets[n + probe]
    kept = []
    for a, b in zip(level_n, level_n[1:]):
        lo = _bisect_right(deepest, a)
        if lo < len(deepest) and (deepest[lo] - b).sign() < 0:
            kept.append((a, b))
    return kept


def _bisect_right(sorted_elems, x):
    lo, hi = 0, len(sorted_elems)
    while lo < hi:
        mid = (lo + hi) // 2
        if (sorted_elems[mid] - x).sign() <= 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def interval_mass(system, mass_map, left, neighbours, n):
    """Total word mass over the cylinders covering one net interval.

    The covering cylinders of a net interval with left endpoint `left` and
    neighbour offsets (a_i) start at left - rho^n * a_i.
    """
    power = system.context.one
    for _ in range(n):
        power = power * system.rho
    total = Fraction(0)
    for a_i in neighbours:
        entry = mass_map.get((left - power * a_i).coeffs)
        if entry is not None:
            total += entry[1]
    return total


def cylinder_mass(system, n):
    """dict coeffs -> (S_sigma(0), total probability of words landing there)."""
    ctx = system.context
    level = {ctx.zero.coeffs: (ctx.zero, Fraction(1))}
    power = ctx.one
    for _ in range(n):
        nxt = {}
        for start, mass in level.values():
            for j, d in enumerate(system.translations):
                v = start + power * d
                p = mass * system.probabilities[j]
                key = v.coeffs
                if key in nxt:
                    nxt[key] = (nxt[key][0], nxt[key][1] + p)
                else:
                    nxt[key] = (v, p)
        level = nxt
        power = power * system.rho
    return level


def matrix_power_entry_sum(rows, exponent):
    """Entry sum of the `exponent`-th power of a rational matrix, exactly.

    Plain list-of-lists arithmetic, independent of the matrix classes under
    test.  The 1/n-th root of this norm always sits at or above the
    spectral radius and squeezes down onto it along doubling exponents.
    """
    n = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    result = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    base = rows
    k = exponent
    while k:
        if k & 1:
            result = [
                [sum(result[i][t] * base[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        k >>= 1
        if k:
            base = [
                [sum(base[i][t] * base[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return sum(sum(row) for row in result)


def power_row_sum_ranges(rows, k_max):
    """[(min, max) row sum of rows^k for k = 1..k_max], exactly.

    For a nonnegative matrix these bracket sp(rows)^k, because sp(B^k) =
    sp(B)^k lies between the smallest and the largest row sum of B^k.
    """
    n = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    power = rows
    out = []
    for k in range(1, k_max + 1):
        if k > 1:
            power = [
                [sum(power[i][t] * rows[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        sums = [sum(row) for row in power]
        out.append((min(sums), max(sums)))
    return out


def reference_subdivide(system, length, neighbours):
    """[(u, v, child length, child neighbours)] of one subdivision, all pairs.

    Every start d - c is tested against every piece with two exact sign
    decisions, and every cut candidate against 0 and `length`.
    """
    rho = system.rho
    rho_inv = rho.inverse()
    zero = system.context.zero
    starts = {}
    for c in neighbours:
        for d in system.translations:
            s = d - c
            starts.setdefault(s.coeffs, s)
    cuts = {zero.coeffs: zero, length.coeffs: length}
    for s in starts.values():
        for cand in (s, s + rho):
            if cand.coeffs in cuts:
                continue
            if cand.sign() > 0 and (cand - length).sign() < 0:
                cuts[cand.coeffs] = cand
    ordered = sorted(cuts.values())
    pieces = []
    start_list = list(starts.values())
    for u, v in zip(ordered, ordered[1:]):
        ell_child = (v - u) * rho_inv
        lo = v - rho  # covering requires s in [v - rho, u]
        ws = {}
        covers = []
        for s in start_list:
            if (s - u).sign() <= 0 and (s - lo).sign() >= 0:
                w = (u - s) * rho_inv
                if w.coeffs not in ws:
                    ws[w.coeffs] = w
                    covers.append(w)
        pieces.append((u, v, ell_child, tuple(sorted(covers))))
    return pieces


class Record(NamedTuple):
    """One child edge of a net interval, in parent-normalized coordinates."""

    child: int  # full vector id
    offset: object  # left endpoint relative to the parent, a FieldElement
    edge_index: int  # position among the parent's children
    gap_before: bool  # an attractor-free stretch precedes this child
    abuts_left: bool
    abuts_right: bool


class Vector:
    """One reduced vector of a `RecordTable`; `children` is None until expanded."""

    def __init__(self, length, neighbours, level):
        self.length, self.neighbours, self.level = length, neighbours, level
        self.children = None


class RecordTable:
    """A net-interval table held record by record: `reduced` lists the
    `Vector`s and `fulls` the (reduced id, sibling index) pairs."""

    def __init__(self, system):
        self.system = system
        self.reduced, self.fulls = [], []
        self.root_full, self.saturated, self.levels_explored = -1, False, 0


def reference_explore(system, max_vectors=100000):
    """Breadth-first saturation with `reference_subdivide` and no memo.

    Vectors are keyed by their elements' coefficients and numbered in the
    order they are first met, as `net.explore` numbers them.  The result is
    a `RecordTable`, saturated unless the vector budget ran out first.
    """
    one, zero = system.context.one, system.context.zero
    structure = RecordTable(system)
    reduced_ids, full_ids = {}, {}

    def meets_attractor(length, neighbours):
        while neighbours:
            pieces = reference_subdivide(system, length, neighbours)
            if len(pieces) > 1:
                return True
            _, _, length, neighbours = pieces[0]
        return False

    def full(length, neighbours, level, sibling_index):
        key = (length.coeffs, tuple(c.coeffs for c in neighbours))
        if key not in reduced_ids:
            reduced_ids[key] = len(structure.reduced)
            structure.reduced.append(Vector(length, neighbours, level))
        key = (reduced_ids[key], sibling_index)
        if key not in full_ids:
            full_ids[key] = len(structure.fulls)
            structure.fulls.append(key)
        return full_ids[key]

    structure.root_full = full(one, (zero,), 0, 1)
    for vec in structure.reduced:  # grows while it is read
        pieces = reference_subdivide(system, vec.length, vec.neighbours)
        vec.children, gap, siblings = [], False, {}
        for index, (u, _, length, neighbours) in enumerate(pieces):
            if not neighbours or not meets_attractor(length, neighbours):
                gap = True
                continue
            siblings[length.coeffs] = siblings.get(length.coeffs, 0) + 1
            child = full(length, neighbours, vec.level + 1, siblings[length.coeffs])
            vec.children.append(Record(
                child, u, len(vec.children), gap, index == 0, index == len(pieces) - 1
            ))
            gap = False
        structure.levels_explored = vec.level + 1
        if len(structure.fulls) > max_vectors:
            return structure
    structure.saturated = True
    return structure


def reference_letters(system, parent_neighbours, offset, child_neighbours):
    """Letter j with d_j = offset + c - rho * a per (parent c, child a), else None."""
    rho = system.rho
    letter_of = {d.coeffs: j for j, d in enumerate(system.translations)}
    rows = []
    for c in parent_neighbours:
        base = offset + c
        row = []
        for a in child_neighbours:
            row.append(letter_of.get((base - rho * a).coeffs))
        rows.append(tuple(row))
    return tuple(rows)


def reference_edge_matrix(structure, rid, edge_index):
    """Entry (i, k) is the probability of the translation c_i + t_k, else 0,
    found by forming that sum for every pair (parent c_i, shift t_k)."""
    system = structure.system
    rec = reduced_records(structure, rid)[edge_index]
    prob_of = dict(zip(system.translations, system.probabilities))
    shifts = [rec.offset - system.rho * a for a in structure.neighbours_of_full(rec.child)]
    parents = structure.neighbours_of_reduced(rid)
    return TransitionMatrix([[prob_of.get(c + t, Fraction(0)) for t in shifts] for c in parents])


def with_letter_probabilities(structure):
    """(copy of `structure` with p_j = 2(j + 1) / ((m + 1)(m + 2)), letter of each p_j).

    The probabilities are distinct, so each nonzero entry of an edge matrix
    identifies its letter.
    """
    count = len(structure.system.translations)
    probs = tuple(Fraction(2 * (j + 1), count * (count + 1)) for j in range(count))
    return with_probabilities(structure, probs), {p: j for j, p in enumerate(probs)}


def with_probabilities(structure, probs):
    """A copy of `structure` whose system has the probabilities `probs`."""
    weighted = copy.copy(structure)
    weighted.system = structure.system._replace(probabilities=tuple(probs))
    return weighted


def expand_whole(diagram):
    """Expand every node of `diagram`, in id order, until no new node appears."""
    nid = 0
    while nid < diagram.node_count():
        diagram.out_edges(nid)
        nid += 1


class WholeTripleDiagram(TripleDiagram):
    """A wholly expanded triple diagram whose `is_essential` reads `essential`.

    `loop_classes` are the sorted components with a step inside them and
    `essential` is the one component closed under descent, both found by
    `whole_triple_diagram`.
    """

    loop_classes: list[list[int]]
    essential: set[int]

    def is_essential(self, nid):
        return nid in self.essential


def whole_triple_diagram(structure, dec):
    """The triple diagram, expanded whole, with its classes from Tarjan over
    every node rather than over one forward closure."""
    diagram = WholeTripleDiagram(structure, dec)
    expand_whole(diagram)
    edges = diagram.edges
    loop_classes, closed = [], []
    for comp in strongly_connected_components(diagram.node_count(), edges.__getitem__):
        members = set(comp)
        inside = [w in members for v in comp for w in edges[v]]
        if any(inside):
            loop_classes.append(comp)
        if all(inside):
            closed.append(members)
    assert len(closed) == 1, len(closed)
    diagram.loop_classes = sorted(loop_classes)
    diagram.essential = closed[0]
    return diagram


def reference_cycle_limit(diagram, node, cycle):
    """(truly essential, essential) of the limit of repeating `cycle` from `node`.

    Follows the triple walk one edge at a time until a (node, phase) state
    repeats; every node of the limit loop must be essential for the first
    answer, and every centre vector for the second.  `diagram` comes from
    `whole_triple_diagram`, whose `essential` is the closed triple class.
    """
    seen = {}
    trail = []
    phase = 0
    while (node, phase) not in seen:
        seen[(node, phase)] = len(trail)
        trail.append(node)
        node = diagram.edges[node][cycle[phase]]
        phase = (phase + 1) % len(cycle)
    limit = trail[seen[(node, phase)]:]
    essential = diagram.decomposition.essential
    return (
        all(n in diagram.essential for n in limit),
        all(diagram.keys[n][1] in essential for n in limit),
    )


def side_chain_class(structure, dec, fid, side):
    """Eventual class of the forced descent keeping a shared endpoint.

    side 'left' follows rightmost children (the intervals left of the
    point), side 'right' follows leftmost ones.  Returns 'essential',
    'non_essential', or 'empty' when the descent hits a gap and the side
    stops contributing intervals.
    """
    seen = set()
    cur = fid
    while cur not in seen:
        seen.add(cur)
        records = child_records(structure, cur)
        rec = records[-1] if side == "left" else records[0]
        ok = rec.abuts_right if side == "left" else rec.abuts_left
        if not ok:
            return "empty"
        cur = rec.child
    return "essential" if cur in dec.essential else "non_essential"


def essential_not_truly_witness(structure, dec):
    """An adjacent pair witnessing a boundary point that is essential on one
    side only, or None when no such configuration is reachable.

    Scans every triple of `whole_triple_diagram`."""
    cache: dict = {}

    def chain(fid, side):
        key = (fid, side)
        if key not in cache:
            cache[key] = side_chain_class(structure, dec, fid, side)
        return cache[key]

    pairs = set()
    for left, centre, right in whole_triple_diagram(structure, dec).keys:
        if left is not None:
            pairs.add((left, centre))
        if right is not None:
            pairs.add((centre, right))
    for a, b in sorted(pairs):
        kinds = {chain(a, "left"), chain(b, "right")}
        if "essential" in kinds and "non_essential" in kinds:
            return (a, b)
    return None


def reference_cycles(children, start, budget):
    """Least rotations of the primitive cycles whose least vector is `start`.

    Walks every closed walk from `start` of at most `budget` steps, drops
    the powers, and keeps each least rotation once, in the order first met.
    Steps are (vector, edge) pairs; `children` maps a vector to its records.
    """
    seen = set()
    stack = [(start, [])]
    while stack:
        fid, steps = stack.pop()
        for rec in children[fid]:
            nxt = steps + [(fid, rec.edge_index)]
            n = len(nxt)
            if rec.child == start and all(
                n % d or nxt[:d] * (n // d) != nxt for d in range(1, n)
            ):
                canon = min(tuple(nxt[r:] + nxt[:r]) for r in range(n))
                if canon[0][0] == start and canon not in seen:
                    seen.add(canon)
                    yield canon
            if n < budget:
                stack.append((rec.child, nxt))


def closed_walks(structure, starts, budget):
    """Every closed walk of 1 to `budget` edges from each full vector in
    `starts`, as (start, edges), powers and rotations included."""
    walks = []
    for start in starts:
        stack = [(start, ())]
        while stack:
            fid, edges = stack.pop()
            for rec in child_records(structure, fid):
                nxt = edges + (rec.edge_index,)
                if rec.child == start:
                    walks.append((start, nxt))
                if len(nxt) < budget:
                    stack.append((rec.child, nxt))
    return walks


def vectors_reaching(structure, targets):
    """The full vectors with a path of child edges into `targets`."""
    parents = {}
    for f in range(structure.full_count):
        for rec in child_records(structure, f):
            parents.setdefault(rec.child, []).append(f)
    found = set(targets)
    frontier = list(found)
    while frontier:
        for f in parents.get(frontier.pop(), ()):
            if f not in found:
                found.add(f)
                frontier.append(f)
    return found


def reference_product(a, b):
    """The product of two `TransitionMatrix`es, one `Fraction` at a time."""
    rows, cols = a.rows, list(zip(*b.rows))
    if len(rows[0]) != len(cols[0]):
        raise ValueError("shape mismatch")
    return TransitionMatrix(
        [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in rows]
    )


def reference_matrix_flags(rows):
    """(column sums, all entries positive, some row all zero) of rows of
    `Fraction`s, one entry at a time."""
    return (
        tuple(sum((row[j] for row in rows), Fraction(0)) for j in range(len(rows[0]))),
        all(x > 0 for row in rows for x in row),
        any(all(x == 0 for x in row) for row in rows),
    )


def _reference_column_sum_range(block):
    sums = [sum(row[j] for row in block) for j in range(len(block))]
    return min(sums), max(sums)


def _reference_cw_bounds(block, rel_tol, max_rounds):
    """`spectral._cw_bounds` as it was when it took the column sums itself."""
    n = len(block)
    lo, hi = _reference_column_sum_range(block)
    if lo == hi:
        # the all-ones row vector is a positive left eigenvector
        return lo, hi
    t = hi
    shifted = [
        tuple(block[i][j] + (t if i == j else 0) for j in range(n))
        for i in range(n)
    ]
    v = spectral._perron_seed(block) or [Fraction(1)] * n
    widths = []
    for _ in range(max_rounds):
        w = spectral._mat_vec(shifted, v)
        quotients = [w[i] / v[i] for i in range(n)]
        lo = max(lo, min(quotients) - t)
        hi = min(hi, max(quotients) - t)
        if hi - lo <= rel_tol * max(hi, Fraction(1, 10**30)):
            break
        top = max(w)
        last, v = v, spectral._round_positive([x / top for x in w])
        widths.append(hi - lo)
        if (
            len(widths) > spectral._STALL_ROUNDS
            and widths[-1] * spectral._STALL_FACTOR > widths[-1 - spectral._STALL_ROUNDS]
            and all(abs(x - y) <= rel_tol * x for x, y in zip(v, last))
        ):
            break
    return lo, hi


def reference_spectral_radius(
    matrix,
    rel_tol=spectral.DEFAULT_REL_TOL,
    max_rounds=500,
):
    """The certified spectral radius, found on the `Fraction` rows."""
    if not isinstance(matrix, TransitionMatrix):
        matrix = TransitionMatrix(matrix)
    n, width = matrix.shape
    if width != n:
        raise ValueError("spectral radius needs a square matrix")
    rows = matrix.rows
    succ = [[j for j in range(n) if rows[i][j] > 0] for i in range(n)]
    blocks = []
    for comp in strongly_connected_components(n, lambda v: succ[v]):
        if len(comp) == 1 and rows[comp[0]][comp[0]] == 0:
            blocks.append((Fraction(0), Fraction(0), Fraction(0)))
            continue
        sub = [tuple(rows[i][j] for j in comp) for i in comp]
        lo, hi = _reference_cw_bounds(sub, rel_tol, max_rounds)
        exact = None
        if lo == hi:
            exact = lo
        else:
            exact = spectral._rational_dominant_root(sub, lo, hi)
            if exact is not None:
                lo = hi = exact
        blocks.append((lo, hi, exact))
    lo = max(b[0] for b in blocks)
    hi = max(b[1] for b in blocks)
    exact = None
    dominant = max(blocks, key=lambda b: b[1])
    if dominant[2] is not None and all(
        b[1] <= dominant[2] for b in blocks if b is not dominant
    ):
        exact = dominant[2]
        lo = hi = exact
    return spectral.SpectralResult(spectral.safe_float((lo + hi) / 2), lo, hi)


def reference_essential_scan(structure, dec):
    """(p_min, p_max, first unequal sum, zero-row edges) of the essential class.

    Every (reduced id, edge index) pair of the class, in order, gets a fresh
    `edge_matrix`, whose `Fraction` entries `reference_matrix_flags` sums.
    The first unequal sum is (rid, edge index, sum, the very first sum) of
    the first column sum unlike the very first one, or None.
    """
    sums, unequal, zero_rows = [], None, []
    for rid in dec.essential_reduced:
        for e in range(len(structure.edges_of_reduced(rid))):
            columns, _, zero_row = reference_matrix_flags(edge_matrix(structure, rid, e).rows)
            if zero_row:
                zero_rows.append((rid, e))
            for total in columns:
                sums.append(total)
                if unequal is None and total != sums[0]:
                    unequal = (rid, e, total, sums[0])
    return min(sums), max(sums), unequal, tuple(zero_rows)


def padded_log_enclosure(q):
    """ln q from the float `math.log`, padded by 1e-12 relative plus about
    1e-15 per bit of q."""
    q = Fraction(q)
    if q == 1:
        return Fraction(0), Fraction(0)
    v = math.log(q.numerator) - math.log(q.denominator)
    scale = q.numerator.bit_length() + q.denominator.bit_length()
    pad = abs(v) * 1e-12 + scale * 1e-15 + 1e-15
    return Fraction(v - pad), Fraction(v + pad)


def padded_rho_log_enclosure(structure):
    """|ln rho| from `padded_log_enclosure` at rho -+ 1e-18."""
    eps = Fraction(1, 10**18)
    a = structure.system.context.rho.approx(eps)
    _, top = padded_log_enclosure(a + eps)
    bot, _ = padded_log_enclosure(a - eps)
    return -top, -bot


def reference_inner_bounds(structure, dec, table, budget):
    """Inner bounds with an exact rate for every included cycle, no screen.

    A cycle is excluded when every step's child record is the first child
    and abuts the left end ("all_leftmost"), or every one is the last and
    abuts the right end ("all_rightmost"), or when no triple over its
    start vector repeats it to a truly essential limit, walked state by
    state with `reference_cycle_limit` ("flank_limit_not_essential").  The
    last test never fires on an essential cycle; keeping it here shows
    that `essential_interval_bounds` loses nothing by leaving it out.

    Each cycle's product is formed with `reference_product` from the edge
    matrices that `table` hands out (`of_full_edge`, so a test may patch
    one), with no prefix reuse and no shared certificate between cycles.

    Returns the fields of `EssentialBounds` that the screen could change:
    `inner_lo`, `inner_hi`, `cycle_count`, `excluded`, `excluded_count`,
    `min_witness` and `max_witness`, the witnesses chosen by the rule of
    `essential_interval_bounds` among all included cycles.
    """
    den = dimension.rho_log_enclosure(structure)
    diagram = whole_triple_diagram(structure, dec)
    essential = sorted(dec.essential)
    children = {fid: child_records(structure, fid) for fid in essential}
    record = {(f, r.edge_index): r for f in essential for r in children[f]}
    last = {f: max(r.edge_index for r in children[f]) for f in essential}
    by_centre = {}
    for nid, key in enumerate(diagram.keys):
        by_centre.setdefault(key[1], []).append(nid)
    included, excluded = [], []
    for start in essential:
        for steps in reference_cycles(children, start, budget):
            recs = [record[step] for step in steps]
            edges = tuple(e for _, e in steps)
            if all(r.edge_index == 0 and r.abuts_left for r in recs):
                reason = "all_leftmost"
            elif all(
                r.edge_index == last[f] and r.abuts_right for r, (f, _) in zip(recs, steps)
            ):
                reason = "all_rightmost"
            elif not any(
                reference_cycle_limit(diagram, nid, edges)[0]
                for nid in by_centre.get(start, ())
            ):
                reason = "flank_limit_not_essential"
            else:
                reason = None
            if reason is not None:
                excluded.append((steps, reason))
                continue
            product = table.of_full_edge(*steps[0])
            for fid, e in steps[1:]:
                product = reference_product(product, table.of_full_edge(fid, e))
            sp = spectral_radius(product, rel_tol=Fraction(1, 10**9))
            rate = dimension._rate(sp.certified_lo, sp.certified_hi, len(edges), den)
            included.append(
                dimension.CycleWitness(start, edges, rate, product.is_positive())
            )
    out = {
        "cycle_count": len(included),
        "excluded": tuple(sorted(excluded)[:10]),
        "excluded_count": len(excluded),
        "inner_lo": None,
        "inner_hi": None,
        "min_witness": None,
        "max_witness": None,
    }
    if not included:
        return out
    lo_lo = min(w.rate.lo for w in included)
    lo_hi = min(w.rate.hi for w in included)
    hi_lo = max(w.rate.lo for w in included)
    hi_hi = max(w.rate.hi for w in included)

    def witness(ties):
        return min(ties, key=lambda w: (not w.positive, len(w.edges), w.start, w.edges))

    out.update(
        inner_lo=dimension._certify(lo_lo, lo_hi),
        inner_hi=dimension._certify(hi_lo, hi_hi),
        min_witness=witness([w for w in included if w.rate.lo <= lo_hi]),
        max_witness=witness([w for w in included if w.rate.hi >= hi_lo]),
    )
    return out


def reference_screen(structure, dec, table, budget):
    """The step-code rows, as tuples, of the cycles that the float screen
    of `essential_interval_bounds` sends to be certified.

    The cycles of every batch of `dimension._cycle_batches` that hug
    neither end are scored with `dimension._chunk_scores` plus the step
    table's `shift` before any is filtered, so the floats are the
    package's own; the rows kept are those whose score is not finite or
    lies within the relative `_SCREEN_MARGIN` of the least or greatest
    finite score of all batches.
    """
    steps = dimension._StepTable(structure, dec.essential, table)
    scored = []
    for codes, products, hug in dimension._cycle_batches(steps, budget):
        codes, products = codes[hug == 0], products[hug == 0]
        scores = dimension._chunk_scores(products, codes.shape[1]) + steps.shift
        scored.append((scores, codes))
    finite = [x for g, _ in scored for x in g.tolist() if math.isfinite(x)]
    g_lo, g_hi = min(finite, default=math.inf), max(finite, default=-math.inf)
    margin = dimension._SCREEN_MARGIN
    return {
        tuple(row)
        for g, codes in scored
        for x, row in zip(g.tolist(), codes.tolist())
        if not math.isfinite(x)
        or x <= g_lo + margin * abs(g_lo)
        or x >= g_hi - margin * abs(g_hi)
    }


def reference_eigvals_rows(structure, dec, table, budget):
    """How many cycles of each batch of `dimension._cycle_batches` the float
    screen of `essential_interval_bounds` sends to `numpy.linalg.eigvals`,
    followed one cycle at a time in plain Python; a list with one count
    per batch that holds a cycle hugging neither end.

    A batch's cycles that hug neither end are each scored ln sp / n plus
    the step table's `shift` by `eigvals` on its product alone.  A cycle
    is sent unless its column sums are equal and positive.
    The batches are those of the enumeration that `essential_interval_bounds`
    runs: pruned against the extremes of the batches before it when the
    class has more cycles than one batch holds.
    Call it before `eigvals` is patched: it calls `eigvals` too.
    """
    import numpy

    ends = [math.inf, -math.inf]
    counts = []
    steps = dimension._StepTable(structure, dec.essential, table)
    pruned = steps.necklaces(budget) > steps.batch
    extremes = (lambda: tuple(ends)) if pruned else None
    for codes, products, hug in dimension._cycle_batches(steps, budget, extremes):
        if not (hug == 0).any():
            continue
        n, sent, scores = codes.shape[1], 0, []
        for m in products[hug == 0].tolist():
            col_sums = [sum(col) for col in zip(*m)]
            sent += not (min(col_sums) > 0 and min(col_sums) == max(col_sums))
            radius = max(abs(z) for z in numpy.linalg.eigvals(numpy.array(m)))
            if radius > 0:
                scores.append(math.log(radius) / n + steps.shift)
        counts.append(sent)
        ends[:] = min([ends[0], *scores]), max([ends[1], *scores])
    return counts


def reference_load(payload, system):
    """The structure a version-6 cache payload describes, its columns
    unpacked by `unpack_columns` and read record by record with a check on
    each id where it is read, as the row loader of version 4 did;
    CacheError for anything malformed."""
    try:
        return _reference_load(unpack_columns(payload), system)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CacheError(f"malformed cache: {exc!r}") from exc


def _reference_load(payload, system):
    def index(value, size):
        if type(value) is not int or not 0 <= value < size:
            raise CacheError(f"id out of range: {value!r}")
        return value

    def column(name, size):
        col = payload[name]
        if type(col) is not list or size is not None and len(col) != size:
            raise CacheError(f"column {name} is not a list of {size} entries")
        return col

    ctx = system.context
    elements = []
    for raw in payload["elements"]:
        if type(raw) is not list or len(raw) != ctx.degree:
            raise CacheError(f"coefficients are not a list of {ctx.degree}: {raw!r}")
        if not all(type(c) is str for c in raw):
            raise CacheError(f"coefficients are not strings: {raw!r}")
        coeffs = [Fraction(c) for c in raw]
        if [str(c) for c in coeffs] != raw:
            raise CacheError(f"coefficients are not written as reduced fractions: {raw!r}")
        elements.append(ctx.element(coeffs))
    lengths = column("length", None)
    count = len(lengths)
    levels, neighbour_counts, child_counts = (
        column(name, count) for name in ("level", "neighbour_count", "child_count")
    )
    neighbour_ids = column("neighbours", None)
    full_reduced = column("full_reduced", None)
    siblings = column("sibling", len(full_reduced))
    edge_columns = [
        column(name, None)
        for name in ("child", "offset", "gap_before", "abuts_left", "abuts_right")
    ]
    structure = RecordTable(system)
    seen = {}
    at = 0
    for length, level, n in zip(lengths, levels, neighbour_counts):
        if type(level) is not int or type(n) is not int or n < 0:
            raise CacheError("vector level or neighbour count is not an integer")
        neighbours = tuple(
            elements[index(v, len(elements))] for v in neighbour_ids[at : at + n]
        )
        if len(neighbours) != n:
            raise CacheError("neighbour counts exceed the neighbour list")
        at += n
        key = (elements[index(length, len(elements))], neighbours)
        if key in seen:
            raise CacheError("duplicate reduced vector")
        seen[key] = len(structure.reduced)
        structure.reduced.append(Vector(key[0], neighbours, level))
    if at != len(neighbour_ids):
        raise CacheError("neighbour counts fall short of the neighbour list")
    seen = {}
    for rid, sibling in zip(full_reduced, siblings):
        if type(sibling) is not int:
            raise CacheError("sibling index is not an integer")
        key = (index(rid, count), sibling)
        if key in seen:
            raise CacheError("duplicate full vector")
        seen[key] = len(structure.fulls)
        structure.fulls.append(key)
    at = 0
    for vec, n in zip(structure.reduced, child_counts):
        if type(n) is not int or n < 1:
            raise CacheError("a vector has no child records")
        vec.children = []
        for edge_index in range(n):
            child, offset, *flags = (col[at] for col in edge_columns)
            if not all(type(flag) is bool for flag in flags):
                raise CacheError("child flags are not booleans")
            child = index(child, len(structure.fulls))
            offset = elements[index(offset, len(elements))]
            vec.children.append(Record(child, offset, edge_index, *flags))
            at += 1
    if any(len(col) != at for col in edge_columns):
        raise CacheError("child counts do not match the child columns")
    structure.root_full = index(payload["root_full"], len(structure.fulls))
    if payload["saturated"] is not True:
        raise CacheError("structure is not saturated")
    if type(payload["levels_explored"]) is not int:
        raise CacheError("explored depth is not an integer")
    structure.saturated = True
    structure.levels_explored = payload["levels_explored"]
    return structure


def _int_divisors(n):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            out.append(n // i)
        i += 1
    return sorted(set(out))


def reference_has_rational_root(int_coeffs):
    """Whether the integer polynomial has a root +-a/b with a | the constant
    and b | the leading coefficient, trying every such pair; the divisors are
    found by trial division, so the time grows with the root of the
    coefficients."""
    coeffs = [Fraction(c) for c in int_coeffs]
    for num in _int_divisors(int_coeffs[0]):
        for den in _int_divisors(int_coeffs[-1]):
            for sign in (1, -1):
                x = Fraction(sign * num, den)
                if sum(c * x**i for i, c in enumerate(coeffs)) == 0:
                    return True
    return False


def poly_value(coeffs, x):
    """The value at x of the polynomial listed lowest degree first, by
    Horner's rule in `Fraction`s."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(p, q):
    """The remainder of p by q, by long division in `Fraction`s."""
    rem, dq = [Fraction(c) for c in p], len(q) - 1
    for i in range(len(rem) - 1, dq - 1, -1):
        f = rem[i] / q[-1]
        if f:
            for j in range(dq + 1):
                rem[i - dq + j] -= f * q[j]
    return _trim(rem[:dq])


def reference_sturm_chain(coeffs):
    """The Sturm sequence p, p', -rem(p, p'), ... of p, in `Fraction`s."""
    p = _trim(Fraction(c) for c in coeffs)
    chain = [p, _trim([i * c for i, c in enumerate(p)][1:])]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def reference_sturm_root_count(coeffs, lo, hi):
    """The distinct real roots of p in (lo, hi), ends not roots: the sign
    changes of its `Fraction` Sturm chain at lo less those at hi."""

    def changes(x):
        signs = [v > 0 for v in (poly_value(f, x) for f in chain) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    chain = reference_sturm_chain(coeffs)
    return changes(lo) - changes(hi)


class ReferenceField:
    """Signs and approximations in Q(rho), computed entirely in `Fraction`s.

    It holds an isolating interval of its own, starting from the one `ctx`
    holds now, and halves it as the package's kernel once did: the interval
    it holds after each call is the one `ctx` must hold after the same call.
    """

    def __init__(self, ctx):
        self._minpoly = ctx.minpoly_int
        self.lo, self.hi = ctx.interval()
        self._sign_lo = 1 if self._eval(self.lo) > 0 else -1

    def _eval(self, x):
        return poly_value(self._minpoly, x)

    def interval(self):
        return self.lo, self.hi

    def _bisect(self):
        mid = (self.lo + self.hi) / 2
        if (1 if self._eval(mid) > 0 else -1) == self._sign_lo:
            self.lo = mid
        else:
            self.hi = mid

    def _interval_eval(self, coeffs):
        plo = phi = Fraction(1)
        tot_lo = tot_hi = Fraction(0)
        for i, c in enumerate(coeffs):
            if i:
                plo *= self.lo
                phi *= self.hi
            if c > 0:
                tot_lo += c * plo
                tot_hi += c * phi
            elif c < 0:
                tot_lo += c * phi
                tot_hi += c * plo
        return tot_lo, tot_hi

    def sign_of(self, coeffs):
        if all(c == 0 for c in coeffs):
            return 0
        while True:
            lo, hi = self._interval_eval(coeffs)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._bisect()

    def approx(self, coeffs, eps):
        while True:
            lo, hi = self._interval_eval(coeffs)
            if hi - lo < eps:
                return (lo + hi) / 2
            self._bisect()


class ReferenceElement:
    """An element of Q(rho) as a tuple of `Fraction` coordinates.

    Sums and differences go coordinate by coordinate; a product is the
    `Fraction` polynomial product reduced modulo the minimal polynomial by
    long division, and an inverse solves the linear system of
    multiplication by the element by Gaussian elimination.  It shares no
    code with `field.FieldElement`, whose integer numerators it checks.
    """

    def __init__(self, minpoly_int, coeffs):
        self.minpoly = tuple(Fraction(c) for c in minpoly_int)
        self.coeffs = self._mod([Fraction(c) for c in coeffs])

    def _mod(self, p):
        m = self.minpoly
        d = len(m) - 1
        p = list(p) + [Fraction(0)] * max(0, d - len(p))
        for i in range(len(p) - 1, d - 1, -1):
            f = p[i] / m[d]
            for j in range(d + 1):
                p[i - d + j] -= f * m[j]
        return tuple(p[:d])

    def _new(self, coeffs):
        return ReferenceElement(self.minpoly, coeffs)

    def __add__(self, other):
        return self._new([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self._new([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        prod = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return self._new(prod)

    def inverse(self):
        d = len(self.coeffs)
        basis = [self._new([0] * j + [1]) for j in range(d)]
        # column j holds the coordinates of self * rho^j; solve for the unit
        cols = [(self * e).coeffs for e in basis]
        rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
        for c in range(d):
            pivot = next(r for r in range(c, d) if rows[r][c] != 0)
            rows[c], rows[pivot] = rows[pivot], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(d):
                if r != c and rows[r][c] != 0:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return self._new([row[d] for row in rows])

    def __eq__(self, other):
        return self.coeffs == other.coeffs


# -- packed columns of version-6 cache payloads --------------------------------

INT_COLUMNS = (
    "length", "level", "neighbour_count", "neighbours", "child_count", "child", "offset",
    "full_reduced", "sibling",
)
FLAG_COLUMNS = ("gap_before", "abuts_left", "abuts_right")
_INT32 = range(-(2**31), 2**31)


def _unpack(name, text):
    width = 1 if name in FLAG_COLUMNS else 4
    if type(text) is not str or len(text) % (2 * width) or set(text) - set(string.hexdigits):
        raise CacheError(f"column {name} is not {width}-byte values in hex")
    raw = bytes(int(text[i : i + 2], 16) for i in range(0, len(text), 2))
    if width == 1:
        if set(raw) - {0, 1}:
            raise CacheError(f"column {name} holds a flag byte that is not 0 or 1")
        return [b == 1 for b in raw]
    return [int.from_bytes(raw[i : i + 4], "little", signed=True) for i in range(0, len(raw), 4)]


def unpack_columns(payload):
    """A copy of `payload` with each packed column as the list of its values,
    ints or, for the flags, bools: the version-5 form of the columns.
    CacheError for a column that is not packed as `save_structure` packs it,
    KeyError for a missing one."""
    columns = {name: _unpack(name, payload[name]) for name in INT_COLUMNS + FLAG_COLUMNS}
    return dict(payload, **columns)


def _pack(name, col):
    if type(col) is list and name in FLAG_COLUMNS and all(type(v) is bool for v in col):
        return bytes(col).hex()
    if type(col) is list and name in INT_COLUMNS and all(
        type(v) is int and v in _INT32 for v in col
    ):
        return b"".join(v.to_bytes(4, "little", signed=True) for v in col).hex()
    return col


def pack_columns(payload):
    """A copy of `payload` with each column list packed as `save_structure`
    packs it: int32 little-endian in hex, or a 0 or 1 byte per flag.

    A column that holds a value packing cannot write (a bool, float, string
    or None among the ints, anything but a bool among the flags, an int
    outside int32), or that is not a list, is kept as it is, so a spoiled
    column stays in the file as the version-5 list a loader must reject.
    A missing column stays missing."""
    columns = {
        name: _pack(name, payload[name])
        for name in INT_COLUMNS + FLAG_COLUMNS
        if name in payload
    }
    return dict(payload, **columns)


def read_unpacked(path):
    """The cache file at `path` (a `pathlib.Path`), its columns unpacked."""
    return unpack_columns(json.loads(path.read_text(encoding="utf-8")))


def write_packed(path, payload):
    """Write `payload` to `path` with its columns packed by `pack_columns`."""
    path.write_text(json.dumps(pack_columns(payload)), encoding="utf-8")


# -- edits of unpacked cache payloads ------------------------------------------

REDUCED_COLUMNS = ("length", "level", "neighbour_count", "child_count")
EDGE_COLUMNS = ("child", "offset", "gap_before", "abuts_left", "abuts_right")
FULL_COLUMNS = ("full_reduced", "sibling")


def _span(counts, rid):
    start = sum(counts[:rid])
    return start, start + counts[rid]


def drop_children(payload, rid):
    """Remove every child record of reduced vector `rid`, counts kept in step."""
    a, b = _span(payload["child_count"], rid)
    for name in EDGE_COLUMNS:
        del payload[name][a:b]
    payload["child_count"][rid] = 0


def append_vector_copy(payload, rid, fresh_elements=False):
    """Append a copy of reduced vector `rid`, with its neighbours and child
    records; with `fresh_elements`, its element ids point at new copies of
    the element-table entries, so only the elements' values repeat."""

    def ref(i):
        if not fresh_elements:
            return i
        payload["elements"].append(list(payload["elements"][i]))
        return len(payload["elements"]) - 1

    a, b = _span(payload["neighbour_count"], rid)
    payload["neighbours"] += [ref(v) for v in payload["neighbours"][a:b]]
    a, b = _span(payload["child_count"], rid)
    for name in EDGE_COLUMNS:
        rows = payload[name][a:b]
        payload[name] += [ref(v) for v in rows] if name == "offset" else rows
    for name in REDUCED_COLUMNS:
        payload[name].append(payload[name][rid])
    payload["length"][-1] = ref(payload["length"][rid])


# -- views of package objects that only tests read ---------------------------


def reduced_records(structure, rid):
    """The child edges of reduced vector `rid` as `Record`s, left to right."""
    s = structure
    span = s.edges_of_reduced(rid)
    return [
        Record(
            s.child[e], s.elements[s.offset[e]], e - span.start,
            s.gap_before[e], s.abuts_left[e], s.abuts_right[e],
        )
        for e in span
    ]


def child_records(structure, fid):
    """The child edges of full vector `fid` as `Record`s, left to right."""
    return reduced_records(structure, structure.reduced_of(fid))


def structure_layout(structure):
    """Everything a cache stores, as its columns, of a package structure or a
    `RecordTable`.

    Element ids are numbered in the order the length, neighbours and
    offset columns first use their values, and `elements` lists the values
    as coefficient tuples, so equal layouts mean the same vectors, ids,
    levels, offsets and flags.  Counts cover the expanded vectors.
    """
    if isinstance(structure, RecordTable):
        reduced = structure.reduced
        expanded = [v.children for v in reduced if v.children is not None]
        edges = [r for children in expanded for r in children]
        values = {
            "length": [v.length for v in reduced],
            "neighbours": [n for v in reduced for n in v.neighbours],
            "offset": [r.offset for r in edges],
        }
        out = {
            "level": [v.level for v in reduced],
            "neighbour_count": [len(v.neighbours) for v in reduced],
            "child_count": [len(children) for children in expanded],
            "child": [r.child for r in edges],
            "gap_before": [r.gap_before for r in edges],
            "abuts_left": [r.abuts_left for r in edges],
            "abuts_right": [r.abuts_right for r in edges],
            "full_reduced": [f[0] for f in structure.fulls],
            "sibling": [f[1] for f in structure.fulls],
        }
    else:
        s = structure
        values = {
            name: [s.elements[v] for v in getattr(s, name)]
            for name in ("length", "neighbours", "offset")
        }
        counts = lambda starts: [b - a for a, b in zip(starts, starts[1:])]
        out = {
            "level": list(s.level),
            "neighbour_count": counts(s.neighbour_start),
            "child_count": counts(s.edge_start),
            "child": list(s.child),
            "gap_before": list(s.gap_before),
            "abuts_left": list(s.abuts_left),
            "abuts_right": list(s.abuts_right),
            "full_reduced": list(s.full_reduced),
            "sibling": list(s.sibling),
        }
    table = {}
    for name, column in values.items():
        out[name] = [table.setdefault(tuple(v.coeffs), len(table)) for v in column]
    out.update(
        elements=list(table),
        root_full=structure.root_full,
        saturated=structure.saturated,
        levels_explored=structure.levels_explored,
    )
    return out


def reduced_child_map(structure):
    """Per reduced vector, the reduced ids of its children, left to right."""
    s = structure
    return [
        [s.full_reduced[s.child[e]] for e in s.edges_of_reduced(rid)]
        for rid in range(s.reduced_count)
    ]


def reduced_signature(structure, rid):
    """Approximate (length, neighbours) of a reduced vector, exact when rational."""
    return (
        structure.elements[structure.length[rid]].approx(DISPLAY_EPS),
        tuple(v.approx(DISPLAY_EPS) for v in structure.neighbours_of_reduced(rid)),
    )


def reduced_pattern(diagram, nid):
    """(left, centre, right) of a triple-diagram node as reduced ids, None marking a gap."""
    take = lambda f: None if f is None else diagram.structure.reduced_of(f)
    return tuple(take(f) for f in diagram.keys[nid])


def as_rational(element):
    """The value of a rational field element as a `Fraction`."""
    if not element.is_rational():
        raise FieldError("element is irrational")
    return element.coeffs[0]


def refine_interval(ctx, width):
    """Shrink the isolating interval of `ctx` below `width` and return it."""
    lo, hi = ctx.interval()
    while ctx.degree > 1 and hi - lo > width:
        ctx._bisect()
        lo, hi = ctx.interval()
    return lo, hi


def apply_map(system, letter, point):
    """S_letter(point) = rho * point + d_letter."""
    return system.rho * point + system.translations[letter]


def entry_sum(matrix):
    """The sum of the entries of a `TransitionMatrix`."""
    return sum(x for row in matrix.rows for x in row)


def identity_matrix(n):
    """The n x n identity `TransitionMatrix`."""
    return TransitionMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def path_matrix(table, edges):
    """Product of the matrices of a `MatrixTable` along a root path of edge choices."""
    structure = table.structure
    fid = structure.root_full
    out = None
    for e in edges:
        m = table.of_full_edge(fid, e)
        out = m if out is None else out * m
        fid = child_records(structure, fid)[e].child
    if out is None:
        return identity_matrix(len(structure.neighbours_of_full(fid)))
    return out


def float_products(steps, codes):
    """The (N, k, k) float products of the closed walks of step `codes`, an
    (N, n) array of walks from starts of one neighbour count k, multiplied
    from the identity left to right over the `floats` of the `_StepTable`
    `steps`, as `dimension._cycle_batches` forms them."""
    import numpy

    k = int(steps.size[steps.src[codes[0, 0]]])
    products = numpy.eye(k, steps.width)[None].repeat(len(codes), axis=0)
    for j in range(codes.shape[1]):
        products = numpy.matmul(products, steps.floats[codes[:, j]])
    return products[:, :, :k]
