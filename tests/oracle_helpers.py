"""Independent brute-force enumerations used as oracles in tests.

Everything here works directly from the maps S_j(x) = rho*x + d_j by
enumerating words, with no reference to the package's net-interval or
matrix machinery, so agreement is meaningful evidence of correctness.
The exceptions are `reference_subdivide`, the explorer's former all-pairs
subdivision loop, kept as the slow exact reference for the sorted sweep
that replaced it; `reference_letters`, the former per-record letter table,
kept as the reference for the letters `matrices.edge_matrix` derives, with
`with_letter_probabilities`, which reweights a structure so that each
matrix entry names its letter; `reference_edge_matrix`, the
pair-by-pair sums that `edge_matrix` once formed on every edge, kept as
the reference for the per-row tables of differences it takes when a row
has more columns than the system has translations;
`reference_cycle_limit`, the former (node, phase) trail of periodic point
classification, kept as the reference for `TripleDiagram.cycle_limit`;
`essential_not_truly_witness` with `side_chain_class`, a scan of a whole
triple diagram for a boundary point that is essential on one side only,
which checks the essential-but-not-truly taxonomy of the fixtures;
`reference_cycles`, the former all-rotations walk enumeration of the
inner bounds, kept as the reference for `dimension._lyndon_cycles` and
`dimension._included_cycle_batches`;
`reference_inner_bounds`, the former loop that certifies every included
cycle exactly, kept as the reference for the float screen of
`dimension.essential_interval_bounds`; `reference_product`, the former
entry-by-entry `Fraction` matrix product, kept as the reference for the
integer multiply of `TransitionMatrix`; `vectors_reaching`, a plain
search over the explored child records; and `closed_walks`, every
closed walk of a few edges, the inputs on which
`MatrixTable.cycle_matrices` is checked against `cycle_matrix`.
"""

import copy
import dataclasses
from fractions import Fraction

from ifsdim import dimension
from ifsdim.classes import build_triple_diagram
from ifsdim.matrices import TransitionMatrix
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
    rec = structure.children_of_reduced(rid)[edge_index]
    prob_of = dict(zip(system.translations, system.probabilities))
    shifts = [rec.offset - system.rho * a for a in structure.neighbours_of_full(rec.child)]
    return TransitionMatrix(
        [[prob_of.get(c + t, Fraction(0)) for t in shifts] for c in structure.reduced[rid].neighbours]
    )


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
    weighted.system = dataclasses.replace(structure.system, probabilities=tuple(probs))
    return weighted


def reference_cycle_limit(diagram, node, cycle):
    """(truly essential, essential) of the limit of repeating `cycle` from `node`.

    Follows the triple walk one edge at a time until a (node, phase) state
    repeats; every node of the limit loop must be essential for the first
    answer, and every centre vector for the second.
    """
    seen = {}
    trail = []
    phase = 0
    while (node, phase) not in seen:
        seen[(node, phase)] = len(trail)
        trail.append(node)
        node = diagram.edges[node][cycle[phase]].child
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
        records = structure.children_of_full(cur)
        rec = records[-1] if side == "left" else records[0]
        ok = rec.abuts_right if side == "left" else rec.abuts_left
        if not ok:
            return "empty"
        cur = rec.child
    return "essential" if cur in dec.essential else "non_essential"


def essential_not_truly_witness(diagram):
    """An adjacent pair witnessing a boundary point that is essential on one
    side only, or None when no such configuration is reachable.

    Reads the nodes `diagram` holds, so pass a fully expanded one."""
    structure = diagram.structure
    dec = diagram.decomposition
    cache: dict = {}

    def chain(fid, side):
        key = (fid, side)
        if key not in cache:
            cache[key] = side_chain_class(structure, dec, fid, side)
        return cache[key]

    pairs = set()
    for left, centre, right in diagram.keys:
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
            for rec in structure.children_of_full(fid):
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
        for rec in structure.children_of_full(f):
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
    diagram = build_triple_diagram(structure, dec)
    essential = sorted(dec.essential)
    children = {fid: structure.children_of_full(fid) for fid in essential}
    record = {(f, r.edge_index): r for f in essential for r in children[f]}
    last = {f: max(r.edge_index for r in children[f]) for f in essential}
    by_centre = {}
    for nid, key in enumerate(diagram.keys):
        by_centre.setdefault(key[1], []).append(nid)
    included, excluded, excluded_count = [], [], 0
    for start in essential:
        for steps in dimension._lyndon_cycles(children, start, budget):
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
                excluded_count += 1
                if len(excluded) < 50:
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
        "excluded": tuple(excluded),
        "excluded_count": excluded_count,
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
