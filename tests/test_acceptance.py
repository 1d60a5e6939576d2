"""End-to-end acceptance checks.

Each numbered test pins one headline behavior of the analyzer on the
worked example systems, with explicit tolerances.  Reference values come
either from closed-form arithmetic (logs of exact spectral radii), from
independent brute-force enumeration (oracle_helpers), or from binomial
identities computed with math.comb.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest

import oracle_helpers as oh
from ifsdim.classes import (
    build_triple_diagram,
    classify_truly_essential,
    decompose,
)
from ifsdim.dimension import (
    PeriodicSpec,
    essential_interval_bounds,
    hausdorff_dimension,
    isolated_point_scan,
    local_dim_periodic,
    sanity_dim_in_interval,
)
from ifsdim.field import FieldContext
from ifsdim.ifs import build_ifs, cantor_like, convolution_power
from ifsdim.matrices import MatrixTable, TransitionMatrix, edge_matrix
from ifsdim.net import explore, iter_net_intervals, locate_point
from ifsdim.spectral import spectral_radius

F = Fraction

ALL_STRUCTURES = [
    "six_map_quarter_structure",
    "zero_row_third_structure",
    "eight_map_twelfths_structure",
    "cantor_4_9_structure",
    "cantor_3_4_skewed_structure",
    "gap_system_structure",
    "golden_half_structure",
    "golden_third_structure",
    "tribonacci_third_structure",
    "quadratic_ninth_structure",
]


def _uniform(m):
    return tuple(F(1, m) for _ in range(m))


def _matrix(rows):
    return TransitionMatrix([[F(x) for x in row] for row in rows])


def _self_loop_with_rate(structure, table, sp_value):
    for fid in range(structure.full_count):
        for rec in oh.child_records(structure, fid):
            if rec.child != fid:
                continue
            m = table.of_edge(structure.reduced_of(fid), rec.edge_index)
            if spectral_radius(m).exact == F(sp_value):
                return fid, rec.edge_index
    raise AssertionError(f"no self-loop with spectral radius {sp_value}")


def _root_path_to(structure, fid):
    parents = {structure.root_full: ()}
    queue = [structure.root_full]
    while queue:
        cur = queue.pop(0)
        if cur == fid:
            return parents[cur]
        for rec in oh.child_records(structure, cur):
            if rec.child not in parents:
                parents[rec.child] = parents[cur] + (rec.edge_index,)
                queue.append(rec.child)
    raise AssertionError(f"full vector {fid} unreachable from the root")


# -- 1: exploration reproduces the three worked structure tables exactly ------


def test_01_structure_tables_are_exact():
    started = time.monotonic()
    six = explore(
        build_ifs(
            FieldContext([-1, 4]),
            [F(k, 8) for k in (0, 1, 2, 3, 5, 6)],
            _uniform(6),
        )
    )
    assert time.monotonic() - started < 1.0
    assert six.reduced_count == 4
    assert [oh.reduced_signature(six, r) for r in range(4)] == [
        (F(1), (F(0),)),
        (F(1, 2), (F(0),)),
        (F(1, 2), (F(0), F(1, 2))),
        (F(1, 2), (F(1, 2),)),
    ]
    assert oh.reduced_child_map(six) == [
        [1, 2, 2, 2, 3, 1, 2, 3],
        [1, 2, 2, 2],
        [2, 2, 2, 2],
        [3, 1, 2, 3],
    ]

    started = time.monotonic()
    zero_row = explore(
        build_ifs(
            FieldContext([-1, 3]),
            [F(0), F(4, 9), F(5, 9), F(2, 3)],
            _uniform(4),
        )
    )
    assert time.monotonic() - started < 1.0
    assert zero_row.reduced_count == 6
    assert [oh.reduced_signature(zero_row, r) for r in range(6)] == [
        (F(1), (F(0),)),
        (F(1, 3), (F(0),)),
        (F(1, 3), (F(0), F(1, 3))),
        (F(1, 3), (F(0), F(1, 3), F(2, 3))),
        (F(1, 3), (F(1, 3), F(2, 3))),
        (F(1, 3), (F(2, 3),)),
    ]
    assert oh.reduced_child_map(zero_row) == [
        [0, 1, 2, 3, 4, 5],
        [0],
        [1, 2, 3],
        [3, 3, 3],
        [3, 3, 3],
        [3, 4, 5],
    ]
    # an attractor gap sits between the first two children of the root
    gaps = [rec.gap_before for rec in oh.reduced_records(zero_row, 0)]
    assert gaps == [False, True, False, False, False, False]

    started = time.monotonic()
    eight = explore(
        build_ifs(
            FieldContext([-1, 4]),
            [F(k, 12) for k in (0, 1, 2, 3, 4, 5, 8, 9)],
            (F(1, 2),) + tuple(F(1, 14) for _ in range(7)),
        )
    )
    assert time.monotonic() - started < 1.0
    assert eight.reduced_count == 7
    assert [oh.reduced_signature(eight, r) for r in range(7)] == [
        (F(1), (F(0),)),
        (F(1, 3), (F(0),)),
        (F(1, 3), (F(0), F(1, 3))),
        (F(1, 3), (F(0), F(1, 3), F(2, 3))),
        (F(1, 3), (F(1, 3), F(2, 3))),
        (F(1, 3), (F(2, 3),)),
        (F(2, 3), (F(0), F(1, 3))),
    ]
    assert oh.reduced_child_map(eight) == [
        [1, 2, 3, 3, 3, 3, 4, 5, 1, 6, 5],
        [1, 2, 3, 3],
        [3, 3, 3, 3],
        [3, 3, 3, 3],
        [3, 3, 4, 5],
        [1, 6, 5],
        [3, 3, 3, 3, 3, 3, 4, 5],
    ]


# -- 2: transition matrices of the worked examples, entry by entry ------------


def test_02_edge_matrices_are_exact(
    zero_row_third_structure, tribonacci_third_structure
):
    started = time.monotonic()
    q = F(1, 4)
    z = F(0)
    got = [edge_matrix(zero_row_third_structure, 3, e) for e in range(3)]
    assert got == [
        _matrix([[q, z, z], [z, z, z], [q, q, q]]),
        _matrix([[z, q, z], [q, z, z], [z, q, q]]),
        _matrix([[z, z, q], [q, q, z], [z, z, q]]),
    ]
    assert got[0].has_zero_row()

    # Cantor family d=4, m=9 with distinct rational weights p_j = (j+1)/55:
    # the four self-edges of the central vector carry the letter 4x - y + e
    # at entry (x, y), so every entry is pinned individually.
    system = cantor_like(4, 9, tuple(F(j + 1, 55) for j in range(10)))
    st = explore(system)
    central = next(
        rid
        for rid, row in enumerate(oh.reduced_child_map(st))
        if row == [rid] * 4 and len(st.neighbours_of_reduced(rid)) == 3
    )
    for e in range(4):
        m = edge_matrix(st, central, e)
        assert m.shape == (3, 3)
        for x in range(3):
            for y in range(3):
                letter = 4 * x - y + e
                expected = F(letter + 1, 55) if 0 <= letter <= 9 else F(0)
                assert m.rows[x][y] == expected

    # Bernoulli system with a degree-3 contraction and weights 1/3, 2/3:
    # the essential class uses exactly seven matrix shapes, with the three
    # children of the widest vector appearing once each.
    st3 = tribonacci_third_structure
    dec = decompose(st3)
    table = MatrixTable(st3)
    count = Counter()
    for fid in sorted(dec.essential):
        rid = st3.reduced_of(fid)
        for rec in oh.reduced_records(st3, rid):
            if rec.child in dec.essential:
                count[table.of_edge(rid, rec.edge_index).rows] += 1
    p, r = F(1, 3), F(2, 3)
    assert count == Counter(
        {
            ((p,),): 5,
            ((r,),): 5,
            ((r, p),): 4,
            ((p, F(0)), (F(0), r)): 3,
            ((p,), (r,)): 1,
            ((p, F(0)), (r, p)): 1,
            ((r, p), (F(0), r)): 1,
        }
    )
    assert time.monotonic() - started < 1.0


# -- 3: path products equal brute-force word masses on every net interval -----


@pytest.mark.parametrize(
    "name",
    ["golden_half_structure", "golden_third_structure", "cantor_4_9_structure"],
)
def test_03_path_products_equal_brute_force_masses(request, name):
    started = time.monotonic()
    structure = request.getfixturevalue(name)
    system = structure.system
    table = MatrixTable(structure)
    for n in range(7):
        mass = oh.cylinder_mass(system, n)
        for iv in iter_net_intervals(structure, n):
            neighbours = structure.neighbours_of_full(iv.full)
            product = oh.path_matrix(table, iv.edges)
            assert oh.entry_sum(product) == oh.interval_mass(
                system, mass, iv.left, neighbours, n
            )
    assert time.monotonic() - started < 30.0


# -- 4: set dimensions -----------------------------------------------------------


def test_04_hausdorff_dimensions(table_87_structure, quadratic_ninth_structure):
    # (a) three maps x/3 + {0, 2/87, 2/3}: a large table whose incidence
    # spectral radius still gives dimension exactly 1
    structure = table_87_structure
    assert structure.reduced_count == 2280
    result = hausdorff_dimension(structure, decompose(structure))
    assert abs(result.dimension.value - 1.0) < 1e-9

    # (b) the quadratic-contraction system: incidence spectral radius 2 + sqrt(2)
    target = 2.0 + math.sqrt(2.0)
    sp = hausdorff_dimension(
        quadratic_ninth_structure, decompose(quadratic_ninth_structure)
    ).spectral
    assert abs(sp.value - target) < 1e-9
    assert float(sp.certified_lo) <= target <= float(sp.certified_hi)

    # (c) middle-thirds Cantor set: dimension log 2 / log 3 (the family
    # helper warns that this member has no overlaps at all)
    with pytest.warns(UserWarning, match="open set condition"):
        system = cantor_like(3, 1, _uniform(2))
    st = explore(system)
    result = hausdorff_dimension(st, decompose(st))
    assert abs(result.dimension.value - math.log(2) / math.log(3)) < 1e-9
    assert result.spectral.exact == 2


# -- 5: local dimensions at periodic points -------------------------------------


def test_05_periodic_local_dimensions(
    gap_system_structure, eight_map_twelfths_structure
):
    # left endpoint of the gap example: the self-loop mass is exactly 1/8
    # per level, so the local dimension is log 8 / log 4 = 3/2
    table = MatrixTable(gap_system_structure)
    spec = PeriodicSpec.from_location(locate_point(gap_system_structure, 0))
    result = local_dim_periodic(gap_system_structure, table, spec)
    assert result.spectral[result.winner].exact == F(1, 8)
    assert result.dimension.lo <= F(3, 2) <= result.dimension.hi
    assert float(result.dimension.hi - result.dimension.lo) < 1e-9

    # in the heavy-left system, self-loops of exact mass 1/7 and 1/14 give
    # cycle values log 7 / log 4 and log 14 / log 4
    structure = eight_map_twelfths_structure
    table = MatrixTable(structure)
    for sp_value, target in (
        (F(1, 7), math.log(7) / math.log(4)),
        (F(1, 14), math.log(14) / math.log(4)),
    ):
        fid, edge = _self_loop_with_rate(structure, table, sp_value)
        spec = PeriodicSpec(_root_path_to(structure, fid), (edge,))
        result = local_dim_periodic(structure, table, spec)
        assert abs(result.dimension.value - target) < 1e-9


# -- 6: certified bounds on the interval of local dimensions ---------------------


def test_06_essential_interval_bounds(
    gap_system_structure, cantor_3_4_skewed_structure
):
    # equal column sums 1/4 at contraction 1/4: both enclosures collapse on 1
    dec = decompose(gap_system_structure)
    table = MatrixTable(gap_system_structure)
    b = essential_interval_bounds(gap_system_structure, dec, table, cycle_budget=3)
    assert b.p_min == b.p_max == F(1, 4)
    for cert in (b.outer_lo, b.outer_hi, b.inner_lo, b.inner_hi):
        assert cert.lo <= F(1) <= cert.hi
        assert float(cert.hi - cert.lo) < 1e-9

    # skewed Cantor weights (1/3, 1/9, 1/9, 1/9, 1/3): the heaviest column
    # sum is 4/9, so both lower endpoints equal log(9/4) / log 3
    target = math.log(F(9, 4)) / math.log(3)
    dec = decompose(cantor_3_4_skewed_structure)
    table = MatrixTable(cantor_3_4_skewed_structure)
    b = essential_interval_bounds(
        cantor_3_4_skewed_structure, dec, table, cycle_budget=3
    )
    assert abs(b.outer_lo.value - target) < 1e-9
    assert abs(b.inner_lo.value - target) < 1e-9

    # uniform Cantor d=3, m=5: all interior values are 1, while both hull
    # endpoints sit at log 6 / log 3, so the dimension set is a doubleton
    st = explore(cantor_like(3, 5, _uniform(6)))
    dec = decompose(st)
    table = MatrixTable(st)
    b = essential_interval_bounds(st, dec, table, cycle_budget=3)
    assert b.p_min == b.p_max == F(1, 3)
    assert all(c.lo <= F(1) <= c.hi for c in (b.outer_lo, b.outer_hi))
    scan = isolated_point_scan(st, dec, table, b)
    endpoint_target = math.log(6) / math.log(3)
    for finding in (scan.at_zero, scan.at_one):
        assert finding.isolated
        assert abs(finding.dimension.dimension.value - endpoint_target) < 1e-9


# -- 7: isolated endpoint detection for biased versus uniform weights ------------


def test_07_endpoint_isolation(golden_third_structure, golden_half_structure):
    started = time.monotonic()
    for structure, expect_isolated in (
        (golden_third_structure, True),
        (golden_half_structure, False),
    ):
        dec = decompose(structure)
        table = MatrixTable(structure)
        bounds = essential_interval_bounds(structure, dec, table, cycle_budget=3)
        scan = isolated_point_scan(structure, dec, table, bounds)
        finding = scan.at_zero
        assert finding.isolated == expect_isolated
        assert not scan.at_one.isolated
        if expect_isolated:
            # the endpoint value exceeds a certified upper bound for the
            # dimensions attainable at truly essential points
            assert finding.family_bound is not None
            assert finding.dimension.dimension.value > float(finding.family_bound)
    assert time.monotonic() - started < 60.0


# -- 8: point classification and the positive-row check --------------------------


def test_08_classification_and_positive_rows(
    six_map_quarter_structure,
    zero_row_third_structure,
    gap_system_structure,
    cantor_4_9_structure,
):
    # x = 1/2 lies on the essential class boundary, but one of its flanking
    # chains leaves the essential class: essential yet not truly essential
    six = six_map_quarter_structure
    diagram = build_triple_diagram(six, decompose(six))
    location = locate_point(six, F(1, 2))
    assert location.boundary
    assert len(location.representations) == 2
    assert classify_truly_essential(diagram, location) == "essential_not_truly"

    # in the zero-row example every essential point is truly essential
    zr = zero_row_third_structure
    assert oh.essential_not_truly_witness(zr, decompose(zr)) is None

    for structure, holds in (
        (zero_row_third_structure, False),
        (gap_system_structure, False),
        (cantor_4_9_structure, True),
    ):
        dec = decompose(structure)
        bounds = essential_interval_bounds(structure, dec, MatrixTable(structure), inner=False)
        assert holds == (not bounds.zero_rows)


# -- 9: convolution powers smooth the column sums ---------------------------------


def test_09_convolution_powers_shrink_the_interval():
    """Repeated self-convolution of the uniform two-map Cantor measure.

    Oracle: the essential column sums are the three residue-class sums
    sum_{j = r mod 3} C(k, j) / 2^k, computed here independently with
    math.comb.  The spread of the sums, and with it the certified outer
    interval around 1, must shrink as the power k grows.
    """
    spreads = []
    for k in range(2, 9):
        class_sums = [
            F(sum(math.comb(k, j) for j in range(k + 1) if j % 3 == r), 2**k)
            for r in range(3)
        ]
        system = convolution_power(3, (F(1, 2), F(1, 2)), k)
        structure = explore(system)
        dec = decompose(structure)
        table = MatrixTable(structure)
        b = essential_interval_bounds(structure, dec, table, cycle_budget=2)
        assert b.p_min == min(class_sums)
        assert b.p_max == max(class_sums)
        spreads.append(b.p_max - b.p_min)
        if k == 8:
            width = b.outer_hi.value - b.outer_lo.value
            assert width < 0.1
            assert b.outer_lo.value < 1.0 < b.outer_hi.value
    assert all(a > b for a, b in zip(spreads, spreads[1:]))
    assert spreads[-1] < F(2, 100)


# -- 10: randomized algebraic properties over every fixture ----------------------


def _random_root_path(rng, structure, length):
    fid = structure.root_full
    edges = []
    for _ in range(length):
        recs = oh.child_records(structure, fid)
        rec = recs[rng.randrange(len(recs))]
        edges.append(rec.edge_index)
        fid = rec.child
    return edges


def _random_essential_cycle(rng, structure, essential):
    anchors = sorted(essential)
    cur = anchors[rng.randrange(len(anchors))]
    seen = {cur: 0}
    edges = []
    while True:
        recs = [
            rec
            for rec in oh.child_records(structure, cur)
            if rec.child in essential
        ]
        rec = recs[rng.randrange(len(recs))]
        edges.append(rec.edge_index)
        cur = rec.child
        if cur in seen:
            return cur, tuple(edges[seen[cur]:])
        seen[cur] = len(edges)


def _step(structure, fid, edge):
    return oh.child_records(structure, fid)[edge].child


def _path_from(table, fid, edges):
    out = None
    for e in edges:
        m = table.of_full_edge(fid, e)
        out = m if out is None else out * m
        fid = _step(table.structure, fid, e)
    return out


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_10_randomized_property_suite(request, name):
    import random

    structure = request.getfixturevalue(name)
    rng = random.Random("properties:" + name)
    dec = decompose(structure)
    table = MatrixTable(structure)

    for _ in range(4):
        edges = _random_root_path(rng, structure, 8)
        cut = rng.randrange(1, 8)
        head = oh.path_matrix(table, edges[:cut])
        full = oh.path_matrix(table, edges)
        fid = structure.root_full
        for e in edges[:cut]:
            fid = _step(structure, fid, e)
        tail = _path_from(table, fid, edges[cut:])
        assert head * tail == full
        assert oh.entry_sum(full) <= oh.entry_sum(head) * oh.entry_sum(tail)
        assert min(full.column_sums()) >= min(head.column_sums()) * min(
            tail.column_sums()
        )
        assert max(full.column_sums()) <= max(head.column_sums()) * max(
            tail.column_sums()
        )

    for _ in range(3):
        anchor, cycle = _random_essential_cycle(rng, structure, dec.essential)
        m = table.cycle_matrix(anchor, cycle)
        sp = spectral_radius(m)
        assert F(sp.certified_lo) <= F(sp.certified_hi)
        power = m
        for _ in range(4):
            power = power * power
        assert F(sp.certified_lo) ** 16 <= oh.entry_sum(power)
        assert min(power.column_sums()) <= F(sp.certified_hi) ** 16
        # rotating the cycle does not move the spectral radius
        rotated_anchor = _step(structure, anchor, cycle[0])
        rotated = table.cycle_matrix(rotated_anchor, cycle[1:] + cycle[:1])
        sp_rot = spectral_radius(rotated)
        assert abs(sp.value - sp_rot.value) < 1e-10
        assert max(sp.certified_lo, sp_rot.certified_lo) <= min(
            sp.certified_hi, sp_rot.certified_hi
        )

    hausdorff = hausdorff_dimension(structure, dec)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=2)
    assert sanity_dim_in_interval(hausdorff, bounds)
    assert bounds.outer_lo.value <= bounds.outer_hi.value + 1e-12
    if bounds.inner_lo is not None:
        assert bounds.outer_lo.value <= bounds.inner_lo.value + 1e-9
        assert bounds.inner_lo.value <= bounds.inner_hi.value + 1e-12
        assert bounds.inner_hi.value <= bounds.outer_hi.value + 1e-9
