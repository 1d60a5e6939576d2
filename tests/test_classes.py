"""Loop-class decomposition, positivity diagnostics, and triples."""

from fractions import Fraction as F

import pytest

from ifsdim.classes import (
    BOUNDARY_ESSENTIAL,
    ESSENTIAL_NOT_TRULY,
    INTERIOR_ESSENTIAL,
    NEEDS_MORE_DEPTH,
    NON_ESSENTIAL,
    all_reach_essential,
    build_triple_diagram,
    classify_truly_essential,
    closed_classes,
    decompose,
    essential_incidence,
    essential_not_truly_witness,
    find_positive_path,
    positive_row_check,
    side_chain_class,
    strongly_connected_components,
)
from ifsdim.matrices import MatrixTable
from ifsdim.net import NetStructureError, NotProvenFiniteTypeError, explore, locate_point

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


def fid_of(structure, rid, sibling):
    for i, fv in enumerate(structure.fulls):
        if fv.reduced == rid and fv.sibling_index == sibling:
            return i
    raise AssertionError(f"no full vector ({rid}, {sibling})")


def pairs_of(structure, fids):
    return {
        (structure.fulls[f].reduced, structure.fulls[f].sibling_index) for f in fids
    }


def loop_class_pairs(structure, dec):
    return sorted(
        (sorted(pairs_of(structure, comp)) for comp in dec.loop_classes),
    )


# ---------------------------------------------------------------------------
# SCC helper
# ---------------------------------------------------------------------------

def test_scc_cycle_plus_tail():
    adjacency = {0: [1], 1: [2], 2: [0], 3: [0, 3]}
    comps = strongly_connected_components(4, lambda v: adjacency[v])
    assert sorted(comps) == [[0, 1, 2], [3]]
    # the cycle must be emitted before the vertex that feeds into it
    assert comps[0] == [0, 1, 2]


def test_scc_dag_singletons():
    adjacency = {0: [1, 2], 1: [2], 2: []}
    comps = strongly_connected_components(3, lambda v: adjacency[v])
    assert sorted(comps) == [[0], [1], [2]]
    assert comps[0] == [2]


@pytest.mark.parametrize(
    "count, adjacency",
    [(3, {0: [1, 2], 1: [1], 2: [2]}), (0, {})],
    ids=["two_closed_classes", "no_closed_class"],
)
def test_closed_classes_needs_exactly_one(count, adjacency):
    with pytest.raises(NetStructureError, match="child-closed vector class"):
        closed_classes(count, lambda v: adjacency[v], "vector")


# ---------------------------------------------------------------------------
# decomposition fixtures with frozen class tables
# ---------------------------------------------------------------------------

def test_six_map_decomposition(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    assert pairs_of(s, dec.essential) == {(2, 1), (2, 2), (2, 3), (2, 4)}
    assert not dec.is_essential(fid_of(s, 2, 7))
    assert dec.essential_reduced == [2]
    assert loop_class_pairs(s, dec) == sorted(
        [
            sorted({(1, 1)}),
            sorted({(2, 1), (2, 2), (2, 3), (2, 4)}),
            sorted({(3, 1), (3, 4)}),
        ]
    )
    assert essential_incidence(s, dec) == ([2], ((4,),))


def test_zero_row_decomposition(zero_row_third_structure):
    s = zero_row_third_structure
    dec = decompose(s)
    assert pairs_of(s, dec.essential) == {(3, 1), (3, 2), (3, 3)}
    assert loop_class_pairs(s, dec) == sorted(
        [
            sorted({(0, 1), (1, 1), (2, 2)}),
            sorted({(3, 1), (3, 2), (3, 3)}),
            sorted({(5, 3)}),
        ]
    )
    assert essential_incidence(s, dec) == ([3], ((3,),))


def test_golden_decomposition(golden_half_structure):
    s = golden_half_structure
    dec = decompose(s)
    assert pairs_of(s, dec.essential) == {(2, 1), (2, 2), (4, 1), (5, 1)}
    assert dec.essential_reduced == [2, 4, 5]
    assert loop_class_pairs(s, dec) == sorted(
        [
            sorted({(1, 1)}),
            sorted({(2, 1), (2, 2), (4, 1), (5, 1)}),
            sorted({(3, 1)}),
        ]
    )
    assert essential_incidence(s, dec) == (
        [2, 4, 5],
        ((0, 1, 0), (2, 0, 1), (1, 0, 0)),
    )


def test_eight_map_decomposition(eight_map_twelfths_structure):
    s = eight_map_twelfths_structure
    dec = decompose(s)
    assert pairs_of(s, dec.essential) == {(3, 1), (3, 2), (3, 3), (3, 4)}
    for pair in [(4, 7), (1, 9), (3, 5), (3, 6), (5, 10)]:
        assert not dec.is_essential(fid_of(s, *pair))
    assert loop_class_pairs(s, dec) == sorted(
        [
            sorted({(1, 1)}),
            sorted({(3, 1), (3, 2), (3, 3), (3, 4)}),
            sorted({(4, 3), (4, 7), (5, 2), (5, 4), (5, 8), (6, 1)}),
        ]
    )
    assert essential_incidence(s, dec) == ([3], ((4,),))


def test_quadratic_decomposition(quadratic_ninth_structure):
    s = quadratic_ninth_structure
    dec = decompose(s)
    assert dec.essential_reduced == [1, 2, 3, 4]
    assert len(dec.loop_classes) == 1
    assert sorted(dec.loop_classes[0]) == sorted(dec.essential)
    # the root and its sibling-4 child of type 3 are the only transients
    assert len(dec.essential) == s.full_count - 2
    assert not dec.is_essential(s.root_full)
    assert not dec.is_essential(fid_of(s, 3, 4))


def test_cantor_3_4_decomposition(cantor_3_4_skewed_structure):
    s = cantor_3_4_skewed_structure
    dec = decompose(s)
    assert pairs_of(s, dec.essential) == {(2, 1), (2, 2), (2, 3)}
    assert not dec.is_essential(fid_of(s, 2, 4))
    assert dec.essential_reduced == [2]


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_every_vector_reaches_essential(request, name):
    s = request.getfixturevalue(name)
    dec = decompose(s)
    assert all_reach_essential(s, dec)


def test_decompose_requires_saturation(golden_third_structure):
    with pytest.raises(NotProvenFiniteTypeError) as info:
        explore(golden_third_structure.system, max_vectors=3)
    partial = info.value.partial
    assert partial is not None
    with pytest.raises(NetStructureError):
        decompose(partial)


# ---------------------------------------------------------------------------
# positive-row check
# ---------------------------------------------------------------------------

def test_positive_row_zero_row_fails(zero_row_third_structure):
    s = zero_row_third_structure
    report = positive_row_check(s, decompose(s), MatrixTable(s))
    assert not report.holds
    assert report.witnesses == [(3, 0)]


def test_positive_row_gap_system_fails(gap_system_structure):
    s = gap_system_structure
    report = positive_row_check(s, decompose(s), MatrixTable(s))
    assert not report.holds
    assert (3, 1) in report.witnesses


@pytest.mark.parametrize(
    "name", ["cantor_4_9_structure", "cantor_3_4_skewed_structure"]
)
def test_positive_row_cantor_holds(request, name):
    s = request.getfixturevalue(name)
    report = positive_row_check(s, decompose(s), MatrixTable(s))
    assert report.holds
    assert report.witnesses == []


# ---------------------------------------------------------------------------
# positive-path search
# ---------------------------------------------------------------------------

def test_positive_path_despite_zero_rows(zero_row_third_structure):
    s = zero_row_third_structure
    dec = decompose(s)
    table = MatrixTable(s)
    start = fid_of(s, 3, 3)
    result = find_positive_path(s, dec, table, start, start)
    assert result.path == [2, 1, 2]
    assert not result.exhausted
    assert table.cycle_matrix(start, result.path).is_positive()


def test_positive_path_single_step(cantor_3_4_skewed_structure):
    s = cantor_3_4_skewed_structure
    dec = decompose(s)
    table = MatrixTable(s)
    middle = fid_of(s, 2, 2)
    result = find_positive_path(s, dec, table, middle, middle)
    assert result.path == [1]
    assert table.cycle_matrix(middle, [1]).is_positive()


def test_positive_path_six_map(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    table = MatrixTable(s)
    start = fid_of(s, 2, 1)
    target = fid_of(s, 2, 3)
    result = find_positive_path(s, dec, table, start, target)
    assert result.path is not None
    cur = start
    product = None
    leftmost = rightmost = True
    for e in result.path:
        records = s.children_of_full(cur)
        rec = records[e]
        m = table.of_edge(s.fulls[cur].reduced, e)
        product = m if product is None else product * m
        leftmost = leftmost and e == 0 and rec.abuts_left
        rightmost = rightmost and e == len(records) - 1 and rec.abuts_right
        cur = rec.child
        assert dec.is_essential(cur)
    assert cur == target
    assert product.is_positive()
    assert not leftmost and not rightmost


def test_positive_path_budget_exhaustion(zero_row_third_structure):
    s = zero_row_third_structure
    dec = decompose(s)
    table = MatrixTable(s)
    start = fid_of(s, 3, 3)
    result = find_positive_path(s, dec, table, start, start, budget=2)
    assert result.path is None
    assert result.exhausted


def test_positive_path_rejects_non_essential(zero_row_third_structure):
    s = zero_row_third_structure
    dec = decompose(s)
    table = MatrixTable(s)
    with pytest.raises(ValueError):
        find_positive_path(s, dec, table, s.root_full, s.root_full)


# ---------------------------------------------------------------------------
# triple diagram
# ---------------------------------------------------------------------------

def triple_pattern_sets(diagram):
    return {
        frozenset(diagram.reduced_pattern(n) for n in comp)
        for comp in diagram.loop_classes
    }


def test_triple_diagram_eight_map(eight_map_twelfths_structure):
    s = eight_map_twelfths_structure
    dec = decompose(s)
    diagram = build_triple_diagram(s, dec)
    assert diagram.reduced_pattern(diagram.root) == (None, 0, None)
    assert len(diagram.loop_classes) == 5
    assert triple_pattern_sets(diagram) == {
        frozenset({(3, 3, 3)}),
        frozenset({(None, 1, 2)}),
        frozenset({(5, 1, 2)}),
        frozenset({(6, 5, None)}),
        frozenset({(1, 6, 5), (3, 4, 5), (4, 5, 1), (6, 5, 1)}),
    }
    assert {diagram.reduced_pattern(n) for n in diagram.essential} == {(3, 3, 3)}
    # the four-pattern class never descends through a leftmost child
    for comp in diagram.loop_classes:
        patterns = {diagram.reduced_pattern(n) for n in comp}
        if patterns == {(1, 6, 5), (3, 4, 5), (4, 5, 1), (6, 5, 1)}:
            members = set(comp)
            internal = [
                e
                for v in comp
                for e in diagram.edges[v]
                if e.child in members
            ]
            assert internal
            assert all(not e.is_leftmost for e in internal)


def test_triple_diagram_six_map(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    diagram = build_triple_diagram(s, dec)
    assert {diagram.reduced_pattern(n) for n in diagram.essential} == {(2, 2, 2)}
    assert frozenset({(None, 1, 2)}) in triple_pattern_sets(diagram)


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_triple_invariants(request, name):
    s = request.getfixturevalue(name)
    dec = decompose(s)
    diagram = build_triple_diagram(s, dec)

    def omega_only(nid):
        return all(
            f is None or f in dec.essential for f in diagram.keys[nid]
        )

    for nid in range(diagram.node_count()):
        left, centre, right = diagram.keys[nid]
        records = s.children_of_full(centre)
        assert len(diagram.edges[nid]) == len(records)
        for e, rec in zip(diagram.edges[nid], records):
            assert e.edge_index == rec.edge_index
            assert e.is_leftmost == rec.abuts_left
            assert e.is_rightmost == rec.abuts_right
            assert diagram.keys[e.child][1] == rec.child
        if omega_only(nid):
            assert all(omega_only(e.child) for e in diagram.edges[nid])
    # the essential triple class only holds fully essential neighbourhoods
    for nid in diagram.essential:
        assert omega_only(nid)


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------

def test_classify_six_map_points(six_map_quarter_structure):
    s = six_map_quarter_structure
    diagram = build_triple_diagram(s, decompose(s))
    classify = lambda x, **kw: classify_truly_essential(
        diagram, locate_point(s, x, **kw)
    )
    assert classify(F(1, 2)) == ESSENTIAL_NOT_TRULY
    assert classify(F(1, 3)) == INTERIOR_ESSENTIAL
    assert classify(0) == NON_ESSENTIAL
    assert classify(1) == NON_ESSENTIAL
    assert classify(F(1, 3), depth=0) == NEEDS_MORE_DEPTH


def test_classify_golden_half(golden_half_structure):
    s = golden_half_structure
    diagram = build_triple_diagram(s, decompose(s))
    location = locate_point(s, F(1, 2))
    assert not location.boundary
    assert location.representations[0].cycle == (1, 3)
    assert classify_truly_essential(diagram, location) == INTERIOR_ESSENTIAL


def test_classify_eight_map_boundary(eight_map_twelfths_structure):
    s = eight_map_twelfths_structure
    diagram = build_triple_diagram(s, decompose(s))
    location = locate_point(s, F(11, 12))
    assert location.boundary
    assert classify_truly_essential(diagram, location) == NON_ESSENTIAL


def test_classify_cantor_4_9(cantor_4_9_structure):
    s = cantor_4_9_structure
    diagram = build_triple_diagram(s, decompose(s))
    assert (
        classify_truly_essential(diagram, locate_point(s, 0)) == NON_ESSENTIAL
    )
    assert (
        classify_truly_essential(diagram, locate_point(s, F(1, 2)))
        == BOUNDARY_ESSENTIAL
    )


def test_classify_zero_row(zero_row_third_structure):
    s = zero_row_third_structure
    diagram = build_triple_diagram(s, decompose(s))
    assert (
        classify_truly_essential(diagram, locate_point(s, F(2, 3)))
        == BOUNDARY_ESSENTIAL
    )
    # right end of the first net interval; beyond it lies the gap
    location = locate_point(s, F(1, 3))
    assert location.boundary
    assert len(location.representations) == 1
    assert classify_truly_essential(diagram, location) == NON_ESSENTIAL


def test_classify_quadratic_gap_edge(quadratic_ninth_structure):
    s = quadratic_ninth_structure
    diagram = build_triple_diagram(s, decompose(s))
    rho = s.system.rho
    assert (
        classify_truly_essential(diagram, locate_point(s, rho))
        == BOUNDARY_ESSENTIAL
    )
    # the left edge of the central gap has intervals on one side only,
    # and that side is essential
    four_ninths = s.system.context.from_rational(F(4, 9))
    location = locate_point(s, four_ninths)
    assert location.boundary
    assert len(location.representations) == 1
    assert classify_truly_essential(diagram, location) == BOUNDARY_ESSENTIAL


# ---------------------------------------------------------------------------
# essential-but-not-truly scan
# ---------------------------------------------------------------------------

def test_six_map_has_one_sided_boundary(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    diagram = build_triple_diagram(s, dec)
    witness = essential_not_truly_witness(diagram)
    assert witness is not None
    left, right = witness
    kinds = {
        side_chain_class(s, dec, left, "left"),
        side_chain_class(s, dec, right, "right"),
    }
    assert kinds == {"essential", "non_essential"}


@pytest.mark.parametrize(
    "name",
    [
        "zero_row_third_structure",
        "eight_map_twelfths_structure",
        "quadratic_ninth_structure",
        "gap_system_structure",
    ],
)
def test_truly_essential_matches_essential(request, name):
    s = request.getfixturevalue(name)
    diagram = build_triple_diagram(s, decompose(s))
    assert essential_not_truly_witness(diagram) is None


def test_side_chain_classes(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    assert side_chain_class(s, dec, fid_of(s, 2, 4), "left") == "essential"
    assert side_chain_class(s, dec, fid_of(s, 3, 5), "right") == "non_essential"
