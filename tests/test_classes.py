"""Loop-class decomposition, the positive-row check, and triples."""

import gc
import math
import random
from fractions import Fraction as F

import pytest

from ifsdim.classes import (
    BOUNDARY_ESSENTIAL,
    ESSENTIAL_NOT_TRULY,
    INTERIOR_ESSENTIAL,
    NEEDS_MORE_DEPTH,
    NON_ESSENTIAL,
    build_triple_diagram,
    classify_truly_essential,
    closed_classes,
    decompose,
    essential_incidence,
    strongly_connected_components,
)
from ifsdim.cli import main
from ifsdim.dimension import essential_interval_bounds
from ifsdim.field import FieldContext
from ifsdim.ifs import build_ifs
from ifsdim.matrices import MatrixTable
from ifsdim.net import (
    NetStructureError,
    NotProvenFiniteTypeError,
    PointLocation,
    Representation,
    explore,
    locate_point,
)

import oracle_helpers as oh
from oracle_helpers import (
    essential_not_truly_witness,
    reduced_pattern,
    reference_cycle_limit,
    side_chain_class,
    vectors_reaching,
)

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
    for i, pair in enumerate(zip(structure.full_reduced, structure.sibling)):
        if pair == (rid, sibling):
            return i
    raise AssertionError(f"no full vector ({rid}, {sibling})")


def pairs_of(structure, fids):
    return {(structure.full_reduced[f], structure.sibling[f]) for f in fids}


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


def _reachable(count, adjacency):
    """Per vertex, the vertices reached by walks of one or more edges."""
    out = []
    for v in range(count):
        seen = set()
        frontier = list(adjacency[v])
        while frontier:
            w = frontier.pop()
            if w not in seen:
                seen.add(w)
                frontier.extend(adjacency[w])
        out.append(seen)
    return out


def test_closed_classes_match_brute_force_on_random_digraphs():
    rng = random.Random(2016)
    outcomes = {"one": 0, "raised": 0}
    for _ in range(300):
        count = rng.randint(0, 9)
        density = rng.choice((0.1, 0.25, 0.5))
        # a multigraph: repeated edges and self-loops both occur
        adjacency = [
            [w for w in range(count) if rng.random() < density] * rng.choice((1, 1, 2))
            for _ in range(count)
        ]
        reach = _reachable(count, adjacency)
        component = [
            frozenset({v} | {w for w in reach[v] if v in reach[w]}) for v in range(count)
        ]

        comps = strongly_connected_components(count, adjacency.__getitem__)
        assert sorted(v for comp in comps for v in comp) == list(range(count))
        assert {frozenset(comp) for comp in comps} == set(component)
        assert all(comp == sorted(comp) for comp in comps)
        # reverse topological order: an edge between components points back
        emitted = {v: i for i, comp in enumerate(comps) for v in comp}
        for v in range(count):
            assert all(emitted[w] <= emitted[v] for w in adjacency[v])

        loops = sorted(sorted(c) for c in set(component) if min(c) in reach[min(c)])
        closed = [c for c in set(component) if reach[min(c)] <= c]
        if len(closed) == 1:
            outcomes["one"] += 1
            assert closed_classes(count, adjacency.__getitem__, "vector") == (
                loops,
                set(closed[0]),
            )
        else:
            outcomes["raised"] += 1
            with pytest.raises(NetStructureError, match=f"found {len(closed)}"):
                closed_classes(count, adjacency.__getitem__, "vector")
    assert min(outcomes.values()) >= 50, outcomes


# ---------------------------------------------------------------------------
# decomposition fixtures with frozen class tables
# ---------------------------------------------------------------------------

def test_six_map_decomposition(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    assert pairs_of(s, dec.essential) == {(2, 1), (2, 2), (2, 3), (2, 4)}
    assert fid_of(s, 2, 7) not in dec.essential
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
        assert fid_of(s, *pair) not in dec.essential
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
    assert s.root_full not in dec.essential
    assert fid_of(s, 3, 4) not in dec.essential


def test_cantor_3_4_decomposition(cantor_3_4_skewed_structure):
    s = cantor_3_4_skewed_structure
    dec = decompose(s)
    assert pairs_of(s, dec.essential) == {(2, 1), (2, 2), (2, 3)}
    assert fid_of(s, 2, 4) not in dec.essential
    assert dec.essential_reduced == [2]


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_every_vector_reaches_essential(request, name):
    s = request.getfixturevalue(name)
    dec = decompose(s)
    assert vectors_reaching(s, dec.essential) == set(range(s.full_count))


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
    zero_rows = essential_interval_bounds(s, decompose(s), MatrixTable(s), inner=False).zero_rows
    assert zero_rows == ((3, 0),)


def test_positive_row_gap_system_fails(gap_system_structure):
    s = gap_system_structure
    zero_rows = essential_interval_bounds(s, decompose(s), MatrixTable(s), inner=False).zero_rows
    assert (3, 1) in zero_rows


@pytest.mark.parametrize(
    "name", ["cantor_4_9_structure", "cantor_3_4_skewed_structure"]
)
def test_positive_row_cantor_holds(request, name):
    s = request.getfixturevalue(name)
    zero_rows = essential_interval_bounds(s, decompose(s), MatrixTable(s), inner=False).zero_rows
    assert zero_rows == ()


# ---------------------------------------------------------------------------
# triple diagram
# ---------------------------------------------------------------------------

def triple_pattern_sets(diagram):
    return {
        frozenset(reduced_pattern(diagram, n) for n in comp)
        for comp in diagram.loop_classes
    }


def test_triple_diagram_eight_map(eight_map_twelfths_structure):
    s = eight_map_twelfths_structure
    dec = decompose(s)
    diagram = oh.whole_triple_diagram(s, dec)
    assert reduced_pattern(diagram, diagram.root) == (None, 0, None)
    assert len(diagram.loop_classes) == 5
    assert triple_pattern_sets(diagram) == {
        frozenset({(3, 3, 3)}),
        frozenset({(None, 1, 2)}),
        frozenset({(5, 1, 2)}),
        frozenset({(6, 5, None)}),
        frozenset({(1, 6, 5), (3, 4, 5), (4, 5, 1), (6, 5, 1)}),
    }
    assert {reduced_pattern(diagram, n) for n in diagram.essential} == {(3, 3, 3)}
    # the four-pattern class never descends through a leftmost child
    for comp in diagram.loop_classes:
        patterns = {reduced_pattern(diagram, n) for n in comp}
        if patterns == {(1, 6, 5), (3, 4, 5), (4, 5, 1), (6, 5, 1)}:
            members = set(comp)
            internal = [
                s.edge_start[s.full_reduced[diagram.keys[v][1]]] + i
                for v in comp
                for i, w in enumerate(diagram.edges[v])
                if w in members
            ]
            assert internal
            assert all(not s.abuts_left[e] for e in internal)


def test_triple_diagram_six_map(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    diagram = oh.whole_triple_diagram(s, dec)
    assert {reduced_pattern(diagram, n) for n in diagram.essential} == {(2, 2, 2)}
    assert frozenset({(None, 1, 2)}) in triple_pattern_sets(diagram)


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_triple_invariants(request, name):
    s = request.getfixturevalue(name)
    dec = decompose(s)
    diagram = oh.whole_triple_diagram(s, dec)

    def omega_only(nid):
        return all(
            f is None or f in dec.essential for f in diagram.keys[nid]
        )

    for nid in range(diagram.node_count()):
        left, centre, right = diagram.keys[nid]
        records = oh.child_records(s, centre)
        assert len(diagram.edges[nid]) == len(records)
        for w, rec in zip(diagram.edges[nid], records):
            assert 0 <= w < diagram.node_count()
            assert diagram.keys[w][1] == rec.child
        if omega_only(nid):
            assert all(omega_only(w) for w in diagram.edges[nid])
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


def test_boundary_point_with_a_dead_side(tmp_path, capsys):
    # x/3 + {0, 16/45, 22/45, 2/3}: at 37/45 the right side's forced chain
    # dies after edges 5, 0, as no child abuts there, while the left side
    # closes a cycle; the point is classified and measured from that side
    s = explore(build_ifs(FieldContext([-1, 3]), [0, F(8, 15), F(11, 15), 1], [F(1, 4)] * 4))
    location = locate_point(s, F(37, 45))
    assert location.boundary
    left, right = location.representations
    assert (left.side, left.edges, left.cycle, left.alive) == ("left", [4, 5, 2, 4, 4], (4, 1), True)
    assert (right.side, right.edges, right.cycle, right.alive) == ("right", [5, 0], None, False)
    diagram = build_triple_diagram(s, decompose(s))
    assert classify_truly_essential(diagram, location) == NON_ESSENTIAL
    cfg = tmp_path / "dead_side.cfg"
    cfg.write_text(
        "minpoly = [-1, 3]\ntranslations = [0, 8/15, 11/15, 1]\n"
        "probabilities = [1/4, 1/4, 1/4, 1/4]\n",
        encoding="utf-8",
    )
    assert main(["pointdim", "--config", str(cfg), "--point", "37/45"]) == 0
    out = capsys.readouterr().out
    assert "classification: non_essential" in out
    assert "  side right: edges 5,0\n" in out
    # ln 4 / ln 3, the rate of the left side's cycle of spectral radius 1/4
    assert f"local dimension: {math.log(4) / math.log(3):.12g} in" in out


def _closed_walks(structure, fid, max_len):
    """Closed walks of 1..max_len steps from fid, as [(vector, edge), ...]."""
    out = []
    stack = [(fid, ())]
    while stack:
        cur, steps = stack.pop()
        for rec in oh.child_records(structure, cur):
            walk = steps + ((cur, rec.edge_index),)
            if rec.child == fid:
                out.append(walk)
            if len(walk) < max_len:
                stack.append((rec.child, walk))
    return out


def _root_paths(diagram):
    """A root path of edges to every triple node."""
    paths = {diagram.root: ()}
    queue = [diagram.root]
    for nid in queue:
        for i, w in enumerate(diagram.edges[nid]):
            if w not in paths:
                paths[w] = paths[nid] + (i,)
                queue.append(w)
    return paths


def _node_trail(diagram, edges):
    """The triple nodes a root path of edges passes through."""
    trail = [diagram.root]
    for e in edges:
        trail.append(diagram.edges[trail[-1]][e])
    return trail


ORACLE_CLASS = {
    (True, True): INTERIOR_ESSENTIAL,
    (False, True): ESSENTIAL_NOT_TRULY,
    (False, False): NON_ESSENTIAL,
}


def test_cycle_limit_matches_the_phase_trail(request):
    # every triple node x every closed walk of <= 3 edges from its centre;
    # one limit node decides both answers, because the limit loop lies in
    # one triple class and its centres in one vector class
    outcomes = set()
    cases = 0
    for name in ALL_STRUCTURES:
        s = request.getfixturevalue(name)
        diagram = oh.whole_triple_diagram(s, decompose(s))
        paths = _root_paths(diagram)
        assert len(paths) == diagram.node_count()
        walks = {}
        for nid, (_, centre, _) in enumerate(diagram.keys):
            if centre not in walks:
                walks[centre] = _closed_walks(s, centre, 3)
            for steps in walks[centre]:
                cycle = [e for _, e in steps]
                expected = reference_cycle_limit(diagram, nid, cycle)
                limit = diagram.cycle_limit(nid, cycle)
                got = (
                    limit in diagram.essential,
                    diagram.keys[limit][1] in diagram.decomposition.essential,
                )
                assert got == expected, (name, nid, cycle)
                edges = list(paths[nid]) + cycle
                fulls = [diagram.keys[n][1] for n in _node_trail(diagram, edges)]
                rep = Representation(
                    "interior", edges, fulls, cycle=(len(paths[nid]), len(cycle))
                )
                location = PointLocation(False, None, [rep])
                assert classify_truly_essential(diagram, location) == ORACLE_CLASS[expected]
                outcomes.add(expected)
                cases += 1
    assert cases > 800
    assert outcomes == set(ORACLE_CLASS)


@pytest.mark.parametrize("name", ALL_STRUCTURES + ["convolution_3_8", "table_87"])
def test_essential_triples_sit_over_every_essential_vector(request, name):
    # the lemma that lets the inner bounds skip the triple diagram: the
    # closed triple class has exactly the essential vectors as centres, so
    # every essential cycle repeats from some essential triple and stays there
    s = request.getfixturevalue(name)
    if not name.endswith("_structure"):
        s = explore(s)
    dec = decompose(s)
    diagram = oh.whole_triple_diagram(s, dec)
    assert {diagram.keys[n][1] for n in diagram.essential} == dec.essential
    for nid in diagram.essential:
        assert all(w in diagram.essential for w in diagram.edges[nid])


@pytest.mark.parametrize(
    "name", ALL_STRUCTURES + ["convolution_3_8_structure", "table_87_structure"]
)
def test_lazy_membership_matches_the_whole_build(request, name):
    # a diagram decides membership from the node's centre and, over an
    # essential centre, from the closed class of its forward closure, however
    # much of it is expanded; Tarjan over the whole diagram is the reference
    s = request.getfixturevalue(name)
    dec = decompose(s)
    whole = oh.whole_triple_diagram(s, dec)
    shared = build_triple_diagram(s, dec)
    # expanded whole in id order first, as the DOT export does
    expanded = build_triple_diagram(s, dec)
    oh.expand_whole(expanded)
    assert expanded.keys == whole.keys
    for nid, path in _root_paths(whole).items():
        expected = nid in whole.essential
        fresh = build_triple_diagram(s, dec)
        node = fresh.walk(path)
        assert fresh.keys[node] == whole.keys[nid]
        assert fresh.is_essential(node) == expected, (name, nid)
        assert shared.is_essential(shared.walk(path)) == expected, (name, nid)
        assert expanded.is_essential(nid) == expected, (name, nid)
    # walking every root path creates exactly the nodes of the whole build
    assert shared.node_count() == whole.node_count()


def test_full_table_87_diagram_adds_about_one_gc_object_per_node(table_87_structure):
    # a step is its child node id, so a whole diagram tracks one edge list
    # per node (its key tuples hold only ints and None, which the collector
    # stops tracking) and a few containers, not one object per step
    s = table_87_structure
    dec = decompose(s)
    gc.collect()
    before = len(gc.get_objects())
    diagram = build_triple_diagram(s, dec)
    oh.expand_whole(diagram)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert diagram.node_count() == 4679
    assert sum(len(out) for out in diagram.edges) == 14380
    assert added <= diagram.node_count() + 100, added


def test_table_87_points_classify_lazily(table_87_structure):
    # boundary points never read the diagram; interior ones expand their
    # walk and, for an essential-centred limit, the few triples of its
    # forward closure, instead of all 4679 triples
    s = table_87_structure
    dec = decompose(s)
    whole = oh.whole_triple_diagram(s, dec)
    created = {}
    for x in (F(0), F(1), F(2, 87), F(1, 87), F(1, 4), F(3, 4)):
        location = locate_point(s, s.system.context.from_rational(x))
        diagram = build_triple_diagram(s, dec)
        got = classify_truly_essential(diagram, location)
        assert got == classify_truly_essential(whole, location), x
        created[x] = diagram.node_count()
    assert created[F(0)] == created[F(1)] == created[F(2, 87)] == 1
    assert created[F(1, 87)] < 100 and created[F(1, 4)] < 100, created


# ---------------------------------------------------------------------------
# essential-but-not-truly scan
# ---------------------------------------------------------------------------

def test_six_map_has_one_sided_boundary(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    witness = essential_not_truly_witness(s, dec)
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
    assert essential_not_truly_witness(s, decompose(s)) is None


def test_side_chain_classes(six_map_quarter_structure):
    s = six_map_quarter_structure
    dec = decompose(s)
    assert side_chain_class(s, dec, fid_of(s, 2, 4), "left") == "essential"
    assert side_chain_class(s, dec, fid_of(s, 3, 5), "right") == "non_essential"
