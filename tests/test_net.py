"""Structure tables, net-interval enumeration, and point location."""

import gc
import random
from fractions import Fraction

import pytest

from ifsdim.field import FieldContext
from ifsdim.ifs import build_ifs
from ifsdim.matrices import edge_matrix
from ifsdim.net import (
    NotProvenFiniteTypeError,
    _Explorer,
    PointNotInAttractorError,
    explore,
    iter_net_intervals,
    locate_point,
    path_fulls,
    path_left_endpoint,
)

import oracle_helpers as oh


def F(a, b=1):
    return Fraction(a, b)


def full_pair(structure, fid):
    return (structure.full_reduced[fid], structure.sibling[fid])


def full_pairs(structure):
    return list(zip(structure.full_reduced, structure.sibling))


def right_end(structure, iv):
    power = structure.system.context.one
    for _ in range(iv.level):
        power = power * structure.system.rho
    return iv.left + power * structure.length_of_full(iv.full)


def net_endpoints(structure):
    """The endpoints of every level-1 and level-2 net interval, each once."""
    points = {}
    for level in (1, 2):
        for iv in iter_net_intervals(structure, level):
            points.setdefault(iv.left, None)
            points.setdefault(right_end(structure, iv), None)
    return list(points)


# ---------------------------------------------------------------------------
# frozen structure tables for the worked examples
# ---------------------------------------------------------------------------

def test_six_map_quarter_tables(six_map_quarter_structure):
    s = six_map_quarter_structure
    assert s.saturated
    assert s.reduced_count == 4
    sigs = [oh.reduced_signature(s, r) for r in range(4)]
    assert sigs == [
        (F(1), (F(0),)),
        (F(1, 2), (F(0),)),
        (F(1, 2), (F(0), F(1, 2))),
        (F(1, 2), (F(1, 2),)),
    ]
    assert oh.reduced_child_map(s) == [
        [1, 2, 2, 2, 3, 1, 2, 3],
        [1, 2, 2, 2],
        [2, 2, 2, 2],
        [3, 1, 2, 3],
    ]
    assert s.full_count == 13
    assert set(full_pairs(s)) == {
        (0, 1),
        (1, 1), (1, 2), (1, 6),
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 7),
        (3, 1), (3, 4), (3, 5), (3, 8),
    }
    for rid in range(4):
        for rec in oh.reduced_records(s, rid):
            assert not rec.gap_before


def test_zero_row_third_tables(zero_row_third_structure):
    s = zero_row_third_structure
    assert s.reduced_count == 6
    sigs = [oh.reduced_signature(s, r) for r in range(6)]
    assert sigs == [
        (F(1), (F(0),)),
        (F(1, 3), (F(0),)),
        (F(1, 3), (F(0), F(1, 3))),
        (F(1, 3), (F(0), F(1, 3), F(2, 3))),
        (F(1, 3), (F(1, 3), F(2, 3))),
        (F(1, 3), (F(2, 3),)),
    ]
    assert oh.reduced_child_map(s) == [
        [0, 1, 2, 3, 4, 5],
        [0],
        [1, 2, 3],
        [3, 3, 3],
        [3, 3, 3],
        [3, 4, 5],
    ]
    root_records = oh.reduced_records(s, 0)
    assert [rec.gap_before for rec in root_records] == [
        False, True, False, False, False, False,
    ]
    assert set(full_pairs(s)) == {
        (0, 1),
        (1, 1),
        (2, 2),
        (3, 1), (3, 2), (3, 3),
        (4, 2), (4, 4),
        (5, 3), (5, 5),
    }


def test_eight_map_twelfths_tables(eight_map_twelfths_structure):
    s = eight_map_twelfths_structure
    assert s.reduced_count == 7
    sigs = [oh.reduced_signature(s, r) for r in range(7)]
    assert sigs == [
        (F(1), (F(0),)),
        (F(1, 3), (F(0),)),
        (F(1, 3), (F(0), F(1, 3))),
        (F(1, 3), (F(0), F(1, 3), F(2, 3))),
        (F(1, 3), (F(1, 3), F(2, 3))),
        (F(1, 3), (F(2, 3),)),
        (F(2, 3), (F(0), F(1, 3))),
    ]
    assert oh.reduced_child_map(s) == [
        [1, 2, 3, 3, 3, 3, 4, 5, 1, 6, 5],
        [1, 2, 3, 3],
        [3, 3, 3, 3],
        [3, 3, 3, 3],
        [3, 3, 4, 5],
        [1, 6, 5],
        [3, 3, 3, 3, 3, 3, 4, 5],
    ]
    root_children = [
        full_pair(s, rec.child) for rec in oh.reduced_records(s, 0)
    ]
    assert root_children == [
        (1, 1), (2, 2), (3, 3), (3, 4), (3, 5), (3, 6),
        (4, 7), (5, 8), (1, 9), (6, 1), (5, 10),
    ]
    for rid in range(7):
        for rec in oh.reduced_records(s, rid):
            assert not rec.gap_before


def test_golden_half_tables(golden_half_structure):
    s = golden_half_structure
    ctx = s.system.context
    rho = ctx.rho
    assert s.reduced_count == 6
    expected = [
        (ctx.one, (ctx.zero,)),
        (rho, (ctx.zero,)),
        (rho * rho, (ctx.zero, rho)),
        (rho, (rho * rho,)),
        (rho, (ctx.zero, rho * rho)),
        (rho * rho * rho, (rho * rho,)),
    ]
    for rid, (length, neighbours) in enumerate(expected):
        assert s.elements[s.length[rid]] == length
        assert s.neighbours_of_reduced(rid) == neighbours
    assert oh.reduced_child_map(s) == [
        [1, 2, 3],
        [1, 2],
        [4],
        [2, 3],
        [2, 5, 2],
        [2],
    ]
    assert s.full_count == 8
    assert set(full_pairs(s)) == {
        (0, 1), (1, 1), (2, 1), (3, 2), (4, 1), (3, 1), (5, 1), (2, 2),
    }


def test_quadratic_ninth_tables(quadratic_ninth_structure):
    s = quadratic_ninth_structure
    ctx = s.system.context
    rho = ctx.rho
    one = ctx.one
    assert s.reduced_count == 5
    expected = [
        (one, (ctx.zero,)),
        (one - rho, (ctx.zero,)),
        (rho, (ctx.zero, one - rho)),
        (one - rho, (rho,)),
        (one - rho - rho, (rho,)),
    ]
    for rid, (length, neighbours) in enumerate(expected):
        assert s.elements[s.length[rid]] == length
        assert s.neighbours_of_reduced(rid) == neighbours
    assert oh.reduced_child_map(s) == [
        [1, 2, 3, 1, 2, 3],
        [1, 2, 3, 1],
        [2, 4, 2],
        [3, 1, 2, 3],
        [3, 1],
    ]
    gaps = {
        rid: [rec.gap_before for rec in oh.reduced_records(s, rid)]
        for rid in range(5)
    }
    assert gaps[0] == [False, False, False, True, False, False]
    assert gaps[1] == [False, False, False, True]
    assert gaps[2] == [False, False, False]
    assert gaps[3] == [False, True, False, False]
    assert gaps[4] == [False, True]


def test_cantor_4_9_level_one(cantor_4_9_structure):
    s = cantor_4_9_structure
    intervals = list(iter_net_intervals(s, 1))
    assert len(intervals) == 12
    assert [oh.as_rational(iv.left) for iv in intervals] == [F(j, 12) for j in range(12)]
    sigs = [oh.reduced_signature(s, s.reduced_of(iv.full)) for iv in intervals]
    third = F(1, 3)
    full_neighbours = (F(0), F(1, 3), F(2, 3))
    assert sigs[0] == (third, (F(0),))
    assert sigs[1] == (third, (F(0), F(1, 3)))
    for j in range(2, 10):
        assert sigs[j] == (third, full_neighbours)
    assert sigs[10] == (third, (F(1, 3), F(2, 3)))
    assert sigs[11] == (third, (F(2, 3),))
    central = s.reduced_of(intervals[2].full)
    assert oh.reduced_child_map(s)[central] == [central] * 4


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

BRUTE_CASES = [
    ("golden_half_structure", 4, 6),
    ("zero_row_third_structure", 3, 5),
    ("six_map_quarter_structure", 3, 4),
    ("gap_system_structure", 3, 4),
    ("cantor_4_9_structure", 2, 2),
]


@pytest.mark.parametrize("name,n_max,probe", BRUTE_CASES)
def test_net_intervals_match_brute_force(request, name, n_max, probe):
    structure = request.getfixturevalue(name)
    system = structure.system
    for n in range(n_max + 1):
        brute = oh.brute_net_intervals(system, n, probe)
        walked = list(iter_net_intervals(structure, n))
        assert len(walked) == len(brute)
        for iv, (a, b) in zip(walked, brute):
            assert iv.left == a
            assert right_end(structure, iv) == b


@pytest.mark.parametrize("name,n_max", [(c[0], min(c[1], 3)) for c in BRUTE_CASES])
def test_neighbour_sets_match_brute_force(request, name, n_max):
    structure = request.getfixturevalue(name)
    system = structure.system
    start_sets = oh.cylinder_start_sets(system, n_max)
    power = system.context.one
    for n in range(n_max + 1):
        inv_power = power.inverse()
        for iv in iter_net_intervals(structure, n):
            b = right_end(structure, iv)
            expected = sorted(
                (iv.left - s) * inv_power
                for s in start_sets[n]
                if (s - iv.left).sign() <= 0 and (s + power - b).sign() >= 0
            )
            assert list(structure.neighbours_of_full(iv.full)) == expected
        power = power * system.rho


# ---------------------------------------------------------------------------
# structural invariants on every example
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_child_record_invariants(request, name):
    s = request.getfixturevalue(name)
    assert s.saturated
    rho = s.system.rho
    for rid in range(s.reduced_count):
        parent_length = s.elements[s.length[rid]]
        records = oh.reduced_records(s, rid)
        assert records
        sibling_counts = {}
        prev_end = None
        for pos, rec in enumerate(records):
            assert rec.edge_index == pos
            child_len = s.length_of_full(rec.child)
            end = rec.offset + rho * child_len
            assert rec.offset.sign() >= 0
            assert (end - parent_length).sign() <= 0
            assert rec.abuts_left == (rec.offset.sign() == 0)
            assert rec.abuts_right == (end == parent_length)
            if prev_end is None:
                assert rec.gap_before == (rec.offset.sign() > 0)
            else:
                assert (rec.offset - prev_end).sign() >= 0
                assert rec.gap_before == (rec.offset != prev_end)
            prev_end = end
            key = child_len.coeffs
            sibling_counts[key] = sibling_counts.get(key, 0) + 1
            assert s.sibling[rec.child] == sibling_counts[key]


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_letter_tables(request, name):
    """Each edge matrix names, entry by entry, the letter of the reference
    lookup, and every column has a positive entry."""
    s, letter_of = oh.with_letter_probabilities(request.getfixturevalue(name))
    for rid in range(s.reduced_count):
        parent = s.neighbours_of_reduced(rid)
        for rec in oh.reduced_records(s, rid):
            rows = edge_matrix(s, rid, rec.edge_index).rows
            assert tuple(tuple(letter_of.get(x) for x in row) for row in rows) == (
                oh.reference_letters(s.system, parent, rec.offset, s.neighbours_of_full(rec.child))
            )
            assert all(any(x > 0 for x in column) for column in zip(*rows))


# ---------------------------------------------------------------------------
# the sorted sweep of subdivide against the all-pairs reference loop
# ---------------------------------------------------------------------------

def _recorded_explore(system, monkeypatch):
    """Explore `system` and keep its explorer, the signature of every
    `subdivide` call, and every signature the walk asks `_pieces_of` for.
    Signatures are (length id, neighbour ids) in the explorer's value ids."""
    explorers = []
    calls = []
    asked = []
    init = _Explorer.__init__
    sweep = _Explorer.subdivide
    pieces_of = _Explorer._pieces_of

    def keeping(self, *args):
        init(self, *args)
        explorers.append(self)

    def recording(self, length, neighbours):
        calls.append((length, tuple(neighbours)))
        return sweep(self, length, neighbours)

    def asking(self, key):
        asked.append(key)
        return pieces_of(self, key)

    with monkeypatch.context() as patch:
        patch.setattr(_Explorer, "__init__", keeping)
        patch.setattr(_Explorer, "subdivide", recording)
        patch.setattr(_Explorer, "_pieces_of", asking)
        explore(system)
    (explorer,) = explorers
    return explorer, calls, list(dict.fromkeys(asked))


def _as_elements(explorer, pieces):
    """Pieces of value ids, with each id replaced by its element."""
    value = explorer.elements
    return [
        (value[u], value[v], value[ell], tuple(value[w] for w in ws)) for u, v, ell, ws in pieces
    ]


def _signature_elements(explorer, signature):
    length, neighbours = signature
    return explorer.elements[length], tuple(explorer.elements[c] for c in neighbours)


def _subdivide_elements(explorer, length, neighbours):
    """`subdivide` of a signature given by its elements, as elements."""
    ids = explorer.ids
    pieces = explorer.subdivide(ids[length], tuple(ids[c] for c in neighbours))
    return _as_elements(explorer, pieces)


def _assert_sweep_matches_reference(system, length, neighbours):
    pieces = _subdivide_elements(_Explorer(system), length, neighbours)
    assert pieces == oh.reference_subdivide(system, length, neighbours)


SWEEP_SYSTEMS = [n.removesuffix("_structure") for n in ALL_STRUCTURES] + ["convolution_3_8"]


@pytest.mark.parametrize("name", SWEEP_SYSTEMS)
def test_sweep_matches_all_pairs_loop(request, monkeypatch, name):
    system = request.getfixturevalue(name)
    explorer, _, signatures = _recorded_explore(system, monkeypatch)
    assert signatures
    for signature in signatures:
        _assert_sweep_matches_reference(system, *_signature_elements(explorer, signature))


@pytest.mark.parametrize("name", SWEEP_SYSTEMS)
def test_warm_explorer_matches_all_pairs_loop(request, monkeypatch, name):
    """After a full explore, the memoised pieces of every signature the walk
    read, and a second subdivide of it from the explorer's interned values,
    agree with the reference loop and with a fresh explorer."""
    system = request.getfixturevalue(name)
    explorer, _, signatures = _recorded_explore(system, monkeypatch)
    assert signatures
    for signature in signatures:
        length, neighbours = _signature_elements(explorer, signature)
        memoised = explorer._pieces_of(signature)
        pieces = _as_elements(explorer, memoised)
        assert pieces == oh.reference_subdivide(system, length, neighbours)
        again = explorer.subdivide(*signature)
        assert again == memoised
        assert _as_elements(explorer, again) == pieces
        assert pieces == _subdivide_elements(_Explorer(system), length, neighbours)


@pytest.mark.parametrize("name", SWEEP_SYSTEMS + ["table_87"])
def test_explore_subdivides_each_signature_once(request, monkeypatch, name):
    system = request.getfixturevalue(name)
    _, calls, signatures = _recorded_explore(system, monkeypatch)
    assert signatures
    assert len(calls) == len(signatures)
    assert set(calls) == set(signatures)


def test_each_value_is_interned_once(golden_third, six_map_quarter):
    explorer = _Explorer(golden_third)
    one, zero, rho = explorer.one, explorer.zero, explorer.rho
    ctx = golden_third.context
    # 1 - rho formed along two routes, and values equal to the constants
    first = explorer.minus[one, rho]
    assert explorer.plus[explorer.minus[zero, rho], one] == first
    assert explorer.elements[first] == ctx.one - golden_third.rho
    assert explorer.step[rho, zero] == one
    assert explorer.minus[explorer.plus[one, rho], rho] == one
    twin = ctx.one + ctx.zero
    assert twin == ctx.one and twin is not ctx.one
    assert explorer.ids[twin] == one
    assert len(set(explorer.elements)) == len(explorer.elements) == len(explorer.ids)
    assert [explorer.ids[e] for e in explorer.elements] == list(range(len(explorer.elements)))
    for system in (golden_third, six_map_quarter):
        # equal lengths, neighbours and offsets of a structure have one element id
        s = explore(system)
        shared = {}
        for vid in (*s.length, *s.neighbours, *s.offset):
            assert shared.setdefault(s.elements[vid], vid) == vid
        # the explorer leaves no reference cycle for the collector
        gc.collect()
        explore(system)
        assert gc.collect() == 0


def _random_rational_structures(count, budget):
    """`count` seeded systems with rho = 1/m, m in 2..5, and 2-4 translations
    of denominator at most 12, each explored to saturation within `budget`
    full vectors."""
    rng = random.Random(2016)
    structures = []
    while len(structures) < count:
        q = rng.randint(3, 12)
        points = rng.sample(range(q + 1), rng.choice((2, 3, 3, 4, 4, 4)))
        system = build_ifs(FieldContext([-1, rng.randint(2, 5)]), [F(p, q) for p in points])
        try:
            structures.append(explore(system, max_vectors=budget))
        except NotProvenFiniteTypeError:
            pass  # no saturation within the budget: draw another system
    return structures


def test_explore_matches_memo_free_reference_on_random_systems():
    structures = _random_rational_structures(30, budget=500)
    assert max(s.full_count for s in structures) > 50
    for structure in structures:
        expected = oh.reference_explore(structure.system)
        assert oh.structure_layout(structure) == oh.structure_layout(expected)


@pytest.mark.parametrize("name", SWEEP_SYSTEMS)
def test_explore_matches_memo_free_reference(request, name):
    system = request.getfixturevalue(name)
    expected = oh.reference_explore(system)
    assert oh.structure_layout(explore(system)) == oh.structure_layout(expected)


def _closed_end_hits(system, length, neighbours):
    """Whether some start sits on a piece's u, and some on a piece's v - rho."""
    starts = {(d - c).coeffs for c in neighbours for d in system.translations}
    on_u = on_low = False
    for u, v, _, _ in oh.reference_subdivide(system, length, neighbours):
        on_u |= u.coeffs in starts
        on_low |= (v - system.rho).coeffs in starts
    return on_u, on_low


def test_sweep_keeps_starts_on_both_closed_ends(six_map_quarter, golden_half, tribonacci_third):
    cases = []
    ctx = six_map_quarter.context
    cases.append((six_map_quarter, ctx.from_rational(F(3, 8)),
                  tuple(ctx.from_rational(F(k, 8)) for k in (0, 1, 2))))
    cases.append((six_map_quarter, ctx.one, (ctx.zero,)))
    for system in (golden_half, tribonacci_third):
        rho = system.rho
        cases.append((system, rho, (system.context.zero, rho * rho)))
        cases.append((system, system.context.one, (system.context.zero,)))
    for system, length, neighbours in cases:
        assert _closed_end_hits(system, length, neighbours) == (True, True)
        _assert_sweep_matches_reference(system, length, neighbours)


def test_iter_matches_path_helpers(golden_half_structure):
    s = golden_half_structure
    for iv in iter_net_intervals(s, 3):
        assert path_fulls(s, iv.edges)[-1] == iv.full
        assert path_left_endpoint(s, iv.edges) == iv.left


def test_exploration_is_deterministic(golden_third):
    a = explore(golden_third)
    b = explore(golden_third)
    assert oh.reduced_child_map(a) == oh.reduced_child_map(b)
    assert full_pairs(a) == full_pairs(b)
    assert a.describe() == b.describe()


def test_exploration_budgets(golden_third):
    with pytest.raises(NotProvenFiniteTypeError) as info:
        explore(golden_third, max_vectors=3)
    assert info.value.partial is not None
    assert not info.value.partial.saturated
    with pytest.raises(NotProvenFiniteTypeError):
        explore(golden_third, max_level=0)


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------

def test_locate_shared_endpoint(six_map_quarter_structure):
    s = six_map_quarter_structure
    loc = locate_point(s, F(1, 2))
    assert loc.boundary
    assert loc.boundary_level == 1
    left, right = loc.representations
    assert left.side == "left"
    assert left.alive
    assert left.edges[0] == 3
    assert full_pair(s, left.fulls[1]) == (2, 4)
    assert left.cycle == (1, 1)
    assert right.side == "right"
    assert right.alive
    assert right.edges[:2] == [4, 0]
    assert full_pair(s, right.fulls[1]) == (3, 5)
    assert full_pair(s, right.fulls[2]) == (3, 1)
    assert right.cycle == (2, 1)


def test_locate_hull_endpoints(six_map_quarter_structure):
    s = six_map_quarter_structure
    at_zero = locate_point(s, 0)
    assert at_zero.boundary and at_zero.boundary_level == 1
    (rep,) = at_zero.representations
    assert rep.side == "right"
    assert rep.edges[:2] == [0, 0]
    assert rep.cycle == (1, 1)
    assert full_pair(s, rep.fulls[1]) == (1, 1)

    at_one = locate_point(s, 1)
    (rep,) = at_one.representations
    assert rep.side == "left"
    assert rep.edges[0] == 7
    assert full_pair(s, rep.fulls[1]) == (3, 8)
    assert rep.cycle == (2, 1)
    assert full_pair(s, rep.fulls[2]) == (3, 4)


def test_locate_interior_periodic(six_map_quarter_structure):
    s = six_map_quarter_structure
    loc = locate_point(s, F(1, 3))
    assert not loc.boundary
    (rep,) = loc.representations
    assert rep.side == "interior"
    assert rep.cycle == (1, 1)
    assert full_pair(s, rep.fulls[1]) == (2, 3)
    assert full_pair(s, rep.fulls[2]) == (2, 3)


def test_locate_interior_containment(golden_half_structure):
    s = golden_half_structure
    loc = locate_point(s, F(1, 2), depth=25)
    assert not loc.boundary
    (rep,) = loc.representations
    assert rep.side == "interior"
    assert len(rep.fulls) == len(rep.edges) + 1
    left = path_left_endpoint(s, rep.edges)
    power = s.system.context.one
    for _ in range(len(rep.edges)):
        power = power * s.system.rho
    right = left + power * s.length_of_full(rep.fulls[-1])
    x = s.system.context.from_rational(F(1, 2))
    assert (x - left).sign() > 0
    assert (right - x).sign() > 0


def test_locate_boundary_at_gap(gap_system_structure):
    s = gap_system_structure
    loc = locate_point(s, F(5, 12))
    assert loc.boundary
    (rep,) = loc.representations
    assert rep.side == "left"
    loc = locate_point(s, F(7, 12))
    (rep,) = loc.representations
    assert rep.side == "right"


def test_locate_gap_and_hull_errors(gap_system_structure, zero_row_third_structure):
    with pytest.raises(PointNotInAttractorError) as info:
        locate_point(gap_system_structure, F(1, 2))
    assert info.value.level == 1
    with pytest.raises(PointNotInAttractorError):
        locate_point(zero_row_third_structure, F(7, 20))
    with pytest.raises(PointNotInAttractorError) as info:
        locate_point(gap_system_structure, F(-1, 8))
    assert info.value.level == 0
    with pytest.raises(PointNotInAttractorError):
        locate_point(gap_system_structure, F(9, 8))


def test_locate_heavy_boundary_point(eight_map_twelfths_structure):
    s = eight_map_twelfths_structure
    loc = locate_point(s, F(11, 12))
    assert loc.boundary and loc.boundary_level == 1
    left, right = loc.representations
    assert left.side == "left"
    assert left.edges == [9, 7, 2, 2]
    assert [full_pair(s, f) for f in left.fulls[1:]] == [
        (6, 1), (5, 8), (5, 2), (5, 2),
    ]
    assert left.cycle == (3, 1)
    assert right.side == "right"
    assert right.edges == [10, 0, 0]
    assert [full_pair(s, f) for f in right.fulls[1:]] == [
        (5, 10), (1, 1), (1, 1),
    ]
    assert right.cycle == (2, 1)


def test_every_boundary_point_keeps_a_live_side():
    # a side's forced chain can die (x/3 + {0, 16/45, 22/45, 2/3} at 37/45
    # is one case), but a net-interval endpoint lies in the attractor, which
    # has no isolated points, so the attractor accumulates at it from at
    # least one side and that side's chain lives
    rng = random.Random(3729)
    ctx = FieldContext([-1, 3])
    dead_sides = 0
    for _ in range(40):
        m = rng.randint(2, 15)
        inner = rng.sample(range(1, m), rng.randint(1, min(3, m - 1)))
        s = explore(build_ifs(ctx, [F(0), F(1)] + [F(i, m) for i in inner]))
        for x in net_endpoints(s):
            location = locate_point(s, x)
            assert location.boundary
            assert any(rep.alive for rep in location.representations), x
            dead_sides += sum(not rep.alive for rep in location.representations)
    # the draws do reach the dead-chain exit
    assert dead_sides > 0


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_boundary_chains_close_at_the_boundary_level(request, name):
    # a forced chain closes or dies within full_count + 1 edges of its
    # boundary level, so a depth that only reaches that level locates the
    # point as the default depth does
    s = request.getfixturevalue(name)
    for x in net_endpoints(s):
        location = locate_point(s, x)
        assert location.boundary
        level = location.boundary_level
        assert not locate_point(s, x, level - 1).boundary
        assert locate_point(s, x, level) == location
        for rep in location.representations:
            assert len(rep.edges) <= level + s.full_count
            if rep.alive:
                start, period = rep.cycle
                assert start + period == len(rep.edges)
