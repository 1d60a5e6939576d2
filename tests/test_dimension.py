"""Tests for dimensions, interval bounds, isolation and diagnostics."""

import itertools
import math
import operator
import random
import types
from fractions import Fraction
from functools import reduce
from pathlib import Path

import mpmath
import numpy
import pytest

from ifsdim import dimension
from ifsdim.classes import decompose
from ifsdim.config import build_system, parse_config
from ifsdim.field import FieldContext
from ifsdim.dimension import (
    Certified,
    LocalDimensionResult,
    PeriodicSpec,
    build_dimension_report,
    equal_column_sum_check,
    essential_interval_bounds,
    hausdorff_dimension,
    isolated_point_scan,
    isolation_verdict,
    local_dim_periodic,
    pisot_check,
    pisot_check_reciprocal,
    rho_log_enclosure,
    sanity_dim_in_interval,
)
from ifsdim.ifs import cantor_like
from ifsdim.matrices import MatrixTable, TransitionMatrix, edge_matrix
from ifsdim.net import DEFAULT_DEPTH, FiniteTypeStructure, explore, locate_point
from ifsdim.spectral import spectral_radius

import oracle_helpers as oh
from oracle_helpers import reference_cycles, reference_inner_bounds

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


def parts_of(structure):
    dec = decompose(structure)
    return dec, MatrixTable(structure)


def abs_log_rho(structure):
    return abs(math.log(float(structure.system.context.rho)))


# -- Hausdorff dimension ------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    [
        "six_map_quarter_structure",
        "zero_row_third_structure",
        "eight_map_twelfths_structure",
        "cantor_4_9_structure",
        "cantor_3_4_skewed_structure",
        "gap_system_structure",
        "golden_half_structure",
        "tribonacci_third_structure",
    ],
)
def test_hausdorff_dimension_one_for_full_interval_attractors(name, request):
    structure = request.getfixturevalue(name)
    dec, _ = parts_of(structure)
    result = hausdorff_dimension(structure, dec)
    assert abs(result.dimension.value - 1.0) < 1e-9
    assert result.dimension.lo <= 1 <= result.dimension.hi


def test_hausdorff_dimension_quadratic(quadratic_ninth_structure):
    dec, _ = parts_of(quadratic_ninth_structure)
    result = hausdorff_dimension(quadratic_ninth_structure, dec)
    expected = math.log(2 + math.sqrt(2)) / abs_log_rho(quadratic_ninth_structure)
    assert abs(result.dimension.value - expected) < 1e-9
    assert result.dimension.hi < 1
    assert abs(result.spectral.value - (2 + math.sqrt(2))) < 1e-9


def test_hausdorff_dimension_classic_middle_thirds():
    with pytest.warns(UserWarning):
        system = cantor_like(3, 1, (Fraction(1, 2), Fraction(1, 2)))
    structure = explore(system)
    dec, _ = parts_of(structure)
    result = hausdorff_dimension(structure, dec)
    assert abs(result.dimension.value - math.log(2) / math.log(3)) < 1e-12
    assert result.spectral.exact == 2


# -- local dimensions at periodic points --------------------------------------


def test_gap_system_endpoint_dimension(gap_system_structure):
    dec, table = parts_of(gap_system_structure)
    for x in (0, 1):
        spec = PeriodicSpec.from_location(locate_point(gap_system_structure, x))
        result = local_dim_periodic(gap_system_structure, table, spec)
        assert abs(result.dimension.value - 1.5) < 1e-10
        assert result.dimension.lo <= Fraction(3, 2) <= result.dimension.hi


def test_middle_map_fixed_point_takes_middle_probability():
    system = cantor_like(3, 2, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    structure = explore(system)
    _, table = parts_of(structure)
    spec = PeriodicSpec.from_location(locate_point(structure, Fraction(1, 2)))
    assert spec.second is None
    result = local_dim_periodic(structure, table, spec)
    assert abs(result.dimension.value - math.log(2) / math.log(3)) < 1e-10


def _self_loop_with_rate(structure, table, sp_value):
    """A (full id, edge) self-loop whose matrix has exact spectral radius sp_value."""
    for fid in range(structure.full_count):
        for rec in oh.child_records(structure, fid):
            if rec.child != fid:
                continue
            m = table.of_edge(structure.reduced_of(fid), rec.edge_index)
            if spectral_radius(m).exact == Fraction(sp_value):
                return fid, rec.edge_index
    raise AssertionError(f"no self-loop with spectral radius {sp_value}")


def _root_path_to(structure, fid):
    from collections import deque

    parents = {structure.root_full: ()}
    queue = deque([structure.root_full])
    while queue:
        cur = queue.popleft()
        if cur == fid:
            return parents[cur]
        for rec in oh.child_records(structure, cur):
            if rec.child not in parents:
                parents[rec.child] = parents[cur] + (rec.edge_index,)
                queue.append(rec.child)
    raise AssertionError(f"full vector {fid} unreachable from the root")


def test_eight_map_periodic_rates(eight_map_twelfths_structure):
    structure = eight_map_twelfths_structure
    _, table = parts_of(structure)
    # a self-loop collecting two letters of weight 1/14 gives rate log 7 / log 4
    fid, edge = _self_loop_with_rate(structure, table, Fraction(1, 7))
    spec = PeriodicSpec(_root_path_to(structure, fid), (edge,))
    result = local_dim_periodic(structure, table, spec)
    assert abs(result.dimension.value - 1.4036774610288021) < 1e-10
    # a single letter of weight 1/14 gives rate log 14 / log 4
    fid, edge = _self_loop_with_rate(structure, table, Fraction(1, 14))
    spec = PeriodicSpec(_root_path_to(structure, fid), (edge,))
    result = local_dim_periodic(structure, table, spec)
    assert abs(result.dimension.value - 1.9036774610288021) < 1e-10


def test_eight_map_boundary_point_takes_min_rate(eight_map_twelfths_structure):
    structure = eight_map_twelfths_structure
    _, table = parts_of(structure)
    location = locate_point(structure, Fraction(11, 12))
    assert location.boundary
    spec = PeriodicSpec.from_location(location)
    assert spec.second is not None
    result = local_dim_periodic(structure, table, spec)
    assert abs(result.dimension.value - 0.5) < 1e-10
    values = sorted(r.value for r in result.rates)
    assert abs(values[0] - 0.5) < 1e-10
    assert abs(values[1] - 1.9036774610288021) < 1e-10
    assert result.rates[result.winner].value == min(values)


def _essential_two_cycle(structure):
    """(prefix to an anchor, (e1, e2)) tracing a two-step essential cycle."""
    dec = decompose(structure)
    root_records = oh.child_records(structure, structure.root_full)
    entry = next(
        i for i, rec in enumerate(root_records) if rec.child in dec.essential
    )
    anchor = root_records[entry].child
    for out in oh.child_records(structure, anchor):
        for back in oh.child_records(structure, out.child):
            if back.child == anchor and out.edge_index != back.edge_index:
                return (entry,), (out.edge_index, back.edge_index)
    raise AssertionError("no mixed two-cycle in the essential class")


def test_rotating_the_cycle_does_not_change_the_dimension(gap_system_structure):
    structure = gap_system_structure
    _, table = parts_of(structure)
    prefix, (e1, e2) = _essential_two_cycle(structure)
    base = local_dim_periodic(structure, table, PeriodicSpec(prefix, (e1, e2)))
    rotated = local_dim_periodic(
        structure, table, PeriodicSpec(prefix + (e1,), (e2, e1))
    )
    assert abs(base.dimension.value - rotated.dimension.value) < 1e-10


def test_inadmissible_cycle_is_rejected(gap_system_structure):
    _, table = parts_of(gap_system_structure)
    with pytest.raises(ValueError):
        local_dim_periodic(gap_system_structure, table, PeriodicSpec((), (0,)))
    with pytest.raises(ValueError):
        local_dim_periodic(gap_system_structure, table, PeriodicSpec((), ()))


# -- bounds for the truly essential interval ---------------------------------


def test_gap_system_bounds_collapse_to_one(gap_system_structure):
    structure = gap_system_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=4)
    assert bounds.p_max == bounds.p_min == Fraction(1, 4)
    for certified in (bounds.outer_lo, bounds.outer_hi, bounds.inner_lo, bounds.inner_hi):
        assert abs(certified.value - 1.0) < 1e-9
    assert bounds.cycle_count > 0
    assert bounds.excluded_count >= 2
    assert_excluded_walks_hug_one_end(structure, bounds.excluded)


def assert_excluded_walks_hug_one_end(structure, excluded):
    """Each excluded walk only steps to first (resp. last) children at that end."""
    for steps, reason in excluded:
        assert reason in {"all_leftmost", "all_rightmost"}
        for fid, e in steps:
            records = oh.child_records(structure, fid)
            if reason == "all_leftmost":
                assert e == 0 and records[e].abuts_left
            else:
                assert e == len(records) - 1 and records[e].abuts_right


def test_skewed_cantor_inner_bound_touches_outer(cantor_3_4_skewed_structure):
    structure = cantor_3_4_skewed_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=4)
    assert bounds.p_max == Fraction(4, 9)
    assert bounds.p_min == Fraction(1, 9)
    expected_lo = math.log(Fraction(9, 4)) / math.log(3)
    assert abs(bounds.outer_lo.value - expected_lo) < 1e-9
    assert abs(bounds.outer_hi.value - 2.0) < 1e-9
    # the symmetric middle self-loop has spectral radius 4/9 and attains the bound
    assert abs(bounds.inner_lo.value - expected_lo) < 1e-6
    assert bounds.min_witness.positive
    assert bounds.min_witness.edges == (1,)
    assert bounds.inner_hi.value <= bounds.outer_hi.value + 1e-9


def test_quadratic_bounds_and_two_cycle_minimum(quadratic_ninth_structure):
    structure = quadratic_ninth_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=4)
    assert bounds.p_max == Fraction(1, 2)
    assert bounds.p_min == Fraction(1, 4)
    step = abs_log_rho(structure)
    assert abs(bounds.outer_lo.value - math.log(2) / step) < 1e-9
    assert abs(bounds.outer_hi.value - math.log(4) / step) < 1e-9
    expected_min = -math.log((3 + math.sqrt(5)) / 32) / (2 * step)
    assert abs(bounds.inner_lo.value - expected_min) < 1e-6
    assert len(bounds.min_witness.edges) == 2
    assert bounds.inner_lo.value >= bounds.outer_lo.value - 1e-9
    assert bounds.inner_hi.value <= bounds.outer_hi.value + 1e-9


def test_inner_bounds_widen_with_the_budget(cantor_3_4_skewed_structure):
    structure = cantor_3_4_skewed_structure
    dec, table = parts_of(structure)
    previous = None
    for budget in (2, 3, 4, 5):
        bounds = essential_interval_bounds(structure, dec, table, cycle_budget=budget)
        if previous is not None:
            assert bounds.inner_lo.value <= previous.inner_lo.value + 1e-12
            assert bounds.inner_hi.value >= previous.inner_hi.value - 1e-12
        previous = bounds


@pytest.mark.parametrize("end", ["left", "right"])
def test_an_end_child_that_does_not_abut_its_end_is_included(
    monkeypatch, gap_system_structure, end
):
    # with a gap at that end, repeating the child does not run to the end point
    structure = gap_system_structure
    dec, table = parts_of(structure)
    before = essential_interval_bounds(structure, dec, table, cycle_budget=3)
    reason = "all_%smost" % end
    moved = sum(r == reason for _, r in before.excluded)
    assert 0 < moved and before.excluded_count <= 10
    column = "abuts_%s" % end
    flags = list(getattr(structure, column))
    for rid in dec.essential_reduced:
        span = structure.edges_of_reduced(rid)
        flags[span[0] if end == "left" else span[-1]] = False
    monkeypatch.setattr(structure, column, flags)
    after = essential_interval_bounds(structure, dec, table, cycle_budget=3)
    assert reason not in {r for _, r in after.excluded}
    assert after.excluded_count == before.excluded_count - moved
    assert after.cycle_count == before.cycle_count + moved


def test_descent_filter_reports_rather_than_includes(eight_map_twelfths_structure):
    structure = eight_map_twelfths_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=3)
    assert bounds.excluded_count >= 2
    assert_excluded_walks_hug_one_end(structure, bounds.excluded)
    for steps, _ in bounds.excluded:
        assert all(fid in dec.essential for fid, _ in steps)


# budget 6 takes the all-rotations reference over a second on these
LYNDON_BUDGETS = {
    "eight_map_twelfths_structure": 5,
    "cantor_4_9_structure": 5,
    "gap_system_structure": 5,
}


@pytest.mark.parametrize("name", ALL_STRUCTURES + ["convolution_3_8"])
def test_lyndon_enumeration_matches_the_all_rotations_loop(request, name):
    structure = request.getfixturevalue(name)
    if name == "convolution_3_8":
        structure = explore(structure)
    dec, table = parts_of(structure)
    essential = sorted(dec.essential)
    children = {fid: oh.child_records(structure, fid) for fid in essential}
    steps = dimension._StepTable(structure, essential, table)
    for budget in range(1, LYNDON_BUDGETS.get(name, 6) + 1):
        cycles = {c for start in essential for c in reference_cycles(children, start, budget)}
        batched = [w for walks, _, _ in batched_cycles(steps, budget) for w in walks]
        hugging = sorted(hugging_cycles(children, cycles))
        assert len(batched) == len(set(batched))
        assert set(batched) == cycles - {c for c, _ in hugging}
        bounds = essential_interval_bounds(structure, dec, table, budget)
        assert bounds.cycle_count == len(batched)
        assert bounds.excluded == tuple(hugging[:10])
        assert bounds.excluded_count == len(hugging)


class RandomTable:
    """The matrices of a `random_class` by step, read as `MatrixTable.of_full_edge`
    and multiplied along a cycle as `MatrixTable.cycle_matrix`."""

    def __init__(self, matrices, structure):
        self.matrices = matrices
        self.structure = structure

    def of_full_edge(self, fid, edge_index):
        return self.matrices[(fid, edge_index)]

    def cycle_matrix(self, fid, edges):
        product, at = None, fid
        for e in edges:
            m = self.matrices[(at, e)]
            product = m if product is None else product * m
            at = self.structure.child[self.structure.edges_of_full(at)[e]]
        assert at == fid, "not a cycle"
        return product

    # each vector of a `random_class` is its own reduced vector
    of_edge = of_full_edge


def random_class(rng):
    """A random closed multigraph of child records, with a matrix per step,
    and the structure that holds those records as its columns.

    Vector ids are spread out, each vector has 1 to 3 children, and first
    and last children often abut their end, so cycles that hug one end are
    common.  Neighbour counts run from 1 to 3, so products are padded.
    Entries are fractions with denominators up to 2000.
    """
    vectors = sorted(rng.sample(range(40), rng.randint(1, 4)))
    size = {f: rng.randint(1, 3) for f in vectors}
    children, matrices = {}, {}
    for f in vectors:
        fan = rng.choice([1, 1, 1, 2, 2, 3])
        children[f] = [
            oh.Record(
                rng.choice(vectors), None, e, False,
                e == 0 and rng.random() < 0.7, e == fan - 1 and rng.random() < 0.7,
            )
            for e in range(fan)
        ]
        for r in children[f]:
            matrices[(f, r.edge_index)] = TransitionMatrix(
                [
                    [Fraction(rng.randint(100, 1000), rng.randint(1000, 2000))
                     for _ in range(size[r.child])]
                    for _ in range(size[f])
                ]
            )
    # each vector id is also its own reduced id; offsets are not read
    structure = FiniteTypeStructure(None)
    structure.full_reduced = list(range(vectors[-1] + 1))
    for f in structure.full_reduced:
        for r in children.get(f, ()):
            structure.child.append(r.child)
            structure.abuts_left.append(r.abuts_left)
            structure.abuts_right.append(r.abuts_right)
        structure.edge_start.append(len(structure.child))
    return structure, children, RandomTable(matrices, structure)


def is_prenecklace(steps):
    """Every suffix is at least the prefix of its length: a prefix of some necklace."""
    return all(steps[i:] >= steps[: len(steps) - i] for i in range(1, len(steps)))


def prenecklace_walks(children, start, budget):
    """(length, steps back) of each pre-necklace walk from `start` of at most
    `budget` steps, found by brute force: the fewest steps from its end back
    to `start` through vectors >= `start`, or budget + 1 if there are more."""
    far = {start: 0}
    for _ in range(budget):
        for f, recs in children.items():
            for r in recs:
                if f >= start and r.child in far:
                    far[f] = min(far.get(f, budget + 1), far[r.child] + 1)
    walks = []
    stack = [(start, ())]
    while stack:
        fid, steps = stack.pop()
        for r in children[fid]:
            nxt = steps + ((fid, r.edge_index),)
            # a prefix of a pre-necklace is one
            if is_prenecklace(nxt):
                walks.append((len(nxt), far.get(r.child, budget + 1)))
                if len(nxt) < budget:
                    stack.append((r.child, nxt))
    return walks


def hugging_cycles(children, cycles):
    """The (cycle, reason) of the cycles whose steps all go to a first child
    at the left end, or else all to a last child at the right end."""
    out = []
    for c in cycles:
        recs = [children[f][e] for f, e in c]
        if all(r.edge_index == 0 and r.abuts_left for r in recs):
            out.append((c, "all_leftmost"))
        elif all(
            r.edge_index == len(children[f]) - 1 and r.abuts_right for r, (f, _) in zip(recs, c)
        ):
            out.append((c, "all_rightmost"))
    return out


def batched_cycles(steps, budget):
    """The batches of `dimension._cycle_batches` on a `_StepTable`, each as
    the (vector, edge) steps and the float products of its cycles that hug
    neither end, and the (steps, reason) of the others, which
    `essential_interval_bounds` excludes."""
    src, edge = steps.src.tolist(), steps.edge.tolist()
    for codes, products, hug in dimension._cycle_batches(steps, budget):
        # each step leaves the vector the one before it enters, and the last
        # enters the first's
        assert (steps.dst[codes] == steps.src[numpy.roll(codes, -1, axis=1)]).all()
        included = hug == 0
        walks = [
            tuple((steps.vectors[src[c]], edge[c]) for c in row)
            for row in codes[included].tolist()
        ]
        yield walks, products[included], steps.hugging(codes[~included], hug[~included])


def test_batched_enumeration_matches_the_references_on_random_graphs(monkeypatch):
    rng = random.Random(20261018)
    rows = []
    matmul = numpy.matmul

    def counting_matmul(a, b):
        rows.append(len(a))
        return matmul(a, b)

    monkeypatch.setattr(numpy, "matmul", counting_matmul)
    both_ends = 0
    for _ in range(200):
        structure, children, table = random_class(rng)
        steps = dimension._StepTable(structure, children, table)
        # the step table's floats are those of the `Fraction` entries times
        # L / 2^s, for their common denominator L <= 2^s < 2 L, padded
        den = math.lcm(*(m.den for m in table.matrices.values()))
        assert steps.den == den and 2**steps.scale >= den > 2 ** (steps.scale - 1)
        assert steps.shift == math.log(2**steps.scale / den)
        unit = Fraction(den, 2**steps.scale)
        floats = {
            s: numpy.array([[float(x * unit) for x in row] for row in m.rows])
            for s, m in table.matrices.items()
        }
        for c, (f, e) in enumerate(zip(steps.src.tolist(), steps.edge.tolist())):
            m = floats[(steps.vectors[f], e)]
            padded = numpy.zeros((steps.width, steps.width))
            padded[: m.shape[0], : m.shape[1]] = m
            assert (steps.floats[c] == padded).all()
        starts = sorted(children)
        cycles = [c for s in starts for c in reference_cycles(children, s, 8)]
        prenecklaces = [w for s in starts for w in prenecklace_walks(children, s, 8)]
        for budget in range(1, 9):
            lyndon = [c for c in cycles if len(c) <= budget]
            hugging = sorted(hugging_cycles(children, lyndon))
            # a cycle whose steps hug both ends counts once, as all_leftmost
            both_ends += sum(
                all(len(children[f]) == 1 and children[f][0].abuts_right for f, _ in c)
                for c, reason in hugging
                if reason == "all_leftmost"
            )
            rows.clear()
            got, hugged = [], []
            for walks, products, excluded in batched_cycles(steps, budget):
                got += walks
                hugged += excluded
                if budget == 8 and walks:
                    expected = [reduce(operator.matmul, [floats[s] for s in w]) for w in walks]
                    numpy.testing.assert_allclose(products, expected, rtol=1e-12)
            # the same cycles, each once: cycle_count is len(got)
            assert sorted(got) == sorted(set(lyndon) - {c for c, _ in hugging})
            # the end-hugging cycles come out of the same enumeration
            excluded, excluded_count = sorted(hugged)[:10], len(hugged)
            assert excluded == hugging[:10] and excluded_count == len(hugging)
            # the distance pruning keeps exactly the walks that can still close
            assert sum(rows) == sum(1 for n, back in prenecklaces if n + back <= budget)
    # the graphs reach cycles that hug both ends
    assert both_ends > 0


# every primitive cycle, end-hugging ones included, of the suite systems at
# their perfbench budgets and at the budgets of the CI report pins
SUITE_CYCLES = [
    ("golden_third_structure", 8, 17),
    ("tribonacci_third_structure", 8, 41),
    ("quadratic_ninth_structure", 10, 31940),
    ("quadratic_ninth_structure", 12, 307679),
    ("cantor_4_9_structure", 6, 964),
    ("convolution_3_8_structure", 6, 196),
    ("table_87_structure", 4, 33),
    ("table_87_structure", 8, 1319),
]


@pytest.mark.parametrize("name, budget, cycles", SUITE_CYCLES)
def test_necklace_count_equals_the_enumerated_count_on_the_suite(request, name, budget, cycles):
    structure = request.getfixturevalue(name)
    dec, table = parts_of(structure)
    steps = dimension._StepTable(structure, dec.essential, table)
    assert steps.necklaces(budget) == cycles
    if name == "quadratic_ninth_structure":
        # the all-rotations loop takes minutes here: count the unpruned
        # enumeration instead, which matches that loop at small budgets
        enumerated = sum(len(codes) for codes, _, _ in dimension._cycle_batches(steps, budget))
    else:
        essential = sorted(dec.essential)
        children = {fid: oh.child_records(structure, fid) for fid in essential}
        enumerated = sum(1 for f in essential for _ in reference_cycles(children, f, budget))
    assert enumerated == cycles
    bounds = essential_interval_bounds(structure, dec, table, budget)
    assert bounds.cycle_count + bounds.excluded_count == cycles


@pytest.mark.parametrize("name", ALL_STRUCTURES + ["convolution_3_8_structure"])
def test_necklace_count_equals_the_reference_cycles_on_the_fixtures(request, name):
    structure = request.getfixturevalue(name)
    dec, table = parts_of(structure)
    essential = sorted(dec.essential)
    children = {fid: oh.child_records(structure, fid) for fid in essential}
    steps = dimension._StepTable(structure, essential, table)
    budget = LYNDON_BUDGETS.get(name, 6)
    lengths = [len(c) for f in essential for c in reference_cycles(children, f, budget)]
    for b in range(1, budget + 1):
        assert steps.necklaces(b) == sum(n <= b for n in lengths), b


def test_necklace_count_equals_the_enumerated_count_on_random_classes():
    # the steps of a `random_class` hug an end at random, so the count less
    # the excluded cycles must be the included ones
    rng = random.Random(20261021)
    for _ in range(200):
        structure, children, table = random_class(rng)
        structure.system = types.SimpleNamespace(context=FieldContext([-1, 3]))
        dec = types.SimpleNamespace(essential=sorted(children), essential_reduced=sorted(children))
        steps = dimension._StepTable(structure, children, table)
        cycles = [c for f in sorted(children) for c in reference_cycles(children, f, 8)]
        for budget in range(1, 9):
            assert steps.necklaces(budget) == sum(len(c) <= budget for c in cycles)
        bounds = essential_interval_bounds(structure, dec, table, 8)
        hugging = hugging_cycles(children, cycles)
        assert bounds.excluded_count == len(hugging)
        assert bounds.cycle_count == len(cycles) - len(hugging)


def test_necklace_count_is_exact_past_int64():
    # tr(A^n) is the sum of d p(d) over the d dividing n, p(d) the primitive
    # cycles of d steps: checked against python-integer traces up to budget
    # 60, past which the walk counts leave int64, and the loops' traces too
    rng = random.Random(20261022)
    classes = [loop_class([Fraction(1, 2)] * 9)]
    while len(classes) < 4:
        structure, children, table = random_class(rng)
        if len(children) > 1 and sum(map(len, children.values())) > 2 * len(children):
            classes.append(dimension._StepTable(structure, children, table))
    budget, widest = 60, []
    for steps in classes:
        size = len(steps.vectors)
        assert size * int(steps.count.max()) ** budget >= 2**63
        a = [[0] * size for _ in range(size)]
        for u, v in zip(steps.src.tolist(), steps.dst.tolist()):
            a[u][v] += 1
        power, traces = a, [None]
        for _ in range(budget):
            traces.append(sum(power[i][i] for i in range(size)))
            power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
        count = [0] + [steps.necklaces(n) for n in range(1, budget + 1)]
        primitive = [None] + [y - x for x, y in zip(count, count[1:])]
        for n in range(1, budget + 1):
            assert sum(d * primitive[d] for d in range(1, n + 1) if n % d == 0) == traces[n], n
        widest.append(traces[budget])
    # the nine loops close 9^60 walks of 60 steps
    assert widest[0] == 9**60 > 2**63


@pytest.mark.parametrize("budget", [0, -3])
def test_cycle_budget_below_one_is_rejected(quadratic_ninth_structure, budget):
    structure = quadratic_ninth_structure
    dec, table = parts_of(structure)
    for inner in (True, False):
        with pytest.raises(ValueError, match="cycle budget must be at least 1"):
            essential_interval_bounds(structure, dec, table, budget, inner=inner)


def test_witness_ties_go_to_the_shortest_cycle(six_map_quarter_structure):
    structure = six_map_quarter_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=6)
    # 21 cycles of 2 to 6 edges have enclosures that reach the greatest one;
    # the shortest win, and of those the least (start, edges)
    assert bounds.max_witness.start == 4
    assert bounds.max_witness.edges == (0, 3)


def test_least_row_is_the_least_row_of_the_stack():
    # seeded int32 stacks of step codes with many tied leading columns, and
    # single rows, against the least row as a tuple
    rng = random.Random(20261026)
    for i in range(400):
        n, size = rng.randint(1, 6), 1 if i % 4 == 0 else rng.randint(2, 40)
        codes = numpy.array(
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(size)], numpy.int32
        )
        assert dimension._least_row(codes) == min(map(tuple, codes.tolist()))


def test_witness_is_the_least_over_the_certificates():
    # certificates (rate, positive, least row) of distinct rows of 3 loop
    # codes, many tied on positivity and length as on table_87, against the
    # least (not positive, length, row) over those that attain
    steps = loop_class([Fraction(1, 2)] * 3)
    rng = random.Random(20261025)
    for _ in range(300):
        rows = rng.sample([r for n in (1, 2, 3) for r in itertools.product(range(3), repeat=n)], 12)
        certificates = [(rate, rng.random() < 0.7, row) for rate, row in enumerate(rows)]
        attains = set(rng.sample(range(len(rows)), rng.randint(1, len(rows))))
        not_positive, _, row, rate = min(
            (not positive, len(row), row, rate)
            for rate, positive, row in certificates
            if rate in attains
        )
        witness = dimension._witness(certificates, attains.__contains__, steps)
        assert witness == dimension.CycleWitness(*steps.cycle(list(row)), rate, not not_positive)


def test_rate_runs_once_per_distinct_rate_on_table_87(monkeypatch, table_87_structure):
    # 1,315 certified cycles with 952 distinct products, every spectral
    # radius exactly 1, so 7 distinct (radius, length, positivity) and the
    # two outer ends
    structure = table_87_structure
    dec, table = parts_of(structure)
    rate, calls = dimension._rate, []

    def counting_rate(*args):
        calls.append(args)
        return rate(*args)

    monkeypatch.setattr(dimension, "_rate", counting_rate)
    bounds = essential_interval_bounds(structure, dec, table, 8)
    assert bounds.certified_count == 1315
    assert len(calls) == 9


SCREENED_FIELDS = (
    "inner_lo",
    "inner_hi",
    "cycle_count",
    "excluded",
    "excluded_count",
    "min_witness",
    "max_witness",
)


def screened_and_reference(structure, budget):
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, budget)
    return bounds, reference_inner_bounds(structure, dec, table, budget)


@pytest.mark.parametrize("name", ALL_STRUCTURES + ["convolution_3_8"])
def test_float_screen_matches_certifying_every_cycle(request, name):
    structure = request.getfixturevalue(name)
    if name == "convolution_3_8":
        structure = explore(structure)
    for budget in range(1, LYNDON_BUDGETS.get(name, 6) + 1):
        bounds, reference = screened_and_reference(structure, budget)
        for field in SCREENED_FIELDS:
            assert getattr(bounds, field) == reference[field], (budget, field)
        assert bounds.certified_count <= bounds.cycle_count
        assert (bounds.certified_count > 0) == (bounds.cycle_count > 0)


def batch_sizes(structure, dec, table):
    """Values of `_BATCH_ENTRIES` that give batches of 1 walk, of 7 walks
    and of the default size on the essential class of `structure`."""
    width = dimension._StepTable(structure, dec.essential, table).width
    return (width * width, 7 * width * width, dimension._BATCH_ENTRIES)


@pytest.mark.parametrize("name", ALL_STRUCTURES + ["convolution_3_8"])
def test_screen_does_not_depend_on_the_batch_size(request, monkeypatch, name):
    structure = request.getfixturevalue(name)
    if name == "convolution_3_8":
        structure = explore(structure)
    dec, table = parts_of(structure)
    budget = LYNDON_BUDGETS.get(name, 6)
    results = []
    for entries in batch_sizes(structure, dec, table):
        with monkeypatch.context() as patch:
            patch.setattr(dimension, "_BATCH_ENTRIES", entries)
            bounds = essential_interval_bounds(structure, dec, table, budget)
        results.append(
            [getattr(bounds, field) for field in SCREENED_FIELDS + ("certified_count",)]
        )
    assert results[0] == results[1] == results[2]


def recording_products(monkeypatch, certified):
    """Patch `_StepTable.products` to extend the list `certified` with the
    rows, as tuples, of the step codes it is given."""
    products_of = dimension._StepTable.products

    def recording(self, codes, floats):
        certified.extend(map(tuple, codes.tolist()))
        return products_of(self, codes, floats)

    monkeypatch.setattr(dimension._StepTable, "products", recording)


@pytest.mark.parametrize("name", ALL_STRUCTURES + ["convolution_3_8"])
def test_screen_certifies_the_cycles_near_the_global_extremes(request, monkeypatch, name):
    structure = request.getfixturevalue(name)
    if name == "convolution_3_8":
        structure = explore(structure)
    dec, table = parts_of(structure)
    certified = []
    recording_products(monkeypatch, certified)
    for budget in range(1, LYNDON_BUDGETS.get(name, 6) + 1):
        reference = oh.reference_screen(structure, dec, table, budget)
        for entries in batch_sizes(structure, dec, table):
            certified.clear()
            with monkeypatch.context() as patch:
                patch.setattr(dimension, "_BATCH_ENTRIES", entries)
                bounds = essential_interval_bounds(structure, dec, table, budget)
            assert len(certified) == len(set(certified)) == bounds.certified_count
            assert set(certified) == reference, (budget, entries)


def test_screen_calls_eigvals_once_per_batch(request, monkeypatch):
    eigvals = numpy.linalg.eigvals
    calls = []

    def counting_eigvals(a):
        calls.append(numpy.shape(a))
        return eigvals(a)

    for name in ("gap_system_structure", "cantor_4_9_structure", "six_map_quarter_structure"):
        structure = request.getfixturevalue(name)
        dec, table = parts_of(structure)
        counts = oh.reference_eigvals_rows(structure, dec, table, 5)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(numpy.linalg, "eigvals", counting_eigvals)
            bounds = essential_interval_bounds(structure, dec, table, 5)
        # batches of more than 10 cycles on average, so one call per batch is few
        assert bounds.cycle_count > 10 * len(counts)
        # at most one call per batch, with exactly the cycles whose column
        # sums are not equal and positive: none where every rate is equal
        assert [shape[0] for shape in calls] == [c for c in counts if c], name
        assert (sum(counts) == 0) == (name == "gap_system_structure"), name
        # and some call takes more than one cycle
        assert not calls or len(calls) < sum(counts), name
        assert all(len(shape) == 3 for shape in calls)


def sum_screened_class(rng):
    """A `random_class` whose edge matrices come in kinds that the screen's
    column sums may treat apart: equal column sums, equal row sums, a zero
    row, zero below the diagonal (reducible), or none of these.  The
    column sums score only the first kind; products of the other kinds go
    to `eigvals`.

    A class takes one kind for every edge, so its products keep it, or a
    kind per edge.  Entries are integers 0 to 4 over a denominator 2 to 8,
    raised where needed so that no column is zero: every product then has
    a positive spectral radius.  Equal sums are the greatest sum, reached
    by raising one entry of each column (row), so tied rates are common.
    The class is closed under children; it is returned as the structure,
    with rho = 1/3 for its rates, a decomposition whose essential class is
    the whole class, and the table.
    """
    structure, children, table = random_class(rng)
    structure.system = types.SimpleNamespace(context=FieldContext([-1, 3]))
    kinds = ["plain", "equal_columns", "equal_rows", "zero_row", "triangular"]
    mode = rng.choice(kinds + ["mixed"] * 3)
    for step, matrix in table.matrices.items():
        rows, cols = matrix.shape
        kind = rng.choice(kinds) if mode == "mixed" else mode
        a = [[rng.randint(0, 4) for _ in range(cols)] for _ in range(rows)]
        if kind == "equal_columns":
            top = max(map(sum, zip(*a)))
            for j, col in enumerate(list(zip(*a))):
                a[rng.randrange(rows)][j] += top - sum(col)
        elif kind == "equal_rows":
            top = max(map(sum, a))
            for row in a:
                row[rng.randrange(cols)] += top - sum(row)
        elif kind == "zero_row" and rows > 1:
            zero = rng.randrange(rows)
            a[zero] = [0] * cols
            for j in range(cols):
                if not any(row[j] for row in a):
                    a[(zero + 1) % rows][j] = rng.randint(1, 4)
        elif kind == "triangular":
            a = [[x * (j >= i) for j, x in enumerate(row)] for i, row in enumerate(a)]
        for j in range(cols):
            if not any(row[j] for row in a):
                a[0][j] = rng.randint(1, 4)
        den = rng.randint(2, 8)
        table.matrices[step] = TransitionMatrix([[Fraction(x, den) for x in row] for row in a])
    essential = sorted(children)
    dec = types.SimpleNamespace(essential=essential, essential_reduced=essential)
    return structure, dec, table


def certify_rows(structure, table, steps, rows, certified):
    """(length, rate, positive) of the cycle of each row of step codes in
    `rows`, from its exact product, kept in the dict `certified`."""
    den = rho_log_enclosure(structure)
    for row in rows:
        if row not in certified:
            product = table.cycle_matrix(*steps.cycle(list(row)))
            sp = spectral_radius(product, rel_tol=Fraction(1, 10**9))
            rate = dimension._rate(sp.certified_lo, sp.certified_hi, len(row), den)
            certified[row] = (len(row), rate, product.is_positive())
    return [certified[row] + (row,) for row in rows]


def test_sum_screen_matches_the_reference_screen_on_random_classes(monkeypatch):
    rng = random.Random(20261020)
    certified = []
    recording_products(monkeypatch, certified)
    eigvals = numpy.linalg.eigvals
    rows = []

    def counting_eigvals(a):
        rows.append(len(a))
        return eigvals(a)

    settled = sent = 0
    kinds = dict.fromkeys(["equal_columns", "equal_rows", "zero_row", "triangular"], 0)
    for i in range(200):
        structure, dec, table = sum_screened_class(rng)
        for m in table.matrices.values():
            r, k = m.shape
            kinds["equal_columns"] += k > 1 and len(set(m.column_sums())) == 1
            kinds["equal_rows"] += r > 1 and len(set(map(sum, m.ints))) == 1
            kinds["zero_row"] += m.has_zero_row()
            kinds["triangular"] += min(r, k) > 1 and not any(
                m.ints[i][j] for i in range(r) for j in range(min(i, k))
            )
        steps = dimension._StepTable(structure, dec.essential, table)
        sizes = batch_sizes(structure, dec, table)
        rates = {}
        for budget in range(1, 7):
            # each class meets every batch size over its budgets
            entries = sizes[(i + budget) % 3]
            certified.clear()
            rows.clear()
            with monkeypatch.context() as patch:
                patch.setattr(dimension, "_BATCH_ENTRIES", entries)
                counts = oh.reference_eigvals_rows(structure, dec, table, budget)
                patch.setattr(numpy.linalg, "eigvals", counting_eigvals)
                bounds = essential_interval_bounds(structure, dec, table, budget)
            reference = oh.reference_screen(structure, dec, table, budget)
            assert set(certified) == reference, (budget, entries)
            assert bounds.certified_count == len(certified) == len(reference)
            # the cycles that go to eigvals, not scored by their sums, one
            # call per batch that has any
            assert rows == [c for c in counts if c], (budget, entries)
            sent += sum(counts)
            settled += bounds.cycle_count - sum(counts)
            if not reference:
                assert bounds.min_witness is bounds.max_witness is None
                continue
            # the witnesses among the reference rows, each certified anew
            cycles = certify_rows(structure, table, steps, sorted(reference), rates)
            lo_hi = min(rate.hi for _, rate, _, _ in cycles)
            hi_lo = max(rate.lo for _, rate, _, _ in cycles)
            for witness, attains in (
                (bounds.min_witness, lambda rate: rate.lo <= lo_hi),
                (bounds.max_witness, lambda rate: rate.hi >= hi_lo),
            ):
                _, rate, positive, row = min(
                    (c for c in cycles if attains(c[1])),
                    key=lambda c: (not c[2], c[0], steps.cycle(list(c[3]))),
                )
                assert witness == dimension.CycleWitness(*steps.cycle(list(row)), rate, positive)
    # both ways of scoring are exercised, on every kind of matrix
    assert settled > 0 and sent > 0
    assert min(kinds.values()) >= 100, kinds


def pruned_and_unpruned(monkeypatch, structure, dec, table, budget):
    """(bounds, certified rows, cycles scored) of `essential_interval_bounds`
    as it runs, and again with `_cycle_batches` given no extremes, so that
    no walk is pruned."""
    enumerate_all = dimension._cycle_batches
    screen = dimension._screen_scores
    runs = []
    for prune in (True, False):
        certified, scored = [], []

        def counting_screen(products, *args):
            scored.append(len(products))
            return screen(products, *args)

        with monkeypatch.context() as patch:
            recording_products(patch, certified)
            patch.setattr(dimension, "_screen_scores", counting_screen)
            if not prune:
                patch.setattr(
                    dimension, "_cycle_batches", lambda steps, n, extremes: enumerate_all(steps, n)
                )
            bounds = essential_interval_bounds(structure, dec, table, budget)
        assert len(certified) == len(set(certified)) == bounds.certified_count
        runs.append((bounds, set(certified), sum(scored)))
    return runs


@pytest.mark.parametrize("name, budget, cycles", SUITE_CYCLES)
def test_pruned_and_unpruned_bounds_agree_on_the_suite(request, monkeypatch, name, budget, cycles):
    structure = request.getfixturevalue(name)
    dec, table = parts_of(structure)
    width = dimension._StepTable(structure, dec.essential, table).width
    if cycles <= dimension._BATCH_ENTRIES // width**2:
        # the prune runs on so few cycles only in batches of one walk
        monkeypatch.setattr(dimension, "_BATCH_ENTRIES", width**2)
    (bounds, certified, scored), (full, every, all_scored) = pruned_and_unpruned(
        monkeypatch, structure, dec, table, budget
    )
    # every field: both inner ends, both witnesses, the counts and the
    # excluded sample
    assert bounds == full
    assert certified == every == oh.reference_screen(structure, dec, table, budget)
    assert all_scored == full.cycle_count
    if name == "table_87_structure":
        # every product ties, so no score lies between the margins
        assert scored == all_scored
    else:
        assert scored < all_scored
    if (name, budget) == ("quadratic_ninth_structure", 10):
        assert scored <= 10_000


def test_pruned_and_unpruned_bounds_agree_on_random_classes(monkeypatch):
    rng = random.Random(20261023)
    dropped = pruned = 0
    for i in range(200):
        structure, dec, table = sum_screened_class(rng)
        width = dimension._StepTable(structure, dec.essential, table).width
        for budget in range(1, 7):
            with monkeypatch.context() as patch:
                # batches of one walk and of seven, so that the prune runs
                patch.setattr(dimension, "_BATCH_ENTRIES", (1, 7)[(i + budget) % 2] * width**2)
                (bounds, certified, scored), (full, every, all_scored) = pruned_and_unpruned(
                    patch, structure, dec, table, budget
                )
            assert bounds == full, (i, budget)
            assert certified == every == oh.reference_screen(structure, dec, table, budget)
            dropped += all_scored - scored
            pruned += scored < all_scored
    # the prune drops cycles on many of the classes
    assert pruned > 100 and dropped > 1000, (pruned, dropped)


def test_prune_keeps_a_walk_whose_bound_is_within_the_slack_of_a_margin():
    # loops 1/2, 1/2 and 1/4 on one 1 x 1 vector: w = 1, λ = 1/2, λ' = 1/4
    # and the score shift is 0.  The walks (0) and (1) bound their cycles
    # of 2 steps by r λ = 1/4 above, a score of ln(1/2), and by r' λ' = 1/8
    # below, a score of ln(1/8) / 2; the walk (2) has no such cycle
    steps = loop_class([Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)])
    assert steps.shift == 0
    slack, margin = dimension._SCREEN_SLACK, dimension._SCREEN_MARGIN

    def cycles(low, high):
        # the extremes whose margins are `low` and `high`, both negative
        extremes = low / (1 - margin), high / (1 + margin)
        batches = dimension._cycle_batches(steps, 2, lambda: extremes)
        return sorted(tuple(row) for codes, _, _ in batches for row in codes.tolist())

    every = [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,)]
    short = [(0,), (1,), (2,)]
    upper, lower = math.log(1 / 2), math.log(1 / 8) / 2
    # a bound within the slack of a margin keeps its walk; past the slack,
    # every walk of one step is dropped
    assert cycles(-10, upper + slack / 4) == every
    assert cycles(-10, upper + 2 * slack) == short
    assert cycles(lower - slack / 4, -1e-3) == every
    assert cycles(lower - 2 * slack, -1e-3) == short


def test_prune_keeps_every_walk_that_hugs_an_end():
    # margins far outside every score drop each walk once it has a step,
    # unless all its steps hug one end: the cycles of more steps left are
    # those whose steps but the last hug one end, the end-hugging ones too
    rng = random.Random(20261024)
    hugged = 0
    for _ in range(200):
        structure, dec, table = sum_screened_class(rng)
        steps = dimension._StepTable(structure, dec.essential, table)
        wide = dimension._cycle_batches(steps, 6, lambda: (-1e3, 1e3))
        kept = {tuple(row) for codes, _, _ in wide for row in codes.tolist() if len(row) > 1}
        full = dimension._cycle_batches(steps, 6)
        full = [tuple(row) for codes, _, _ in full for row in codes.tolist()]
        hugging = [reduce(operator.and_, steps.hugs[list(row[:-1])].tolist(), 3) for row in full]
        assert kept == {row for row, bits in zip(full, hugging) if len(row) > 1 and bits}
        hugged += sum(1 for row, bits in zip(full, hugging) if len(row) > 1 and bits)
    assert hugged > 100


@pytest.mark.parametrize("name", ["golden_third_structure", "cantor_4_9_structure"])
def test_screen_scores_undo_the_scaling_of_the_step_floats(request, monkeypatch, name):
    # L = 3 and 10 are no powers of two: the step floats are the entries
    # times L / 2^s < 1, and each score adds shift = ln(2^s / L) back, so it
    # is ln sp / n of the cycle's exact product
    structure = request.getfixturevalue(name)
    dec, table = parts_of(structure)
    steps = dimension._StepTable(structure, dec.essential, table)
    assert steps.shift > 0.28
    for codes, products, _ in dimension._cycle_batches(steps, 5):
        n = codes.shape[1]
        g = dimension._screen_scores(products, n, steps.shift)
        for score, row in zip(g.tolist(), codes.tolist()):
            exact = numpy.array(table.cycle_matrix(*steps.cycle(row)).rows, dtype=float)
            want = math.log(max(abs(numpy.linalg.eigvals(exact)))) / n
            assert abs(score - want) < 1e-12, (row, score, want)
    certified = []
    recording_products(monkeypatch, certified)
    essential_interval_bounds(structure, dec, table, 5)
    assert set(certified) == oh.reference_screen(structure, dec, table, 5)


@pytest.mark.parametrize("name", ["quadratic_ninth_structure", "convolution_3_8_structure"])
def test_each_certified_cycle_is_multiplied_once_per_report(request, monkeypatch, name):
    # the screen's float products of the cycles within the bound are their
    # exact products, so `products` calls no matmul, and only a cycle past
    # the bound (convolution_3_8's of 7 and 8 edges: 256**7 > 2**53) is
    # multiplied again, by `cycle_matrix`, once
    structure = request.getfixturevalue(name)
    in_products, matmuls, multiplied, sent, past = [False], [], [], [], []
    matmul, cycle_matrix = numpy.matmul, MatrixTable.cycle_matrix
    products_of = dimension._StepTable.products

    def counting_matmul(*args, **kwargs):
        matmuls.append(in_products[0])
        return matmul(*args, **kwargs)

    def recording_cycle_matrix(self, fid, edges):
        multiplied.append((fid, tuple(edges)))
        return cycle_matrix(self, fid, edges)

    def watched_products(self, codes, floats):
        walks = [self.cycle(row) for row in codes.tolist()]
        sent.extend(walks)
        if self.bound ** codes.shape[1] > 2**53:
            past.extend(walks)
        in_products[0] = True
        try:
            return products_of(self, codes, floats)
        finally:
            in_products[0] = False

    monkeypatch.setattr(numpy, "matmul", counting_matmul)
    monkeypatch.setattr(MatrixTable, "cycle_matrix", recording_cycle_matrix)
    monkeypatch.setattr(dimension._StepTable, "products", watched_products)
    report = dimension.build_dimension_report(structure, cycle_budget=8)
    assert len(sent) == len(set(sent)) == report.bounds.certified_count > 0
    assert matmuls and not any(matmuls)
    if name == "convolution_3_8_structure":
        assert past and all(len(edges) >= 7 for _, edges in past)
    else:
        assert not past
    assert sorted(w for w in multiplied if w in set(sent)) == sorted(past)


def test_cycle_whose_float_product_underflows_is_certified(golden_third_structure):
    structure = golden_third_structure
    dec, table = parts_of(structure)
    plain = essential_interval_bounds(structure, dec, table, cycle_budget=4)
    start, edge = plain.min_witness.start, plain.min_witness.edges[0]
    rid = structure.reduced_of(start)
    tiny = Fraction(1, 10**400)
    # every product through this edge is 0 in floats, so its score is not finite
    table = MatrixTable(structure)
    table._by_edge[(rid, edge)] = TransitionMatrix(
        [[x * tiny for x in row] for row in edge_matrix(structure, rid, edge).rows]
    )
    bounds = essential_interval_bounds(structure, dec, table, 4)
    reference = reference_inner_bounds(structure, dec, table, 4)
    for field in SCREENED_FIELDS:
        assert getattr(bounds, field) == reference[field], field
    # only a cycle through the tiny edge has so steep a rate
    assert bounds.max_witness.rate.lo > 100 * plain.inner_hi.hi


SUITE_SYSTEMS = [
    "table_87", "cantor_4_9", "convolution_3_8", "golden_third", "tribonacci_third",
    "quadratic_ninth",
]


@pytest.mark.parametrize("name", ALL_STRUCTURES + ["suite:" + n for n in SUITE_SYSTEMS])
def test_edge_matrix_row_and_column_sums_are_at_most_one(request, monkeypatch, name):
    # the float screen relies on this: no product of edge matrices overflows
    if name.startswith("suite:"):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import SYSTEMS

        structure = explore(build_system(parse_config(SYSTEMS[name[len("suite:"):]])))
    else:
        structure = request.getfixturevalue(name)
    sums = []
    for rid in range(structure.reduced_count):
        for e in range(len(structure.edges_of_reduced(rid))):
            m = edge_matrix(structure, rid, e)
            sums += [Fraction(sum(line), m.den) for line in (*m.ints, *zip(*m.ints))]
    assert max(sums) <= 1


def test_screen_certifies_every_cycle_when_the_eigensolver_fails(
    monkeypatch, cantor_3_4_skewed_structure
):
    structure = cantor_3_4_skewed_structure
    monkeypatch.setattr(
        numpy.linalg, "eigvals", lambda a: numpy.full(numpy.shape(a)[:-1], numpy.nan)
    )
    bounds, reference = screened_and_reference(structure, 4)
    assert bounds.cycle_count > 3
    assert bounds.certified_count == bounds.cycle_count
    for field in SCREENED_FIELDS:
        assert getattr(bounds, field) == reference[field], field


def test_screen_certifies_every_cycle_when_eigvals_raises(
    monkeypatch, cantor_3_4_skewed_structure
):
    structure = cantor_3_4_skewed_structure

    def failing_eigvals(a):
        raise numpy.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(numpy.linalg, "eigvals", failing_eigvals)
    bounds, reference = screened_and_reference(structure, 4)
    assert bounds.cycle_count > 3
    assert bounds.certified_count == bounds.cycle_count
    for field in SCREENED_FIELDS:
        assert getattr(bounds, field) == reference[field], field


def test_tied_cycles_share_one_certificate(monkeypatch, gap_system_structure):
    structure = gap_system_structure
    dec, table = parts_of(structure)
    groups, radii = [], []
    products_of = dimension._StepTable.products

    def recording_products(self, codes, floats):
        out = products_of(self, codes, floats)
        # one group per distinct product of a batch
        assert len({product for product, _ in out}) == len(out)
        groups.extend((product, codes.shape[1], len(which)) for product, which in out)
        return out

    def counting_spectral_radius(matrix, **kwargs):
        radii.append(matrix)
        return spectral_radius(matrix, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(dimension._StepTable, "products", recording_products)
        patch.setattr(dimension, "spectral_radius", counting_spectral_radius)
        bounds = essential_interval_bounds(structure, dec, table, 5)
    # every rate here is equal, so every cycle is certified
    cycles = sum(size for _, _, size in groups)
    assert bounds.certified_count == bounds.cycle_count == cycles
    # one spectral radius per distinct product and length, over all batches
    distinct = list(dict.fromkeys((product, n) for product, n, _ in groups))
    assert radii == [product for product, _ in distinct] and len(distinct) < cycles
    reference = reference_inner_bounds(structure, dec, table, 5)
    for field in SCREENED_FIELDS:
        assert getattr(bounds, field) == reference[field], field


def loop_class(weights):
    """The step table of one vector with a 1 x 1 loop of each weight, over a
    table that records the walks it multiplies in `walks`."""

    class LoopTable(RandomTable):
        def cycle_matrix(self, fid, edges):
            self.walks.append(tuple(edges))
            return super().cycle_matrix(fid, edges)

    structure = FiniteTypeStructure(None)
    structure.full_reduced = [0]
    structure.child += [0] * len(weights)
    structure.abuts_left += [False] * len(weights)
    structure.abuts_right += [False] * len(weights)
    structure.edge_start.append(len(weights))
    table = LoopTable({(0, e): TransitionMatrix([[w]]) for e, w in enumerate(weights)}, structure)
    table.walks = []
    return dimension._StepTable(structure, [0], table)


def loop_products(steps, walks):
    codes = numpy.array(walks)
    return steps.products(codes, oh.float_products(steps, codes))


def test_equal_products_from_different_integer_forms_form_one_group():
    # one vector with 1 x 1 loops: (2/3)(3/4) and (1/2)(1) are both 1/2, and
    # over L = 12 their floats' integer forms are equal, 72 / 144; (1)(1)
    # is 144 / 144
    half, one = TransitionMatrix([[Fraction(1, 2)]]), TransitionMatrix([[Fraction(1)]])
    weights = [Fraction(2, 3), Fraction(3, 4), Fraction(1, 2), Fraction(1)]
    steps = loop_class(weights)
    assert (steps.den, steps.scale, steps.bound) == (12, 4, 12)
    assert loop_products(steps, [[0, 1], [2, 3], [3, 3]]) == [(half, [0, 1]), (one, [2])]
    assert steps.table.walks == []
    # the loops a/b and b/a, 41 bits each, put L past 2^53: every walk goes
    # to `cycle_matrix`, whose equal products form one group too
    a, b = 2**40 + 1, 2**40 + 3
    steps = loop_class(weights + [Fraction(a, b), Fraction(b, a)])
    walks = [[0, 1], [2, 3], [3, 3], [4, 5]]
    assert loop_products(steps, walks) == [(half, [0, 1]), (one, [2, 3])]
    assert steps.table.walks == [(0, 1), (2, 3), (3, 3), (4, 5)]


def test_walks_past_the_float_bound_are_not_read_off_their_floats():
    # a prime p with 2^53 < p^2 <= 2^54 and odd numerators: a walk of two
    # loops has the odd numerator a b > 2^53, which no float holds, so it
    # must go to `cycle_matrix`; one loop is exact
    p = 134217689
    assert 2**53 < p * p <= 2**54
    a, b = p - 2, p - 4
    steps = loop_class([Fraction(a, p), Fraction(b, p)])
    assert (steps.den, steps.bound, steps.scale) == (p, p, 27)
    loops = loop_products(steps, [[0], [1]])
    assert loops == [(TransitionMatrix([[Fraction(a, p)]]), [0]),
                     (TransitionMatrix([[Fraction(b, p)]]), [1])]
    assert steps.table.walks == []
    pairs = loop_products(steps, [[0, 1], [1, 0], [1, 1]])
    assert pairs == [(TransitionMatrix([[Fraction(a * b, p * p)]]), [0, 1]),
                     (TransitionMatrix([[Fraction(b * b, p * p)]]), [2])]
    assert steps.table.walks == [(0, 1), (1, 0), (1, 1)]


def test_equal_products_of_different_lengths_get_their_own_rates(
    monkeypatch, golden_third_structure
):
    structure = golden_third_structure
    dec, table = parts_of(structure)
    # every essential edge gets ones / (child neighbours), so a cycle's
    # product is s^k ones / n for the k times it takes the first edge:
    # cycles of many lengths share a product, and their rates differ
    s = Fraction(1, 2)
    first = min(dec.essential_reduced)
    for rid in dec.essential_reduced:
        for rec in oh.reduced_records(structure, rid):
            rows, cols = edge_matrix(structure, rid, rec.edge_index).shape
            w = Fraction(1, cols) * (s if (rid, rec.edge_index) == (first, 0) else 1)
            table._by_edge[(rid, rec.edge_index)] = TransitionMatrix([[w] * cols] * rows)
    # certify every cycle: with an infinite margin every cycle is near an extreme
    monkeypatch.setattr(dimension, "_SCREEN_MARGIN", math.inf)
    bounds = essential_interval_bounds(structure, dec, table, 6)
    reference = reference_inner_bounds(structure, dec, table, 6)
    assert bounds.certified_count == bounds.cycle_count
    assert bounds.inner_lo.hi < bounds.inner_hi.lo
    for field in SCREENED_FIELDS:
        assert getattr(bounds, field) == reference[field], field


def test_cantor_default_report_certifies_only_the_extremes(cantor_4_9_structure):
    report = build_dimension_report(cantor_4_9_structure)
    bounds = report.bounds
    assert bounds.cycle_budget == 8
    # recorded from the loop that certified all 11462 cycles
    assert bounds.cycle_count == 11462
    # the ends from the 40-digit logarithms, each inside the one that the
    # float logarithm padded by 1e-12 gave
    assert (bounds.inner_lo.lo, bounds.inner_lo.hi) == (
        Fraction(1297532554251664394110137093761758897325, 1386294361119890618834464242916353136152),
        Fraction(259506510850332950052044140617669431647, 277258872223978123766892848583270627230),
    )
    assert (bounds.inner_hi.lo, bounds.inner_hi.hi) == (
        Fraction(519621140807757141188839112619598104365, 462098120373296872944821414305451045384),
        Fraction(311772684484654352705962721906275319471, 277258872223978123766892848583270627230),
    )
    assert bounds.certified_count <= 20


def test_boundary_point_takes_the_flank_mass(eight_map_twelfths_structure):
    # 2/3 separates two first-level pieces.  The all-rightmost side has
    # cycle value log 14 / log 4, but the abutting chain on the other side
    # carries mass 2^-n / 7, so the ball mass gives dimension 1/2.
    structure = eight_map_twelfths_structure
    table = MatrixTable(structure)
    location = locate_point(structure, Fraction(2, 3), depth=80)
    assert location.boundary
    spec = PeriodicSpec.from_location(location)
    result = local_dim_periodic(structure, table, spec)
    values = sorted(r.value for r in result.rates)
    assert abs(values[0] - 0.5) < 1e-9
    assert abs(values[1] - math.log(14) / math.log(4)) < 1e-9
    assert abs(result.dimension.value - 0.5) < 1e-9


# -- isolation scans -----------------------------------------------------------


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_endpoint_scan_follows_each_address_to_its_cycle(request, name):
    structure = request.getfixturevalue(name)
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, inner=False)
    findings = isolated_point_scan(structure, dec, table, bounds)
    for x, finding in ((0, findings.at_zero), (1, findings.at_one)):
        # the scan as it was, located to the default depth
        spec = PeriodicSpec.from_location(locate_point(structure, x, DEFAULT_DEPTH))
        result = local_dim_periodic(structure, table, spec)
        assert finding == (str(x), result, *isolation_verdict(structure, bounds, x, result))
        for rep in locate_point(structure, x, structure.full_count + 1).representations:
            assert rep.cycle is not None
            assert sum(rep.cycle) == len(rep.edges) <= structure.full_count + 1


def test_biased_golden_isolates_zero_through_the_family_bound(
    golden_third_structure,
):
    structure = golden_third_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=4)
    findings = isolated_point_scan(structure, dec, table, bounds)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(findings.at_zero.dimension.dimension.value - math.log(3) / math.log(phi)) < 1e-9
    assert findings.at_zero.isolated
    assert findings.at_zero.reason == "family_bound"
    assert abs(findings.at_zero.family_bound - 2.1030) < 1e-3
    assert not findings.at_one.isolated
    assert findings.cantor_criterion is None


def test_uniform_golden_has_no_isolated_endpoint(golden_half_structure):
    structure = golden_half_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=4)
    findings = isolated_point_scan(structure, dec, table, bounds)
    assert not findings.at_zero.isolated
    assert not findings.at_one.isolated


def test_cantor_criterion_flags_the_light_endpoint():
    probs = (
        Fraction(1, 10),
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(3, 10),
    )
    structure = explore(cantor_like(3, 4, probs))
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=3)
    findings = isolated_point_scan(structure, dec, table, bounds)
    crit = findings.cantor_criterion
    assert crit["p_min"] == Fraction(1, 5)
    assert crit["first_isolated"] and not crit["last_isolated"]
    assert findings.at_zero.isolated
    # the outer interval already excludes it; the column-sum branch does not fire
    assert findings.at_zero.reason == "outside_outer"
    assert abs(findings.at_zero.dimension.dimension.value - math.log(10) / math.log(3)) < 1e-9
    assert not findings.at_one.isolated


def test_cantor_criterion_decides_within_the_log_padding():
    # p_first sits 1e-60 below p_min = 1/5, far below the 40 digits of the
    # logarithms: the rate enclosures of the two overlap, so only the exact
    # comparison of the probabilities isolates 0
    tiny = Fraction(1, 10**60)
    for below, reason in ((tiny, "column_sum_criterion"), (Fraction(1, 10**6), "outside_outer")):
        fifth = Fraction(1, 5)
        probs = (fifth - below, fifth, fifth, fifth, fifth + below)
        structure = explore(cantor_like(3, 4, probs))
        dec, table = parts_of(structure)
        bounds = essential_interval_bounds(structure, dec, table, inner=False)
        assert bounds.p_min == fifth
        findings = isolated_point_scan(structure, dec, table, bounds)
        assert findings.cantor_criterion["first_isolated"]
        assert findings.at_zero.isolated
        assert findings.at_zero.reason == reason


def test_uniform_cantor_singleton_class_isolates_both_endpoints():
    structure = explore(cantor_like(3, 5, tuple(Fraction(1, 6) for _ in range(6))))
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=3)
    assert bounds.p_max == bounds.p_min == Fraction(1, 3)
    findings = isolated_point_scan(structure, dec, table, bounds)
    expected = math.log(6) / math.log(3)
    for finding in (findings.at_zero, findings.at_one):
        assert finding.isolated
        assert finding.reason == "outside_outer"
        assert abs(finding.dimension.dimension.value - expected) < 1e-9


def test_gap_system_endpoints_sit_outside_the_interval(gap_system_structure):
    structure = gap_system_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=3)
    findings = isolated_point_scan(structure, dec, table, bounds)
    assert findings.at_zero.isolated and findings.at_one.isolated
    assert findings.at_zero.reason == "outside_outer"


def test_isolation_verdict_tests_both_sides_of_the_outer_interval(gap_system_structure):
    structure = gap_system_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=2, inner=False)
    lo, hi, eps = bounds.outer_lo.lo, bounds.outer_hi.hi, Fraction(1, 10**6)

    def verdict(a, b):
        result = LocalDimensionResult(Certified(float((a + b) / 2), a, b), 0, (), ())
        return isolation_verdict(structure, bounds, Fraction(1, 2), result)

    assert verdict(lo - 2 * eps, lo - eps) == (True, "outside_outer", None)
    assert verdict(hi + eps, hi + 2 * eps) == (True, "outside_outer", None)
    # an enclosure that touches the interval proves nothing
    assert verdict(lo - eps, lo) == (False, None, None)
    assert verdict(hi, hi + eps) == (False, None, None)


def test_family_bound_applies_only_at_the_hull_endpoints(golden_third_structure):
    # at the interior point 1/2 the value exceeds the bound the family
    # would give for x = 1, but that bound speaks only about the endpoint
    structure = golden_third_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=2, inner=False)
    spec = PeriodicSpec.from_location(locate_point(structure, Fraction(1, 2)))
    result = local_dim_periodic(structure, table, spec)
    assert isolation_verdict(structure, bounds, Fraction(1, 2), result) == (False, None, None)
    isolated, reason, family_bound = isolation_verdict(structure, bounds, 1, result)
    assert family_bound < result.dimension.value
    assert (isolated, reason) == (True, "family_bound")


def test_family_bound_compares_enclosures_not_values(golden_third_structure):
    # a value just above the bound proves nothing while its enclosure
    # still reaches below the bound's
    structure = golden_third_structure
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=2, inner=False)
    spec = PeriodicSpec.from_location(locate_point(structure, 0))
    real = local_dim_periodic(structure, table, spec)
    isolated, reason, bound = isolation_verdict(structure, bounds, 0, real)
    assert (isolated, reason) == (True, "family_bound")
    eps = Fraction(1, 10**9)
    near = Certified(bound + 2e-12, Fraction(bound) - eps, Fraction(bound) + eps)
    result = LocalDimensionResult(near, 0, (), ())
    assert isolation_verdict(structure, bounds, 0, result) == (False, None, bound)


# -- diagnostics ---------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_the_essential_scan_matches_a_fresh_read_of_every_matrix(name, request):
    structure = request.getfixturevalue(name)
    dec, table = parts_of(structure)
    bounds = essential_interval_bounds(structure, dec, table, inner=False)
    got = (bounds.p_min, bounds.p_max, bounds.unequal_sum, bounds.zero_rows)
    assert got == oh.reference_essential_scan(structure, dec)


def test_equal_column_sums_hold_for_the_gap_system(gap_system_structure):
    structure = gap_system_structure
    dec, table = parts_of(structure)
    outer = essential_interval_bounds(structure, dec, table, inner=False)
    report = equal_column_sum_check(
        structure, dec, outer, hausdorff_dimension(structure, dec)
    )
    assert report.holds
    assert report.common_sum == Fraction(1, 4)
    assert abs(report.exponent - 1.0) < 1e-9
    assert report.matches_hausdorff


def test_column_sum_exponent_matches_only_an_overlapping_enclosure(gap_system_structure):
    # the exponent is 1; a Hausdorff enclosure 4e-10 to 6e-10 above it is
    # disjoint from the exponent's, though its value is within 1e-9
    structure = gap_system_structure
    dec, table = parts_of(structure)
    real = hausdorff_dimension(structure, dec)
    outer = essential_interval_bounds(structure, dec, table, inner=False)
    assert equal_column_sum_check(structure, dec, outer, real).matches_hausdorff
    off = Certified(1 + 5e-10, 1 + Fraction(4, 10**10), 1 + Fraction(6, 10**10))
    near = real._replace(dimension=off)
    report = equal_column_sum_check(structure, dec, outer, near)
    assert abs(report.exponent - near.dimension.value) < 1e-9
    assert not report.matches_hausdorff


def test_column_sum_exponent_matches_only_an_exact_equality(gap_system_structure):
    # weights scaled by 1 + 10^-6 keep every column sum equal, at (1 + 10^-6)/4,
    # but 4/(1 + 10^-6) is not sp(I) = 4; a Hausdorff enclosure widened to
    # overlap the exponent's, 7e-7 below 1, must not make them equal
    structure = oh.with_probabilities(
        gap_system_structure,
        [p * Fraction(10**6 + 1, 10**6) for p in gap_system_structure.system.probabilities],
    )
    dec, table = parts_of(structure)
    real = hausdorff_dimension(structure, dec)
    wide = Certified(1.0, 1 - Fraction(1, 10**6), 1 + Fraction(1, 10**6))
    outer = essential_interval_bounds(structure, dec, table, inner=False)
    report = equal_column_sum_check(
        structure, dec, outer, real._replace(dimension=wide)
    )
    assert report.holds and report.common_sum == Fraction(10**6 + 1, 4 * 10**6)
    assert 1 - 1e-6 < report.exponent < 1
    assert not report.matches_hausdorff


def test_equal_column_sums_fail_for_the_biased_golden(golden_third_structure):
    structure = golden_third_structure
    dec, table = parts_of(structure)
    outer = essential_interval_bounds(structure, dec, table, inner=False)
    report = equal_column_sum_check(structure, dec, outer)
    assert not report.holds
    assert report.counterexample is not None


def test_equal_column_sums_hold_for_the_uniform_singleton_family():
    structure = explore(cantor_like(3, 5, tuple(Fraction(1, 6) for _ in range(6))))
    dec, table = parts_of(structure)
    outer = essential_interval_bounds(structure, dec, table, inner=False)
    report = equal_column_sum_check(
        structure, dec, outer, hausdorff_dimension(structure, dec)
    )
    assert report.holds
    assert report.common_sum == Fraction(1, 3)
    assert report.matches_hausdorff


def test_pisot_check_classic_polynomials():
    golden = pisot_check((-1, -1, 1))
    assert golden.is_pisot and abs(golden.dominant_root - 1.618033988749895) < 1e-9
    plastic = pisot_check((-1, -1, 0, 1))
    assert plastic.is_pisot
    assert max(plastic.conjugate_moduli) < 0.87
    silver = pisot_check((1, -3, 1))
    assert silver.is_pisot and abs(silver.dominant_root - 2.618033988749895) < 1e-9


def test_pisot_check_rejections_and_edge_cases():
    assert not pisot_check((-1, 2)).is_pisot  # 2x - 1 is not monic
    root_two = pisot_check((-2, 0, 1))
    assert not root_two.is_pisot and not root_two.indeterminate
    borderline = pisot_check((-2, 1, -2, 1))  # (x - 2)(x^2 + 1)
    assert not borderline.is_pisot and borderline.indeterminate
    negated = pisot_check((1, 1, -1))
    assert negated.is_pisot


def test_pisot_check_reciprocal_of_the_contraction(
    golden_half_structure,
    tribonacci_third_structure,
    quadratic_ninth_structure,
    gap_system_structure,
):
    assert pisot_check_reciprocal(golden_half_structure.system).is_pisot
    assert pisot_check_reciprocal(tribonacci_third_structure.system).is_pisot
    quad = pisot_check_reciprocal(quadratic_ninth_structure.system)
    assert not quad.is_pisot
    assert "monic" in quad.reason
    four = pisot_check_reciprocal(gap_system_structure.system)
    assert four.is_pisot and abs(four.dominant_root - 4.0) < 1e-9


# -- global sanity -------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_dimension_sits_inside_the_outer_interval_everywhere(name, request):
    structure = request.getfixturevalue(name)
    dec, table = parts_of(structure)
    hausdorff = hausdorff_dimension(structure, dec)
    bounds = essential_interval_bounds(structure, dec, table, cycle_budget=3)
    assert sanity_dim_in_interval(hausdorff, bounds)
    assert bounds.outer_lo.value <= bounds.outer_hi.value + 1e-12
    if bounds.inner_lo is not None:
        assert bounds.outer_lo.value <= bounds.inner_lo.value + 1e-9
        assert bounds.inner_lo.value <= bounds.inner_hi.value + 1e-12
        assert bounds.inner_hi.value <= bounds.outer_hi.value + 1e-9


def test_outer_only_bounds_skip_the_walk_enumeration(cantor_4_9_structure):
    dec, table = parts_of(cantor_4_9_structure)
    full = essential_interval_bounds(cantor_4_9_structure, dec, table, cycle_budget=3)
    outer = essential_interval_bounds(
        cantor_4_9_structure, dec, table, cycle_budget=3, inner=False
    )
    assert outer.inner_lo is None and outer.inner_hi is None
    assert outer.cycle_count == 0 and outer.excluded_count == 0
    assert (outer.p_min, outer.p_max) == (full.p_min, full.p_max)
    assert (outer.outer_lo, outer.outer_hi) == (full.outer_lo, full.outer_hi)


def test_build_dimension_report_aggregates(gap_system_structure):
    report = build_dimension_report(gap_system_structure, cycle_budget=4)
    assert report.sane
    assert abs(report.hausdorff.dimension.value - 1.0) < 1e-9
    assert report.column_sums.holds
    assert report.pisot.is_pisot
    assert not report.positive_rows.holds
    assert report.isolation.at_zero.isolated


def test_cantor_report_enclosures_do_not_widen(cantor_4_9_structure):
    # enclosures of the same report when spectral radii were certified by
    # exact squaring to the 256th power
    pinned = {
        "hausdorff": ("6243314768159093/6243314768172123", "1248662953634325/1248662953631713"),
        "outer_lo": ("5422211472921043/6243314768172123", "5422211472931951/6243314768158565"),
        "outer_hi": ("7248263982706892/6243314768172123", "7248263982721434/6243314768158565"),
        "inner_lo": ("5843567127717668/6243314768172123", "5843567128226383/6243314768158565"),
        "inner_hi": ("2268840500844657/2081104922724041", "6809476064946034/6243314768158565"),
    }
    report = build_dimension_report(cantor_4_9_structure, cycle_budget=4)
    assert report.hausdorff.spectral.exact == 4
    got = {"hausdorff": report.hausdorff.dimension}
    for name in ("outer_lo", "outer_hi", "inner_lo", "inner_hi"):
        got[name] = getattr(report.bounds, name)
    for name, (lo, hi) in pinned.items():
        assert Fraction(lo) <= got[name].lo <= got[name].hi <= Fraction(hi), name


# -- `_rate` against 50-digit arithmetic ---------------------------------------

# rho = 1/3, 1/4, the golden and tribonacci ratios, and quadratic_ninth
RATE_STRUCTURES = [
    "zero_row_third_structure",
    "gap_system_structure",
    "golden_half_structure",
    "tribonacci_third_structure",
    "quadratic_ninth_structure",
]


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def mp_rate(q: Fraction, steps: int, rho: Fraction):
    """-ln(q) / (steps |ln rho|) at the working precision of mpmath."""
    return -mpmath.log(_mp(q)) / (steps * -mpmath.log(_mp(rho)))


def _random_ratio(rng: random.Random) -> Fraction:
    """A positive rational; numerator and denominator run up to 10^400."""
    top, bottom = (rng.choice((1, 3, 17, 160, 301, 400)) for _ in range(2))
    return Fraction(rng.randrange(1, 10**top), rng.randrange(1, 10**bottom))


@pytest.mark.parametrize("name", RATE_STRUCTURES)
def test_rate_encloses_the_50_digit_value(name, request):
    structure = request.getfixturevalue(name)
    den = rho_log_enclosure(structure)
    rho = structure.system.context.rho.approx(Fraction(1, 10**70))
    rng = random.Random(name)
    with mpmath.workdps(50):
        for _ in range(250):
            lo = _random_ratio(rng)
            hi = lo if rng.random() < 0.5 else lo * (1 + Fraction(1, rng.randrange(1, 10**6)))
            steps = rng.randrange(1, 200)
            rate = dimension._rate(lo, hi, steps, den)
            assert rate.lo <= rate.hi
            for q in (lo, hi):
                true = mp_rate(q, steps, rho)
                assert _mp(rate.lo) <= true <= _mp(rate.hi), (lo, hi, steps)


def _log_cases(rng: random.Random):
    """Positive rationals: random ones up to 10^400 and of 2000+ bits, and
    1 -+ 10^-k, over a small and over a 2000-bit denominator, for k <= 80."""
    for _ in range(700):
        yield _random_ratio(rng)
    for _ in range(200):
        yield Fraction(rng.randrange(1, 2**2100), rng.randrange(1, 2**2100))
    for k in range(1, 81):
        big = rng.randrange(2**2000, 2**2001)
        for sign in (1, -1):
            yield 1 + Fraction(sign, 10**k)
            yield Fraction(big + sign * (big // 10**k), big)


def _mp_ln(q: Fraction):
    """ln q to the working precision; near 1 through log1p of the exact q - 1."""
    n, d = q.numerator, q.denominator
    if 2 * n < d or n > 2 * d:
        return mpmath.log(n) - mpmath.log(d)
    return mpmath.log1p(mpmath.mpf(n - d) / d)


def test_log_enclosure_holds_the_80_digit_value():
    rng = random.Random(1000)
    cases = list(_log_cases(rng))
    assert len(cases) >= 1000
    for q in cases:
        lo, hi = dimension.log_enclosure(q)
        if q == 1:
            assert (lo, hi) == (0, 0)
            continue
        n, d = q.numerator, q.denominator
        # a q within 10^-k of 1 needs k more digits to tell ln q from q - 1
        extra = max(0, d.bit_length() - abs(n - d).bit_length()) // 3
        with mpmath.workdps(80 + extra):
            true = _mp_ln(q)
            assert _mp(lo) <= true <= _mp(hi), q
            assert _mp(hi - lo) <= abs(true) * mpmath.mpf(10) ** -30, q
        assert (0 < lo) if q > 1 else (hi < 0), q


def test_a_mass_factor_of_one_has_rate_exactly_zero(golden_third_structure):
    assert dimension.log_enclosure(1) == (0, 0)
    den = rho_log_enclosure(golden_third_structure)
    assert dimension._rate(1, 1, 3, den) == Certified(0.0, Fraction(0), Fraction(0))
    lo, hi = dimension.log_enclosure(Fraction(10**12 + 1, 10**12))
    assert 0 < lo < hi
