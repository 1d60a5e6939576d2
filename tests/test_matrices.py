"""Edge matrices: algebra, frozen examples, and the measure oracle."""

import math
import random
from fractions import Fraction

import numpy
import pytest

from ifsdim import dimension, matrices, spectral
from ifsdim.classes import decompose
from ifsdim.field import FieldContext
from ifsdim.ifs import build_ifs, cantor_like
from ifsdim.net import NetStructureError, explore, iter_net_intervals, path_fulls
from ifsdim.matrices import MatrixTable, TransitionMatrix, edge_matrix
from ifsdim.spectral import spectral_radius

import oracle_helpers as oh


def F(a, b=1):
    return Fraction(a, b)


def M(rows):
    return TransitionMatrix([[F(*x) if isinstance(x, tuple) else F(x) for x in row]
                             for row in rows])


# ---------------------------------------------------------------------------
# matrix algebra
# ---------------------------------------------------------------------------

def test_matrix_basics():
    a = M([[ (1, 2), 0], [ (1, 3), (1, 6)]])
    assert a.shape == (2, 2)
    assert oh.entry_sum(a) == F(1)
    assert a.column_sums() == (F(5, 6), F(1, 6))
    assert not a.is_positive()
    assert not a.has_zero_row()

    ident = oh.identity_matrix(2)
    assert ident * a == a
    assert a * ident == a

    b = M([[1, 2], [3, 4]])
    c = M([[0, 1], [1, 0]])
    assert (a * b) * c == a * (b * c)

    with pytest.raises(ValueError):
        M([[1, 2], [3]])
    with pytest.raises(ValueError):
        M([[-1]])
    with pytest.raises(ValueError):
        a * M([[1, 2, 3]])
    with pytest.raises(ValueError):
        TransitionMatrix([])


def random_matrix(rng, n, m, dens):
    """An n x m matrix with about a third zeros, other entries k / d for d in `dens`."""
    return TransitionMatrix(
        [
            [F(0) if rng.random() < 0.3 else F(rng.randint(1, 50), rng.choice(dens))
             for _ in range(m)]
            for _ in range(n)
        ]
    )


def test_integer_multiply_matches_the_fraction_loop():
    rng = random.Random(7)
    # coprime and mixed denominators, and one far beyond float range
    dens = (1, 2, 3, 7, 9, 10, 11, 13, 87, 10**400)
    shapes = [(1, n, n) for n in (1, 2, 5, 15)] + [(n, n, 1) for n in (2, 5, 15)]
    shapes += [(1, 1, n) for n in (2, 5, 15)] + [(n, n, n) for n in range(2, 15)]
    for n, k, m in shapes:
        for _ in range(3):
            a, b = random_matrix(rng, n, k, dens), random_matrix(rng, k, m, dens)
            product = a * b
            assert product == oh.reference_product(a, b)
            assert product.shape == (n, m)
            # a memoised integer form gives the same product again
            assert a * b == product
    tiny = M([[(1, 10**400), (1, 3)], [0, (2, 7)]])
    other = M([[(1, 3), 0], [(5, 11), (1, 10**400)]])
    assert tiny * other == oh.reference_product(tiny, other)
    assert tiny * other * tiny == oh.reference_product(oh.reference_product(tiny, other), tiny)
    zeros = M([[0, 0], [0, 0]])
    assert zeros * tiny == zeros
    assert (zeros * tiny).rows[0][0].denominator == 1


def test_zero_row_and_positive_flags():
    zero_row = M([[1, 1], [0, 0]])
    assert zero_row.has_zero_row()
    assert M([[1, 1], [1, 1]]).is_positive()


def random_rational_rows(rng, n, m):
    """n x m rows of `Fraction`s from 10**-400 to 10**400, about a third of
    them 0, and each row and each column all 0 with chance 1/5."""
    zero_rows = {i for i in range(n) if rng.random() < 0.2}
    zero_cols = {j for j in range(m) if rng.random() < 0.2}

    def entry(i, j):
        if i in zero_rows or j in zero_cols or rng.random() < 0.3:
            return F(0)
        num = rng.randint(1, 999) * 10 ** rng.randint(0, 400)
        return F(num, rng.randint(1, 999) * 10 ** rng.randint(0, 400))

    return [[entry(i, j) for j in range(m)] for i in range(n)]


def test_integer_form_is_the_only_stored_form(monkeypatch):
    rng = random.Random(2016)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = n if rng.random() < 0.5 else rng.randint(1, 5)
        rows = random_rational_rows(rng, n, m)
        a = TransitionMatrix(rows)
        assert a.rows == tuple(map(tuple, rows)) and a.shape == (n, m)
        assert all(type(x) is Fraction for row in a.rows for x in row)
        assert TransitionMatrix(a.rows) == a
        # any common denominator of the rows gives the same matrix
        den = math.lcm(*(x.denominator for row in rows for x in row))
        scaled = [[int(x * den) for x in row] for row in rows]
        for k in (1, 2, 3, 10**40 + 7):
            ints = tuple(tuple(k * x for x in row) for row in scaled)
            b = TransitionMatrix._from_integer(k * den, ints)
            assert b == a and hash(b) == hash(a)
            assert (b.den, b.ints, b.rows) == (a.den, a.ints, a.rows)
        flags = a.column_sums(), a.is_positive(), a.has_zero_row()
        assert flags == oh.reference_matrix_flags(rows)
        if n == m:
            # entries 800 decades apart could take all 500 rounds
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_MAX_ROUNDS", 20)
                assert spectral_radius(rows) == spectral_radius(a)
        else:
            with pytest.raises(ValueError, match="square"):
                spectral_radius(rows)
        negative = [row[:] for row in rows]
        negative[rng.randrange(n)][rng.randrange(m)] = F(-1, rng.randint(1, 10**400))
        ragged = [row[:] for row in rows] + [[F(1)] * (m + 1)]
        for bad in (negative, ragged):
            with pytest.raises(ValueError):
                TransitionMatrix(bad)
            with pytest.raises(ValueError):
                spectral_radius(bad)


def _hundreds_of_decades_rows():
    """The 138th matrix that `random_rational_rows` draws from Random(2016)
    with the shapes of the test above (without its other draws): 4 x 4, with
    a Perron vector whose small components the 10^40 cap rounds to 0."""
    rng = random.Random(2016)
    for _ in range(138):
        n = rng.randint(1, 5)
        m = n if rng.random() < 0.5 else rng.randint(1, 5)
        rows = random_rational_rows(rng, n, m)
    assert (n, m) == (4, 4)
    return rows


def test_perron_vector_over_hundreds_of_decades_keeps_small_bounds(monkeypatch):
    # kept exact, the small components' denominators grew every round, and
    # `certified_hi` had 235,110 bits after 160 rounds
    rows = _hundreds_of_decades_rows()
    monkeypatch.setattr(spectral, "_MAX_ROUNDS", 20)
    short = spectral_radius(rows)
    monkeypatch.setattr(spectral, "_MAX_ROUNDS", 160)
    long = spectral_radius(rows)
    assert short.certified_lo <= long.certified_lo <= long.certified_hi <= short.certified_hi
    assert long.certified_hi.denominator.bit_length() < 2000


def test_an_enclosure_that_stopped_narrowing_stops_the_rounds(monkeypatch):
    # from the first round on, the block's relative width stays 7.97e-11, above
    # the 1e-12 tolerance, while its vector moves only in the rounding
    rows = _hundreds_of_decades_rows()
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_MAX_ROUNDS", 160)
        long = spectral_radius(rows)
    calls = []
    real = spectral._mat_vec
    monkeypatch.setattr(spectral, "_mat_vec", lambda *a: calls.append(1) or real(*a))
    stalled = spectral_radius(rows)
    assert len(calls) <= 60
    assert stalled.certified_lo <= long.certified_lo <= long.certified_hi <= stalled.certified_hi
    assert stalled.certified_hi.denominator.bit_length() < 2000
    # a width that stays put while the vector still moves is no stall: from all
    # ones, this block keeps half its width for 230 rounds, then converges
    monkeypatch.setattr(spectral, "_perron_seed", lambda block: None)
    calls.clear()
    plateau = spectral_radius([[1, F(1, 10**30)], [F(1, 10**30), F(1, 2)]])
    assert len(calls) > 300
    assert plateau.certified_hi - plateau.certified_lo <= plateau.certified_hi / 10**12


# ---------------------------------------------------------------------------
# frozen edge matrices for the worked examples
# ---------------------------------------------------------------------------

def test_zero_row_example_self_matrices(zero_row_third_structure):
    s = zero_row_third_structure
    q = F(1, 4)
    z = F(0)
    expected = [
        M([[q, z, z], [z, z, z], [q, q, q]]),
        M([[z, q, z], [q, z, z], [z, q, q]]),
        M([[z, z, q], [q, q, z], [z, z, q]]),
    ]
    got = [edge_matrix(s, 3, e) for e in range(3)]
    assert got == expected
    assert got[0].has_zero_row()
    assert not any(m.is_positive() for m in got)


def test_heavy_example_edge_matrices(eight_map_twelfths_structure):
    s = eight_map_twelfths_structure
    t = MatrixTable(s)
    w = F(1, 14)
    assert t.of_edge(1, 0) == M([[ (1, 2)]])
    assert t.of_edge(4, 2) == TransitionMatrix([[w, w], [w, w]])
    assert t.of_edge(4, 3) == TransitionMatrix([[w], [w]])
    assert t.of_edge(5, 0) == TransitionMatrix([[w]])
    assert t.of_edge(5, 1) == TransitionMatrix([[w, w]])
    assert t.of_edge(5, 2) == TransitionMatrix([[w]])


def test_golden_family_edge_matrices(golden_third_structure):
    s = golden_third_structure
    t = MatrixTable(s)
    p = F(1, 3)
    q = F(2, 3)
    z = F(0)
    # single child of the two-cylinder overlap vector
    assert t.of_edge(2, 0) == TransitionMatrix([[p, z], [z, q]])
    # the three children of the wide overlap vector
    assert t.of_edge(4, 0) == TransitionMatrix([[p, z], [q, p]])
    assert t.of_edge(4, 1) == TransitionMatrix([[p], [q]])
    assert t.of_edge(4, 2) == TransitionMatrix([[q, p], [z, q]])
    # the short vector has one child, entered by one letter per cylinder
    assert t.of_edge(5, 0) == TransitionMatrix([[q, p]])


def test_quadratic_example_edge_matrices(quadratic_ninth_structure):
    s = quadratic_ninth_structure
    t = MatrixTable(s)
    q = F(1, 4)
    z = F(0)
    assert t.of_edge(2, 0) == TransitionMatrix([[q, z], [q, q]])
    assert t.of_edge(2, 2) == TransitionMatrix([[q, q], [z, q]])
    assert t.of_edge(2, 1) == TransitionMatrix([[q], [q]])
    assert t.of_edge(2, 1).column_sums() == (F(1, 2),)


def test_gap_example_equal_column_sums(gap_system_structure):
    s = gap_system_structure
    child_map = oh.reduced_child_map(s)
    self_loops = [rid for rid, row in enumerate(child_map) if row == [rid] * 4]
    assert len(self_loops) == 1
    rid = self_loops[0]
    assert len(s.neighbours_of_reduced(rid)) == 3
    for e in range(4):
        m = edge_matrix(s, rid, e)
        assert m.column_sums() == (F(1, 4), F(1, 4), F(1, 4))


def test_cantor_letter_formula(cantor_4_9_structure):
    """Central vectors of the Cantor family: the letter extending cylinder x
    to child cylinder y under child i is d*x - y + i when that is a letter."""
    s, letter_of = oh.with_letter_probabilities(cantor_4_9_structure)
    d, m = 4, 9
    central = s.reduced_of(list(iter_net_intervals(s, 1))[2].full)
    records = oh.reduced_records(s, central)
    assert len(records) == d
    for i, rec in enumerate(records):
        assert s.reduced_of(rec.child) == central
        for x, row in enumerate(edge_matrix(s, central, i).rows):
            for y, entry in enumerate(row):
                value = d * x - y + i
                expected = value if 0 <= value <= m else None
                assert letter_of.get(entry) == expected


# ---------------------------------------------------------------------------
# the measure oracle: path products against brute-force word masses
# ---------------------------------------------------------------------------

MASS_CASES = [
    ("golden_half_structure", 4),
    ("golden_third_structure", 4),
    ("zero_row_third_structure", 4),
    ("six_map_quarter_structure", 3),
    ("eight_map_twelfths_structure", 3),
    ("gap_system_structure", 3),
    ("cantor_4_9_structure", 3),
    ("quadratic_ninth_structure", 3),
]


@pytest.mark.parametrize("name,n_max", MASS_CASES)
def test_path_products_match_word_masses(request, name, n_max):
    structure = request.getfixturevalue(name)
    system = structure.system
    table = MatrixTable(structure)
    power = system.context.one
    for n in range(n_max + 1):
        mass = oh.cylinder_mass(system, n)
        for iv in iter_net_intervals(structure, n):
            neighbours = structure.neighbours_of_full(iv.full)
            product = oh.path_matrix(table, iv.edges)
            assert product.shape == (1, len(neighbours))
            sums = product.column_sums()
            for k, a_k in enumerate(neighbours):
                start = iv.left - power * a_k
                entry = mass.get(start.coeffs)
                assert entry is not None
                assert sums[k] == entry[1]
            assert oh.entry_sum(product) == oh.interval_mass(
                system, mass, iv.left, neighbours, n
            )
        power = power * system.rho


CYCLE_STRUCTURES = [
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


@pytest.mark.parametrize("name", CYCLE_STRUCTURES)
def test_shared_matrices_equal_per_edge_matrices(request, name):
    s = request.getfixturevalue(name)
    table = MatrixTable(s)
    for rid in range(s.reduced_count):
        for rec in oh.reduced_records(s, rid):
            e = rec.edge_index
            assert table.of_edge(rid, e) == edge_matrix(s, rid, e)


@pytest.fixture(scope="module")
def golden_three_maps_structure():
    """rho x + {0, rho^3, rho^2} for the golden rho = (sqrt(5) - 1) / 2: on
    28 of its 41 edges the child has more neighbours than there are maps."""
    ctx = FieldContext([-1, 1, 1], [F(1, 2), F(1)])
    rho = ctx.rho
    return explore(build_ifs(ctx, [ctx.zero, rho**3, rho**2], [F(1, 3)] * 3))


def _wide(structure, rec):
    """Whether `edge_matrix` takes the row tables of differences on this edge."""
    return len(structure.neighbours_of_full(rec.child)) > len(structure.system.translations)


def _assert_matches_pairwise_sums(structure, records):
    # the letter weights make every nonzero entry name its translation, so
    # a lookup that found the wrong one would not go unseen
    weighted, _ = oh.with_letter_probabilities(structure)
    for s in (structure, weighted):
        for rid, rec in records:
            e = rec.edge_index
            assert edge_matrix(s, rid, e) == oh.reference_edge_matrix(s, rid, e), (rid, e)


@pytest.mark.parametrize(
    "name", CYCLE_STRUCTURES + ["convolution_3_8_structure", "golden_three_maps_structure"]
)
def test_edge_matrix_matches_the_pairwise_sums(request, name):
    s = request.getfixturevalue(name)
    records = [(rid, rec) for rid in range(s.reduced_count) for rec in oh.reduced_records(s, rid)]
    if name == "golden_three_maps_structure":
        # the only fixture here whose edges take the tables, on an irrational field
        assert sum(_wide(s, rec) for rid, rec in records) == 28
    _assert_matches_pairwise_sums(s, records)


def test_edge_matrix_matches_the_pairwise_sums_on_the_essential_table_87_edges(
    table_87_structure,
):
    # all 7267 edges would take the pairwise sums about 10 s; the essential
    # class holds the 14 x 15 matrices that report and pointdim read
    s = table_87_structure
    records = [
        (rid, rec)
        for rid in sorted({s.reduced_of(fid) for fid in decompose(s).essential})
        for rec in oh.reduced_records(s, rid)
    ]
    assert all(_wide(s, rec) for rid, rec in records)
    _assert_matches_pairwise_sums(s, records)


def test_table_builds_each_matrix_on_first_read(monkeypatch, golden_third_structure):
    calls = []

    def counting(structure, rid, edge_index):
        calls.append((rid, edge_index))
        return edge_matrix(structure, rid, edge_index)

    monkeypatch.setattr(matrices, "edge_matrix", counting)
    table = MatrixTable(golden_third_structure)
    assert calls == []
    first = table.of_edge(4, 1)
    assert table.of_edge(4, 1) is first
    assert calls == [(4, 1)]


def test_zero_column_is_rejected(zero_row_third):
    s = explore(zero_row_third)
    e = s.edges_of_reduced(3)[0]
    # shifted off the lattice of translations, the edge matches no letter at all
    s.elements.append(s.elements[s.offset[e]] + F(1, 1000))
    s.offset[e] = len(s.elements) - 1
    with pytest.raises(NetStructureError, match="zero column"):
        edge_matrix(s, 3, 0)
    table = MatrixTable(s)
    with pytest.raises(NetStructureError, match="zero column"):
        table.of_edge(3, 0)
    # the other edges are untouched and still build
    assert table.of_edge(3, 1) == edge_matrix(s, 3, 1)


def test_cycle_matrix(golden_third_structure):
    s = golden_third_structure
    table = MatrixTable(s)
    fid = path_fulls(s, [1])[-1]  # the two-cylinder overlap vector
    loop = table.cycle_matrix(fid, [0, 0])
    assert loop == TransitionMatrix(
        [[F(1, 9), F(0)], [F(4, 9), F(2, 9)]]
    )
    with pytest.raises(ValueError):
        table.cycle_matrix(fid, [0])
    with pytest.raises(ValueError):
        table.cycle_matrix(fid, [])


def closed_walks(structure, budget):
    """Every rotation of the essential cycles of at most `budget` edges, and its square."""
    dec = decompose(structure)
    children = {fid: oh.child_records(structure, fid) for fid in dec.essential}
    walks = []
    for start in sorted(dec.essential):
        for steps in oh.reference_cycles(children, start, budget):
            for r in range(len(steps)):
                turned = steps[r:] + steps[:r]
                edges = tuple(e for _, e in turned)
                walks += [(turned[0][0], edges), (turned[0][0], edges + edges)]
    return walks


def closes(structure, fid, edges):
    cur = fid
    for e in edges:
        cur = oh.child_records(structure, cur)[e].child
    return cur == fid


@pytest.mark.parametrize("name", CYCLE_STRUCTURES)
def test_cycle_matrix_reuses_prefixes_in_any_order(request, name):
    """`cycle_matrix` gives the reference product whatever order walks
    sharing prefixes come in, and one call's error leaves the next right."""
    structure = request.getfixturevalue(name)
    rng = random.Random(name)
    walks = closed_walks(structure, 4)
    walks = rng.sample(walks, min(len(walks), 120))
    expected = {w: MatrixTable(structure).cycle_matrix(*w) for w in walks}
    for fid, edges in rng.sample(walks, min(len(walks), 20)):
        product, cur = None, fid
        for e in edges:
            m = edge_matrix(structure, structure.reduced_of(cur), e)
            product = m if product is None else oh.reference_product(product, m)
            cur = oh.child_records(structure, cur)[e].child
        assert expected[(fid, edges)] == product
    # shuffled, with starts interleaved; then equal edges from different
    # starts next to each other; then each walk, its square, the walk again
    by_edges = sorted(walks, key=lambda w: (w[1], w[0]))
    repeats = []
    for fid, edges in walks:
        if len(edges) % 2 == 0 and (fid, edges[: len(edges) // 2]) in expected:
            half = (fid, edges[: len(edges) // 2])
            repeats += [half, (fid, edges), half, half]
    for order in (walks, by_edges, repeats):
        table = MatrixTable(structure)
        for walk in order:
            assert table.cycle_matrix(*walk) == expected[walk], walk
    table = MatrixTable(structure)
    for fid, edges in walks:
        if len(edges) > 1 and not closes(structure, fid, edges[:-1]):
            assert table.cycle_matrix(fid, edges) == expected[(fid, edges)]
            with pytest.raises(ValueError, match="not a cycle"):
                table.cycle_matrix(fid, edges[:-1])
            with pytest.raises(ValueError, match="empty"):
                table.cycle_matrix(fid, ())
            assert table.cycle_matrix(fid, edges) == expected[(fid, edges)]


STRUCTURE_FIXTURES = CYCLE_STRUCTURES + [
    "convolution_3_8_structure",
    "golden_three_maps_structure",
    "table_87_structure",
]


def _prime_probabilities(structure, den):
    """c_j / den for the distinct c_j = 1, ..., m - 1 and the rest."""
    m = len(structure.system.translations)
    probs = [F(c, den) for c in range(1, m)]
    return oh.with_probabilities(structure, probs + [1 - sum(probs)])


def _retabled(structure, entry):
    """A table whose edge matrices have `entry`(x) in place of each integer x
    of their integer forms: denominator 1, and row sums above 1."""
    table = MatrixTable(structure)
    for rid in range(structure.reduced_count):
        for rec in oh.reduced_records(structure, rid):
            rows = table.of_edge(rid, rec.edge_index).ints
            table._by_edge[(rid, rec.edge_index)] = TransitionMatrix(
                [[F(entry(x)) for x in row] for row in rows]
            )
    return table


def _scaled_table(structure, factor):
    """A table whose edge matrices are `factor` times the integer forms:
    denominator 1, and row sums far above it."""
    return _retabled(structure, lambda x: x * factor)


class _RecordingTable(MatrixTable):
    """A `MatrixTable` that records each walk `cycle_matrix` multiplies."""

    def __init__(self, structure):
        super().__init__(structure)
        self.walks = []

    def cycle_matrix(self, fid, edges):
        self.walks.append((fid, tuple(edges)))
        return super().cycle_matrix(fid, edges)


def _assert_batched_products_match(table, walks, rng, vectors=None):
    """The products `dimension._StepTable.products` gives for `walks`, and
    for repeats among them, from their float products as
    `_cycle_batches` forms them, equal `table.cycle_matrix`: each walk
    lies in one group, whose product equals `cycle_matrix` of the walk,
    and no two groups share a product.  Exactly the walks of the lengths
    n with bound^n > 2^53 go to `cycle_matrix`.  The step table is built
    over `vectors`, a set closed under children: all full vectors unless
    given.  Returns the step table and the lengths read off the floats."""
    structure = table.structure
    if vectors is None:
        vectors = range(structure.full_count)
    walks = list(walks)
    walks += rng.sample(walks, min(len(walks), 50))  # repeats share one product
    rng.shuffle(walks)
    recording = _RecordingTable(structure)
    recording._by_edge = table._by_edge
    steps = dimension._StepTable(structure, vectors, recording)
    index = {f: i for i, f in enumerate(steps.vectors)}
    # `products` takes walks of one length from starts of one neighbour count
    chunks = {}
    for walk in walks:
        chunks.setdefault((len(walk[1]), int(steps.size[index[walk[0]]])), []).append(walk)
    exact = set()
    for (n, _), group in chunks.items():
        rows = []
        for fid, edges in group:
            v, row = index[fid], []
            for e in edges:
                row.append(int(steps.first[v]) + e)
                v = steps.dst[row[-1]]
            rows.append(row)
        codes = numpy.array(rows)
        recording.walks.clear()
        got = steps.products(codes, oh.float_products(steps, codes))
        past = steps.bound**n > 2**53
        assert sorted(recording.walks) == (sorted(group) if past else []), n
        if not past:
            exact.add(n)
        # each walk lies in exactly one group, of a product equal to no other
        assert sorted(i for _, which in got for i in which) == list(range(len(group)))
        assert len({product for product, _ in got}) == len(got)
        for product, which in got:
            for i in which:
                walk = group[i]
                assert steps.cycle(rows[i]) == walk
                want = table.cycle_matrix(*walk)
                assert product == want and product.shape == want.shape, walk
                assert product.rows == want.rows, walk
    return steps, exact


def _closed_walks(structure, budget=6):
    return oh.closed_walks(structure, range(structure.full_count), budget)


@pytest.mark.parametrize("name", STRUCTURE_FIXTURES)
def test_step_table_products_equal_cycle_matrix_on_every_closed_walk(request, name):
    """`_StepTable.products` equals `cycle_matrix` on every closed walk of
    at most 6 edges."""
    structure = request.getfixturevalue(name)
    rng = random.Random(name)
    table = MatrixTable(structure)
    if name == "table_87_structure":
        # the essential class, whose 14 x 15 matrices `report` multiplies
        essential = sorted(decompose(structure).essential)
        walks = oh.closed_walks(structure, essential, 3)
        _assert_batched_products_match(table, walks, rng, essential)
    else:
        _assert_batched_products_match(table, _closed_walks(structure), rng)


@pytest.mark.parametrize("den", [2**20 + 7, 65521])
@pytest.mark.parametrize("name", ["cantor_3_4_skewed_structure", "quadratic_ninth_structure"])
def test_step_table_products_mix_exact_floats_and_cycle_matrix_walks(request, name, den):
    # with a prime denominator the bound is that denominator: 65521**3 <
    # 2**53 < 65521**4, so walks of 3 edges are read off their floats and
    # walks of 4 go to `cycle_matrix`; (2**20 + 7)**2 < 2**53 < (2**20 + 7)**3
    structure = _prime_probabilities(request.getfixturevalue(name), den)
    steps, exact = _assert_batched_products_match(
        MatrixTable(structure), _closed_walks(structure), random.Random(den)
    )
    assert steps.bound == den and steps.scale == (den - 1).bit_length()
    assert exact == ({1, 2, 3} if den == 65521 else {1, 2})


@pytest.mark.parametrize("factor", [2**20 + 1, 2**70 + 1])
@pytest.mark.parametrize("name", ["cantor_3_4_skewed_structure", "golden_third_structure"])
def test_step_table_products_bound_the_row_sums_not_only_the_denominators(request, name, factor):
    # denominator 1 on every edge: only the row sums, about 2**22 at most,
    # show that a walk of 3 edges is past the bound; times 2**70 + 1 no
    # single step is exact in floats
    structure = request.getfixturevalue(name)
    table = _scaled_table(structure, factor)
    steps, exact = _assert_batched_products_match(
        table, _closed_walks(structure), random.Random(name)
    )
    assert steps.den == 1 and steps.scale == 0 and steps.shift == 0
    assert steps.bound == max(sum(row) for m in table._by_edge.values() for row in m.ints)
    assert exact == ({1, 2} if factor < 2**53 else set())


@pytest.mark.parametrize("name", ["cantor_3_4_skewed_structure", "golden_third_structure"])
def test_step_table_products_of_zero_one_matrices_are_all_exact(request, name):
    # every entry 0 or 1: L = 1 and s = 0, and the bound is the greatest
    # row count, so every walk is read off its floats
    structure = request.getfixturevalue(name)
    table = _retabled(structure, lambda x: int(x > 0))
    steps, exact = _assert_batched_products_match(
        table, _closed_walks(structure), random.Random(name)
    )
    assert steps.den == 1 and steps.scale == 0 and steps.shift == 0
    assert 1 < steps.bound <= steps.width
    assert exact == set(range(1, 7))


def test_step_table_products_of_convolution_cut_at_seven_edges(convolution_3_8_structure):
    # the probabilities C(8, j) / 256: 256**6 = 2**48 and 256**7 = 2**56,
    # so walks of 6 edges are read off their floats and walks of 7 are not
    structure = convolution_3_8_structure
    essential = sorted(decompose(structure).essential)
    rng = random.Random(256)
    walks = [w for w in oh.closed_walks(structure, essential, 7) if len(w[1]) >= 6]
    walks = rng.sample(walks, min(len(walks), 400))
    assert {len(edges) for _, edges in walks} == {6, 7}
    steps, exact = _assert_batched_products_match(MatrixTable(structure), walks, rng, essential)
    assert steps.bound == 256 and steps.shift == 0
    assert exact == {6}


def test_edge_matrix_equals_the_checked_constructor_on_every_edge(request):
    # `edge_matrix` skips the `Fraction` copy and the sign check of the
    # constructor; on table_87, whose 7267 edges would take about 4 s, it
    # takes the essential edges and those of every tenth reduced vector
    for name in STRUCTURE_FIXTURES:
        s = request.getfixturevalue(name)
        rids = range(s.reduced_count)
        if name == "table_87_structure":
            essential = {s.reduced_of(fid) for fid in decompose(s).essential}
            rids = sorted(essential | set(rids[::10]))
        for rid in rids:
            for rec in oh.reduced_records(s, rid):
                m = edge_matrix(s, rid, rec.edge_index)
                checked = TransitionMatrix(m.rows)
                assert m == checked and hash(m) == hash(checked), (name, rid)
                assert m.rows == checked.rows and m.shape == checked.shape
                assert all(type(x) is Fraction for row in m.rows for x in row)


def test_matrices_require_probabilities():
    bare = cantor_like(3, 4)
    structure = explore(bare)
    with pytest.raises(NetStructureError):
        MatrixTable(structure)
