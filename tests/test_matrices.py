"""Edge matrices: algebra, frozen examples, and the measure oracle."""

from fractions import Fraction

import pytest

from ifsdim.ifs import cantor_like
from ifsdim.net import NetStructureError, explore, iter_net_intervals, path_fulls
from ifsdim.matrices import MatrixTable, TransitionMatrix, edge_matrix

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
    assert a.entry_sum() == F(1)
    assert a.column_sums() == (F(5, 6), F(1, 6))
    assert a.row_sums() == (F(1, 2), F(1, 2))
    assert a.max_column_sum() == F(5, 6)
    assert a.min_positive_column_sum() == F(1, 6)
    assert not a.is_positive()
    assert not a.has_zero_row()
    assert a.zero_pattern() == ((True, False), (True, True))
    assert a.transpose().rows == ((F(1, 2), F(1, 3)), (F(0), F(1, 6)))
    assert a.scaled(2).entry_sum() == F(2)

    ident = TransitionMatrix.identity(2)
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


def test_zero_row_and_positive_flags():
    zero_row = M([[1, 1], [0, 0]])
    assert zero_row.has_zero_row()
    assert M([[1, 1], [1, 1]]).is_positive()
    with pytest.raises(ValueError):
        M([[0], [0]]).min_positive_column_sum()


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
    child_map = s.reduced_child_map()
    self_loops = [rid for rid, row in enumerate(child_map) if row == [rid] * 4]
    assert len(self_loops) == 1
    rid = self_loops[0]
    assert len(s.reduced[rid].neighbours) == 3
    for e in range(4):
        m = edge_matrix(s, rid, e)
        assert m.column_sums() == (F(1, 4), F(1, 4), F(1, 4))


def test_cantor_letter_formula(cantor_4_9_structure):
    """Central vectors of the Cantor family: the letter extending cylinder x
    to child cylinder y under child i is d*x - y + i when that is a letter."""
    s = cantor_4_9_structure
    d, m = 4, 9
    central = s.reduced_of(list(iter_net_intervals(s, 1))[2].full)
    records = s.children_of_reduced(central)
    assert len(records) == d
    for i, rec in enumerate(records):
        assert s.reduced_of(rec.child) == central
        for x, row in enumerate(rec.letters):
            for y, letter in enumerate(row):
                value = d * x - y + i
                expected = value if 0 <= value <= m else None
                assert letter == expected


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
            product = table.path_matrix(iv.edges)
            assert product.shape == (1, len(neighbours))
            sums = product.column_sums()
            for k, a_k in enumerate(neighbours):
                start = iv.left - power * a_k
                entry = mass.get(start.coeffs)
                assert entry is not None
                assert sums[k] == entry[1]
            assert product.entry_sum() == oh.interval_mass(
                system, mass, iv.left, neighbours, n
            )
        power = power * system.rho


@pytest.mark.parametrize("name", [
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
])
def test_shared_matrices_equal_per_edge_matrices(request, name):
    s = request.getfixturevalue(name)
    expected = {
        (rid, rec.edge_index): edge_matrix(s, rid, rec.edge_index)
        for rid in range(s.reduced_count)
        for rec in s.children_of_reduced(rid)
    }
    assert MatrixTable(s)._by_edge == expected


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


def test_matrices_require_probabilities():
    bare = cantor_like(3, 4)
    structure = explore(bare)
    with pytest.raises(NetStructureError):
        MatrixTable(structure)
