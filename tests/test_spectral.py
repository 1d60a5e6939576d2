"""Tests for the certified spectral radius."""

import math
import random
from fractions import Fraction

import numpy
import pytest

from ifsdim import dimension, spectral
from ifsdim.classes import strongly_connected_components
from ifsdim.matrices import TransitionMatrix
from ifsdim.spectral import DEFAULT_REL_TOL, spectral_radius
from oracle_helpers import (
    matrix_power_entry_sum,
    power_row_sum_ranges,
    reference_spectral_radius,
)


def isqrt_fraction_bounds(n, scale=10**30):
    """Rational bracket around sqrt(n) of width 1/scale."""
    root = math.isqrt(n * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


def test_single_entry_is_exact():
    result = spectral_radius([[Fraction(1, 14)]])
    assert result.exact == Fraction(1, 14)
    assert result.certified_lo == result.certified_hi == Fraction(1, 14)
    assert abs(result.value - 1 / 14) < 1e-15


def test_symmetric_integer_matrix_is_exact():
    result = spectral_radius([[2, 1], [1, 2]])
    assert result.exact == 3
    assert result.certified_lo == result.certified_hi == 3


def test_golden_like_two_by_two_enclosure():
    # spectral radius is (3 + sqrt 5) / 32, an irrational number
    result = spectral_radius(
        [
            [Fraction(1, 8), Fraction(1, 16)],
            [Fraction(1, 16), Fraction(1, 16)],
        ]
    )
    assert result.exact is None
    s5_lo, s5_hi = isqrt_fraction_bounds(5)
    assert result.certified_lo <= (3 + s5_lo) / 32
    assert (3 + s5_hi) / 32 <= result.certified_hi
    assert result.certified_hi - result.certified_lo <= Fraction(2, 10**12)


def test_rational_dominant_root_found_through_char_poly():
    # char poly (x - 1/4)(x - 1/16) after coupling; dominant root rational
    result = spectral_radius(
        [
            [Fraction(5, 32), Fraction(3, 32)],
            [Fraction(3, 32), Fraction(5, 32)],
        ]
    )
    assert result.exact == Fraction(1, 4)
    # the quotients never close on this 2-cycle support, from the rounded
    # float seed or by iteration, so only the positive eigenvector of the
    # rational candidate settles it
    off_diagonal = spectral_radius([[0, Fraction(1, 4)], [1, 0]])
    assert off_diagonal.exact == Fraction(1, 2)


def test_reducible_matrix_takes_block_maximum():
    result = spectral_radius([[Fraction(1, 14), 1, 0], [0, 2, 1], [0, 1, 2]])
    assert result.exact == 3
    nilpotent = spectral_radius([[0, 5], [0, 0]])
    assert nilpotent.exact == 0
    assert nilpotent.value == 0.0


def test_incidence_counts_are_exact():
    assert spectral_radius([[3]]).exact == 3
    assert spectral_radius([[4]]).exact == 4


def test_quadratic_incidence_matches_two_plus_root_two():
    rows = [[2, 1, 1, 0], [0, 2, 0, 1], [1, 1, 2, 0], [1, 0, 1, 0]]
    result = spectral_radius(rows)
    assert result.exact is None
    s2_lo, s2_hi = isqrt_fraction_bounds(2)
    assert result.certified_lo <= 2 + s2_lo
    assert 2 + s2_hi <= result.certified_hi
    assert abs(result.value - 3.4142135623730951) < 1e-9


def test_golden_incidence_matches_golden_ratio():
    rows = [[0, 1, 0], [2, 0, 1], [1, 0, 0]]
    result = spectral_radius(rows)
    s5_lo, s5_hi = isqrt_fraction_bounds(5)
    assert result.certified_lo <= (1 + s5_lo) / 2
    assert (1 + s5_hi) / 2 <= result.certified_hi
    assert abs(result.value - 1.618033988749895) < 1e-9


def _random_nonnegative(rng, n):
    return [
        [
            Fraction(rng.randrange(0, 6), rng.randrange(1, 9))
            if rng.random() < 0.7
            else Fraction(0)
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def test_norm_growth_certifies_the_enclosure():
    rng = random.Random(20260815)
    fixtures = [
        [[2, 1], [1, 2]],
        [[Fraction(1, 8), Fraction(1, 16)], [Fraction(1, 16), Fraction(1, 16)]],
        [[2, 1, 1, 0], [0, 2, 0, 1], [1, 1, 2, 0], [1, 0, 1, 0]],
        [[0, 1, 0], [2, 0, 1], [1, 0, 0]],
    ] + [_random_nonnegative(rng, rng.randrange(2, 5)) for _ in range(6)]
    for rows in fixtures:
        result = spectral_radius(rows)
        norm8 = matrix_power_entry_sum(rows, 8)
        norm16 = matrix_power_entry_sum(rows, 16)
        # submultiplicativity, exactly in rationals
        assert norm16 <= norm8 * norm8
        # sp <= ||T^8||^(1/8), so the lower bound must stay below it
        if norm8 > 0:
            assert float(result.certified_lo) <= float(norm8) ** (1 / 8) * (1 + 1e-9)
        else:
            assert result.certified_lo == 0
        assert result.certified_lo <= result.certified_hi


def _random_irreducible(rng, n):
    rows = _random_nonnegative(rng, n)
    # a Hamiltonian cycle in the support makes the matrix irreducible
    for i in range(n):
        if rows[i][(i + 1) % n] == 0:
            rows[i][(i + 1) % n] = Fraction(rng.randrange(1, 6), rng.randrange(1, 9))
    return rows


TINY = Fraction(1, 10**30)
UNDERFLOW = Fraction(1, 10**400)


def _irreducible_fixtures():
    rng = random.Random(20261018)
    fixtures = [_random_irreducible(rng, rng.randrange(2, 6)) for _ in range(12)]
    # imprimitive: a weighted 3-cycle and a bipartite support of period 2
    fixtures.append([[0, Fraction(2, 3), 0], [0, 0, 5], [Fraction(1, 7), 0, 0]])
    fixtures.append(
        [
            [0, 0, Fraction(1, 2), 3],
            [0, 0, 1, Fraction(1, 9)],
            [Fraction(4, 5), 2, 0, 0],
            [1, Fraction(1, 3), 0, 0],
        ]
    )
    # entries about 1e-30 next to 1
    fixtures.append([[1, TINY], [TINY, Fraction(1, 2)]])
    fixtures.append([[1, TINY, 0], [0, Fraction(1, 3), 1], [TINY, 0, 1]])
    fixtures.append([[0, 1], [TINY, 0]])
    # an entry that float conversion flushes to zero
    fixtures.append([[0, 1], [UNDERFLOW, 0]])
    fixtures.append([[1, 1], [UNDERFLOW, Fraction(1, 2)]])
    return [[[Fraction(x) for x in row] for row in rows] for rows in fixtures]


def test_seeded_enclosure_brackets_the_row_sums_of_powers():
    seeded = 0
    for rows in _irreducible_fixtures():
        result = spectral_radius(rows)
        lo, hi = result.certified_lo, result.certified_hi
        assert 0 <= lo <= hi
        # min rowsum(B^k) <= sp^k <= max rowsum(B^k), exactly
        for k, (low_sum, high_sum) in enumerate(power_row_sum_ranges(rows, 16), 1):
            assert low_sum <= hi**k
            assert lo**k <= high_sum
        if spectral._perron_seed(rows) is not None:
            seeded += 1
            assert hi - lo <= DEFAULT_REL_TOL * hi
    # at least the twelve random and the two imprimitive fixtures
    assert seeded >= 14


def _fake_eig(vector):
    """A numpy.linalg.eig stand-in whose top eigenvector is vector(n)."""

    def eig(a):
        n = len(a)
        values = numpy.zeros(n)
        values[0] = 1.0
        vectors = numpy.zeros((n, n))
        vectors[:, 0] = vector(n)
        return values, vectors

    return eig


def _singular(a):
    raise numpy.linalg.LinAlgError("eigenvalues did not converge")


@pytest.mark.parametrize(
    "eig",
    [
        _fake_eig(lambda n: [(-1) ** i for i in range(n)]),
        _fake_eig(lambda n: [1.0] * (n - 1) + [0.0]),
        _fake_eig(lambda n: [math.nan] * n),
        _singular,
    ],
    ids=["mixed_signs", "zero_entry", "not_finite", "solver_fails"],
)
def test_without_a_positive_seed_iteration_from_ones_still_certifies(monkeypatch, eig):
    monkeypatch.setattr(numpy.linalg, "eig", eig)
    golden = [[Fraction(1, 8), Fraction(1, 16)], [Fraction(1, 16), Fraction(1, 16)]]
    quadratic = [[2, 1, 1, 0], [0, 2, 0, 1], [1, 1, 2, 0], [1, 0, 1, 0]]
    assert spectral._perron_seed(golden) is None
    s5_lo, s5_hi = isqrt_fraction_bounds(5)
    result = spectral_radius(golden)
    assert result.certified_lo <= (3 + s5_lo) / 32
    assert (3 + s5_hi) / 32 <= result.certified_hi
    assert result.certified_hi - result.certified_lo <= DEFAULT_REL_TOL * result.certified_hi
    s2_lo, s2_hi = isqrt_fraction_bounds(2)
    result = spectral_radius(quadratic)
    assert result.certified_lo <= 2 + s2_lo
    assert 2 + s2_hi <= result.certified_hi
    assert result.certified_hi - result.certified_lo <= DEFAULT_REL_TOL * result.certified_hi


def test_loose_rounds_still_bracket_the_tight_answer(monkeypatch):
    rows = [[2, 1, 1, 0], [0, 2, 0, 1], [1, 1, 2, 0], [1, 0, 1, 0]]
    tight = spectral_radius(rows)
    monkeypatch.setattr(spectral, "_MAX_ROUNDS", 3)
    loose = spectral_radius(rows, rel_tol=Fraction(1, 100))
    assert loose.certified_lo <= tight.certified_hi
    assert loose.certified_hi >= tight.certified_lo
    assert loose.certified_lo <= loose.certified_hi


def test_rejects_invalid_input():
    with pytest.raises(ValueError):
        spectral_radius([[1, 2]])
    with pytest.raises(ValueError):
        spectral_radius([[1, -1], [0, 1]])


def test_accepts_transition_matrix_objects(six_map_quarter_structure):
    from ifsdim.matrices import MatrixTable

    table = MatrixTable(six_map_quarter_structure)
    result = spectral_radius(table.of_edge(1, 0))
    assert result.certified_lo <= result.certified_hi
    assert result.certified_hi <= 1


# ---------------------------------------------------------------------------
# the integer-form block reduction against the former `Fraction`-row one
# ---------------------------------------------------------------------------


def _random_block(rng, k, kind):
    """A k x k block of integers times a scale: "equal" column sums, or "mixed"
    entries each with a scale of its own; both with an irreducible support."""
    ints = [[rng.randrange(1, 10) if rng.random() < 0.5 else 0 for _ in range(k)] for _ in range(k)]
    for i in range(k):
        if not ints[i][(i + 1) % k]:
            ints[i][(i + 1) % k] = rng.randrange(1, 10)
    if kind == "equal":
        sums = [sum(col) for col in zip(*ints)]
        top = max(sums) + rng.randrange(0, 3)
        for j in range(k):
            ints[(j - 1) % k][j] += top - sums[j]
        scale = Fraction(10) ** rng.randrange(-400, 401)
        return [[x * scale for x in row] for row in ints]
    return [[x * Fraction(10) ** rng.randrange(-400, 401) for x in row] for row in ints]


def _random_reducible(rng):
    """An n x n matrix, n <= 8, of diagonal blocks: 1x1 zeros, and blocks
    with equal or unequal column sums, coupled upwards, under a random
    permutation; some 1x1 zeros stay uncoupled, giving zero rows and columns."""
    n = rng.randrange(1, 9)
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randrange(1, n - sum(sizes) + 1))
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    starts = []
    for k in sizes:
        kind = rng.choice(["zero", "equal", "mixed"]) if k == 1 else rng.choice(["equal", "mixed"])
        if kind != "zero":
            for i, row in enumerate(_random_block(rng, k, kind)):
                rows[start + i][start : start + k] = row
        starts.append((start, kind))
        start += k
    block_of = [max(s for s, _ in starts if s <= i) for i in range(n)]
    uncoupled = {s for s, kind in starts if kind == "zero" and s % 2 == 0}
    for i in range(n):
        for j in range(n):
            pair = {block_of[i], block_of[j]}
            if block_of[i] < block_of[j] and not pair & uncoupled and rng.random() < 0.3:
                scale = Fraction(10) ** rng.randrange(-400, 401)
                rows[i][j] = Fraction(rng.randrange(1, 10), rng.randrange(1, 10)) * scale
    order = list(range(n))
    rng.shuffle(order)
    return [[rows[i][j] for j in order] for i in order]


def test_integer_blocks_match_the_fraction_rows_on_random_matrices(monkeypatch):
    rng = random.Random(20261019)
    settings = ((DEFAULT_REL_TOL, 4), (Fraction(1, 10**6), 2))
    kinds = dict.fromkeys(
        [
            "zero_row", "zero_column", "reducible", "zero_block",
            "equal_sums", "unequal_sums", "exact", "enclosed",
        ],
        0,
    )
    for k in range(1000):
        rows = _random_reducible(rng)
        n = len(rows)
        kinds["zero_row"] += any(not any(row) for row in rows)
        kinds["zero_column"] += any(not any(col) for col in zip(*rows))
        comps = strongly_connected_components(n, lambda v: [j for j in range(n) if rows[v][j]])
        kinds["reducible"] += len(comps) > 1
        kinds["zero_block"] += any(len(c) == 1 and not rows[c[0]][c[0]] for c in comps)
        for c in comps:
            if len(c) > 1:
                sums = {sum(rows[i][j] for i in c) for j in c}
                kinds["equal_sums" if len(sums) == 1 else "unequal_sums"] += 1
        rel_tol, max_rounds = settings[k % 2]
        monkeypatch.setattr(spectral, "_MAX_ROUNDS", max_rounds)
        got = spectral_radius(rows, rel_tol=rel_tol)
        want = reference_spectral_radius(rows, rel_tol=rel_tol, max_rounds=max_rounds)
        kinds["exact" if want.exact is not None else "enclosed"] += 1
        assert got == want, rows
        assert [type(x) for x in got] == [type(x) for x in want], rows
    assert min(kinds.values()) >= 100, kinds


def _equal_column_sum_matrix(rng):
    """An n x n matrix, n <= 6, whose column sums are all equal: diagonal
    blocks (1x1 zeros, or irreducible blocks of small integers) coupled
    upwards, under a random permutation, each column then raised to the
    greatest sum, or a little above it, at an entry of its own block or of
    a block above.  So it is reducible and block-triangular whenever it
    has more than one block, and the blocks' own column sums mostly differ."""
    n = rng.randrange(1, 7)
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randrange(1, n - sum(sizes) + 1))
    ints = [[0] * n for _ in range(n)]
    block_of, start = [], 0
    for k in sizes:
        if k > 1 or rng.random() < 0.7:
            for i in range(k):
                for j in range(k):
                    if rng.random() < 0.5 or j == (i + 1) % k:
                        ints[start + i][start + j] = rng.randrange(1, 10)
        block_of += [start] * k
        start += k
    for i in range(n):
        for j in range(n):
            if block_of[i] < block_of[j] and rng.random() < 0.3:
                ints[i][j] = rng.randrange(1, 10)
    sums = [sum(col) for col in zip(*ints)]
    top = max(sums) + rng.randrange(0, 3)
    for j in range(n):
        above = [i for i in range(n) if block_of[i] <= block_of[j]]
        ints[rng.choice(above)][j] += top - sums[j]
    den = rng.randrange(1, 50) * 10 ** rng.randrange(0, 30)
    order = list(range(n))
    rng.shuffle(order)
    return [[Fraction(ints[i][j], den) for j in order] for i in order]


def test_equal_column_sums_match_the_block_path_on_random_matrices():
    rng = random.Random(20261020)
    kinds = dict.fromkeys(["reducible", "same", "exact_inside"], 0)
    for _ in range(300):
        rows = _equal_column_sum_matrix(rng)
        n = len(rows)
        comps = strongly_connected_components(n, lambda v: [j for j in range(n) if rows[v][j]])
        kinds["reducible"] += len(comps) > 1
        got = spectral_radius(rows)
        want = reference_spectral_radius(rows)
        (c,) = {sum(col) for col in zip(*rows)}
        assert got == spectral.SpectralResult(float(c), c, c)
        if got == want:
            kinds["same"] += 1
        else:
            # the block path left the radius enclosed; the sums fix it inside
            assert want.exact is None
            assert want.certified_lo <= c <= want.certified_hi
            kinds["exact_inside"] += 1
    assert kinds["reducible"] >= 100 and kinds["same"] >= 100, kinds


def _certified_products(monkeypatch, structure, budget):
    """Every distinct (matrix, keyword arguments) that `build_dimension_report`
    certifies a spectral radius of."""
    seen = {}
    real = dimension.spectral_radius

    def record(matrix, **kwargs):
        seen[matrix, tuple(sorted(kwargs.items()))] = None
        return real(matrix, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(dimension, "spectral_radius", record)
        dimension.build_dimension_report(structure, cycle_budget=budget)
    return list(seen)


@pytest.mark.parametrize("name", ["table_87_structure", "cantor_4_9_structure"])
def test_integer_blocks_match_the_fraction_rows_on_report_products(request, monkeypatch, name):
    products = _certified_products(monkeypatch, request.getfixturevalue(name), 6)
    assert len(products) >= 5
    for matrix, kwargs in products:
        kwargs = dict(kwargs)
        got = spectral_radius(matrix, **kwargs)
        assert got == reference_spectral_radius(matrix, **kwargs), matrix


def test_certified_report_products_never_read_fraction_rows(monkeypatch, table_87_structure):
    products = _certified_products(monkeypatch, table_87_structure, 4)
    assert len(products) >= 30

    def rows(self):
        raise AssertionError("spectral_radius read TransitionMatrix.rows")

    monkeypatch.setattr(TransitionMatrix, "rows", property(rows))
    for matrix, kwargs in products:
        spectral_radius(matrix, **dict(kwargs))


# ---------------------------------------------------------------------------
# the exact radius against radii known by construction
# ---------------------------------------------------------------------------


def _rank_one_block(rng):
    """u v^T with u over 3^e, e up to 60, and v of small fractions not all
    equal (equal ones would give equal column sums); sp = v . u."""
    k = rng.randrange(2, 5)
    e = rng.randrange(1, 61)
    u = [Fraction(rng.randrange(1, 10), 3**e) for _ in range(k)]
    v = [Fraction(rng.randrange(1, 10), rng.choice([1, 2, 4, 5])) for _ in range(k)]
    if len(set(v)) == 1:
        v[0] += 1
    return [[a * b for b in v] for a in u], sum(a * b for a, b in zip(u, v))


def _equal_row_sum_block(rng):
    """An irreducible block whose row sums all equal s / den and whose column
    sums mostly differ: the all-ones vector is a positive right eigenvector,
    so sp = s / den."""
    k = rng.randrange(2, 5)
    ints = [[rng.randrange(0, 6) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        ints[i][(i + 1) % k] += 1
    top = max(map(sum, ints)) + rng.randrange(0, 3)
    for i in range(k):
        ints[i][i] += top - sum(ints[i])
    den = rng.choice([1, 2, 3, 7, 10]) ** rng.randrange(0, 40)
    return [[Fraction(x, den) for x in row] for row in ints], Fraction(top, den)


def _positive_block(rng):
    """A positive block of small fractions over one denominator; its radius is
    left to sympy."""
    k = rng.randrange(2, 5)
    den = rng.randrange(1, 13)
    return [[Fraction(rng.randrange(1, 5), den) for _ in range(k)] for _ in range(k)], None


def _sympy_radius(rows):
    """(characteristic polynomial, sp) in sympy: sp is its greatest real root,
    a `Fraction` when rational, a sympy root object otherwise."""
    import sympy

    poly = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    ).charpoly()
    sp = max(poly.real_roots())
    return poly, Fraction(int(sp.p), int(sp.q)) if sp.is_Rational else sp


@pytest.mark.parametrize("loose", [False, True], ids=["seeded", "loose"])
def test_exact_radius_is_the_one_rational_the_enclosure_allows(monkeypatch, loose):
    """Radii known by construction against `spectral_radius`: rank-one blocks
    u v^T (sp = v . u, with denominators up to 3^60), blocks with equal row
    sums but unequal column sums (sp = the row sum), and positive blocks
    whose radius sympy finds from the exact characteristic polynomial.

    With D the common denominator of a block, a rational radius is m / D
    for an integer m in [D lo, D hi].  Whenever that range holds one integer
    and sp is rational, `exact` must be sp; no `exact` may differ from sp,
    and an `exact` of a positive block must be a root of its characteristic
    polynomial.  `reference_spectral_radius` calls the package's own
    `_rational_dominant_root`, so this test, not that oracle, is the
    independent check of it.  "loose" drops the Perron seed and stops
    `_cw_bounds` after 1 to 4 rounds, so that many enclosures hold one
    integer that is not the radius and only the eigenvector test refuses it.
    """
    if loose:
        monkeypatch.setattr(spectral, "_perron_seed", lambda block: None)
    rng = random.Random(20261022)
    kinds = {}
    for i in range(600):
        kind, make = [
            ("rank_one", _rank_one_block),
            ("equal_rows", _equal_row_sum_block),
            ("positive", _positive_block),
        ][i % 3]
        rows, sp = make(rng)
        if loose:
            monkeypatch.setattr(spectral, "_MAX_ROUNDS", 1 + i % 4)
        result = spectral_radius(rows)
        lo, hi = result.certified_lo, result.certified_hi
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        allowed = math.floor(hi * scale) - math.ceil(lo * scale) + 1
        if sp is None and (result.exact is not None or allowed == 1):
            poly, sp = _sympy_radius(rows)
            if result.exact is not None:
                assert poly.eval(result.exact) == 0, rows
        if sp is not None:
            assert lo <= sp <= hi, rows
        if result.exact is not None:
            assert result.exact == sp, rows
            outcome = "exact_past_1e12" if scale > 10**12 else "exact"
        elif allowed == 1:
            # the one candidate m / D is not the radius, which is irrational
            assert not isinstance(sp, Fraction), rows
            outcome = "refused"
        else:
            outcome = "enclosed"
        kinds[kind, outcome] = kinds.get((kind, outcome), 0) + 1
    if loose:
        assert kinds.get(("positive", "refused"), 0) >= 30, kinds
    else:
        # every radius known to be rational is exact, far past 10^12 too
        known = [o for k, o in kinds if k != "positive"]
        assert set(known) == {"exact", "exact_past_1e12"}, kinds
        assert kinds.get(("rank_one", "exact_past_1e12"), 0) >= 80, kinds
        assert kinds.get(("equal_rows", "exact_past_1e12"), 0) >= 30, kinds
