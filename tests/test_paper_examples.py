"""The paper's worked examples, checked on the tables the package explores.

Each test names the statement it checks.  The rules pinned here are read
from the data of these grids, not proved: they hold on every system of the
grid, and a change that breaks one of them changed what the package
computes on a worked example.
"""

from fractions import Fraction

import mpmath
import pytest

from ifsdim.classes import decompose
from ifsdim.dimension import (
    build_dimension_report,
    equal_column_sum_check,
    essential_interval_bounds,
)
from ifsdim.ifs import bernoulli_simple_pisot, cantor_like, convolution_power
from ifsdim.matrices import MatrixTable
from ifsdim.net import explore
from ifsdim.report import full_report, render_text


def _outer(system):
    """The column-sum report and the outer bounds of the essential class."""
    structure = explore(system)
    dec, table = decompose(structure), MatrixTable(structure)
    bounds = essential_interval_bounds(structure, dec, table, inner=False)
    return equal_column_sum_check(structure, dec, table), bounds


CANTOR_GRID = [(d, m) for d in (3, 4, 5) for m in range(d + 1, 3 * d + 2)]


@pytest.mark.parametrize("d,m", CANTOR_GRID)
def test_generalized_cantor_sets_have_equal_column_sums_exactly_when_d_divides_m_plus_1(d, m):
    """Generalized Cantor sets: the essential class of uniform
    `cantor_like(d, m)` has one column sum for all its matrices exactly
    when d divides m + 1, and the outer interval is then [1, 1].

    Read from the data of the grid d = 3, 4, 5 and m = d+1 ... 3d+1.
    """
    sums, bounds = _outer(cantor_like(d, m, [Fraction(1, m + 1)] * (m + 1)))
    assert sums.holds == ((m + 1) % d == 0)
    if sums.holds:
        # every column sum is rho = 1/d, so both outer ends are exactly 1
        assert sums.common_sum == bounds.p_max == bounds.p_min == Fraction(1, d)
        for end in (bounds.outer_lo, bounds.outer_hi):
            assert end.lo <= 1 <= end.hi
    else:
        assert bounds.p_max > bounds.p_min


def test_cantor_convolutions_have_outer_intervals_closing_in_on_1():
    """Convolutions of the Cantor measure: for the k-th convolution
    `convolution_power(3, (1/2, 1/2), k)`, k = 2 ... 16, the outer interval
    contains 1 and its ends move weakly toward 1.  The lower end moves only
    at odd k and the upper end only at even k, and each moves strictly from
    k to k + 2, so the interval does not shrink strictly at every step.

    Read from the data.  The outer ends are -log P / |log rho| for the
    extreme column sums P, so they are compared through P_max and P_min
    exactly: the lower end rises as P_max falls, and 1 is the end of
    P = rho = 1/3.
    """
    rho = Fraction(1, 3)
    ends = {}
    for k in range(2, 17):
        _, bounds = _outer(convolution_power(3, (Fraction(1, 2), Fraction(1, 2)), k))
        assert bounds.p_min <= rho <= bounds.p_max
        assert bounds.outer_lo.lo <= 1 <= bounds.outer_hi.hi
        ends[k] = (bounds.p_max, bounds.p_min)
    for k in range(3, 17):
        (p_max_before, p_min_before), (p_max, p_min) = ends[k - 1], ends[k]
        assert p_max <= p_max_before and p_min >= p_min_before
        assert (p_max < p_max_before) == (k % 2 == 1)  # the lower end rises
        assert (p_min > p_min_before) == (k % 2 == 0)  # the upper end falls
    for k in range(2, 15):
        assert ends[k + 2][0] < ends[k][0] and ends[k + 2][1] > ends[k][1]


@pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(1, 3), Fraction(2, 5), Fraction(2, 3)])
@pytest.mark.parametrize("k", range(2, 7))
def test_biased_bernoulli_convolutions_with_simple_pisot_ratio_have_an_isolated_point(k, p):
    """Biased Bernoulli convolutions with 1/rho a simple Pisot number (the
    root in (1, 2) of x^k - x^(k-1) - ... - x - 1): the local dimension at
    the endpoint of the lighter map, 0 when p < 1/2 and 1 when p > 1/2, is
    isolated, and the report proves it by the family bound at
    `--cycle-budget 4`.

    Read from the data of the grid k = 2 ... 6 and p = 1/5, 1/3, 2/5, 2/3.
    """
    structure = explore(bernoulli_simple_pisot(k, p))
    report = build_dimension_report(structure, cycle_budget=4)
    text = render_text(full_report(structure, report))
    light = "endpoint %d: " % (p > Fraction(1, 2))
    (line,) = [line for line in text.splitlines() if line.startswith(light)]
    assert "ISOLATED (family_bound)" in line


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("d,m", CANTOR_GRID)
def test_uniform_cantor_measures_have_endpoint_dimension_log_m_plus_1_over_log_d(d, m):
    """Generalized Cantor sets: for uniform `cantor_like(d, m)` the local
    dimension at 0 and at 1 is ln(m + 1) / ln d, whether or not d divides
    m + 1: the endpoint's level-n net interval carries (m + 1)^-n of the mass.

    Read from the data of the grid d = 3, 4, 5 and m = d+1 ... 3d+1, with
    mpmath at 50 digits as the oracle.
    """
    structure = explore(cantor_like(d, m, [Fraction(1, m + 1)] * (m + 1)))
    isolation = build_dimension_report(structure, cycle_budget=2).isolation
    with mpmath.workdps(50):
        expected = mpmath.log(m + 1) / mpmath.log(d)
        for finding in (isolation.at_zero, isolation.at_one):
            dim = finding.dimension.dimension
            assert _mp(dim.lo) <= expected <= _mp(dim.hi), (finding.point, dim)


@pytest.mark.parametrize(
    "name",
    [
        "cantor_4_9_structure",
        "convolution_3_8_structure",
        "golden_third_structure",
        "tribonacci_third_structure",
        "quadratic_ninth_structure",
    ],
)
def test_the_inner_interval_strictly_contains_the_hausdorff_dimension(request, name):
    """A truly essential point has local dimension dim_H of the support: on
    the suite systems the certified inner interval at budget 8 contains the
    whole dim_H enclosure, each end strictly.

    Read from the data of the suite.  `table_87` is left out: every rate
    there is exactly 1, so its enclosures only overlap, and separating them
    waits for exact log ratios (ROADMAP direction 4).
    """
    structure = request.getfixturevalue(name)
    report = build_dimension_report(structure, cycle_budget=8)
    bounds, dim = report.bounds, report.hausdorff.dimension
    assert bounds.inner_lo.hi <= dim.lo and dim.hi <= bounds.inner_hi.lo
