"""Shared example systems used throughout the test suite."""

from fractions import Fraction

import pytest

from ifsdim.field import FieldContext
from ifsdim.ifs import (
    build_ifs,
    cantor_like,
    bernoulli_simple_pisot,
    convolution_power,
)
from ifsdim.net import explore


def _uniform(m):
    return tuple(Fraction(1, m) for _ in range(m))


@pytest.fixture(scope="session")
def six_map_quarter():
    """rho = 1/4 with translations {0,1,2,3,5,6}/8; four reduced vectors."""
    ctx = FieldContext([-1, 4])
    d = [Fraction(k, 8) for k in (0, 1, 2, 3, 5, 6)]
    return build_ifs(ctx, d, _uniform(6))


@pytest.fixture(scope="session")
def six_map_quarter_structure(six_map_quarter):
    return explore(six_map_quarter)


@pytest.fixture(scope="session")
def zero_row_third():
    """rho = 1/3 with translations {0, 4/9, 5/9, 2/3}, uniform weights.

    The three essential transition matrices here are not all positive and
    one of them has a zero row.
    """
    ctx = FieldContext([-1, 3])
    d = [Fraction(0), Fraction(4, 9), Fraction(5, 9), Fraction(2, 3)]
    return build_ifs(ctx, d, _uniform(4))


@pytest.fixture(scope="session")
def zero_row_third_structure(zero_row_third):
    return explore(zero_row_third)


@pytest.fixture(scope="session")
def eight_map_twelfths():
    """rho = 1/4 with translations {0,1,2,3,4,5,8,9}/12 and a heavy first map."""
    ctx = FieldContext([-1, 4])
    d = [Fraction(k, 12) for k in (0, 1, 2, 3, 4, 5, 8, 9)]
    p = (Fraction(1, 2),) + tuple(Fraction(1, 14) for _ in range(7))
    return build_ifs(ctx, d, p)


@pytest.fixture(scope="session")
def eight_map_twelfths_structure(eight_map_twelfths):
    return explore(eight_map_twelfths)


@pytest.fixture(scope="session")
def cantor_4_9():
    return cantor_like(4, 9, _uniform(10))


@pytest.fixture(scope="session")
def cantor_4_9_structure(cantor_4_9):
    return explore(cantor_4_9)


@pytest.fixture(scope="session")
def convolution_3_8():
    return convolution_power(3, (Fraction(1, 2), Fraction(1, 2)), 8)


@pytest.fixture(scope="session")
def convolution_3_8_structure(convolution_3_8):
    return explore(convolution_3_8)


@pytest.fixture(scope="session")
def table_87():
    """rho = 1/3 with translations {0, 2/87, 2/3}, uniform; 2280 reduced vectors."""
    ctx = FieldContext([-1, 3])
    d = [Fraction(0), Fraction(2, 87), Fraction(2, 3)]
    return build_ifs(ctx, d, _uniform(3))


@pytest.fixture(scope="session")
def table_87_structure(table_87):
    return explore(table_87)


@pytest.fixture(scope="session")
def cantor_3_4_skewed():
    p = (Fraction(1, 3), Fraction(1, 9), Fraction(1, 9), Fraction(1, 9),
         Fraction(1, 3))
    return cantor_like(3, 4, p)


@pytest.fixture(scope="session")
def cantor_3_4_skewed_structure(cantor_3_4_skewed):
    return explore(cantor_3_4_skewed)


@pytest.fixture(scope="session")
def gap_system():
    """rho = 1/4 with translations {0,1,2,7,8,9}/12; attractor misses (5/12, 7/12)."""
    ctx = FieldContext([-1, 4])
    d = [Fraction(k, 12) for k in (0, 1, 2, 7, 8, 9)]
    p = (Fraction(1, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 4),
         Fraction(1, 8), Fraction(1, 8))
    return build_ifs(ctx, d, p)


@pytest.fixture(scope="session")
def gap_system_structure(gap_system):
    return explore(gap_system)


@pytest.fixture(scope="session")
def golden_half():
    return bernoulli_simple_pisot(2, Fraction(1, 2))


@pytest.fixture(scope="session")
def golden_half_structure(golden_half):
    return explore(golden_half)


@pytest.fixture(scope="session")
def golden_third():
    return bernoulli_simple_pisot(2, Fraction(1, 3))


@pytest.fixture(scope="session")
def golden_third_structure(golden_third):
    return explore(golden_third)


@pytest.fixture(scope="session")
def tribonacci_third():
    return bernoulli_simple_pisot(3, Fraction(1, 3))


@pytest.fixture(scope="session")
def tribonacci_third_structure(tribonacci_third):
    return explore(tribonacci_third)


@pytest.fixture(scope="session")
def quadratic_ninth():
    """rho the small root of 9x^2 - 18x + 4; 1/rho is not a Pisot number."""
    ctx = FieldContext([4, -18, 9], (Fraction(0), Fraction(1, 2)))
    rho = ctx.rho
    d_exprs = [ctx.zero, rho - rho * rho, (ctx.one - rho) ** 2, ctx.one - rho]
    return build_ifs(ctx, d_exprs, _uniform(4))


@pytest.fixture(scope="session")
def quadratic_ninth_structure(quadratic_ninth):
    return explore(quadratic_ninth)
