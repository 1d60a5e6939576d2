from fractions import Fraction

import pytest

from ifsdim import ifs
from ifsdim.config import ConfigError, build_system, parse_config
from ifsdim.field import FieldContext
from ifsdim.ifs import IFSError, build_ifs

import oracle_helpers as oh


def test_build_normalizes_shift_and_scale():
    ctx = FieldContext([-1, 4])  # rho = 1/4
    # raw translations 1/8 * {0,1,2,3,5,6}, already normalized since 6/8 = 1 - 1/4
    system = build_ifs(ctx, [Fraction(j, 8) for j in (0, 1, 2, 3, 5, 6)])
    assert system.translations[0].is_zero()
    assert system.translations[-1] == 1 - ctx.rho
    # shifted and scaled copy gives back the same normalized system
    messy = build_ifs(ctx, [Fraction(3) + Fraction(5, 2) * Fraction(j, 8) for j in (6, 1, 0, 3, 5, 2)])
    assert messy.translations == system.translations


def test_normalization_carries_probabilities_with_sorted_maps():
    ctx = FieldContext([-1, 2])
    system = build_ifs(ctx, [Fraction(1), Fraction(0)], [Fraction(1, 3), Fraction(2, 3)])
    assert system.probabilities == (Fraction(2, 3), Fraction(1, 3))


def test_single_map_rejected():
    ctx = FieldContext([-1, 2])
    with pytest.raises(IFSError):
        build_ifs(ctx, [Fraction(0)])
    with pytest.raises(IFSError):
        build_ifs(ctx, [Fraction(0), Fraction(0)])


def test_cantor_family():
    system = ifs.cantor_like(4, 9)
    assert float(system.rho) == 0.25
    assert [oh.as_rational(t) for t in system.translations] == [Fraction(j, 12) for j in range(10)]
    assert system.translations[-1] == Fraction(3, 4)
    with pytest.warns(UserWarning):
        ifs.cantor_like(4, 2)


def test_hull_endpoints_are_fixed():
    for system in (ifs.cantor_like(3, 4), ifs.bernoulli_simple_pisot(2, Fraction(1, 3))):
        assert oh.apply_map(system, 0, system.context.zero).is_zero()
        assert oh.apply_map(system, len(system.translations) - 1, system.context.one) == 1


def test_bernoulli_simple_pisot_identity():
    system = ifs.bernoulli_simple_pisot(3, Fraction(1, 2))
    rho = system.rho
    # rho + rho^2 + ... + rho^k = 1, hence 1 - rho = rho - rho^(k+1)
    assert rho + rho**2 + rho**3 == 1
    assert 1 - rho == rho - rho**4
    assert system.translations == (system.context.zero, 1 - rho)


def test_convolution_power_probabilities():
    system = ifs.convolution_power(3, [Fraction(1, 2), Fraction(1, 2)], 4)
    assert system.probabilities == tuple(Fraction(c, 16) for c in (1, 4, 6, 4, 1))
    assert sum(system.probabilities) == 1
    assert system.probabilities == system.probabilities[::-1]
    # base (1/2, 1/2), k = 2 gives the triangular weights
    small = ifs.convolution_power(3, [Fraction(1, 2), Fraction(1, 2)], 2)
    assert small.probabilities == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


def test_config_direct_form():
    text = """
    # golden-ratio Bernoulli convolution
    minpoly = [-1, 1, 1]
    isolating = [1/2, 2/3]
    translations = [[0], [1, -1]]
    probabilities = [1/2, 1/2]
    """
    system = build_system(parse_config(text))
    assert system.context.degree == 2
    assert system.translations[1] == 1 - system.rho
    assert system.probabilities == (Fraction(1, 2), Fraction(1, 2))


def test_config_family_forms():
    system = build_system(parse_config("family = cantor\nd = 4\nm = 9\n"))
    assert system.family["name"] == "cantor"
    assert len(system.translations) == 10
    system = build_system(parse_config("family = bernoulli_simple_pisot\nk = 2\np = 1/3\n"))
    assert system.probabilities == (Fraction(1, 3), Fraction(2, 3))
    system = build_system(
        parse_config("family = convolution\nd = 3\nbase_probabilities = [1/2, 1/2]\nk = 2\n")
    )
    assert system.probabilities == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as info:
        parse_config("minpoly = [-1, 3\n")
    assert info.value.line == 1
    with pytest.raises(ConfigError) as info:
        parse_config("minpoly = [-1, 3]\nbogus line\n")
    assert info.value.line == 2
    with pytest.raises(ConfigError):
        build_system(parse_config("family = nosuch\n"))
    with pytest.raises(ConfigError):
        build_system(parse_config("minpoly = [-1, 3]\n"))  # translations missing
