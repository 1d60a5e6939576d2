import functools
import math
import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import mpmath
import pytest

from ifsdim.field import FieldContext, FieldError, _has_rational_root, _integerize, _poly_eval

import oracle_helpers as oh


def golden() -> FieldContext:
    # rho = 1/phi = 0.618..., the positive root of x^2 + x - 1
    return FieldContext([-1, 1, 1], (Fraction(1, 2), Fraction(2, 3)))


def third() -> FieldContext:
    return FieldContext([-1, 3])


def quartic() -> FieldContext:
    # reciprocal of the degree-4 simple Pisot number: x^4+x^3+x^2+x-1
    return FieldContext([-1, 1, 1, 1, 1], (Fraction(1, 2), Fraction(1, 1)))


def test_degree_one_context():
    ctx = third()
    assert ctx.degree == 1
    assert oh.as_rational(ctx.rho) == Fraction(1, 3)
    assert (ctx.rho * 3 - 1).is_zero()


def test_golden_identity():
    ctx = golden()
    rho = ctx.rho
    assert rho * rho == 1 - rho
    assert rho > Fraction(1, 2)
    assert rho < Fraction(2, 3)
    inv = 1 / rho
    assert inv == rho + 1  # 1/rho = phi = rho + 1


def test_reduction_of_long_coefficient_vectors():
    ctx = golden()
    # rho^2 = 1 - rho, rho^4 = (1-rho)^2 = 1 - 2 rho + rho^2 = 2 - 3 rho
    assert ctx.element([0, 0, 0, 0, 1]) == ctx.element([2, -3])


def test_positive_family_context():
    # 9x^2 - 18x + 4 has one root in (0, 1/2); the other lies beyond 1.
    ctx = FieldContext([4, -18, 9], (0, Fraction(1, 2)))
    rho = ctx.rho
    assert 9 * rho * rho - 18 * rho + 4 == 0
    approx = float(rho)
    assert abs(approx - 0.254644) < 1e-5


def test_errors():
    with pytest.raises(FieldError):
        FieldContext([1, -5, 6], (0, 1))  # (2x-1)(3x-1): reducible
    with pytest.raises(FieldError):
        FieldContext([0, -1, 3], (0, 1))  # zero constant coefficient
    with pytest.raises(FieldError):
        FieldContext([-1, 1, 1], (Fraction(1, 10), Fraction(2, 10)))  # no root
    with pytest.raises(FieldError):
        FieldContext([1, -8, 8], (0, 1))  # both roots of 8x^2-8x+1 inside
    with pytest.raises(FieldError):
        FieldContext([-2, 1])  # rho = 2 outside (0, 1)
    with pytest.raises(FieldError):
        FieldContext([5])  # constant polynomial
    # the same quadratic is fine once the interval isolates a single root
    ctx = FieldContext([1, -8, 8], (0, Fraction(1, 2)))
    assert abs(float(ctx.rho) - 0.14644660940672627) < 1e-12


def _random_polynomial(rng, degree):
    """A nonzero-constant integer polynomial; half of them (b x - a) q(x)."""
    if rng.random() < 0.5:
        a, b = rng.choice((1, -1)) * rng.randint(1, 60), rng.randint(1, 60)
        q = [rng.randint(-30, 30) or 1 for _ in range(degree)]
        p = [0] * (degree + 1)
        for i, c in enumerate(q):
            p[i] -= a * c
            p[i + 1] += b * c
        return p
    return [rng.randint(-200, 200) or 7 for _ in range(degree + 1)]


def test_rational_root_test_matches_the_divisor_reference():
    rng = random.Random(40)
    found = 0
    for _ in range(600):
        ints = _integerize([Fraction(c) for c in _random_polynomial(rng, rng.choice((2, 3, 4)))])
        expected = oh.reference_has_rational_root(ints)
        assert _has_rational_root(ints) == expected, ints
        found += expected
    # both verdicts are well represented
    assert 200 < found < 400


@pytest.mark.parametrize(
    "minpoly, built",
    [
        # (10^20 x - 3)(x^2 + x + 1)
        ([-3, 10**20 - 3, 10**20 - 3, 10**20], False),
        # irreducible, its root in (0, 1/2) near 1e-20
        ([-1, 1, 10**40 + 7], True),
    ],
)
def test_huge_leading_coefficients_validate_quickly(minpoly, built):
    started = time.perf_counter()
    if built:
        assert FieldContext(minpoly, (0, Fraction(1, 2))).degree == 2
    else:
        with pytest.raises(FieldError, match="reducible over Q"):
            FieldContext(minpoly, (0, Fraction(1, 2)))
    assert time.perf_counter() - started < 1.0


def test_division_by_zero():
    ctx = golden()
    with pytest.raises(ZeroDivisionError):
        ctx.one / ctx.zero


@pytest.mark.parametrize("make_ctx", [third, golden, quartic])
def test_field_axioms_randomized(make_ctx):
    ctx = make_ctx()
    rng = random.Random(20240817)

    def rand_elt():
        return ctx.element(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(ctx.degree)]
        )

    for _ in range(40):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ctx.zero == a
        assert a * ctx.one == a
        if not b.is_zero():
            assert (a * b) / b == a
            assert b * b.inverse() == ctx.one


@pytest.mark.parametrize("make_ctx", [third, golden, quartic])
def test_sign_multiplicative(make_ctx):
    ctx = make_ctx()
    rng = random.Random(991)
    for _ in range(40):
        a = ctx.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ctx.degree)])
        b = ctx.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ctx.degree)])
        assert (a * b).sign() == a.sign() * b.sign()


def test_sign_matches_approximation():
    ctx = quartic()
    rng = random.Random(7)
    eps = Fraction(1, 10**12)
    for _ in range(30):
        a = ctx.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ctx.degree)])
        approx = a.approx(eps)
        if abs(approx) > 2 * eps:
            assert a.sign() == (1 if approx > 0 else -1)
        if a.sign() == 0:
            assert abs(approx) <= eps


def test_approximation_accuracy():
    ctx = golden()
    val = ctx.rho.approx(Fraction(1, 10**15))
    assert abs(float(val) - 0.6180339887498949) < 1e-14
    lo, hi = oh.refine_interval(ctx, Fraction(1, 10**9))
    assert hi - lo <= Fraction(1, 10**9)
    assert lo < val < hi


def tiny() -> FieldContext:
    # rho ~ 1e-20, the root in [0, 1/2] of (10^40 + 7) x^2 + x - 1
    return FieldContext([-1, 1, 10**40 + 7], (0, Fraction(1, 2)))


def _tiny_rho():
    a = mpmath.mpf(10**40 + 7)
    return (mpmath.sqrt(1 + 4 * a) - 1) / (2 * a)


def test_float_of_a_tiny_element_keeps_its_digits():
    with mpmath.workdps(60):
        rho = _tiny_rho()
        ctx = tiny()
        pairs = ((ctx.rho, rho), (ctx.rho * ctx.rho, rho**2), (-ctx.rho / 7, -rho / 7))
        for element, value in pairs:
            assert abs(float(element) - value) <= abs(value) * 1e-15, element
    assert float(tiny().zero) == 0.0
    # at |x| >= 0.1 the absolute 1e-17 decides, as it did before the relative bound
    ctx = golden()
    assert float(ctx.rho) == float(golden().rho.approx(Fraction(1, 10**17)))


def test_approx_relative_is_within_rel_of_the_value():
    rng = random.Random(77)
    for ctx in (golden(), tiny(), quartic(), third()):
        for _ in range(30):
            e = ctx.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)])
            e = e * ctx.rho ** rng.randint(0, 4)
            if e.is_zero():
                continue
            rel = Fraction(1, 10 ** rng.randint(1, 40))
            got = ctx.approx_relative(e.nums, e.den, rel, 1)
            eps = abs(got) * rel / 10**6
            exact = e.approx(eps)
            # |got - e| <= rel |e| <= rel (|exact| + eps)
            assert abs(got - exact) <= rel * (abs(exact) + eps) + eps
    with pytest.raises(FieldError):
        golden().approx_relative((0, 0), 1, Fraction(1, 2), 1)


@pytest.mark.parametrize("make", [golden, tiny, quartic, third])
def test_rho_bracket_is_narrow_relative_to_rho_and_one_minus_rho(make):
    ctx = make()
    rel = Fraction(1, 10**45)
    start = ctx.interval()
    lo, hi = ctx.rho_bracket(rel)
    # the context's own interval is left as it was
    assert ctx.interval() == start
    assert 0 < lo <= hi < 1
    assert hi - lo <= rel * lo * (1 - hi)
    if ctx.degree == 1:
        assert lo == hi == Fraction(1, 3)
    else:
        # the minimal polynomial changes sign across the bracket
        assert _poly_eval(ctx._minpoly, lo) * _poly_eval(ctx._minpoly, hi) < 0
    assert ctx.rho_bracket(rel) == (lo, hi)


def test_degree_one_sign_reads_the_value():
    ctx = third()
    rng = random.Random(4127)
    for _ in range(200):
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(rng.randint(1, 4))]
        expected = _poly_eval(coeffs, Fraction(1, 3))
        assert ctx.element(coeffs).sign() == (expected > 0) - (expected < 0)
        q = coeffs[0]
        assert ctx.sign_of((q.numerator,)) == (q > 0) - (q < 0)
    assert ctx.sign_of((0,)) == 0


def test_degree_one_approx_reads_the_value():
    # the value of a degree-1 element is its one coordinate, so approx
    # returns it exactly, as Horner in the rational rho did
    ctx = third()
    rng = random.Random(9034)
    eps = Fraction(1, 10**12)
    for _ in range(200):
        bits = rng.choice((8, 64, 400))
        num = rng.randint(-(2**bits), 2**bits)
        den = rng.randint(1, 2**rng.choice((8, 64, 400)))
        e = ctx.element([Fraction(num, den)])
        expected = _poly_eval(e.coeffs, Fraction(1, 3))
        got = ctx.approx(e.nums, e.den, eps)
        assert got == expected and type(got) is Fraction
        assert e.approx(eps) == expected
    with pytest.raises(FieldError):
        ctx.approx((1,), 1, 0)


def test_degree_two_approx_stays_within_eps():
    ctx = golden()
    rng = random.Random(5120)
    for k in (3, 9, 15):
        eps = Fraction(1, 10**k)
        for _ in range(10):
            coeffs = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2))
            e = ctx.element(coeffs)
            got = ctx.approx(e.nums, e.den, eps)
            lo, hi = oh.refine_interval(ctx, eps / 1000)
            # the value lies between the element's values at lo and hi
            ends = sorted(_poly_eval(coeffs, t) for t in (lo, hi))
            assert ends[0] - eps <= got <= ends[1] + eps


@pytest.mark.parametrize("make_ctx", [third, golden, quartic])
def test_sort_key_orders_like_less_than(make_ctx):
    ctx = make_ctx()
    rng = random.Random(5501)
    elems = [
        ctx.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ctx.degree)])
        for _ in range(60)
    ]
    elems += elems[:10]  # equal elements must tie
    by_key = sorted(elems, key=ctx.sort_key)
    assert [e.coeffs for e in by_key] == [e.coeffs for e in sorted(elems)]
    key = ctx.sort_key
    for a, b in zip(elems, reversed(elems)):
        assert (key(a) < key(b)) == (a < b)
        assert (key(a) == key(b)) == (a == b)


def _hard_rationals():
    """Values that a float alone cannot order: pairs closer than one ulp,
    equal values held as different objects, negatives, values beyond the
    float range, and values that underflow to a signed zero."""
    tiny = Fraction(1, 10**40)
    base = [Fraction(1, 3), Fraction(1, 3) + tiny, Fraction(1, 3) - tiny, Fraction(2, 87)]
    huge = [Fraction(10**400), Fraction(10**400) + 1]
    huge += [-v for v in huge]
    small = [Fraction(1, 10**400), Fraction(-1, 10**400), Fraction(0)]
    values = base + [-v for v in base] + huge + small
    return values + [Fraction(v.numerator, v.denominator) for v in values]


def _seeded_rationals(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        den = rng.choice([1, 3, 87, 3**rng.randint(1, 60), rng.randint(1, 10**30)])
        out.append(Fraction(rng.randint(-(10**30), 10**30), den) / 10**rng.randint(0, 20))
    return out


@pytest.mark.parametrize(
    "values",
    [
        pytest.param(_hard_rationals(), id="hard"),
        pytest.param(_seeded_rationals(3000, 8101), id="seeded"),
    ],
)
def test_degree_one_key_is_the_exact_order(values):
    ctx = third()
    key = ctx.sort_key
    elems = [ctx.element([v]) for v in values]
    by_key = sorted(elems, key=key)
    assert [e.coeffs[0] for e in by_key] == sorted(values)
    keys = [key(e) for e in by_key]
    exact = [e.coeffs[0] for e in by_key]
    # fresh elements, so every probe computes its key anew
    for v in values + [Fraction(1, 3) + Fraction(1, 10**41), Fraction(10**401)]:
        probe = key(ctx.element([v]))
        assert bisect_left(keys, probe) == bisect_left(exact, v)
        assert bisect_right(keys, probe) == bisect_right(exact, v)
    for a, b in zip(elems, reversed(elems)):
        assert (key(a) < key(b)) == (a.coeffs[0] < b.coeffs[0])
        assert (key(a) == key(b)) == (a.coeffs[0] == b.coeffs[0])


@pytest.mark.parametrize("make_ctx", [third, golden])
def test_sort_key_is_memoised_on_the_element(make_ctx):
    ctx = make_ctx()
    elem = ctx.rho * ctx.rho + 1
    assert ctx.sort_key(elem) is ctx.sort_key(elem)
    twin = ctx.element(elem.coeffs)
    assert ctx.sort_key(twin) is not ctx.sort_key(elem)
    assert ctx.sort_key(twin) == ctx.sort_key(elem)


# minimal polynomial and isolating interval of each irrational suite field:
# the golden and tribonacci ratios and the degree-4 simple Pisot ratio of
# `bernoulli_simple_pisot`, and `quadratic_ninth`, whose interval starts at 0
SUITE_FIELDS = {
    "golden": ([-1, 1, 1], (Fraction(1, 2), Fraction(1))),
    "tribonacci": ([-1, 1, 1, 1], (Fraction(1, 2), Fraction(1))),
    "quartic_pisot": ([-1, 1, 1, 1, 1], (Fraction(1, 2), Fraction(1))),
    "quadratic_ninth": ([4, -18, 9], (Fraction(0), Fraction(1, 2))),
}


def _convergents(x, max_den):
    """The continued-fraction convergents p/q of x with q <= max_den."""
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while x.denominator > 1:
        a = math.floor(x)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_den:
            break
        out.append(Fraction(p1, q1))
        x = 1 / (x - a)
    return out


def _differential_elements(degree, rho, rng):
    """Random elements with signed coordinates over denominators up to 10^40,
    then rho minus its convergents, times random rationals, which need the
    interval far narrower than any random element does."""
    elements = [(Fraction(0),) * degree]
    for _ in range(60):
        coeffs = []
        for _ in range(degree):
            if rng.random() < 0.2:
                coeffs.append(Fraction(0))
            else:
                size = 10 ** rng.choice((1, 6, 20, 40))
                coeffs.append(Fraction(rng.randint(-size, size), rng.randint(1, size)))
        elements.append(tuple(coeffs))
    for conv in _convergents(rho, 10**20):
        scale = Fraction(rng.choice((1, -1)) * rng.randint(1, 10**9), rng.randint(1, 10**40))
        elements.append(tuple(scale * c for c in (-conv, 1) + (0,) * (degree - 2)))
    rng.shuffle(elements)
    return elements


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(SUITE_FIELDS))
def test_kernel_matches_the_fraction_reference(name, seed):
    # signs, approximations and the isolating interval after every call are
    # those of the former `Fraction` kernel, which shares no code with it
    minpoly, isolating = SUITE_FIELDS[name]
    ctx = FieldContext(minpoly, isolating)
    ref = oh.ReferenceField(ctx)
    rho_coeffs = (0, 1) + (0,) * (ctx.degree - 2)
    rho = oh.ReferenceField(FieldContext(minpoly, isolating)).approx(rho_coeffs, Fraction(1, 10**60))
    # a run takes under 300 halvings, so a kernel whose bounds never close
    # fails instead of looping on
    bisect, budget = ctx._bisect, [1000]

    def halve():
        budget[0] -= 1
        assert budget[0] >= 0, "the bounds do not close"
        bisect()

    ctx._bisect = halve
    rng = random.Random(seed)
    for coeffs in _differential_elements(ctx.degree, rho, rng):
        e = ctx.element(coeffs)
        assert ctx.sign_of(e.nums) == ref.sign_of(coeffs)
        assert ctx.interval() == ref.interval()
        lo, hi = ref._interval_eval(coeffs)
        # a random eps, and the element's current width exactly, at which
        # approx must halve once more, since it stops only below eps
        for eps in (Fraction(1, 10 ** rng.randint(6, 40)), hi - lo):
            if eps > 0:
                got = ctx.approx(e.nums, e.den, eps)
                assert type(got) is Fraction and got == ref.approx(coeffs, eps)
                assert ctx.interval() == ref.interval()


# rational ratios: 1/3 as in table_87, 2/5 with a numerator above 1, and one
# over a 40-digit denominator
RATIONAL_RHOS = [
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(3141592653589793238462643383279502884197, 10**40 - 3),
]


def _wide_rational(rng):
    """Zero one time in six, else a signed value of magnitude up to 10^+-400."""
    if rng.random() < 1 / 6:
        return Fraction(0)
    mantissa = Fraction(rng.randint(1, 10 ** rng.choice((1, 20, 40))), rng.randint(1, 10**20))
    return rng.choice((1, -1)) * mantissa * Fraction(10) ** rng.randint(-400, 400)


@pytest.mark.parametrize("rho", RATIONAL_RHOS, ids=["1/3", "2/5", "40-digit"])
def test_rational_rho_takes_the_general_path_exactly(rho, monkeypatch):
    # a rational rho is the width-0 interval [rho, rho]: reduction, sign,
    # approx, product and inverse equal plain Fraction arithmetic, and the
    # interval is never halved
    ctx = FieldContext([-rho.numerator, rho.denominator])

    def no_bisect():
        raise AssertionError("a rational rho was bisected")

    monkeypatch.setattr(ctx, "_bisect", no_bisect)
    assert ctx.rho.coeffs == (rho,)
    rng = random.Random(rho.denominator % 10007)
    # coefficient lists longer than the degree fold down by Horner at rho
    draws = [[Fraction(0)] * 3]
    draws += [[_wide_rational(rng) for _ in range(rng.randint(1, 6))] for _ in range(119)]
    pairs = []
    for coeffs in draws:
        value = _poly_eval(coeffs, rho)
        e = ctx.element(coeffs)
        assert e.coeffs == (value,)
        pairs.append((e, value))
    for e, value in pairs:
        assert ctx.sign_of(e.nums) == e.sign() == (value > 0) - (value < 0)
        for k in (6, 12, 17, 25, 40):
            got = ctx.approx(e.nums, e.den, Fraction(1, 10**k))
            assert type(got) is Fraction and got == value == e.approx(Fraction(1, 10**k))
        assert ctx.interval() == (rho, rho)
    for (a, va), (b, vb) in zip(pairs, rng.sample(pairs, len(pairs))):
        assert (a * b).coeffs == (va * vb,)
        if vb:
            assert b.inverse().coeffs == (1 / vb,)
            assert (a / b).coeffs == (va / vb,)
        else:
            with pytest.raises(ZeroDivisionError):
                b.inverse()
    with pytest.raises(FieldError):
        ctx.approx((1,), 1, 0)
    assert ctx.interval() == (rho, rho)


def _arithmetic_fields():
    """The rational ratios above, then the irrational suite fields, whose
    products fold one to three powers of rho; 1/3, 2/5, the 40-digit ratio
    and `quadratic_ninth` have a leading coefficient other than 1."""
    out = [
        pytest.param([-rho.numerator, rho.denominator], None, id=f"rho={name}")
        for rho, name in zip(RATIONAL_RHOS, ("1/3", "2/5", "40-digit"))
    ]
    return out + [pytest.param(*SUITE_FIELDS[name], id=name) for name in sorted(SUITE_FIELDS)]


def _assert_canonical(ctx, e):
    assert len(e.nums) == ctx.degree and all(type(x) is int for x in e.nums)
    assert type(e.den) is int and e.den > 0
    assert math.gcd(e.den, *e.nums) == 1


@pytest.mark.parametrize("minpoly, isolating", _arithmetic_fields())
def test_arithmetic_matches_the_fraction_reference(minpoly, isolating):
    # sums, differences, products, quotients and inverses on integer
    # numerators equal Fraction arithmetic modulo the minimal polynomial,
    # and every result is in lowest terms, so a value has one (nums, den)
    # and one hash however it was reached
    ctx = FieldContext(minpoly, isolating)
    d = ctx.degree
    rng = random.Random(ctx.minpoly_int[-1] * 101 + d)
    pairs = []
    # coordinate lists longer than the degree fold down in `element`
    draws = [[0]] + [[_wide_rational(rng) for _ in range(rng.randint(1, 2 * d + 1))] for _ in range(59)]
    for coeffs in draws:
        e, r = ctx.element(coeffs), oh.ReferenceElement(ctx.minpoly_int, coeffs)
        _assert_canonical(ctx, e)
        assert e.coeffs == r.coeffs
        pairs.append((e, r))
    pairs += [(a, r) for a, r in pairs[:10]]  # equal values, to compare with themselves
    zero = oh.ReferenceElement(ctx.minpoly_int, [0])
    for (a, ra), (b, rb) in zip(pairs, rng.sample(pairs, len(pairs))):
        for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb)):
            _assert_canonical(ctx, got)
            assert got.coeffs == want.coeffs
        assert (a == b) == (ra == rb) and (a != b) == (ra.coeffs != rb.coeffs)
        twins = [(a + b) - b, ctx.element(ra.coeffs)]
        if rb == zero:
            with pytest.raises(ZeroDivisionError):
                b.inverse()
        else:
            inv, quo = b.inverse(), a / b
            _assert_canonical(ctx, inv)
            _assert_canonical(ctx, quo)
            rinv = rb.inverse()
            assert inv.coeffs == rinv.coeffs
            assert quo.coeffs == (ra * rinv).coeffs
            twins.append(quo * b)
        for twin in twins:
            assert twin == a and (twin.nums, twin.den) == (a.nums, a.den)
            assert hash(twin) == hash(a)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("name", ["golden", "tribonacci", "quadratic_ninth"])
def test_order_and_approx_halve_as_the_reference(name, seed):
    # sorting by sort_key, <, >=, sign() and approx decide on integer
    # numerators, yet after every call the isolating interval is the one
    # the Fraction kernel holds after the same decisions, so printed
    # approximations keep their digits
    minpoly, isolating = SUITE_FIELDS[name]
    ctx = FieldContext(minpoly, isolating)
    ref = oh.ReferenceField(ctx)
    rho_coeffs = (0, 1) + (0,) * (ctx.degree - 2)
    rho = oh.ReferenceField(FieldContext(minpoly, isolating)).approx(rho_coeffs, Fraction(1, 10**60))
    rng = random.Random(seed)
    elems = [ctx.element(c) for c in _differential_elements(ctx.degree, rho, rng)]
    # pairs that differ by a multiple of rho minus a convergent, which only
    # a narrow interval tells apart
    close = []
    for conv in _convergents(rho, 10**20):
        tiny = ctx.element((-conv, 1)) * Fraction(rng.choice((1, -1)), 10 ** rng.randint(0, 30))
        a = rng.choice(elems)
        close.append((a, a + tiny))

    def ref_sign(a, b):
        return ref.sign_of(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    for _ in range(300):
        a, b = rng.choice(close) if rng.random() < 0.5 else rng.sample(elems, 2)
        op = rng.randrange(5)
        if op == 0:
            batch = rng.sample(elems, 6) + [a, b]
            rng.shuffle(batch)
            got = sorted(batch, key=ctx.sort_key)
            want = sorted(batch, key=functools.cmp_to_key(ref_sign))
            assert [e.coeffs for e in got] == [e.coeffs for e in want]
        elif op == 1:
            assert (a < b) == (ref_sign(a, b) < 0)
        elif op == 2:
            assert (a >= b) == (ref_sign(a, b) >= 0)
        elif op == 3:
            assert (b - a).sign() == -ref_sign(a, b)
        else:
            eps = Fraction(1, 10 ** rng.randint(6, 40))
            assert a.approx(eps) == ref.approx(a.coeffs, eps)
        assert ctx.interval() == ref.interval()
