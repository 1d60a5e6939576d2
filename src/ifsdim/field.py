"""Exact arithmetic in Q(rho) for an algebraic contraction ratio rho in (0, 1).

Elements are coordinate vectors over the power basis 1, rho, ..., rho^(d-1),
where d is the degree of the minimal polynomial of rho.  Each element is
stored as d integer numerators over one positive denominator, in lowest
terms, so equal values have equal representations, and arithmetic is exact
integer arithmetic: a sum takes one gcd, and a product folds the integer
polynomial product by the integer minimal polynomial.  The sign of an
element is decided by interval evaluation of its numerators over a rational
isolating interval for rho, refined by bisection; this terminates because a
nonzero element of the field cannot vanish at rho.  A rational rho is the
width-0 interval [rho, rho], on which the same evaluation is exact and never
halves.

The isolating interval is held as integer numerators over one denominator
too, so the bounds at its two ends come out over one known denominator.  A
difference is signed on the numerators x qb - y qa of its two operands, a
positive multiple of it; a positive scale never changes whether a bound is
above or below 0, so every bisection, sign and approximation is the one a
`Fraction` evaluation of the coordinates gives.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

Coeffs = Tuple[Fraction, ...]


# `FieldElement.__float__` approximates to within _FLOAT_EPS and within
# _FLOAT_REL of the value; from |x| >= 0.1 on, the absolute bound decides
_FLOAT_EPS = Fraction(1, 10**17)
_FLOAT_REL = Fraction(1, 10**16)


class FieldError(ValueError):
    """Raised for invalid field descriptions or illegal element operations."""


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient tuples, lowest degree first)
# ---------------------------------------------------------------------------

def _trim(p: Sequence[Fraction]) -> Coeffs:
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def _poly_add(p: Coeffs, q: Coeffs) -> Coeffs:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _poly_neg(p: Coeffs) -> Coeffs:
    return tuple(-c for c in p)


def _poly_mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _poly_divmod(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lead = q[-1]
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        f = c / lead
        quo[i - dq] = f
        for j in range(dq + 1):
            rem[i - dq + j] -= f * q[j]
    return _trim(quo), _trim(rem)


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: Coeffs) -> Coeffs:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _sign_changes(values: Iterable[Fraction]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_chain(p: Coeffs) -> list[Coeffs]:
    """The Sturm sequence p, p', -rem(p, p'), ... of p."""
    chain = [p, _poly_deriv(p)]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_poly_neg(rem))
    return chain


def _sturm_root_count(p: Coeffs, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.
    """
    chain = _sturm_chain(p)
    at_lo = _sign_changes(_poly_eval(f, lo) for f in chain)
    at_hi = _sign_changes(_poly_eval(f, hi) for f in chain)
    return at_lo - at_hi


def _integerize(p: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational polynomial to a primitive integer one, positive lead."""
    from math import gcd, lcm

    den = lcm(*(c.denominator for c in p)) if p else 1
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g:
        ints = [c // g for c in ints]
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _has_rational_root(int_coeffs: Sequence[int]) -> bool:
    """Whether the integer polynomial `int_coeffs` has a rational root.

    A root a/b in lowest terms has b | lead, so two such candidates lie at
    least 1/lead^2 apart.  Each real root is bracketed by Sturm counts
    inside a power of two above the Cauchy bound, and its bracket halved
    below width 1/lead^2; then the one candidate the bracket can hold is
    the fraction of denominator at most |lead| closest to its midpoint,
    which is tested exactly.  The number of halvings grows with the digits
    of the coefficients, not with their size.  Bracket ends are n / 2^k,
    and the Sturm chain, scaled to integer coefficients, is signed there
    on the integers sum(c_i n^i 2^(k (d - i))), positive multiples of its
    values.
    """
    lead = abs(int_coeffs[-1])
    chain = [_numerators(f)[0] for f in _sturm_chain(tuple(map(Fraction, int_coeffs)))]

    def changes(n: int, k: int) -> int | None:
        """The sign changes of the chain at n / 2^k, None where p vanishes."""
        values = []
        for f in chain:
            acc, scale = f[-1], 1
            for c in reversed(f[:-1]):
                scale <<= k
                acc = acc * n + c * scale
            values.append(acc)
        return _sign_changes(values) if values[0] else None

    top = 1 << (max(map(abs, int_coeffs[:-1])) // lead + 2).bit_length()
    # (lo, hi, k, Sturm changes at lo / 2^k and at hi / 2^k), neither end a root
    todo = [(-top, top, 0, changes(-top, 0), changes(top, 0))]
    while todo:
        lo, hi, k, at_lo, at_hi = todo.pop()
        if at_lo == at_hi:
            continue
        if at_lo - at_hi == 1 and (hi - lo) * lead * lead < 1 << k:
            mid = Fraction(lo + hi, 1 << (k + 1)).limit_denominator(lead)
            if _poly_eval(int_coeffs, mid) == 0:
                return True
            continue
        lo, mid, hi, k = 2 * lo, lo + hi, 2 * hi, k + 1
        at_mid = changes(mid, k)
        if at_mid is None:
            return True
        todo += [(lo, mid, k, at_lo, at_mid), (mid, hi, k, at_mid, at_hi)]
    return False


def _is_irreducible(int_coeffs: Sequence[int]) -> bool:
    """Irreducibility over Q: up to degree 3 a factor is linear, so the
    rational-root test decides; above it sympy's exact factorisation over Q,
    which finds linear factors too."""
    if len(int_coeffs) - 1 <= 3:
        return not _has_rational_root(int_coeffs)
    import sympy

    poly = sympy.Poly(list(reversed(int_coeffs)), sympy.Symbol("x"))
    factors = poly.factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1


def _numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers a_i and q > 0 with coeffs[i] = a_i / q, q the lcm of the denominators."""
    dens = [c.denominator for c in coeffs]
    q = math.lcm(*dens)
    return [c.numerator * (q // den) for c, den in zip(coeffs, dens)], q


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise FieldError(f"expected a rational value, got {v!r}")


def _halve(mp: Sequence[int], sign_lo: int, nlo: int, nhi: int, den: int) -> tuple[int, int, int]:
    """The half of [nlo/den, nhi/den] that holds the root of the integer
    polynomial mp, whose sign at the lower end is sign_lo, as (nlo, nhi, 2 den).

    Over the new denominator D = 2 den the midpoint is nlo + nhi, and the
    sign of mp there is the sign of D^d mp(mid), found by Horner's rule on
    its integer coefficients.  The end that is kept is doubled to D, so the
    interval's rationals are the ones that halving with `Fraction`s gives.
    """
    den *= 2
    mid = nlo + nhi
    val = mp[-1]
    scale = 1
    for c in reversed(mp[:-1]):
        scale *= den
        val = val * mid + c * scale
    if val == 0:  # impossible for an irreducible polynomial of degree >= 2
        raise FieldError("minimal polynomial has a rational root")
    if (1 if val > 0 else -1) == sign_lo:
        return mid, 2 * nhi, den
    return 2 * nlo, mid, den


@functools.lru_cache(maxsize=64)
def _rho_bracket(mp, sign_lo, nlo, nhi, den, rel: Fraction) -> tuple[Fraction, Fraction]:
    """`FieldContext.rho_bracket` from the interval [nlo/den, nhi/den]."""
    while (nhi - nlo) * den * rel.denominator > rel.numerator * nlo * (den - nhi):
        nlo, nhi, den = _halve(mp, sign_lo, nlo, nhi, den)
    return Fraction(nlo, den), Fraction(nhi, den)


class FieldContext:
    """The number field Q(rho), with rho pinned by an isolating interval.

    `minpoly` lists rational coefficients lowest degree first.  For degree
    one rho is rational and needs no irreducibility or Sturm check, so the
    interval is optional; rho is held as the width-0 interval [rho, rho].
    Otherwise the polynomial must be irreducible over Q and have exactly
    one root inside the interval, which must lie within [0, 1].
    """

    def __init__(self, minpoly: Sequence, isolating: Sequence | None = None):
        coeffs = _trim([_as_fraction(c) for c in minpoly])
        if len(coeffs) < 2:
            raise FieldError("minimal polynomial must have degree at least 1")
        if coeffs[0] == 0:
            raise FieldError("minimal polynomial has zero constant coefficient")
        self.minpoly_int: tuple[int, ...] = _integerize(coeffs)
        self.degree: int = len(coeffs) - 1
        mp = tuple(Fraction(c) for c in self.minpoly_int)
        self._minpoly = mp

        if self.degree == 1:
            rho = -mp[0] / mp[1]
            if not 0 < rho < 1:
                raise FieldError(f"root {rho} is not inside (0, 1)")
            if isolating is not None:
                lo, hi = (_as_fraction(v) for v in isolating)
                if not lo <= rho <= hi:
                    raise FieldError("isolating interval does not contain the root")
            lo = hi = rho
        else:
            if not _is_irreducible(self.minpoly_int):
                raise FieldError("minimal polynomial is reducible over Q")
            if isolating is None:
                raise FieldError("an isolating interval is required for degree >= 2")
            lo, hi = (_as_fraction(v) for v in isolating)
            if not (0 <= lo < hi <= 1):
                raise FieldError("isolating interval must satisfy 0 <= lo < hi <= 1")
            if _poly_eval(mp, lo) == 0 or _poly_eval(mp, hi) == 0:
                raise FieldError("isolating interval endpoints must not be roots")
            nroots = _sturm_root_count(mp, lo, hi)
            if nroots == 0:
                raise FieldError("no root of the minimal polynomial in the interval")
            if nroots > 1:
                raise FieldError("isolating interval contains more than one root")

        self._sign_lo = 1 if _poly_eval(mp, lo) > 0 else -1
        (nlo, nhi), den = _numerators((lo, hi))
        self._start = (nlo, nhi, den)
        self._set_interval(nlo, nhi, den)
        self.zero = FieldElement(self, (0,) * self.degree, 1)
        self.one = self.element([1])
        self.rho = self.element([0, 1])
        self._compare_key = functools.cmp_to_key(self._compare)

    # -- construction ------------------------------------------------------

    def element(self, coeffs: Sequence) -> "FieldElement":
        """The element sum(coeffs[i] rho^i), for any number of rational coefficients."""
        return self._element(*_numerators([_as_fraction(c) for c in coeffs]))

    def from_rational(self, value) -> "FieldElement":
        return self.element([_as_fraction(value)])

    def _element(self, nums: list[int], den: int) -> "FieldElement":
        """The element sum(nums[i] rho^i) / den in lowest terms, for den > 0.

        Powers rho^k, k >= d, fold down from the top: a top coefficient c is
        cancelled by c x^(k-d) m(x), m the integer minimal polynomial, once
        the rest is scaled by m's leading coefficient, which joins den.
        """
        d, mp = self.degree, self.minpoly_int
        while len(nums) > d:
            c = nums.pop()
            if c:
                if mp[d] != 1:
                    nums = [x * mp[d] for x in nums]
                    den *= mp[d]
                k = len(nums) - d
                for j in range(d):
                    nums[k + j] -= c * mp[j]
        nums += [0] * (d - len(nums))
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        return FieldElement(self, tuple(nums), den)

    # -- isolating interval ------------------------------------------------

    def interval(self) -> tuple[Fraction, Fraction]:
        return Fraction(self._nlo, self._den), Fraction(self._nhi, self._den)

    def _set_interval(self, nlo: int, nhi: int, den: int) -> None:
        """Hold the interval [nlo/den, nhi/den], with the end powers evaluation reads.

        `_plo[i]` is nlo^i * den^(d-1-i), and `_phi[i]` the same for nhi, so
        that an element's bounds come out over den^(d-1) = `_plo[0]`.
        """
        self._nlo, self._nhi, self._den = nlo, nhi, den
        d = self.degree
        self._plo, self._phi = [], []
        lo_power = hi_power = 1
        for i in range(d):
            scale = den ** (d - 1 - i)
            self._plo.append(lo_power * scale)
            self._phi.append(hi_power * scale)
            lo_power *= nlo
            hi_power *= nhi

    def _bisect(self) -> None:
        """Halve the isolating interval, keeping the half that holds rho."""
        mp, sign_lo = self.minpoly_int, self._sign_lo
        self._set_interval(*_halve(mp, sign_lo, self._nlo, self._nhi, self._den))

    def root_index(self) -> int:
        """Index of rho among the real roots of the minimal polynomial, smallest first.

        Unlike the isolating interval, this does not depend on the interval
        the field was given, so it names the root canonically.  A rational rho
        is the one root; Sturm's count needs ends that are not roots.
        """
        if self.degree == 1:
            return 0
        mp = self._minpoly
        # Cauchy's bound: every root lies strictly inside (-bound, bound)
        bound = 1 + max(abs(c) for c in mp[:-1]) / abs(mp[-1])
        return _sturm_root_count(mp, -bound, self.interval()[0])

    # -- evaluation --------------------------------------------------------

    def _interval_eval(self, nums: Sequence[int]) -> tuple[int, int]:
        """Bounds lo <= hi on den^(d-1) * sum(a_i rho^i), for integer numerators a_i.

        Each term takes the end of the interval that makes it smallest or
        largest, as the interval lies in [0, 1]; over den^(d-1) these are
        the bounds a `Fraction` evaluation at the rational ends gives.
        """
        tot_lo = tot_hi = 0
        for a, plo, phi in zip(nums, self._plo, self._phi):
            if a > 0:
                tot_lo += a * plo
                tot_hi += a * phi
            elif a < 0:
                tot_lo += a * phi
                tot_hi += a * plo
        return tot_lo, tot_hi

    def sign_of(self, nums: Sequence[int]) -> int:
        """The sign of sum(nums[i] rho^i), for integers nums[i]: the one sign
        kernel, handed an element's numerators or, by `_compare`, a positive
        multiple of a difference.  It halves the interval while the bounds
        straddle 0."""
        if not any(nums):
            return 0
        while True:
            lo, hi = self._interval_eval(nums)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._bisect()

    def _compare(self, a: tuple, b: tuple) -> int:
        """The sign of a - b, for elements given as (nums, den): the sign of
        x qb - y qa, which is the difference times qa qb > 0."""
        (x, qa), (y, qb) = a, b
        return self.sign_of([u * qb - v * qa for u, v in zip(x, y)])

    def sort_key(self, element: "FieldElement"):
        """An exact key ordering elements of this field by value.

        For degree 1 the key is (float(value), value).  Correctly rounded
        int / int division is monotone, so the float decides every pair it
        tells apart and the exact value breaks float ties only; a value
        beyond the float range maps to +-inf and is still ordered exactly by
        the tie-break.  Otherwise the key compares by the sign of the
        difference, so every order decision goes through `sign_of`.  Keys of
        equal elements compare equal.  The key is memoised on the element,
        so a shared element is keyed once.  The float key is kept for speed:
        on `table_87` a fresh explore takes 0.08 s with it and 0.56 s with
        the comparison key (medians of 8 alternating in-process runs on a
        2-vCPU x86-64 VM).
        """
        key = element._key
        if key is None:
            if self.degree == 1:
                num, den = element.nums[0], element.den
                try:
                    approx = num / den
                except OverflowError:
                    approx = math.inf if num > 0 else -math.inf
                key = (approx, Fraction(num, den))
            else:
                key = self._compare_key((element.nums, element.den))
            element._key = key
        return key

    def approx(self, nums: Sequence[int], den: int, eps) -> Fraction:
        """A rational within eps of sum(nums[i] rho^i) / den, for den > 0.

        Exact for a rational rho, whose interval [rho, rho] has width 0.
        """
        eps = _as_fraction(eps)
        if eps <= 0:
            raise FieldError("eps must be positive")
        while True:
            lo, hi = self._interval_eval(nums)
            scale = den * self._plo[0]  # the bounds are over den * _den^(d-1)
            if (hi - lo) * eps.denominator < eps.numerator * scale:
                return Fraction(lo + hi, 2 * scale)
            self._bisect()

    def rho_bracket(self, rel) -> tuple[Fraction, Fraction]:
        """An interval [lo, hi] around rho with hi - lo <= rel lo (1 - hi).

        Then 0 < lo <= rho <= hi < 1, and hi - lo <= rel rho (1 - rho), however
        close rho lies to 0 or to 1.  A rational rho's interval [rho, rho]
        holds at once.  The interval the context was given is halved, not the
        context's own, so the bracket does not depend on the signs decided
        before, and later evaluations keep their shorter integers.
        """
        return _rho_bracket(self.minpoly_int, self._sign_lo, *self._start, _as_fraction(rel))

    def approx_relative(self, nums: Sequence[int], den: int, rel, eps) -> Fraction:
        """A rational within min(eps, rel |x|) of the nonzero x = sum(nums[i] rho^i) / den,
        for 0 < rel <= 1/2.

        The first call to `approx` asks for eps.  A result a with
        eps (1 + rel) <= rel |a| shows eps <= rel (|a| - eps) <= rel |x|.
        Otherwise the next call asks for rel |a| / 4, which succeeds once
        |a| > 2 eps has shown |x| > |a| / 2, and for eps / 2^32 before.
        """
        if not any(nums):
            raise FieldError("0 has no relative approximation")
        rel, eps = _as_fraction(rel), _as_fraction(eps)
        while True:
            a = self.approx(nums, den, eps)
            if eps * (1 + rel) <= rel * abs(a):
                return a
            eps = rel * abs(a) / 4 if abs(a) > 2 * eps else eps / 2**32

    def __repr__(self) -> str:
        return f"FieldContext(minpoly={list(self.minpoly_int)}, degree={self.degree})"


class FieldElement:
    """An element of Q(rho): sum(nums[i] rho^i) / den over the power basis.

    `nums` holds d integers and `den` > 0 with gcd(nums, den) = 1, so the
    pair is canonical: equal values have equal pairs, and `==` and `hash`
    read the pair.  `coeffs` is a read-only `Fraction` view of the
    coordinates, for output and `inverse`; sums, products, signs and order
    never build it.
    """

    __slots__ = ("ctx", "nums", "den", "_hash", "_key")

    def __init__(self, ctx: FieldContext, nums: tuple[int, ...], den: int):
        self.ctx = ctx
        self.nums = nums
        self.den = den
        self._hash = None
        self._key = None  # FieldContext.sort_key, once asked for

    @property
    def coeffs(self) -> Coeffs:
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise FieldError("elements belong to different field contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        qa, qb = self.den, o.den
        return self.ctx._element([x * qb + y * qa for x, y in zip(self.nums, o.nums)], qa * qb)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.ctx, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        qa, qb = self.den, o.den
        return self.ctx._element([x * qb - y * qa for x, y in zip(self.nums, o.nums)], qa * qb)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return self.ctx._element(prod, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = self.ctx.one
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "FieldElement":
        ctx = self.ctx
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # Extended Euclid: u * self + v * minpoly = gcd = constant.
        a, b = ctx._minpoly, _trim(self.coeffs)
        u_prev: Coeffs = ()
        u_cur: Coeffs = (Fraction(1),)
        while True:
            quo, rem = _poly_divmod(a, b)
            if not rem:
                break
            a, b = b, rem
            u_prev, u_cur = u_cur, _poly_add(u_prev, _poly_neg(_poly_mul(quo, u_cur)))
        if len(b) != 1:  # gcd must be a constant since minpoly is irreducible
            raise FieldError("element is not invertible (internal inconsistency)")
        return ctx.element([c / b[0] for c in u_cur])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- predicates and comparisons ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def sign(self) -> int:
        return self.ctx.sign_of(self.nums)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def _compare(self, other) -> int | None:
        o = self._coerce(other)
        return None if o is None else self.ctx._compare((self.nums, self.den), (o.nums, o.den))

    def __lt__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nums, self.den))
        return self._hash

    # -- numeric views -------------------------------------------------------

    def approx(self, eps) -> Fraction:
        return self.ctx.approx(self.nums, self.den, eps)

    def __float__(self) -> float:
        """The value from a rational within 1e-17 and within 1e-16 of itself
        relative, so a tiny element keeps its digits."""
        if self.is_zero():
            return 0.0
        return float(self.ctx.approx_relative(self.nums, self.den, _FLOAT_REL, _FLOAT_EPS))

    def __repr__(self) -> str:
        if self.is_rational():
            return f"FieldElement({self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*rho")
            else:
                terms.append(f"{c}*rho^{i}")
        return f"FieldElement({' + '.join(terms)})"
