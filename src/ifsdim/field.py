"""Exact arithmetic in Q(rho) for an algebraic contraction ratio rho in (0, 1).

Elements are coordinate vectors over the power basis 1, rho, ..., rho^(d-1),
where d is the degree of the minimal polynomial of rho.  All coordinates are
rational, so arithmetic is exact.  The sign of an element is decided by
interval evaluation over a rational isolating interval for rho, refined by
bisection; this terminates because a nonzero element of the field cannot
vanish at rho.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

Coeffs = Tuple[Fraction, ...]


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


def _sturm_root_count(p: Coeffs, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.
    """
    chain = [p, _poly_deriv(p)]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_poly_neg(rem))
    at_lo = _sign_changes(_poly_eval(f, lo) for f in chain)
    at_hi = _sign_changes(_poly_eval(f, hi) for f in chain)
    return at_lo - at_hi


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            out.append(n // i)
        i += 1
    return sorted(set(out))


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
    c0, cd = int_coeffs[0], int_coeffs[-1]
    for num in _int_divisors(c0):
        for den in _int_divisors(cd):
            for s in (1, -1):
                if _poly_eval([Fraction(c) for c in int_coeffs], Fraction(s * num, den)) == 0:
                    return True
    return False


def _is_irreducible(int_coeffs: Sequence[int]) -> bool:
    degree = len(int_coeffs) - 1
    if degree == 1:
        return True
    if _has_rational_root(int_coeffs):
        return False
    if degree <= 3:
        return True
    # Degrees above 3 cannot be settled by the rational root test alone;
    # delegate to sympy's exact factorisation over Q.
    import sympy

    poly = sympy.Poly(list(reversed(int_coeffs)), sympy.Symbol("x"))
    factors = poly.factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise FieldError(f"expected a rational value, got {v!r}")


class FieldContext:
    """The number field Q(rho), with rho pinned by an isolating interval.

    `minpoly` lists rational coefficients lowest degree first.  For degree
    one the interval is optional (rho is rational); otherwise the polynomial
    must be irreducible over Q and have exactly one root inside the interval,
    which must lie within [0, 1].
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
            self._lo = self._hi = rho
            self.rational_rho: Fraction | None = rho
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
            self._lo, self._hi = lo, hi
            self.rational_rho = None

        # rho^d expressed over the power basis, used to fold high powers down.
        d = self.degree
        lead = mp[d]
        self._top: Coeffs = tuple(-mp[i] / lead for i in range(d))
        self._sign_lo = 1 if _poly_eval(mp, self._lo) > 0 else -1
        self.zero = FieldElement(self, (Fraction(0),) * d)
        self.one = self.element([1])
        self.rho = self.element([0, 1]) if d >= 2 else self.element([self.rational_rho])

    # -- construction ------------------------------------------------------

    def element(self, coeffs: Sequence) -> "FieldElement":
        vec = [_as_fraction(c) for c in coeffs]
        d = self.degree
        if len(vec) > d:
            vec = list(self._reduce(tuple(vec)))
        vec += [Fraction(0)] * (d - len(vec))
        return FieldElement(self, tuple(vec))

    def from_rational(self, value) -> "FieldElement":
        return self.element([_as_fraction(value)])

    def _reduce(self, coeffs: Coeffs) -> Coeffs:
        d = self.degree
        if len(coeffs) <= d:
            return tuple(coeffs) + (Fraction(0),) * (d - len(coeffs))
        if d == 1:
            return (_poly_eval(coeffs, self.rational_rho),)
        work = list(coeffs)
        top = self._top
        for i in range(len(work) - 1, d - 1, -1):
            c = work[i]
            if c:
                for j in range(d):
                    work[i - d + j] += c * top[j]
        return tuple(work[:d])

    # -- isolating interval ------------------------------------------------

    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def _bisect(self) -> None:
        mid = (self._lo + self._hi) / 2
        val = _poly_eval(self._minpoly, mid)
        if val == 0:  # impossible for an irreducible polynomial of degree >= 2
            raise FieldError("minimal polynomial has a rational root")
        if (1 if val > 0 else -1) == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid

    def refine_interval(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Shrink the isolating interval below `width` and return it."""
        width = _as_fraction(width)
        while self._hi - self._lo > width:
            if self.degree == 1:
                break
            self._bisect()
        return self._lo, self._hi

    def root_index(self) -> int:
        """Index of rho among the real roots of the minimal polynomial, smallest first.

        Unlike the isolating interval, this does not depend on the interval
        the field was given, so it names the root canonically.
        """
        if self.degree == 1:
            return 0
        mp = self._minpoly
        # Cauchy's bound: every root lies strictly inside (-bound, bound)
        bound = 1 + max(abs(c) for c in mp[:-1]) / abs(mp[-1])
        return _sturm_root_count(mp, -bound, self._lo)

    # -- evaluation --------------------------------------------------------

    def _interval_eval(self, coeffs: Coeffs) -> tuple[Fraction, Fraction]:
        lo, hi = self._lo, self._hi
        plo = phi = Fraction(1)
        tot_lo = tot_hi = Fraction(0)
        for i, c in enumerate(coeffs):
            if i:
                plo *= lo
                phi *= hi
            if c > 0:
                tot_lo += c * plo
                tot_hi += c * phi
            elif c < 0:
                tot_lo += c * phi
                tot_hi += c * plo
        return tot_lo, tot_hi

    def sign_of(self, coeffs: Coeffs) -> int:
        if all(c == 0 for c in coeffs):
            return 0
        if self.degree == 1:
            v = _poly_eval(coeffs, self.rational_rho)
            return 0 if v == 0 else (1 if v > 0 else -1)
        while True:
            lo, hi = self._interval_eval(coeffs)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._bisect()

    def approx(self, coeffs: Coeffs, eps) -> Fraction:
        """A rational within eps of the element's value."""
        eps = _as_fraction(eps)
        if eps <= 0:
            raise FieldError("eps must be positive")
        if self.degree == 1:
            return _poly_eval(coeffs, self.rational_rho)
        while True:
            lo, hi = self._interval_eval(coeffs)
            if hi - lo < eps:
                return (lo + hi) / 2
            self._bisect()

    def __repr__(self) -> str:
        return f"FieldContext(minpoly={list(self.minpoly_int)}, degree={self.degree})"


class FieldElement:
    """An element of Q(rho) in canonical coordinates over the power basis."""

    __slots__ = ("ctx", "coeffs", "_hash")

    def __init__(self, ctx: FieldContext, coeffs: Coeffs):
        self.ctx = ctx
        self.coeffs = coeffs
        self._hash = None

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
        return FieldElement(self.ctx, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.ctx, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        if ctx.degree == 1:
            return FieldElement(ctx, (self.coeffs[0] * o.coeffs[0],))
        prod = _poly_mul(_trim(self.coeffs), _trim(o.coeffs))
        return FieldElement(ctx, ctx._reduce(prod))

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
        if ctx.degree == 1:
            return FieldElement(ctx, (1 / self.coeffs[0],))
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
        inv = _poly_mul(u_cur, (1 / b[0],))
        return FieldElement(ctx, ctx._reduce(inv))

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
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def sign(self) -> int:
        return self.ctx.sign_of(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    # -- numeric views -------------------------------------------------------

    def approx(self, eps) -> Fraction:
        return self.ctx.approx(self.coeffs, eps)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise FieldError("element is irrational")
        return self.coeffs[0]

    def __float__(self) -> float:
        return float(self.approx(Fraction(1, 10**17)))

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
