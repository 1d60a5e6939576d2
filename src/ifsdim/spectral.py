"""Certified spectral radii of nonnegative rational matrices.

The enclosure comes from Collatz-Wielandt quotients evaluated in exact
rational arithmetic: for an irreducible nonnegative matrix P and any
positive vector v,

    min_i (Pv)_i / v_i  <=  sp(P)  <=  max_i (Pv)_i / v_i.

A general matrix is first reduced to the strongly connected blocks of its
support graph; the spectral radius is the maximum over the blocks.  Power
iteration on B + I (primitive whenever B is irreducible) tightens the
quotients, and rounding the iterate only ever loosens the enclosure, never
invalidates it, because the inequality holds for every positive vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .classes import strongly_connected_components
from .field import _poly_eval

__all__ = ["SpectralResult", "ln_fraction", "safe_float", "spectral_radius"]

DEFAULT_REL_TOL = Fraction(1, 10**12)
_ROUNDING_CAP = 10**40
_CANDIDATE_CAPS = (1, 10**3, 10**6, 10**9, 10**12)
_LN2 = math.log(2)


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius with a rigorous rational enclosure.

    `certified_lo <= sp <= certified_hi` always holds.  `exact` is set when
    the radius is a known rational: a 1x1 block, an enclosure that closed
    completely, or a small block whose characteristic polynomial turned out
    to have a rational dominant root with a positive eigenvector.
    """

    value: float
    certified_lo: Fraction
    certified_hi: Fraction
    exact: Fraction | None = None

    def width(self) -> Fraction:
        return self.certified_hi - self.certified_lo


def ln_fraction(q) -> float:
    """Natural log of a positive rational, safe for huge numerators."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("logarithm of a non-positive rational")

    def ln_int(m: int) -> float:
        k = m.bit_length() - 900
        if k <= 0:
            return math.log(m)
        return math.log(m >> k) + k * _LN2

    return ln_int(q.numerator) - ln_int(q.denominator)


def safe_float(q: Fraction) -> float:
    """float(q), through the logarithm when the direct conversion overflows."""
    try:
        return float(q)
    except OverflowError:
        mag = math.exp(ln_fraction(abs(q)))
        return mag if q > 0 else -mag


def _as_rows(matrix) -> tuple[tuple[Fraction, ...], ...]:
    raw = getattr(matrix, "rows", matrix)
    rows = tuple(tuple(Fraction(x) for x in row) for row in raw)
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("spectral radius needs a square matrix")
        for x in row:
            if x < 0:
                raise ValueError("spectral radius is defined here for nonnegative matrices")
    return rows


def _mat_vec(rows, v):
    return [sum(r[j] * v[j] for j in range(len(v)) if v[j]) for r in rows]


def _mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n) if a[i][t]) for j in range(n)]
        for i in range(n)
    ]


def _round_positive(v):
    """Shrink denominators of a positive vector without losing positivity."""
    out = []
    for x in v:
        r = x.limit_denominator(_ROUNDING_CAP)
        out.append(r if r > 0 else x)
    return out


def _column_sum_range(block):
    sums = [sum(row[j] for row in block) for j in range(len(block))]
    return min(sums), max(sums)


def _cw_shifted(block, rel_tol, max_rounds):
    """Collatz-Wielandt enclosure of sp(block), block irreducible, n >= 2.

    Iterates on block + t*I with t at the scale of the matrix: the shift
    makes periodic supports primitive without drowning the spectral gap the
    way a unit shift would for matrices with tiny entries.
    """
    n = len(block)
    lo, hi = _column_sum_range(block)
    if lo == hi:
        # the all-ones row vector is a positive left eigenvector
        return lo, hi
    t = hi
    shifted = [
        tuple(block[i][j] + (t if i == j else 0) for j in range(n))
        for i in range(n)
    ]
    v = [Fraction(1)] * n
    for _ in range(max_rounds):
        w = _mat_vec(shifted, v)
        quotients = [w[i] / v[i] for i in range(n)]
        lo = max(lo, min(quotients) - t)
        hi = min(hi, max(quotients) - t)
        if hi - lo <= rel_tol * max(hi, Fraction(1, 10**30)):
            break
        top = max(w)
        v = _round_positive([x / top for x in w])
    return lo, hi


def _power_bounds(block, exponent, rel_tol, max_rounds):
    """Enclosure of sp(block)^exponent via SCCs of the powered matrix."""
    b = block
    e = exponent
    while e > 1:
        b = _mat_mul(b, b)
        e //= 2
    n = len(b)
    succ = [[j for j in range(n) if b[i][j] > 0] for i in range(n)]
    lo = Fraction(0)
    hi = Fraction(0)
    for comp in strongly_connected_components(n, lambda v: succ[v]):
        if len(comp) == 1:
            c_lo = c_hi = b[comp[0]][comp[0]]
        else:
            sub = [tuple(b[i][j] for j in comp) for i in comp]
            c_lo, c_hi = _cw_shifted(sub, rel_tol, max_rounds)
        lo = max(lo, c_lo)
        hi = max(hi, c_hi)
    return lo, hi


def _nth_root_bounds(q: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """Rational bracket around q**(1/m) for q >= 0, verified exactly."""
    if q <= 0:
        return Fraction(0), Fraction(0)
    if m == 1:
        return q, q
    ln_q = ln_fraction(q)
    # assemble the seed as mantissa * 2**e2 so no magnitude can underflow
    t = ln_q / (m * _LN2)
    e2 = math.floor(t)
    r = Fraction(2.0 ** (t - e2)) * Fraction(2) ** e2
    bump = Fraction(10**13 - 1, 10**13)
    lo, hi = r * bump, r / bump
    while lo > 0 and lo**m > q:
        lo *= bump
    while hi**m < q:
        hi /= bump
    return lo, hi


def _cw_bounds(block, rel_tol, max_rounds):
    """Certified enclosure of sp(block) for an irreducible block."""
    n = len(block)
    if n == 1:
        a = block[0][0]
        return a, a
    lo, hi = _column_sum_range(block)
    if lo == hi:
        return lo, hi
    # eigenvalue gaps widen doubly exponentially under squaring, so bound
    # the power's radius and pull back through an m-th root
    for exponent in (16, 256):
        root_tol = rel_tol * exponent / 4
        p_lo, p_hi = _power_bounds(block, exponent, root_tol, max_rounds)
        r_lo, _ = _nth_root_bounds(p_lo, exponent)
        _, r_hi = _nth_root_bounds(p_hi, exponent)
        lo = max(lo, r_lo)
        hi = min(hi, r_hi)
        if hi - lo <= rel_tol * max(hi, Fraction(1, 10**30)):
            break
    return lo, hi


def _char_poly(block):
    """Monic characteristic polynomial by Faddeev-LeVerrier, lowest degree first."""
    n = len(block)
    coeffs = [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(block[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs[::-1]


def _positive_eigenvector(block, r) -> bool:
    """True when (block - r*I) has a one-dimensional, strictly signed kernel."""
    n = len(block)
    a = [[block[i][j] - (r if i == j else 0) for j in range(n)] for i in range(n)]
    pivots = []
    row = 0
    for col in range(n):
        sel = next((i for i in range(row, n) if a[i][col] != 0), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for i in range(n):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [a[i][j] - f * a[row][j] for j in range(n)]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return False
    x = [Fraction(0)] * n
    x[free[0]] = Fraction(1)
    for i, col in enumerate(pivots):
        x[col] = -sum(a[i][j] * x[j] for j in free)
    if all(t > 0 for t in x) or all(t < 0 for t in x):
        return True
    return False


def _rational_dominant_root(block, lo, hi):
    """A rational r with char(r) = 0 and a positive eigenvector, if one exists.

    By Perron-Frobenius, an eigenvalue of an irreducible nonnegative matrix
    with a strictly positive eigenvector is the spectral radius, so a hit
    here is an exact answer, not a heuristic.
    """
    if len(block) > 4:
        return None
    poly = _char_poly(block)
    mid = safe_float((lo + hi) / 2)
    seen = set()
    for cap in _CANDIDATE_CAPS:
        r = Fraction(mid).limit_denominator(cap)
        if r in seen or r <= 0:
            continue
        seen.add(r)
        if _poly_eval(poly, r) == 0 and _positive_eigenvector(block, r):
            return r
    return None


def spectral_radius(
    matrix,
    rel_tol: Fraction = DEFAULT_REL_TOL,
    max_rounds: int = 500,
) -> SpectralResult:
    """Certified spectral radius of a nonnegative rational matrix."""
    rows = _as_rows(matrix)
    n = len(rows)
    if n == 0:
        return SpectralResult(0.0, Fraction(0), Fraction(0), Fraction(0))
    succ = [[j for j in range(n) if rows[i][j] > 0] for i in range(n)]
    blocks = []
    for comp in strongly_connected_components(n, lambda v: succ[v]):
        if len(comp) == 1 and rows[comp[0]][comp[0]] == 0:
            blocks.append((Fraction(0), Fraction(0), Fraction(0)))
            continue
        sub = [tuple(rows[i][j] for j in comp) for i in comp]
        lo, hi = _cw_bounds(sub, rel_tol, max_rounds)
        exact = None
        if lo == hi:
            exact = lo
        else:
            exact = _rational_dominant_root(sub, lo, hi)
            if exact is not None:
                lo = hi = exact
        blocks.append((lo, hi, exact))
    lo = max(b[0] for b in blocks)
    hi = max(b[1] for b in blocks)
    exact = None
    dominant = max(blocks, key=lambda b: b[1])
    if dominant[2] is not None and all(
        b[1] <= dominant[2] for b in blocks if b is not dominant
    ):
        exact = dominant[2]
        lo = hi = exact
    return SpectralResult(safe_float((lo + hi) / 2), lo, hi, exact)
