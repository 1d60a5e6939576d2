"""Certified spectral radii of nonnegative rational matrices.

The enclosure comes from Collatz-Wielandt quotients evaluated in exact
rational arithmetic: for an irreducible nonnegative matrix P and any
positive vector v,

    min_i (Pv)_i / v_i  <=  sp(P)  <=  max_i (Pv)_i / v_i.

A matrix whose column sums are all equal has that sum as its radius.  Any
other matrix is first reduced to the strongly connected blocks of its
support graph; the spectral radius is the maximum over the blocks.  The
reduction and a first test run on the matrix's integer form, entries
ints / den: a block whose column sums are all c / den has the all-ones
row vector as a positive left eigenvector, so its radius is c / den
exactly, and it is never made into `Fraction` entries.  Any other
block is seeded with its Perron vector from a floating-point eigensolver,
converted exactly to rationals, and one exact mat-vec usually closes the
quotients to the requested tolerance.  When it does not, or the seed is
not strictly positive (all ones is used then), power iteration on B + tI
(primitive whenever B is irreducible) tightens them.  Neither the float
seed nor rounding the iterate can invalidate the enclosure, because the
inequality holds for every positive vector.  A rational radius of a block
is m / D for an integer m, D the common denominator of its entries, so an
enclosure holding one such m / D names the only candidate, which a
positive eigenvector then confirms.
numpy is imported only inside `_perron_seed`, so importing this module
does not load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .classes import strongly_connected_components
from .matrices import TransitionMatrix

__all__ = ["SpectralResult", "safe_float", "spectral_radius"]

DEFAULT_REL_TOL = Fraction(1, 10**12)
_ROUNDING_CAP = 10**40
_KEPT_BITS = 140  # leading bits a component below 1/_ROUNDING_CAP keeps
# `_cw_bounds` stalls when its enclosure has not narrowed by _STALL_FACTOR
# within _STALL_ROUNDS rounds and the last round moved no component of the
# vector by more than the tolerance
_STALL_ROUNDS = 20
_STALL_FACTOR = 2
# most rounds of `_cw_bounds`
_MAX_ROUNDS = 500


class SpectralResult(NamedTuple):
    """Spectral radius with a rigorous rational enclosure.

    `certified_lo <= sp <= certified_hi` always holds, and `exact` is the
    radius when the enclosure is a point.  It is one when the matrix has
    equal column sums, or when the block of greatest radius is known
    exactly and no other block's enclosure reaches above it: a block with
    equal column sums (a 1x1 block among them), an enclosure that closed
    completely, or a small block whose enclosure allows one rational m / D,
    which has a positive eigenvector.
    """

    value: float
    certified_lo: Fraction
    certified_hi: Fraction

    @property
    def exact(self) -> Fraction | None:
        """The radius when the enclosure is a point, else None."""
        return self.certified_lo if self.certified_lo == self.certified_hi else None


def safe_float(q: Fraction) -> float:
    """float(q), or +-inf when |q| is beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _mat_vec(rows, v):
    return [sum(r[j] * v[j] for j in range(len(v)) if v[j]) for r in rows]


def _round_positive(v):
    """Shrink denominators of a positive vector without losing positivity.

    A component that the cap rounds to 0 is rounded relative to itself
    instead, down to its leading `_KEPT_BITS` bits over a power of two:
    kept exact, its denominator would grow every round.
    """
    out = []
    for x in v:
        r = x.limit_denominator(_ROUNDING_CAP)
        if r <= 0:
            shift = _KEPT_BITS + x.denominator.bit_length() - x.numerator.bit_length()
            r = Fraction((x.numerator << shift) // x.denominator, 1 << shift)
        out.append(r)
    return out


def _perron_seed(block):
    """Float Perron vector of an irreducible block as exact rationals, or None.

    Only a strictly positive vector is returned; how accurate it is decides
    how many exact rounds follow, never whether the enclosure holds.
    """
    import numpy

    top = max(max(row) for row in block)
    scaled = numpy.array([[float(x / top) for x in row] for row in block])
    try:
        values, vectors = numpy.linalg.eig(scaled)
    except numpy.linalg.LinAlgError:
        return None
    v = vectors[:, numpy.argmax(values.real)].real
    if v.sum() < 0:
        v = -v
    if not numpy.all(v > 0):
        return None
    return [Fraction(float(x)) for x in v]


def _cw_bounds(block, lo, hi, rel_tol):
    """Certified enclosure of sp(block) for an irreducible block whose
    least and greatest column sums are lo < hi.

    The column sums bound sp(block) on both sides, so the enclosure starts
    from them.  The vector starts from the float Perron seed (all ones when
    there is none) and iterates on block + t*I with t = hi, at the scale of
    the matrix: the shift makes periodic supports primitive without
    drowning the spectral gap the way a unit shift would for matrices with
    tiny entries.

    Besides the tolerance and `_MAX_ROUNDS`, a stall ends the loop: once the
    vector has stopped moving, later rounds only repeat its rounding.  A
    width that stays put is not enough on its own: from all ones,
    [[1, 10^-30], [10^-30, 1/2]] keeps a width of 1/2 for 230 rounds while
    one component of its vector still falls by a quarter per round, and
    then converges.
    """
    n = len(block)
    t = hi
    shifted = [
        tuple(block[i][j] + (t if i == j else 0) for j in range(n))
        for i in range(n)
    ]
    v = _perron_seed(block) or [Fraction(1)] * n
    widths = []
    for _ in range(_MAX_ROUNDS):
        w = _mat_vec(shifted, v)
        quotients = [w[i] / v[i] for i in range(n)]
        lo = max(lo, min(quotients) - t)
        hi = min(hi, max(quotients) - t)
        if hi - lo <= rel_tol * max(hi, Fraction(1, 10**30)):
            break
        top = max(w)
        last, v = v, _round_positive([x / top for x in w])
        widths.append(hi - lo)
        if (
            len(widths) > _STALL_ROUNDS
            and widths[-1] * _STALL_FACTOR > widths[-1 - _STALL_ROUNDS]
            and all(abs(x - y) <= rel_tol * x for x, y in zip(v, last))
        ):
            break
    return lo, hi


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
    """sp(block) when it is rational and m / D is the only rational of
    [lo, hi] it can be, else None.

    D * block has integer entries, so a rational eigenvalue of it is an
    integer, and a rational radius is m / D for an integer m in
    [D lo, D hi].  With no such m the radius is irrational; with several
    the enclosure stands.  With one, a strictly positive eigenvector for
    m / D makes it the radius by Perron-Frobenius, so a hit is an exact
    answer, not a heuristic.
    """
    if len(block) > 4:
        return None
    scale = math.lcm(*(x.denominator for row in block for x in row))
    m = math.ceil(lo * scale)
    if m != math.floor(hi * scale):
        return None
    r = Fraction(m, scale)
    return r if _positive_eigenvector(block, r) else None


def spectral_radius(
    matrix,
    rel_tol: Fraction = DEFAULT_REL_TOL,
) -> SpectralResult:
    """Certified spectral radius of a nonnegative rational matrix, given as
    a `TransitionMatrix` or as rows, which its constructor checks.

    A matrix whose column sums are all c / den has sp = c / den exactly:
    the all-ones row vector is a left eigenvector for c / den, and no
    eigenvalue exceeds the greatest column sum.  Such a matrix needs no
    support graph, and no block is looked at.  Otherwise the support
    graph, its strongly connected blocks and each block's column sums are
    read off the integer form `den`/`ints`.  A 1x1 zero
    block has radius 0 and never decides the maximum, since every other
    block has a positive radius.  The column sums of an irreducible block
    bound its radius on both sides; when they are all equal, to c / den,
    the all-ones row vector is a positive left eigenvector for c / den,
    which is then the radius exactly, by Perron-Frobenius.  Only a block
    with unequal sums is made into `Fraction` entries for `_cw_bounds`.
    The greatest lower and upper block ends enclose the radius.
    """
    if not isinstance(matrix, TransitionMatrix):
        matrix = TransitionMatrix(matrix)
    n, width = matrix.shape
    if width != n:
        raise ValueError("spectral radius needs a square matrix")
    den, ints = matrix.den, matrix.ints
    sums = {sum(col) for col in zip(*ints)}
    if len(sums) == 1:
        c = Fraction(sums.pop(), den)
        return SpectralResult(safe_float(c), c, c)
    succ = [[j for j, x in enumerate(row) if x] for row in ints]
    blocks = []
    for comp in strongly_connected_components(n, succ.__getitem__):
        if len(comp) == 1 and not ints[comp[0]][comp[0]]:
            continue
        sub = [[ints[i][j] for j in comp] for i in comp]
        sums = [sum(col) for col in zip(*sub)]
        lo, hi = Fraction(min(sums), den), Fraction(max(sums), den)
        if lo == hi:
            blocks.append((lo, hi))
            continue
        sub = [tuple(Fraction(x, den) for x in row) for row in sub]
        lo, hi = _cw_bounds(sub, lo, hi, rel_tol)
        exact = lo if lo == hi else _rational_dominant_root(sub, lo, hi)
        if exact is not None:
            lo = hi = exact
        blocks.append((lo, hi))
    # a nilpotent matrix has no block but 1x1 zeros, and radius 0
    lo = max((b[0] for b in blocks), default=Fraction(0))
    hi = max((b[1] for b in blocks), default=Fraction(0))
    return SpectralResult(safe_float((lo + hi) / 2), lo, hi)
