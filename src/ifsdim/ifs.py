"""Equicontractive iterated function systems with exact algebraic data.

A system is a family of maps S_j(x) = rho*x + d_j on the line, all sharing
one contraction ratio rho in (0, 1).  Translations are normalized so that
d_0 = 0 and the attractor's convex hull is [0, 1] (i.e. d_m = 1 - rho).
Words over the alphabet {0..m} compose maps outermost letter first, so
extending a word on the right refines the corresponding cylinder.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import NamedTuple, Sequence

from .field import FieldContext, FieldElement, _as_fraction


class IFSError(ValueError):
    """Raised for invalid system descriptions."""


class IFSSystem(NamedTuple):
    context: FieldContext
    translations: tuple[FieldElement, ...]
    probabilities: tuple[Fraction, ...] | None = None
    family: dict | None = None

    @property
    def rho(self) -> FieldElement:
        return self.context.rho

    def describe(self) -> dict:
        out = {
            "minpoly": list(self.context.minpoly_int),
            "degree": self.context.degree,
            "rho": float(self.rho),
            "translations": [[str(c) for c in t.coeffs] for t in self.translations],
        }
        if self.probabilities is not None:
            out["probabilities"] = [str(p) for p in self.probabilities]
        if self.family is not None:
            out["family"] = {k: str(v) for k, v in self.family.items()}
        return out


def _check_probabilities(probabilities: Sequence, count: int) -> tuple[Fraction, ...]:
    probs = tuple(_as_fraction(p) for p in probabilities)
    if len(probs) != count:
        raise IFSError(f"expected {count} probabilities, got {len(probs)}")
    if any(p <= 0 for p in probs):
        raise IFSError("probabilities must be positive")
    if sum(probs) != 1:
        raise IFSError("probabilities must sum to 1")
    return probs


def build_ifs(
    context: FieldContext,
    translations: Sequence,
    probabilities: Sequence | None = None,
    family: dict | None = None,
) -> IFSSystem:
    """Normalize translations (sort, shift to 0, rescale to hull [0, 1])."""
    elems = []
    for t in translations:
        if isinstance(t, FieldElement):
            if t.ctx is not context:
                raise IFSError("translation belongs to a different field context")
            elems.append(t)
        elif isinstance(t, (list, tuple)):
            elems.append(context.element(t))
        else:
            elems.append(context.from_rational(t))
    if len(elems) < 2:
        raise IFSError("at least two maps are required")

    order = sorted(range(len(elems)), key=lambda i: elems[i])  # exact comparisons
    elems = [elems[i] for i in order]
    for a, b in zip(elems, elems[1:]):
        if a == b:
            raise IFSError("translations must be distinct")
    probs = None
    if probabilities is not None:
        probs = _check_probabilities(probabilities, len(elems))
        probs = tuple(probs[i] for i in order)

    base = elems[0]
    shifted = [t - base for t in elems]
    top = shifted[-1]
    target = 1 - context.rho
    if top != target:
        scale = target / top
        if scale <= 0:
            raise IFSError("translations are degenerate")
        shifted = [t * scale for t in shifted]
    return IFSSystem(context, tuple(shifted), probs, family)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def cantor_like(d: int, m: int, probabilities: Sequence | None = None) -> IFSSystem:
    """Maps x/d + j(d-1)/(m d) for j = 0..m; the hull is [0, 1]."""
    if d < 2:
        raise IFSError("cantor family requires d >= 2")
    if m < 1:
        raise IFSError("cantor family requires m >= 1")
    if m < d - 1:
        warnings.warn(
            f"cantor family with m={m} < d-1={d - 1} satisfies the open set "
            "condition; the overlap analysis is degenerate",
            stacklevel=2,
        )
    ctx = FieldContext([-1, d])
    translations = [Fraction(j * (d - 1), m * d) for j in range(m + 1)]
    family = {"name": "cantor", "d": d, "m": m}
    return build_ifs(ctx, translations, probabilities, family)


def bernoulli_simple_pisot(k: int, p) -> IFSSystem:
    """The pair {rho x, rho x + (1 - rho)} with 1/rho the simple Pisot number
    of degree k (the root in (1, 2) of x^k - x^(k-1) - ... - x - 1)."""
    if k < 2:
        raise IFSError("simple Pisot family requires k >= 2")
    p = _as_fraction(p)
    if not 0 < p < 1:
        raise IFSError("p must lie strictly between 0 and 1")
    minpoly = [-1] + [1] * k  # rho^k + ... + rho - 1 = 0
    ctx = FieldContext(minpoly, (Fraction(1, 2), Fraction(1)))
    family = {"name": "bernoulli_simple_pisot", "k": k, "p": p}
    return build_ifs(ctx, [ctx.zero, 1 - ctx.rho], [p, 1 - p], family)


def convolution_power(d: int, base_probabilities: Sequence, k: int) -> IFSSystem:
    """k-fold convolution of a Cantor-family measure with itself.

    The result is the Cantor family instance with m = k*n maps, n being the
    top index of the base, and probabilities given by the coefficients of
    Q(x)^k where Q collects the base probabilities.
    """
    if k < 1:
        raise IFSError("convolution power requires k >= 1")
    base = [_as_fraction(p) for p in base_probabilities]
    if len(base) < 2:
        raise IFSError("base must have at least two probabilities")
    if any(p <= 0 for p in base) or sum(base) != 1:
        raise IFSError("base probabilities must be positive and sum to 1")
    coeffs = [Fraction(1)]
    for _ in range(k):
        out = [Fraction(0)] * (len(coeffs) + len(base) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(base):
                out[i + j] += a * b
        coeffs = out
    n = len(base) - 1
    system = cantor_like(d, k * n, coeffs)
    family = dict(system.family or {})
    family.update({"name": "cantor", "convolution_of": tuple(base), "k": k})
    return IFSSystem(system.context, system.translations, system.probabilities, family)

