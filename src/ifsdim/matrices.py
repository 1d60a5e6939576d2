"""Transition matrices along edges of the characteristic-vector diagram.

The edge from a net interval to one of its children carries a nonnegative
matrix with one row per parent neighbour and one column per child neighbour.
Entry (j, k) is the probability of the letter extending parent cylinder j to
child cylinder k, or 0 when no letter does; `edge_matrix` finds that letter
from the two neighbours and the child's offset.  Multiplying the matrices along
a root path and summing the entries gives the exact measure of the net
interval at the end of the path, which is the basis for every dimension
computation in this package.  `MatrixTable` builds each matrix the first
time it is read: a command reads only the essential class and the paths it
follows, a few edges of the table.

A matrix is stored in one form only: its entries as integers over their
least common denominator.  Edge matrices are built in that form, and a
product entry is one integer dot product over the product of the two
denominators, instead of a sum of `Fraction` products each reduced on its
own.  `rows` makes the `Fraction` entries on demand, and no command reads
it: the spectral certificate finds its blocks and column sums on the
integer form, and makes `Fraction` entries only of a block whose column
sums differ.  `MatrixTable.cycle_matrix` multiplies one walk in integer
form.  numpy is not used here: the essential cycles are multiplied in
float batches by `dimension._cycle_batches`, exact for a few steps, and
`dimension._StepTable.products` reads their integer forms off those.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .net import FiniteTypeStructure, NetStructureError


class TransitionMatrix:
    """An immutable matrix of nonnegative rationals, stored in integer form.

    `den` is the least common denominator d of the entries and `ints` the
    rows of integers d * entry.  That form is unique to the matrix, so
    equality and the hash are read off it, and it is the only one stored:
    `rows`, the entries as `Fraction`s, is made anew on each read, and
    in the package only `__repr__` reads it: `spectral.spectral_radius`
    works on `den` and `ints`.  The constructor checks and converts rows
    of rationals; `__mul__`, `edge_matrix` and `MatrixTable.cycle_matrix`
    build the integer form directly, and `dimension._StepTable.products`
    reads it off an exact float product.
    """

    __slots__ = ("den", "ints", "_hash")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("matrix entries must be nonnegative")
        self.den = den = math.lcm(*(x.denominator for row in rows for x in row))
        self.ints = tuple(tuple(int(x * den) for x in row) for row in rows)
        self._hash = None

    @classmethod
    def _from_integer(cls, den: int, rows: tuple[tuple[int, ...], ...]) -> "TransitionMatrix":
        """The matrix rows / den, for den > 0 and nonempty, rectangular rows
        of nonnegative integers, which need none of `__init__`'s checks.

        Dividing den and every entry by their gcd gives the integer form:
        d / gcd(d, a) is the reduced denominator of a / d, and the lcm of
        those is d / gcd(d, all a).  The gcd is taken a row at a time, and
        the rows after it reaches 1 are not read.
        """
        g = den
        for row in rows:
            g = math.gcd(g, *row)
            if g == 1:
                break
        if g > 1:
            den, rows = den // g, tuple(tuple(x // g for x in row) for row in rows)
        matrix = cls.__new__(cls)
        matrix.den = den
        matrix.ints = rows
        matrix._hash = None
        return matrix

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.ints)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.ints), len(self.ints[0])

    def __eq__(self, other):
        return (
            isinstance(other, TransitionMatrix)
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.den, self.ints))
        return self._hash

    def __repr__(self):
        return f"TransitionMatrix({[[str(x) for x in row] for row in self.rows]})"

    def __mul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        """The exact product, formed over the operands' common denominators.

        With A = a / da and B = b / db for integer matrices a and b, AB is
        (a b) / (da db): an integer dot product per entry, and no `Fraction`.
        """
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        return TransitionMatrix._from_integer(
            self.den * other.den, _integer_product(self.ints, other.ints)
        )

    # -- norms and structure -------------------------------------------------

    def column_sums(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(sum(col), self.den) for col in zip(*self.ints))

    def is_positive(self) -> bool:
        return all(x > 0 for row in self.ints for x in row)

    def has_zero_row(self) -> bool:
        return not all(map(any, self.ints))


def _integer_product(a, b) -> tuple[tuple[int, ...], ...]:
    """The product of two matrices given as rows of integers."""
    cols = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def edge_matrix(structure: FiniteTypeStructure, rid: int, edge_index: int) -> TransitionMatrix:
    """The matrix on one child edge of a reduced characteristic vector.

    Entry (i, k) is p_j if d_j = c_i + t_k, else 0, for the parent neighbour
    c_i and t_k = offset - rho * a_k, formed once per child neighbour a_k.
    Each row costs the smaller of its m sums c_i + t_k, each looked up in
    {d_j: p_j}, and its |D| differences d_j - c_i, a table {d_j - c_i: p_j}
    that each t_k is looked up in: the 14 x 15 matrices of the essential
    class of x/3 + {0, 2/87, 2/3} take the table, and the 3 x 3 ones of the
    Cantor and convolution families, with 9 or 10 translations, the sums.

    Every row sum and every column sum is at most 1, and so the entries of
    a product of edge matrices lie in [0, 1].  Proof: the c_i are distinct
    and so are the t_k, so p_j lies in row i only at the k with t_k =
    d_j - c_i, and in column k only at the i with c_i = d_j - t_k; a row
    or a column thus sums distinct p_j, at most sum p_j = 1 (`build_ifs`
    checks that the d_j are distinct and the p_j sum to 1), and row sums
    at most 1 stay so under products.
    """
    system = structure.system
    if system.probabilities is None:
        raise NetStructureError("system has no probabilities")
    e = structure.edges_of_reduced(rid)[edge_index]
    den = math.lcm(*(p.denominator for p in system.probabilities))
    pairs = [(d, int(p * den)) for d, p in zip(system.translations, system.probabilities)]
    offset = structure.elements[structure.offset[e]]
    shifts = [offset - system.rho * a for a in structure.neighbours_of_full(structure.child[e])]
    parents = structure.neighbours_of_reduced(rid)
    if len(pairs) < len(shifts):
        rows = []
        for c in parents:
            prob_at = {d - c: p for d, p in pairs}
            rows.append(tuple(prob_at.get(t, 0) for t in shifts))
    else:
        prob_of = dict(pairs)
        rows = [tuple(prob_of.get(c + t, 0) for t in shifts) for c in parents]
    if not all(map(any, zip(*rows))):
        raise NetStructureError(
            "transition matrix has a zero column; child neighbour unaccounted"
        )
    # every entry is 0 or den times a probability, which `build_ifs` checked
    return TransitionMatrix._from_integer(den, tuple(rows))


class MatrixTable:
    """The edge matrices of a structure, indexed by (reduced id, edge).

    Each matrix is built by `edge_matrix` when it is first read and then
    memoised, so the zero-column check runs on every matrix a command
    uses.  A command reads only the edges of the essential class and of
    the paths it follows: on the 2280-vector table of x/3 + {0, 2/87, 2/3},
    `report` reads 8 of 7267 edges, so building all of them up front
    would be wasted work.
    """

    def __init__(self, structure: FiniteTypeStructure):
        if structure.system.probabilities is None:
            raise NetStructureError("system has no probabilities")
        self.structure = structure
        self._by_edge: dict[tuple[int, int], TransitionMatrix] = {}

    def of_edge(self, rid: int, edge_index: int) -> TransitionMatrix:
        key = (rid, edge_index)
        matrix = self._by_edge.get(key)
        if matrix is None:
            matrix = self._by_edge[key] = edge_matrix(self.structure, rid, edge_index)
        return matrix

    def of_full_edge(self, fid: int, edge_index: int) -> TransitionMatrix:
        return self.of_edge(self.structure.reduced_of(fid), edge_index)

    def cycle_matrix(self, fid: int, edges: Sequence[int]) -> TransitionMatrix:
        """Product along a cycle of edges starting (and ending) at `fid`.

        The walk is multiplied in integer form: a prefix product is a
        denominator and rows of integers, the product of its edges' integer
        forms, and no prefix is made of `Fraction`s.  Raises ValueError for
        an empty walk or one that does not end at `fid`.
        """
        edges = tuple(edges)
        if not edges:
            raise ValueError("empty cycle")
        cur, den, rows = fid, 1, None
        for e in edges:
            m = self.of_full_edge(cur, e)
            den, rows = den * m.den, m.ints if rows is None else _integer_product(rows, m.ints)
            cur = self.structure.child[self.structure.edges_of_full(cur)[e]]
        if cur != fid:
            raise ValueError("edge sequence is not a cycle")
        return TransitionMatrix._from_integer(den, rows)
