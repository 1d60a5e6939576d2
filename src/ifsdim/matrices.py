"""Transition matrices along edges of the characteristic-vector diagram.

The edge from a net interval to one of its children carries a nonnegative
matrix with one row per parent neighbour and one column per child neighbour.
Entry (j, k) is the probability of the letter extending parent cylinder j to
child cylinder k, or 0 when no letter does.  Multiplying the matrices along
a root path and summing the entries gives the exact measure of the net
interval at the end of the path, which is the basis for every dimension
computation in this package.  `MatrixTable` builds each matrix the first
time it is read: a command reads only the essential class and the paths it
follows, a few edges of the table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .net import FiniteTypeStructure, NetStructureError


class TransitionMatrix:
    """An immutable matrix of nonnegative Fractions."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        self.rows: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(x) for x in row) for row in rows
        )
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(self.rows[0])
        if any(len(row) != width for row in self.rows):
            raise ValueError("ragged matrix")
        if any(x < 0 for row in self.rows for x in row):
            raise ValueError("matrix entries must be nonnegative")
        self._hash = None

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def __eq__(self, other):
        return isinstance(other, TransitionMatrix) and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self):
        return f"TransitionMatrix({[[str(x) for x in row] for row in self.rows]})"

    def __mul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        cols = list(zip(*other.rows))
        return TransitionMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.rows
            ]
        )

    @staticmethod
    def identity(n: int) -> "TransitionMatrix":
        one = Fraction(1)
        zero = Fraction(0)
        return TransitionMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    # -- norms and structure -------------------------------------------------

    def entry_sum(self) -> Fraction:
        return sum(x for row in self.rows for x in row)

    def column_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(col) for col in zip(*self.rows))

    def is_positive(self) -> bool:
        return all(x > 0 for row in self.rows for x in row)

    def has_zero_row(self) -> bool:
        return any(all(x == 0 for x in row) for row in self.rows)

    def zero_pattern(self) -> tuple[tuple[bool, ...], ...]:
        """True where the entry is positive (the support of the matrix)."""
        return tuple(tuple(x > 0 for x in row) for row in self.rows)


def edge_matrix(structure: FiniteTypeStructure, rid: int, edge_index: int) -> TransitionMatrix:
    """The matrix on one child edge of a reduced characteristic vector."""
    system = structure.system
    if system.probabilities is None:
        raise NetStructureError("system has no probabilities")
    rec = structure.children_of_reduced(rid)[edge_index]
    probs = system.probabilities
    rows = []
    for letter_row in rec.letters:
        rows.append(
            [Fraction(0) if L is None else probs[L] for L in letter_row]
        )
    matrix = TransitionMatrix(rows)
    if any(s == 0 for s in matrix.column_sums()):
        raise NetStructureError(
            "transition matrix has a zero column; child neighbour unaccounted"
        )
    return matrix


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

    def path_matrix(self, edges: Sequence[int]) -> TransitionMatrix:
        """Product of the matrices along a root path of edge choices."""
        fid = self.structure.root_full
        out = None
        for e in edges:
            m = self.of_full_edge(fid, e)
            out = m if out is None else out * m
            fid = self.structure.children_of_full(fid)[e].child
        if out is None:
            return TransitionMatrix.identity(
                len(self.structure.neighbours_of_full(fid))
            )
        return out

    def cycle_matrix(self, fid: int, edges: Sequence[int]) -> TransitionMatrix:
        """Product along a cycle of edges starting (and ending) at `fid`."""
        out = None
        cur = fid
        for e in edges:
            m = self.of_full_edge(cur, e)
            out = m if out is None else out * m
            cur = self.structure.children_of_full(cur)[e].child
        if cur != fid:
            raise ValueError("edge sequence is not a cycle")
        if out is None:
            raise ValueError("empty cycle")
        return out
