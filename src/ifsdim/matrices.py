"""Transition matrices along edges of the characteristic-vector diagram.

The edge from a net interval to one of its children carries a nonnegative
matrix with one row per parent neighbour and one column per child neighbour.
Entry (j, k) is the probability of the letter extending parent cylinder j to
child cylinder k, or 0 when no letter does.  Multiplying the matrices along
a root path and summing the entries gives the exact measure of the net
interval at the end of the path, which is the basis for every dimension
computation in this package.
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

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row) for row in self.rows)

    def min_positive_column_sum(self) -> Fraction:
        sums = [s for s in self.column_sums() if s > 0]
        if not sums:
            raise ValueError("matrix has no positive column")
        return min(sums)

    def max_column_sum(self) -> Fraction:
        return max(self.column_sums())

    def is_positive(self) -> bool:
        return all(x > 0 for row in self.rows for x in row)

    def has_zero_row(self) -> bool:
        return any(all(x == 0 for x in row) for row in self.rows)

    def zero_pattern(self) -> tuple[tuple[bool, ...], ...]:
        """True where the entry is positive (the support of the matrix)."""
        return tuple(tuple(x > 0 for x in row) for row in self.rows)

    def transpose(self) -> "TransitionMatrix":
        return TransitionMatrix(list(zip(*self.rows)))

    def scaled(self, factor) -> "TransitionMatrix":
        factor = Fraction(factor)
        return TransitionMatrix(
            [[x * factor for x in row] for row in self.rows]
        )


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
    """All edge matrices of a structure, indexed by (reduced id, edge).

    A matrix depends only on the edge's letter table, so edges with equal
    letter tables share one matrix.
    """

    def __init__(self, structure: FiniteTypeStructure):
        self.structure = structure
        self._by_edge: dict[tuple[int, int], TransitionMatrix] = {}
        by_letters: dict[tuple, TransitionMatrix] = {}
        for rid in range(structure.reduced_count):
            for rec in structure.children_of_reduced(rid):
                matrix = by_letters.get(rec.letters)
                if matrix is None:
                    matrix = edge_matrix(structure, rid, rec.edge_index)
                    by_letters[rec.letters] = matrix
                self._by_edge[(rid, rec.edge_index)] = matrix

    def of_edge(self, rid: int, edge_index: int) -> TransitionMatrix:
        return self._by_edge[(rid, edge_index)]

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
