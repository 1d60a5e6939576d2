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

Products are formed in integers: each matrix keeps its entries as integer
numerators over one common denominator, so a product entry is one integer
dot product over the product of the two denominators, instead of a sum of
`Fraction` products each reduced on its own; a product makes its
`Fraction` entries only when they are read.  `MatrixTable.cycle_matrix`
multiplies one walk in that integer form.  `MatrixTable.cycle_matrices`
multiplies many walks at once in numpy: stacks of walks of one length,
one `int64` matrix product per step where a bound on the entries proves
that nothing overflows, one `TransitionMatrix` per distinct product, and
`cycle_matrix` for every other walk.  numpy is imported only inside the
`_WalkSteps` that `cycle_matrices` drives, so importing this module does
not load it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .net import FiniteTypeStructure, NetStructureError

# most walks of one length that `MatrixTable.cycle_matrices` multiplies at
# once, and that `dimension._included_cycle_batches` extends at once; at
# 1024 the perfbench `enumeration` peak RSS rose by 0.7 MB, at 256 it does not
_WALK_BATCH = 256
# a walk whose steps' bit bounds (see `MatrixTable.cycle_matrices`) sum to
# less than this is multiplied in int64; any sum up to 63 would fit
_INT64_BITS = 62


class TransitionMatrix:
    """An immutable matrix of nonnegative Fractions.

    `rows` is the public view.  The integer form that `__mul__` works in is
    the least common denominator d of the entries and the rows of integers
    d * entry.  It is unique to the matrix, so equality and the hash are
    read off it.  A matrix made by `__mul__`, `MatrixTable.cycle_matrix`
    or `MatrixTable.cycle_matrices` starts in integer form and makes its
    `Fraction` rows when they are first read; one made from rows makes its
    integer form when first used.
    """

    __slots__ = ("_rows", "_hash", "_integer")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("ragged matrix")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("matrix entries must be nonnegative")
        self._rows = rows
        self._hash = None
        self._integer = None

    @classmethod
    def _from_rows(cls, rows: list[list[Fraction]]) -> "TransitionMatrix":
        """The matrix of nonempty, rectangular rows of nonnegative
        `Fraction`s, taken as they are, without `__init__`'s copy and checks."""
        matrix = cls.__new__(cls)
        matrix._rows = tuple(map(tuple, rows))
        matrix._hash = None
        matrix._integer = None
        return matrix

    @classmethod
    def _from_integer(cls, den: int, rows: tuple[tuple[int, ...], ...]) -> "TransitionMatrix":
        """The matrix rows / den, for den > 0 and nonempty, rectangular rows
        of nonnegative integers, which need none of `__init__`'s checks.

        Dividing den and every entry by their gcd gives the integer form:
        d / gcd(d, a) is the reduced denominator of a / d, and the lcm of
        those is d / gcd(d, all a).
        """
        g = math.gcd(den, *(x for row in rows for x in row))
        if g > 1:
            den, rows = den // g, tuple(tuple(x // g for x in row) for row in rows)
        matrix = cls.__new__(cls)
        matrix._rows = None
        matrix._hash = None
        matrix._integer = den, rows
        return matrix

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            den, rows = self._integer
            self._rows = tuple(tuple(Fraction(x, den) for x in row) for row in rows)
        return self._rows

    @property
    def shape(self) -> tuple[int, int]:
        rows = self._rows or self._integer[1]
        return len(rows), len(rows[0])

    def __eq__(self, other):
        return (
            isinstance(other, TransitionMatrix)
            and self._integer_form() == other._integer_form()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._integer_form())
        return self._hash

    def __repr__(self):
        return f"TransitionMatrix({[[str(x) for x in row] for row in self.rows]})"

    def _integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        if self._integer is None:
            den = math.lcm(*(x.denominator for row in self._rows for x in row))
            self._integer = den, tuple(
                tuple(x.numerator * (den // x.denominator) for x in row)
                for row in self._rows
            )
        return self._integer

    def __mul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        """The exact product, formed over the operands' common denominators.

        With A = a / da and B = b / db for integer matrices a and b, AB is
        (a b) / (da db): an integer dot product per entry, and no `Fraction`
        until the product's rows are read.
        """
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        da, a = self._integer_form()
        db, b = other._integer_form()
        return TransitionMatrix._from_integer(da * db, _integer_product(a, b))

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
    """
    system = structure.system
    if system.probabilities is None:
        raise NetStructureError("system has no probabilities")
    rec = structure.children_of_reduced(rid)[edge_index]
    pairs = list(zip(system.translations, system.probabilities))
    zero = Fraction(0)
    shifts = [rec.offset - system.rho * a for a in structure.neighbours_of_full(rec.child)]
    parents = structure.reduced[rid].neighbours
    if len(pairs) < len(shifts):
        rows = []
        for c in parents:
            prob_at = {d - c: p for d, p in pairs}
            rows.append([prob_at.get(t, zero) for t in shifts])
    else:
        prob_of = dict(pairs)
        rows = [[prob_of.get(c + t, zero) for t in shifts] for c in parents]
    if not all(any(column) for column in zip(*rows)):
        raise NetStructureError(
            "transition matrix has a zero column; child neighbour unaccounted"
        )
    # every entry is a probability, which `build_ifs` checked, or `zero`
    return TransitionMatrix._from_rows(rows)


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
            d, m = self.of_full_edge(cur, e)._integer_form()
            den, rows = den * d, m if rows is None else _integer_product(rows, m)
            cur = self.structure.children_of_full(cur)[e].child
        if cur != fid:
            raise ValueError("edge sequence is not a cycle")
        return TransitionMatrix._from_integer(den, rows)

    def cycle_matrices(
        self, walks: Sequence[tuple[int, Sequence[int]]]
    ) -> list[TransitionMatrix]:
        """The products `cycle_matrix` gives for `walks`, in batches.

        Walks of one length are multiplied `_WALK_BATCH` at a time, left
        to right, one `int64` `matmul` of padded integer forms per step
        (`_WalkSteps`).  A walk is batched when the sum over its steps of
        the bit length of the larger of the step's denominator and its
        greatest integer row sum is below `_INT64_BITS`: entries are
        nonnegative, so no partial sum exceeds the final entry, which is at
        most the product of the row sums, and the denominator is the
        product of the denominators.  Batched walks whose products come out
        with the same denominator and rows, from starts with the same
        neighbour count, share one `TransitionMatrix`.  Every other walk
        (over that bound, empty, with an edge index out of range, or not
        closing) goes to `cycle_matrix`.  So the products equal
        `[self.cycle_matrix(fid, edges) for fid, edges in walks]`, and a
        list with an invalid walk raises: ValueError for an empty walk or
        one that does not close, IndexError for an edge index or a start
        out of range, though not always for the first invalid walk.
        """
        walks = list(walks)
        out: list = [None] * len(walks)
        by_length: dict[int, list[int]] = {}
        for i, (_, edges) in enumerate(walks):
            if edges:
                by_length.setdefault(len(edges), []).append(i)
        if by_length:
            steps = _WalkSteps(self, {fid for fid, _ in walks})
            shared: dict = {}
            for group in by_length.values():
                for a in range(0, len(group), _WALK_BATCH):
                    chunk = group[a : a + _WALK_BATCH]
                    keys = steps.keys([walks[i] for i in chunk])
                    for key in set(keys).difference(shared):
                        if key is not None:
                            shared[key] = steps.matrix(key)
                    for i, key in zip(chunk, keys):
                        out[i] = shared.get(key)
        for i in [i for i, matrix in enumerate(out) if matrix is None]:
            out[i] = self.cycle_matrix(*walks[i])
        return out


class _WalkSteps:
    """The (vector, edge) steps reachable from a set of vectors, for
    `MatrixTable.cycle_matrices`.

    Step (v, e) has code `first[index[v]] + e` and leads to vector index
    `dst[code]`; `size` holds the neighbour counts of the vectors and
    `width` the greatest.  The integer form (d, m) of a step is read when
    a walk first uses it: `bits` gets the bit length of the larger of d
    and the greatest row sum of m, and, when that is below `_INT64_BITS`,
    `stack` (`int64`) gets the block matrix diag(m, d) padded with zeros
    to `width` + 1 square, so that a product of those is diag(product of
    the m, product of the d).  `bits` is -1 for a step not read yet.
    """

    def __init__(self, table: MatrixTable, starts: set[int]):
        import numpy

        structure = table.structure
        self.table = table
        vectors = sorted(starts)
        self.index = {f: i for i, f in enumerate(vectors)}
        self.steps, children, count = [], [], []
        for f in vectors:  # grows as new children are met
            recs = structure.children_of_full(f)
            count.append(len(recs))
            for rec in recs:
                self.steps.append((f, rec.edge_index))
                children.append(rec.child)
                if rec.child not in self.index:
                    self.index[rec.child] = len(vectors)
                    vectors.append(rec.child)
        self.count = numpy.array(count)
        self.first = numpy.cumsum(self.count) - self.count
        self.dst = numpy.array([self.index[f] for f in children])
        self.size = numpy.array([len(structure.neighbours_of_full(f)) for f in vectors])
        self.width = int(self.size.max())
        self.bits = numpy.full(len(children), -1)
        w = self.width + 1
        self.stack = numpy.zeros((len(children), w, w), dtype=numpy.int64)

    def keys(self, walks) -> list:
        """A key per walk of one length for `matrix`: the neighbour count
        of its start and its padded product with the denominator, as
        `int64` bytes; None for a walk whose bits reach `_INT64_BITS`, one
        with an edge index out of range and one that does not close."""
        import numpy

        starts = numpy.array([self.index[fid] for fid, _ in walks])
        codes, closed = self._codes(starts, numpy.array([edges for _, edges in walks]))
        fits = self.bits[codes].sum(axis=1) < _INT64_BITS
        take = numpy.flatnonzero(closed & fits)
        keys: list = [None] * len(walks)
        if take.size:
            for i, key in zip(take.tolist(), self._products(starts[take], codes[take])):
                keys[i] = key
        return keys

    def _codes(self, starts, edges):
        """The step codes of the walks `edges` from the vector indices
        `starts`, and which walks keep their edge indices in range and
        close.  The steps of the walks that close are read in."""
        import numpy

        codes = numpy.empty(edges.shape, dtype=int)
        cur = starts
        for j in range(edges.shape[1]):
            # an edge index out of range still gives a code; the walk fails `ok`
            codes[:, j] = (self.first[cur] + edges[:, j]) % len(self.dst)
            cur = self.dst[codes[:, j]]
        at = numpy.concatenate([starts[:, None], self.dst[codes[:, :-1]]], axis=1)
        ok = ((edges >= 0) & (edges < self.count[at])).all(axis=1) & (cur == starts)
        fresh = numpy.zeros(len(self.bits), dtype=bool)
        fresh[codes[ok]] = True
        for c in numpy.flatnonzero(fresh & (self.bits < 0)).tolist():
            den, rows = self.table.of_full_edge(*self.steps[c])._integer_form()
            self.bits[c] = max(den.bit_length(), max(map(sum, rows)).bit_length())
            if self.bits[c] < _INT64_BITS:
                self.stack[c, : len(rows), : len(rows[0])] = rows
                self.stack[c, -1, -1] = den
        return codes, ok

    def _products(self, starts, codes) -> list[bytes]:
        """The keys of the walks of step `codes` from the vector indices
        `starts`."""
        import numpy

        product = self.stack[codes[:, 0]]
        for j in range(1, codes.shape[1]):
            product = numpy.matmul(product, self.stack[codes[:, j]])
        sizes = self.size[starts, None].astype(numpy.int64)
        flat = numpy.concatenate([sizes, product.reshape(len(product), -1)], axis=1)
        raw, size = flat.tobytes(), flat.shape[1] * flat.itemsize
        return [raw[a : a + size] for a in range(0, len(raw), size)]

    def matrix(self, key: bytes) -> TransitionMatrix:
        """The `TransitionMatrix` of a key of `keys`."""
        import numpy

        k, *flat = numpy.frombuffer(key, numpy.int64).tolist()
        w = self.width + 1
        rows = tuple(tuple(flat[i : i + k]) for i in range(0, k * w, w))
        return TransitionMatrix._from_integer(flat[-1], rows)
