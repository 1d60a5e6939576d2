"""Net-interval structure of an equicontractive IFS, explored to saturation.

Level-n net intervals are the closed intervals between consecutive points of
{S_sigma(0), S_sigma(1) : |sigma| = n} whose interior meets the attractor.
Each is summarized by a characteristic vector: its normalized length, the
normalized offsets of the level-n cylinders covering it (the neighbour set,
listed in increasing order), and a sibling index separating same-length
children of one parent.  The system has finite type exactly when the set of
characteristic vectors reachable from [0, 1] is finite, which the explorer
detects by saturation.

Children of a net interval depend only on (length, neighbours); the sibling
index only disambiguates vertices of the transition diagram.  Child edges
hold only geometry; `matrices.edge_matrix` derives the letters of an edge.
All coordinates are exact field elements, so vector identity is exact.

A structure holds its table as flat columns, as the cache writes them:
`elements` lists each distinct field element once; per reduced vector,
`length` (element id), `level` and the prefix sums `neighbour_start`
into `neighbours` (element ids) and `edge_start` into the edges; per
edge, `child` (full id), `offset` (element id), `gap_before`,
`abuts_left` and `abuts_right`; per full vector, `full_reduced` and
`sibling`.  An edge's position among its parent's children is its id
minus the parent's `edge_start`.  Element ids are canonical: two are
equal exactly when their elements are, so vectors compare on ids.  A
command that reads a few vectors builds no object per vector or edge.

The explorer owns the registries that give each (length, neighbours)
signature and each (reduced id, sibling index) pair its id, and appends
to the columns directly.  It runs on interned value ids: each distinct
value gets a small integer id and is hashed and sort-keyed once, its
operation tables map pairs of ids to ids, and it subdivides each
signature once.  Its value table is the structure's element table.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .field import FieldElement
from .ifs import IFSSystem

VectorKey = tuple  # (length, (neighbour, ...)) as value ids

DISPLAY_EPS = Fraction(1, 10**12)  # how close a printed coordinate is to its value
# most edges `locate_point` follows looking for a period, unless told otherwise
DEFAULT_DEPTH = 1000


class NetStructureError(RuntimeError):
    """Internal inconsistency or resource failure while exploring."""


class NotProvenFiniteTypeError(NetStructureError):
    """Exploration hit its budget before the vector set saturated."""

    def __init__(self, message: str, partial: "FiniteTypeStructure | None" = None):
        super().__init__(message)
        self.partial = partial


class PointNotInAttractorError(NetStructureError):
    """The queried point falls in a gap of the attractor."""

    def __init__(self, message: str, level: int):
        super().__init__(message)
        self.level = level


class FiniteTypeStructure:
    """The saturated table of characteristic vectors, as columns (see above)."""

    def __init__(self, system: IFSSystem):
        self.system = system
        self.elements: list[FieldElement] = []
        self.length: list[int] = []
        self.level: list[int] = []
        self.neighbour_start: list[int] = [0]
        self.neighbours: list[int] = []
        # one entry past each expanded vector: the explorer expands in id order
        self.edge_start: list[int] = [0]
        self.child: list[int] = []
        self.offset: list[int] = []
        self.gap_before: list[bool] = []  # an attractor-free stretch precedes this child
        self.abuts_left: list[bool] = []
        self.abuts_right: list[bool] = []
        self.full_reduced: list[int] = []
        self.sibling: list[int] = []
        self.root_full: int = -1
        self.saturated: bool = False
        self.levels_explored: int = 0

    # -- views ---------------------------------------------------------------

    @property
    def reduced_count(self) -> int:
        return len(self.length)

    @property
    def full_count(self) -> int:
        return len(self.full_reduced)

    def reduced_of(self, fid: int) -> int:
        return self.full_reduced[fid]

    def edges_of_reduced(self, rid: int) -> range:
        """The edge ids of reduced vector `rid`, left to right."""
        starts = self.edge_start
        if rid + 1 >= len(starts):
            raise NetStructureError(f"reduced vector {rid} was never expanded")
        return range(starts[rid], starts[rid + 1])

    def edges_of_full(self, fid: int) -> range:
        return self.edges_of_reduced(self.full_reduced[fid])

    def length_of_full(self, fid: int) -> FieldElement:
        return self.elements[self.length[self.full_reduced[fid]]]

    def neighbours_of_reduced(self, rid: int) -> tuple[FieldElement, ...]:
        a, b = self.neighbour_start[rid : rid + 2]
        return tuple(map(self.elements.__getitem__, self.neighbours[a:b]))

    def neighbours_of_full(self, fid: int) -> tuple[FieldElement, ...]:
        return self.neighbours_of_reduced(self.full_reduced[fid])

    def edge_count(self) -> int:
        return len(self.child)

    def describe(self) -> dict:
        return {
            "reduced_vectors": self.reduced_count,
            "full_vectors": self.full_count,
            "edges": self.edge_count(),
            "saturated": self.saturated,
            "levels_explored": self.levels_explored,
        }


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------

class _Ids(dict):
    """Interned values: maps each distinct element to its id, which a new
    value gets on first lookup.  `elements[i]` and `keys[i]` are the element
    and the `FieldContext.sort_key` of id i, so each value is hashed and
    keyed once."""

    def __init__(self, sort_key):
        self.elements: list[FieldElement] = []
        self.keys: list = []
        self.sort_key = sort_key

    def __missing__(self, value: FieldElement) -> int:
        vid = self[value] = len(self.elements)
        self.elements.append(value)
        self.keys.append(self.sort_key(value))
        return vid


class _Operation(dict):
    """op(a, b) of two value ids, keyed by (a, b): a miss forms, interns and
    stores the value, so a hit runs no Python code."""

    def __init__(self, ids: _Ids, op):
        self.ids, self.op = ids, op

    def __missing__(self, pair: tuple[int, int]) -> int:
        elements = self.ids.elements
        vid = self[pair] = self.ids[self.op(elements[pair[0]], elements[pair[1]])]
        return vid


class _Explorer:
    """The registries and memos of one exploration, all on value ids.

    Signatures are (length id, tuple of neighbour ids), and the tables
    `plus`, `minus` and `step` form a + b, a - b and (a - b) / rho.  They
    hold the id table, not the explorer: a reference back would make a
    cycle that keeps each explorer alive until a full collection.
    """

    def __init__(self, system: IFSSystem):
        self.system = system
        self.ids = ids = _Ids(system.context.sort_key)
        self.elements, self.keys = ids.elements, ids.keys
        self.zero, self.one = ids[system.context.zero], ids[system.context.one]
        self.rho, self.neg_rho = ids[system.rho], ids[-system.rho]
        self.translations = tuple(ids[d] for d in system.translations)
        rho_inv = system.rho.inverse()
        self.plus = _Operation(ids, operator.add)
        self.minus = _Operation(ids, operator.sub)
        self.step = _Operation(ids, lambda a, b: (a - b) * rho_inv)
        self._gap_memo: dict[VectorKey, bool] = {}
        self._pieces: dict[VectorKey, list] = {}
        self._reduced_index: dict[VectorKey, int] = {}
        self._signatures: list[VectorKey] = []  # by reduced id
        self._full_index: dict[tuple[int, int], int] = {}

    def register_reduced(self, structure: FiniteTypeStructure, length, neighbours, level) -> int:
        key = (length, neighbours)
        rid = self._reduced_index.get(key)
        if rid is None:
            rid = self._reduced_index[key] = len(structure.length)
            self._signatures.append(key)
            structure.length.append(length)
            structure.level.append(level)
            structure.neighbours += neighbours
            structure.neighbour_start.append(len(structure.neighbours))
        return rid

    def register_full(self, structure: FiniteTypeStructure, rid: int, sibling_index: int) -> int:
        key = (rid, sibling_index)
        fid = self._full_index.get(key)
        if fid is None:
            fid = self._full_index[key] = len(structure.full_reduced)
            structure.full_reduced.append(rid)
            structure.sibling.append(sibling_index)
        return fid

    def _pieces_of(self, key: VectorKey) -> list:
        """`subdivide` of the signature `key`, computed once per explorer."""
        pieces = self._pieces.get(key)
        if pieces is None:
            pieces = self._pieces[key] = self.subdivide(*key)
        return pieces

    def subdivide(self, length: int, neighbours):
        """The pieces (u, v, child length, child neighbours) of one subdivision.

        A neighbour c_i of the interval [0, length] has its level-(n+1)
        cylinders at the starts s = d_j - c_i, each of normalized length rho;
        the cuts are 0, length and every s or s + rho strictly between them.
        The distinct starts are sorted once by value.  A start covers the
        piece [u, v] exactly when v - rho <= s <= u, so the covering starts
        form the contiguous run of sorted starts in [v - rho, u], found by
        two bisections.  The child neighbour of s is (u - s) / rho, which
        descends as s ascends, so reading the run backwards lists the child
        neighbours in increasing order.

        Arguments and pieces are value ids, ordered by the sort keys of their
        values: for a rational rho, (float(value), value), where the float
        decides every pair it tells apart and the exact value breaks ties.
        """
        key = self.keys
        rho, minus, step = self.rho, self.minus, self.step
        starts = {minus[d, c]: None for c in neighbours for d in self.translations}
        starts = sorted(starts, key=key.__getitem__)
        keys = [key[s] for s in starts]
        # starts s in (0, length) and s + rho in (0, length) are the inner cuts
        inner = starts[bisect_right(keys, key[self.zero]) : bisect_left(keys, key[length])]
        shifted = starts[
            bisect_right(keys, key[self.neg_rho]) : bisect_left(keys, key[minus[length, rho]])
        ]
        cuts = dict.fromkeys([self.zero, length, *inner])
        cuts.update(dict.fromkeys(self.plus[s, rho] for s in shifted))
        ordered = sorted(cuts, key=key.__getitem__)
        pieces = []
        for u, v in zip(ordered, ordered[1:]):
            run = starts[bisect_left(keys, key[minus[v, rho]]) : bisect_right(keys, key[u])]
            covers = tuple([step[u, s] for s in reversed(run)])
            pieces.append((u, v, step[v, u], covers))
        return pieces

    def meets_attractor(self, length: int, neighbours: tuple[int, ...]) -> bool:
        """Whether the interior of an interval with this signature meets K.

        Splitting produces an interior endpoint (a point of K) exactly when
        the interval meets the attractor; otherwise the signature passes to
        its single child, whose normalized length grows by 1/rho, so the
        walk is finite: it ends with a split or with no covering cylinder.
        """
        chain: list[VectorKey] = []
        key = (length, neighbours)
        while (result := self._gap_memo.get(key)) is None:
            if not key[1]:
                result = False
                break
            chain.append(key)
            pieces = self._pieces_of(key)
            if len(pieces) > 1:
                result = True
                break
            key = pieces[0][2:4]
            if len(chain) > 100000:
                raise NetStructureError("attractor membership walk failed to terminate")
        self._gap_memo.update(dict.fromkeys(chain, result))
        return result

    def expand(self, structure: FiniteTypeStructure, rid: int) -> None:
        """Append the child edges of `rid`, the next vector to expand."""
        pieces = self._pieces_of(self._signatures[rid])
        level = structure.level[rid] + 1
        first = len(structure.child)
        gap_pending = False
        sibling_counts: dict[int, int] = {}
        last_piece = len(pieces) - 1
        for idx, (u, _, ell_child, ws) in enumerate(pieces):
            if not ws or not self.meets_attractor(ell_child, ws):
                gap_pending = True
                continue
            r = sibling_counts.get(ell_child, 0) + 1
            sibling_counts[ell_child] = r
            child_rid = self.register_reduced(structure, ell_child, ws, level)
            structure.child.append(self.register_full(structure, child_rid, r))
            structure.offset.append(u)
            structure.gap_before.append(gap_pending)
            structure.abuts_left.append(idx == 0)
            structure.abuts_right.append(idx == last_piece)
            gap_pending = False
        if len(structure.child) == first:
            raise NetStructureError("net interval without children (interior met K)")
        structure.edge_start.append(len(structure.child))


def explore(
    system: IFSSystem,
    max_vectors: int = 100000,
    max_level: int = 200,
) -> FiniteTypeStructure:
    """Breadth-first saturation of the characteristic-vector set.

    Raises NotProvenFiniteTypeError (with the partial structure attached)
    if either budget is exhausted first; that outcome cannot distinguish a
    slow saturation from genuinely infinite type.
    """
    ex = _Explorer(system)
    structure = FiniteTypeStructure(system)
    structure.elements = ex.elements
    root_rid = ex.register_reduced(structure, ex.one, (ex.zero,), 0)
    structure.root_full = ex.register_full(structure, root_rid, 1)
    rid = root_rid
    while rid < structure.reduced_count:  # ids are given in breadth-first order
        level = structure.level[rid]
        if level > max_level:
            structure.levels_explored = level
            raise NotProvenFiniteTypeError(
                f"no saturation within {max_level} levels "
                f"({structure.reduced_count} reduced vectors so far)",
                partial=structure,
            )
        ex.expand(structure, rid)
        structure.levels_explored = max(structure.levels_explored, level + 1)
        rid += 1
        if structure.full_count > max_vectors:
            raise NotProvenFiniteTypeError(
                f"vector budget {max_vectors} exhausted "
                f"({structure.reduced_count} reduced vectors so far)",
                partial=structure,
            )
    structure.saturated = True
    return structure


# ---------------------------------------------------------------------------
# walking actual net intervals
# ---------------------------------------------------------------------------

class NetInterval(NamedTuple):
    level: int
    left: FieldElement
    full: int
    edges: tuple[int, ...]


def iter_net_intervals(structure: FiniteTypeStructure, level: int) -> Iterator[NetInterval]:
    """All level-n net intervals, left to right, with their root paths."""
    system = structure.system
    rho_pow = [system.context.one]
    for _ in range(level):
        rho_pow.append(rho_pow[-1] * system.rho)

    elements, child, offset = structure.elements, structure.child, structure.offset

    def rec(depth: int, left: FieldElement, fid: int, edges: tuple[int, ...]):
        if depth == level:
            yield NetInterval(depth, left, fid, edges)
            return
        for i, e in enumerate(structure.edges_of_full(fid)):
            child_left = left + rho_pow[depth] * elements[offset[e]]
            yield from rec(depth + 1, child_left, child[e], edges + (i,))

    yield from rec(0, system.context.zero, structure.root_full, ())


def path_fulls(structure: FiniteTypeStructure, edges: Sequence[int]) -> list[int]:
    fulls = [structure.root_full]
    for e in edges:
        fulls.append(structure.child[structure.edges_of_full(fulls[-1])[e]])
    return fulls


def path_left_endpoint(structure: FiniteTypeStructure, edges: Sequence[int]) -> FieldElement:
    system = structure.system
    left = system.context.zero
    power = system.context.one
    fid = structure.root_full
    for i in edges:
        e = structure.edges_of_full(fid)[i]
        left = left + power * structure.elements[structure.offset[e]]
        power = power * system.rho
        fid = structure.child[e]
    return left


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------

class Representation(NamedTuple):
    """One symbolic address of a point: a root path of edge choices.

    side 'interior': the point stays interior to every interval of the path.
    side 'left'/'right': intervals lie on that side of the point, which is
    their shared right/left endpoint from the boundary level onward.
    A detected eventual period is (start, period) over edge positions.
    """

    side: str
    edges: list[int]
    fulls: list[int]
    cycle: tuple[int, int] | None = None
    alive: bool = True


class PointLocation(NamedTuple):
    boundary: bool
    boundary_level: int | None
    representations: list[Representation]


def locate_point(
    structure: FiniteTypeStructure, x, depth: int = DEFAULT_DEPTH
) -> PointLocation:
    """Resolve a point of [0, 1] to its symbolic address(es).

    Boundary points (endpoints of some net interval) get one or two forced
    representations, each followed to its close or its death
    (`_forced_chain`), so `depth` bounds only the interior search: an
    interior point descends until `depth` or until the (vector, relative
    position) state repeats, which pins an exact period.
    """
    system = structure.system
    ctx = system.context
    if not isinstance(x, FieldElement):
        x = ctx.element(x if isinstance(x, (list, tuple)) else [x])
    if x.sign() < 0 or (x - 1).sign() > 0:
        raise PointNotInAttractorError("point outside the hull [0, 1]", level=0)

    rho = system.rho
    rho_inv = rho.inverse()
    elements, child, offset = structure.elements, structure.child, structure.offset
    fid = structure.root_full
    edges: list[int] = []
    fulls = [fid]
    u = x
    seen: dict[tuple[int, FieldElement], int] = {}

    while len(edges) < depth:
        state = (fid, u)
        pos = seen.get(state)
        if pos is not None:
            rep = Representation("interior", edges, fulls, cycle=(pos, len(edges) - pos))
            return PointLocation(False, None, [rep])
        seen[state] = len(edges)

        span = structure.edges_of_full(fid)
        placed = None
        for i, e in enumerate(span):
            t = elements[offset[e]]
            end = t + rho * structure.length_of_full(child[e])
            c_left = (u - t).sign()
            if c_left < 0:
                raise PointNotInAttractorError(
                    f"point lies in an attractor-free gap at level {len(edges) + 1}",
                    level=len(edges) + 1,
                )
            if c_left == 0:
                if i > 0 and not structure.gap_before[e]:
                    return _boundary(structure, edges, fulls, i - 1, i)
                # x == 0 at the root, or the right edge of a gap
                return _boundary(structure, edges, fulls, None, i)
            c_right = (u - end).sign()
            if c_right < 0:
                placed = (i, e, t)
                break
            if c_right == 0:
                if i + 1 < len(span) and not structure.gap_before[e + 1]:
                    return _boundary(structure, edges, fulls, i, i + 1)
                return _boundary(structure, edges, fulls, i, None)
        if placed is None:
            raise PointNotInAttractorError(
                f"point lies in an attractor-free gap at level {len(edges) + 1}",
                level=len(edges) + 1,
            )
        i, e, t = placed
        u = (u - t) * rho_inv
        edges.append(i)
        fid = child[e]
        fulls.append(fid)

    rep = Representation("interior", edges, fulls, cycle=None)
    return PointLocation(False, None, [rep])


def _boundary(structure, edges, fulls, left_idx, right_idx) -> PointLocation:
    boundary_level = len(edges) + 1
    reps = []
    if left_idx is not None:
        reps.append(_forced_chain(structure, edges, fulls, left_idx, "left"))
    if right_idx is not None:
        reps.append(_forced_chain(structure, edges, fulls, right_idx, "right"))
    return PointLocation(True, boundary_level, reps)


def _forced_chain(structure, edges, fulls, first_edge, side) -> Representation:
    """Extend a boundary representation; on side 'left' the point is the
    right endpoint of every interval, so each step must take the rightmost
    child and that child must abut the parent's right end (symmetrically
    for side 'right').  The chain dies where the required child is
    missing, and closes at the first full vector it meets twice; by
    pigeonhole one of the two happens within `full_count + 1` edges of
    the boundary level, so no depth bounds the chain."""
    child = structure.child
    end, abuts = (-1, structure.abuts_right) if side == "left" else (0, structure.abuts_left)
    rep_edges = list(edges) + [first_edge]
    fid = child[structure.edges_of_full(fulls[-1])[first_edge]]
    rep_fulls = list(fulls) + [fid]
    seen: dict[int, int] = {}
    while fid not in seen:
        seen[fid] = len(rep_edges)
        span = structure.edges_of_full(fid)
        e = span[end]
        if not abuts[e]:
            return Representation(side, rep_edges, rep_fulls, alive=False)
        fid = child[e]
        rep_edges.append(e - span.start)
        rep_fulls.append(fid)
    start = seen[fid]
    return Representation(side, rep_edges, rep_fulls, cycle=(start, len(rep_edges) - start))
