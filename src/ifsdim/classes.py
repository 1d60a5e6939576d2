"""Loop classes, the essential class, positivity checks, and triples.

The child relation on full characteristic vectors is a finite multigraph.
Its strongly connected components with at least one internal edge are the
loop classes; exactly one component is closed under taking children, and
that one (the essential class) absorbs every sufficiently deep descent.
Triples track a net interval together with its two adjacent net intervals
(or a gap marker), which is what distinguishes points that are merely in
essential intervals from points whose whole neighbourhood is essential.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .net import (
    FiniteTypeStructure,
    NetStructureError,
    PointLocation,
    Representation,
)
from .matrices import MatrixTable

INTERIOR_ESSENTIAL = "interior_essential"
BOUNDARY_ESSENTIAL = "boundary_essential"
ESSENTIAL_NOT_TRULY = "essential_not_truly"
NON_ESSENTIAL = "non_essential"
NEEDS_MORE_DEPTH = "needs_more_depth"


def strongly_connected_components(count: int, successors) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    UNSEEN = -1
    index_of = [UNSEEN] * count
    low = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for start in range(count):
        if index_of[start] != UNSEEN:
            continue
        work = [(start, 0)]
        while work:
            v, pointer = work[-1]
            if pointer == 0:
                index_of[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            succ = successors(v)
            descended = False
            while pointer < len(succ):
                w = succ[pointer]
                pointer += 1
                if index_of[w] == UNSEEN:
                    work[-1] = (v, pointer)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index_of[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(sorted(component))
    return components


def closed_classes(count: int, successors, noun: str):
    """SCCs, scc_of, sorted loop classes and the unique child-closed class.

    Loop classes are the components with at least one internal edge.  A
    graph without exactly one component closed under `successors` raises
    NetStructureError; `noun` names the kind of vertex in the message.
    """
    sccs = strongly_connected_components(count, successors)
    scc_of = [0] * count
    for i, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = i
    loop_classes = []
    closed = []
    for i, comp in enumerate(sccs):
        members = set(comp)
        if any(w in members for v in comp for w in successors(v)):
            loop_classes.append(comp)
        if all(w in members for v in comp for w in successors(v)):
            closed.append(i)
    if len(closed) != 1:
        raise NetStructureError(
            f"expected exactly one child-closed {noun} class, found {len(closed)}"
        )
    loop_classes.sort()
    return sccs, scc_of, loop_classes, set(sccs[closed[0]])


@dataclass
class ClassDecomposition:
    """Loop-class structure of the full-vector child graph."""

    scc_of: list[int]
    sccs: list[list[int]]
    loop_classes: list[list[int]]
    essential: set[int]
    essential_reduced: list[int]

    def is_essential(self, fid: int) -> bool:
        return fid in self.essential


def decompose(structure: FiniteTypeStructure) -> ClassDecomposition:
    """SCC decomposition with the unique child-closed (essential) class."""
    if not structure.saturated:
        raise NetStructureError("structure must be saturated before decomposition")
    n = structure.full_count
    children = [
        [rec.child for rec in structure.children_of_full(f)] for f in range(n)
    ]
    sccs, scc_of, loop_classes, essential = closed_classes(
        n, lambda v: children[v], "vector"
    )
    essential_reduced = sorted({structure.reduced_of(f) for f in essential})
    return ClassDecomposition(scc_of, sccs, loop_classes, essential, essential_reduced)


def essential_incidence(
    structure: FiniteTypeStructure, dec: ClassDecomposition
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Child-count matrix over the reduced vectors of the essential class."""
    ids = dec.essential_reduced
    position = {rid: i for i, rid in enumerate(ids)}
    rows = []
    for rid in ids:
        row = [0] * len(ids)
        for rec in structure.children_of_reduced(rid):
            child_rid = structure.reduced_of(rec.child)
            row[position[child_rid]] += 1
        rows.append(tuple(row))
    return ids, tuple(rows)


@dataclass
class PositiveRowReport:
    holds: bool
    witnesses: list[tuple[int, int]]  # (reduced id, edge index) with a zero row


def positive_row_check(
    structure: FiniteTypeStructure, dec: ClassDecomposition, table: MatrixTable
) -> PositiveRowReport:
    """Whether every matrix between essential vectors has no zero row."""
    witnesses = []
    for rid in dec.essential_reduced:
        for rec in structure.children_of_reduced(rid):
            if table.of_edge(rid, rec.edge_index).has_zero_row():
                witnesses.append((rid, rec.edge_index))
    return PositiveRowReport(not witnesses, witnesses)


@dataclass
class PathSearchResult:
    path: list[int] | None
    exhausted: bool = False


def _support_bits(pattern: Sequence[Sequence[bool]]) -> int:
    bits = 0
    position = 0
    for row in pattern:
        for entry in row:
            if entry:
                bits |= 1 << position
            position += 1
    return bits


def _multiply_support(bits: int, rows: int, mid: int, pattern) -> int:
    cols = len(pattern[0])
    col_bits = []
    mask = (1 << mid) - 1
    for j in range(cols):
        b = 0
        for t in range(mid):
            if pattern[t][j]:
                b |= 1 << t
        col_bits.append(b)
    out = 0
    for i in range(rows):
        row = (bits >> (i * mid)) & mask
        for j in range(cols):
            if row & col_bits[j]:
                out |= 1 << (i * cols + j)
    return out


def find_positive_path(
    structure: FiniteTypeStructure,
    dec: ClassDecomposition,
    table: MatrixTable,
    from_fid: int,
    to_fid: int,
    budget: int = 10**6,
) -> PathSearchResult:
    """Shortest essential path with a strictly positive product matrix.

    The path must not consist solely of leftmost descents, nor solely of
    rightmost ones (those paths track an endpoint instead of an interior
    point).  Positivity of a product depends only on the support of the
    factors, so a breadth-first search over (vector, support, all-leftmost,
    all-rightmost) states is exact; `budget` caps the states explored.
    """
    if from_fid not in dec.essential or to_fid not in dec.essential:
        raise ValueError("positive-path search requires essential endpoints")
    rows = len(structure.neighbours_of_full(from_fid))
    queue: deque = deque()
    parents: dict = {}

    def push(state, parent, edge):
        if state not in parents:
            parents[state] = (parent, edge)
            queue.append(state)

    records = structure.children_of_full(from_fid)
    last = len(records) - 1
    for rec in records:
        m = table.of_edge(structure.reduced_of(from_fid), rec.edge_index)
        bits = _support_bits(m.zero_pattern())
        push(
            (
                rec.child,
                bits,
                rec.edge_index == 0 and rec.abuts_left,
                rec.edge_index == last and rec.abuts_right,
            ),
            None,
            rec.edge_index,
        )

    explored = 0
    while queue:
        state = queue.popleft()
        explored += 1
        if explored > budget:
            return PathSearchResult(None, exhausted=True)
        fid, bits, all_left, all_right = state
        cols = len(structure.neighbours_of_full(fid))
        if (
            fid == to_fid
            and not all_left
            and not all_right
            and bits == (1 << (rows * cols)) - 1
        ):
            edges = []
            cursor = state
            while cursor is not None:
                cursor, edge = parents[cursor]
                edges.append(edge)
            edges.reverse()
            return PathSearchResult(edges)
        records = structure.children_of_full(fid)
        last = len(records) - 1
        for rec in records:
            m = table.of_edge(structure.reduced_of(fid), rec.edge_index)
            nbits = _multiply_support(bits, rows, cols, m.zero_pattern())
            push(
                (
                    rec.child,
                    nbits,
                    all_left and rec.edge_index == 0 and rec.abuts_left,
                    all_right and rec.edge_index == last and rec.abuts_right,
                ),
                state,
                rec.edge_index,
            )
    return PathSearchResult(None)


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleEdge:
    """One descent step of a triple; rules record how each flank arose.

    left_rule / right_rule are ('sibling', edge), ('flank', edge), or ('x',):
    a sibling flank extends the centre's path by the named edge, a flank
    rule extends the previous flank's path, and ('x',) is a gap.
    """

    child: int
    edge_index: int
    is_leftmost: bool
    is_rightmost: bool
    left_rule: tuple
    right_rule: tuple


TripleKey = tuple  # (left fid | None, centre fid, right fid | None)


class TripleDiagram:
    """Closure of (gap, hull, gap) under adjacency-aware subdivision."""

    def __init__(self, structure: FiniteTypeStructure, dec: ClassDecomposition):
        self.structure = structure
        self.decomposition = dec
        self.keys: list[TripleKey] = []
        self.index: dict[TripleKey, int] = {}
        self.edges: list[list[TripleEdge] | None] = []
        self.root = self._node((None, structure.root_full, None))
        self._build()
        self._classify()

    def _node(self, key: TripleKey) -> int:
        nid = self.index.get(key)
        if nid is None:
            nid = len(self.keys)
            self.keys.append(key)
            self.index[key] = nid
            self.edges.append(None)
        return nid

    def _build(self):
        structure = self.structure
        cursor = 0
        while cursor < len(self.keys):
            nid = cursor
            cursor += 1
            if self.edges[nid] is not None:
                continue
            left, centre, right = self.keys[nid]
            records = structure.children_of_full(centre)
            out = []
            for i, rec in enumerate(records):
                if i > 0 and not rec.gap_before:
                    new_left = records[i - 1].child
                    left_rule = ("sibling", i - 1)
                elif rec.abuts_left and left is not None:
                    flank = structure.children_of_full(left)[-1]
                    if flank.abuts_right:
                        new_left = flank.child
                        left_rule = ("flank", flank.edge_index)
                    else:
                        new_left, left_rule = None, ("x",)
                else:
                    new_left, left_rule = None, ("x",)
                if i + 1 < len(records) and not records[i + 1].gap_before:
                    new_right = records[i + 1].child
                    right_rule = ("sibling", i + 1)
                elif rec.abuts_right and right is not None:
                    flank = structure.children_of_full(right)[0]
                    if flank.abuts_left:
                        new_right = flank.child
                        right_rule = ("flank", 0)
                    else:
                        new_right, right_rule = None, ("x",)
                else:
                    new_right, right_rule = None, ("x",)
                child = self._node((new_left, rec.child, new_right))
                out.append(
                    TripleEdge(
                        child,
                        i,
                        rec.abuts_left,
                        rec.abuts_right,
                        left_rule,
                        right_rule,
                    )
                )
            self.edges[nid] = out

    def _classify(self):
        n = len(self.keys)
        adjacency = [[e.child for e in self.edges[v]] for v in range(n)]
        self.sccs, self.scc_of, self.loop_classes, self.essential = closed_classes(
            n, lambda v: adjacency[v], "triple"
        )

    # -- views ------------------------------------------------------------

    def node_count(self) -> int:
        return len(self.keys)

    def reduced_pattern(self, nid: int) -> tuple:
        """(left, centre, right) as reduced ids, None marking a gap."""
        structure = self.structure
        left, centre, right = self.keys[nid]
        take = lambda f: None if f is None else structure.reduced_of(f)
        return (take(left), take(centre), take(right))

    def walk(self, edges: Sequence[int], start: int | None = None) -> int:
        nid = self.root if start is None else start
        for e in edges:
            nid = self.edges[nid][e].child
        return nid

    def cycle_limit(self, nid: int, cycle: Sequence[int]) -> int:
        """A node of the loop that repeating `cycle` from `nid` ends in.

        The loop is a closed walk, so it lies in one class of the triple
        graph and its centres lie in one class of the vector graph: this one
        node decides whether the whole limit is (truly) essential.
        """
        seen = set()
        while nid not in seen:
            seen.add(nid)
            nid = self.walk(cycle, nid)
        return nid


def build_triple_diagram(
    structure: FiniteTypeStructure, dec: ClassDecomposition
) -> TripleDiagram:
    return TripleDiagram(structure, dec)


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------

def side_chain_class(
    structure: FiniteTypeStructure, dec: ClassDecomposition, fid: int, side: str
) -> str:
    """Eventual class of the forced descent keeping a shared endpoint.

    side 'left' follows rightmost children (the intervals left of the
    point), side 'right' follows leftmost ones.  Returns 'essential',
    'non_essential', or 'empty' when the descent hits a gap and the side
    stops contributing intervals.
    """
    seen = set()
    cur = fid
    while cur not in seen:
        seen.add(cur)
        records = structure.children_of_full(cur)
        rec = records[-1] if side == "left" else records[0]
        ok = rec.abuts_right if side == "left" else rec.abuts_left
        if not ok:
            return "empty"
        cur = rec.child
    return "essential" if cur in dec.essential else "non_essential"


def classify_truly_essential(diagram: TripleDiagram, location) -> str:
    """Sort a located point into the truly-essential taxonomy.

    Interior points are truly essential when their triple walk ends up (and
    provably stays, by child-closedness) in the essential triple class;
    boundary points when every side that still carries intervals is
    eventually essential.  Points whose vectors are eventually essential
    without the full neighbourhood being so are essential but not truly;
    points whose vectors stay outside the essential class are not essential
    at all.  Returns a needs-more-depth signal when the supplied location
    is too shallow to decide.
    """
    structure = diagram.structure
    dec = diagram.decomposition
    if isinstance(location, Representation):
        reps = [location]
        boundary = location.side != "interior"
    elif isinstance(location, PointLocation):
        reps = location.representations
        boundary = location.boundary
    else:
        raise TypeError("expected a PointLocation or Representation")

    if boundary:
        verdicts = []
        for rep in reps:
            if not rep.alive:
                verdicts.append("empty")
            elif rep.cycle is not None:
                fid = rep.fulls[rep.cycle[0]]
                verdicts.append(
                    "essential" if fid in dec.essential else "non_essential"
                )
            else:
                return NEEDS_MORE_DEPTH
        live = [v for v in verdicts if v != "empty"]
        if not live:
            return NEEDS_MORE_DEPTH
        if all(v == "essential" for v in live):
            return BOUNDARY_ESSENTIAL
        if any(v == "essential" for v in live):
            return ESSENTIAL_NOT_TRULY
        return NON_ESSENTIAL

    rep = reps[0]
    if rep.cycle is None:
        node = diagram.walk(rep.edges)
        if node in diagram.essential:
            return INTERIOR_ESSENTIAL
        return NEEDS_MORE_DEPTH
    start, period = rep.cycle
    node = diagram.cycle_limit(
        diagram.walk(rep.edges[:start]), rep.edges[start:start + period]
    )
    if node in diagram.essential:
        return INTERIOR_ESSENTIAL
    if diagram.keys[node][1] in dec.essential:
        return ESSENTIAL_NOT_TRULY
    return NON_ESSENTIAL


def essential_not_truly_witness(diagram: TripleDiagram):
    """An adjacent pair witnessing a boundary point that is essential on one
    side only, or None when no such configuration is reachable."""
    structure = diagram.structure
    dec = diagram.decomposition
    cache: dict = {}

    def chain(fid, side):
        key = (fid, side)
        if key not in cache:
            cache[key] = side_chain_class(structure, dec, fid, side)
        return cache[key]

    pairs = set()
    for left, centre, right in diagram.keys:
        if left is not None:
            pairs.add((left, centre))
        if right is not None:
            pairs.add((centre, right))
    for a, b in sorted(pairs):
        kinds = {chain(a, "left"), chain(b, "right")}
        if "essential" in kinds and "non_essential" in kinds:
            return (a, b)
    return None
