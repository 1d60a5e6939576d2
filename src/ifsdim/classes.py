"""Loop classes, the essential class, the positive-row check, and triples.

The child relation on full characteristic vectors is a finite multigraph.
Its strongly connected components with at least one internal edge are the
loop classes; exactly one component is closed under taking children, and
that one (the essential class) absorbs every sufficiently deep descent.
Triples track a net interval together with its two adjacent net intervals
(or a gap marker), which is what distinguishes points that are merely in
essential intervals from points whose whole neighbourhood is essential.
The triple diagram is expanded on demand, so classifying one point builds
only the triples along its walk: the closed triple class sits over exactly
the essential vectors, so a triple over any other centre is outside it, and
otherwise the closed class is read off the forward closure of the triple.
That closure is the only place the closed triple class is found, also when
the whole diagram is expanded, as its DOT export does.
The diagram keeps only the child node of each descent step: the step's edge
position and end flags are read from the structure's edge columns.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .net import FiniteTypeStructure, NetStructureError, PointLocation
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
    """Sorted loop classes and the unique child-closed class.

    Loop classes are the components with at least one internal edge.  A
    graph without exactly one component closed under `successors` raises
    NetStructureError; `noun` names the kind of vertex in the message.
    """
    loop_classes = []
    closed = []
    for comp in strongly_connected_components(count, successors):
        members = set(comp)
        if any(w in members for v in comp for w in successors(v)):
            loop_classes.append(comp)
        if all(w in members for v in comp for w in successors(v)):
            closed.append(members)
    if len(closed) != 1:
        raise NetStructureError(
            f"expected exactly one child-closed {noun} class, found {len(closed)}"
        )
    loop_classes.sort()
    return loop_classes, closed[0]


class ClassDecomposition(NamedTuple):
    """Loop-class structure of the full-vector child graph."""

    loop_classes: list[list[int]]
    essential: set[int]
    essential_reduced: list[int]


def decompose(structure: FiniteTypeStructure) -> ClassDecomposition:
    """SCC decomposition with the unique child-closed (essential) class."""
    if not structure.saturated:
        raise NetStructureError("structure must be saturated before decomposition")
    n = structure.full_count
    child, starts = structure.child, structure.edge_start
    by_reduced = [child[a:b] for a, b in zip(starts, starts[1:])]
    children = [by_reduced[rid] for rid in structure.full_reduced]
    loop_classes, essential = closed_classes(n, children.__getitem__, "vector")
    essential_reduced = sorted({structure.reduced_of(f) for f in essential})
    return ClassDecomposition(loop_classes, essential, essential_reduced)


def essential_incidence(
    structure: FiniteTypeStructure, dec: ClassDecomposition
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Child-count matrix over the reduced vectors of the essential class."""
    ids = dec.essential_reduced
    position = {rid: i for i, rid in enumerate(ids)}
    child, full_reduced = structure.child, structure.full_reduced
    rows = []
    for rid in ids:
        row = [0] * len(ids)
        for e in structure.edges_of_reduced(rid):
            row[position[full_reduced[child[e]]]] += 1
        rows.append(tuple(row))
    return ids, tuple(rows)


class PositiveRowReport(NamedTuple):
    holds: bool
    witnesses: list[tuple[int, int]]  # (reduced id, edge index) with a zero row


def positive_row_check(
    structure: FiniteTypeStructure, dec: ClassDecomposition, table: MatrixTable
) -> PositiveRowReport:
    """Whether every matrix between essential vectors has no zero row."""
    witnesses = []
    for rid in dec.essential_reduced:
        for i in range(len(structure.edges_of_reduced(rid))):
            if table.of_edge(rid, i).has_zero_row():
                witnesses.append((rid, i))
    return PositiveRowReport(not witnesses, witnesses)


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

TripleKey = tuple  # (left fid | None, centre fid, right fid | None)


class TripleDiagram:
    """Closure of (gap, hull, gap) under adjacency-aware subdivision.

    Nodes are created on demand: `out_edges` expands a node the first time
    its edges are read, and `walk` and `cycle_limit` read edges through it,
    so a diagram holds only the root and the nodes its callers' walks have
    visited.  Expanding node ids 0, 1, 2, ... in turn until `node_count()`
    stops growing builds the whole diagram, numbered in FIFO order from the
    root.

    `edges[nid]` lists the child node of each descent step of node `nid`,
    in edge order, or is None until the node is expanded.  Step i of a node
    over centre f descends through structure edge
    `edge_start[full_reduced[f]] + i`, whose `abuts_left`/`abuts_right`
    flags say whether that child abuts its parent's left/right end.

    `is_essential` decides membership in the closed triple class, however
    much of the diagram is expanded.  The centres of the closed class are
    exactly the essential vectors, so a node over a non-essential centre
    is outside it.  A node over an essential centre reaches the closed
    class, and its forward closure stays over essential centres; the
    unique closed class of that closure is the closed class of the whole
    diagram (a closed set of the closure is closed in the whole graph), so
    it is computed once and kept.
    """

    def __init__(self, structure: FiniteTypeStructure, dec: ClassDecomposition):
        self.structure = structure
        self.decomposition = dec
        self.keys: list[TripleKey] = []
        self.index: dict[TripleKey, int] = {}
        self.edges: list[list[int] | None] = []
        self._closed: set[int] | None = None
        self.root = self._node((None, structure.root_full, None))

    def _node(self, key: TripleKey) -> int:
        nid = self.index.get(key)
        if nid is None:
            nid = len(self.keys)
            self.keys.append(key)
            self.index[key] = nid
            self.edges.append(None)
        return nid

    def out_edges(self, nid: int) -> list[int]:
        """The child node of each descent step of `nid`, expanding it on first use."""
        out = self.edges[nid]
        if out is not None:
            return out
        s = self.structure
        child, gap_before, abuts_left, abuts_right = (
            s.child, s.gap_before, s.abuts_left, s.abuts_right
        )
        # `decompose` checked that the structure is saturated: every vector has edges
        starts, reduced = s.edge_start, s.full_reduced
        left, centre, right = self.keys[nid]
        first, stop = starts[reduced[centre]], starts[reduced[centre] + 1]
        last = stop - 1
        out = []
        for e in range(first, stop):
            new_left = new_right = None
            if e > first and not gap_before[e]:
                new_left = child[e - 1]
            elif abuts_left[e] and left is not None:
                flank = starts[reduced[left] + 1] - 1  # the last edge of `left`
                if abuts_right[flank]:
                    new_left = child[flank]
            if e < last and not gap_before[e + 1]:
                new_right = child[e + 1]
            elif abuts_right[e] and right is not None:
                flank = starts[reduced[right]]  # the first edge of `right`
                if abuts_left[flank]:
                    new_right = child[flank]
            out.append(self._node((new_left, child[e], new_right)))
        self.edges[nid] = out
        return out

    def is_essential(self, nid: int) -> bool:
        """Whether node `nid` lies in the closed (essential) triple class."""
        if self.keys[nid][1] not in self.decomposition.essential:
            return False
        if self._closed is None:
            closure = [nid]
            local = {nid: 0}  # node id -> its position in `closure`
            for v in closure:
                for w in self.out_edges(v):
                    if w not in local:
                        local[w] = len(closure)
                        closure.append(w)
            adjacency = [[local[w] for w in self.edges[v]] for v in closure]
            closed = closed_classes(len(closure), adjacency.__getitem__, "triple")[1]
            self._closed = {closure[i] for i in closed}
        return nid in self._closed

    # -- views ------------------------------------------------------------

    def node_count(self) -> int:
        return len(self.keys)

    def walk(self, edges: Sequence[int], start: int | None = None) -> int:
        nid = self.root if start is None else start
        for e in edges:
            nid = self.out_edges(nid)[e]
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
    """The triple diagram, holding only its root until its edges are read."""
    return TripleDiagram(structure, dec)


# ---------------------------------------------------------------------------
# point classification
# ---------------------------------------------------------------------------

def classify_truly_essential(diagram: TripleDiagram, location: PointLocation) -> str:
    """Sort a located point into the truly-essential taxonomy.

    Interior points are truly essential when their triple walk ends up (and
    provably stays, by child-closedness) in the essential triple class;
    boundary points when every side that still carries intervals is
    eventually essential.  Points whose vectors are eventually essential
    without the full neighbourhood being so are essential but not truly;
    points whose vectors stay outside the essential class are not essential
    at all.  Boundary sides run to their close or death, so the
    needs-more-depth signal comes for an interior point that the location
    is too shallow to decide.  A boundary point with no live side would get
    it too, but is never located: it is a net-interval endpoint, so in the
    attractor K, which has no isolated points, and a side's chain lives
    exactly while K accumulates at the point from that side.

    Boundary points never read the diagram, and interior points expand only
    the triples of their walk (plus, once per diagram, the few essential
    triples that `TripleDiagram.is_essential` needs), so a fresh diagram
    from `build_triple_diagram` serves.
    """
    structure = diagram.structure
    dec = diagram.decomposition
    reps = location.representations
    if location.boundary:
        verdicts = []
        for rep in reps:
            if not rep.alive:
                verdicts.append("empty")
            else:
                fid = rep.fulls[rep.cycle[0]]
                verdicts.append(
                    "essential" if fid in dec.essential else "non_essential"
                )
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
        if diagram.is_essential(node):
            return INTERIOR_ESSENTIAL
        return NEEDS_MORE_DEPTH
    start, period = rep.cycle
    node = diagram.cycle_limit(
        diagram.walk(rep.edges[:start]), rep.edges[start:start + period]
    )
    if diagram.is_essential(node):
        return INTERIOR_ESSENTIAL
    if diagram.keys[node][1] in dec.essential:
        return ESSENTIAL_NOT_TRULY
    return NON_ESSENTIAL
