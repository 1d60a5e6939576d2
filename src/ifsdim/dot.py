"""Graphviz DOT rendering of the transition graphs.

Output is deterministic: nodes appear in id order, edges in child order,
so identical structures give byte-identical files.
"""

from __future__ import annotations

from .classes import ClassDecomposition, TripleDiagram
from .net import DISPLAY_EPS, FiniteTypeStructure


def _quote(text: str) -> str:
    return '"%s"' % text.replace('"', '\\"')


def reduced_dot(structure: FiniteTypeStructure, dec: ClassDecomposition) -> str:
    """The reduced characteristic-vector graph; essential vectors filled.

    Labels print each length and neighbour to within `DISPLAY_EPS`.  Each
    element is turned into text once, keyed by its element id, so one value
    prints as one label: the midpoint `approx` returns for an irrational
    element depends on how far the field context has refined rho, which
    may change between two labels.  A table repeats few of these values
    (59 distinct among the 19,493 labels of x/3 + {0, 2/87, 2/3}).
    """
    essential = set(dec.essential_reduced)
    s = structure
    text_of: dict[int, str] = {}

    def text(vid: int) -> str:
        out = text_of.get(vid)
        if out is None:
            out = text_of[vid] = str(s.elements[vid].approx(DISPLAY_EPS))
        return out

    lines = [
        "digraph reduced_transitions {",
        "  rankdir=LR;",
        '  node [shape=box, fontsize=10];',
    ]
    starts = s.neighbour_start
    for rid, length in enumerate(s.length):
        label = "r%d\\nlen %s\\nnbrs %s" % (
            rid,
            text(length),
            ", ".join([text(v) for v in s.neighbours[starts[rid] : starts[rid + 1]]]),
        )
        style = ', style=filled, fillcolor="#cfe8cf"' if rid in essential else ""
        lines.append("  r%d [label=%s%s];" % (rid, _quote(label), style))
    for rid in range(s.reduced_count):
        span = s.edges_of_reduced(rid)
        for e in span:
            lines.append(
                '  r%d -> r%d [label="%d"];' % (rid, s.full_reduced[s.child[e]], e - span.start)
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _triple_label(structure: FiniteTypeStructure, key) -> str:
    left, centre, right = key
    part = lambda f: "x" if f is None else "f%d" % f
    return "(%s, %s, %s)" % (part(left), part(centre), part(right))


def triple_dot(structure: FiniteTypeStructure, diagram: TripleDiagram) -> str:
    """The triple diagram; essential triples filled.

    Expands `diagram` whole first: node ids 0, 1, 2, ... in turn, until no
    new node appears, so the ids are those of a FIFO expansion from the
    root.  A node is filled when `diagram.is_essential` holds.  Each edge
    is labelled with the position of its descent step among the centre's
    children, then L if that child abuts its parent's left end and R if it
    abuts the right end, read from the structure's edge columns.
    """
    nid = 0
    while nid < diagram.node_count():
        diagram.out_edges(nid)
        nid += 1
    lines = [
        "digraph triple_diagram {",
        "  rankdir=LR;",
        '  node [shape=ellipse, fontsize=10];',
    ]
    for nid, key in enumerate(diagram.keys):
        label = "t%d %s" % (nid, _triple_label(structure, key))
        style = ', style=filled, fillcolor="#cfd8e8"' if diagram.is_essential(nid) else ""
        lines.append("  t%d [label=%s%s];" % (nid, _quote(label), style))
    marks = [
        (" L" if left else "") + (" R" if right else "")
        for left, right in zip(structure.abuts_left, structure.abuts_right)
    ]
    starts, reduced = structure.edge_start, structure.full_reduced
    for nid, (_, centre, _) in enumerate(diagram.keys):
        first = starts[reduced[centre]]
        for i, target in enumerate(diagram.edges[nid]):
            lines.append('  t%d -> t%d [label="%d%s"];' % (nid, target, i, marks[first + i]))
    lines.append("}")
    return "\n".join(lines) + "\n"
