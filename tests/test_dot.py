"""Tests for DOT export of the transition graphs."""

import re

import pytest

from ifsdim.classes import build_triple_diagram, decompose
from ifsdim.dot import reduced_dot, triple_dot

import oracle_helpers as oh
from test_classes import ALL_STRUCTURES


def test_reduced_dot_lists_every_vector_once(six_map_quarter_structure):
    structure = six_map_quarter_structure
    dec = decompose(structure)
    text = reduced_dot(structure, dec)
    assert text.startswith("digraph reduced_transitions {")
    assert text.endswith("}\n")
    for rid in range(structure.reduced_count):
        assert text.count("  r%d [label=" % rid) == 1
    assert text.count('fillcolor="#cfe8cf"') == len(set(dec.essential_reduced))


def test_reduced_dot_edge_lines_match_edge_count(six_map_quarter_structure):
    dec = decompose(six_map_quarter_structure)
    text = reduced_dot(six_map_quarter_structure, dec)
    arrows = [line for line in text.splitlines() if " -> " in line]
    assert len(arrows) == six_map_quarter_structure.edge_count()


def test_triple_dot_annotates_descent(gap_system_structure):
    dec = decompose(gap_system_structure)
    diagram = build_triple_diagram(gap_system_structure, dec)
    text = triple_dot(gap_system_structure, diagram)
    assert text.startswith("digraph triple_diagram {")
    nodes = [line for line in text.splitlines() if '[label="t' in line]
    assert len(nodes) == diagram.node_count()
    assert ' L"' in text
    assert ' R"' in text
    whole = oh.whole_triple_diagram(gap_system_structure, dec)
    assert text.count('fillcolor="#cfd8e8"') == len(whole.essential)


@pytest.mark.parametrize("name", ALL_STRUCTURES)
def test_triple_dot_edge_labels_match_the_child_records(request, name):
    # each edge line names its step's position among the centre's children
    # and marks a child that abuts its parent's left (L) or right (R) end
    s = request.getfixturevalue(name)
    diagram = build_triple_diagram(s, decompose(s))
    edge_line = re.compile(r'  t(\d+) -> t(\d+) \[label="(\d+)((?: L)?)((?: R)?)"\];')
    lines = [line for line in triple_dot(s, diagram).splitlines() if " -> " in line]
    expected = []
    for nid, (_, centre, _) in enumerate(diagram.keys):
        for rec in oh.child_records(s, centre):
            expected.append((nid, rec.child, rec.edge_index, rec.abuts_left, rec.abuts_right))
    assert len(lines) == len(expected)
    for line, (nid, child, position, left, right) in zip(lines, expected):
        match = edge_line.fullmatch(line)
        assert match, line
        source, target, label = int(match[1]), int(match[2]), int(match[3])
        assert (source, label) == (nid, position), line
        assert diagram.keys[target][1] == child, line
        assert (bool(match[4]), bool(match[5])) == (bool(left), bool(right)), line


def test_dot_output_is_deterministic(
    six_map_quarter_structure, gap_system_structure
):
    dec = decompose(six_map_quarter_structure)
    assert reduced_dot(six_map_quarter_structure, dec) == reduced_dot(
        six_map_quarter_structure, dec
    )
    dec = decompose(gap_system_structure)
    diagram = build_triple_diagram(gap_system_structure, dec)
    assert triple_dot(gap_system_structure, diagram) == triple_dot(
        gap_system_structure, diagram
    )
