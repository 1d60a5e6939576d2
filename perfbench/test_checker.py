"""The checker accepts tighter enclosures and other walk counts, and rejects
disjoint enclosures, changed discrete facts and wrong exit codes."""

import copy

from checker import compare, essential_gap, max_rel_width

REFERENCE = {
    "exit": 0,
    "discrete": {"p_min": "1/10", "sane": True},
    "enclosures": {
        "hausdorff": ["1/2", "3/4", 0.625],
        "outer_lo": ["1/4", "1/2", 0.375],
        "outer_hi": ["1", "2", 1.5],
        "inner_lo": ["1/2", "5/8", 0.5625],
        "inner_hi": ["1", "5/4", 1.125],
    },
    "walks": 29,
}


def _with_enclosure(key, lo, hi, walks=29):
    got = copy.deepcopy(REFERENCE)
    got["enclosures"][key] = [lo, hi, 0.0]
    got["walks"] = walks
    return got


def test_identical_output_passes():
    assert compare(REFERENCE, copy.deepcopy(REFERENCE)) == []


def test_tighter_enclosure_passes():
    assert compare(REFERENCE, _with_enclosure("hausdorff", "5/8", "2/3")) == []


def test_overlapping_enclosure_passes():
    assert compare(REFERENCE, _with_enclosure("hausdorff", "3/4", "1")) == []


def test_disjoint_enclosure_fails():
    problems = compare(REFERENCE, _with_enclosure("hausdorff", "4/5", "1"))
    assert len(problems) == 1 and "hausdorff" in problems[0]


def test_wrong_exit_code_fails():
    got = copy.deepcopy(REFERENCE)
    got["exit"] = 4
    assert compare(REFERENCE, got) == ["exit code 4, expected 0"]


def test_changed_discrete_fact_fails():
    got = copy.deepcopy(REFERENCE)
    got["discrete"]["p_min"] = "1/9"
    assert compare(REFERENCE, got) != []


def test_other_walk_count_skips_inner_enclosures_only():
    assert compare(REFERENCE, _with_enclosure("inner_lo", "1/16", "1/8", walks=40)) == []
    assert compare(REFERENCE, _with_enclosure("inner_lo", "1/16", "1/8")) != []
    assert compare(REFERENCE, _with_enclosure("outer_lo", "1/16", "1/8", walks=40)) != []


def test_quality_metrics():
    assert max_rel_width(REFERENCE) == 2 / 3  # outer_lo: (1/2 - 1/4) / 0.375
    assert essential_gap(REFERENCE) == (2 - 1 / 4) - (1 - 5 / 8)
