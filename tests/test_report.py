"""Tests for JSON and text serialization of analysis results."""

import json
import random
from fractions import Fraction

import pytest

from ifsdim.dimension import build_dimension_report
from ifsdim.field import FieldContext
from ifsdim.ifs import build_ifs
from ifsdim.net import explore
from ifsdim.report import (
    SCHEMA_VERSION,
    dumps,
    format_enclosure,
    fraction_str,
    full_report,
    render_text,
    structural_report,
)


@pytest.fixture(scope="module")
def gap_report_dict(gap_system_structure):
    report = build_dimension_report(gap_system_structure, cycle_budget=3)
    return full_report(gap_system_structure, report)


def test_fraction_str_normalizes():
    assert fraction_str(Fraction(3, 2)) == "3/2"
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_str(Fraction(-5, 10)) == "-1/2"
    assert fraction_str(7) == "7"


def test_format_enclosure_rounds_outward():
    got = format_enclosure(Fraction(1, 3), Fraction(2, 3))
    assert got == "[0.333333333333, 0.666666666667]"
    assert format_enclosure(Fraction(1, 2), Fraction(1, 2)) == "[0.5, 0.5]"
    assert format_enclosure(Fraction(2), Fraction(2)) == "[2, 2]"
    got = format_enclosure(Fraction(-1, 3), Fraction(-1, 3))
    assert got == "[-0.333333333334, -0.333333333333]"


def test_format_enclosure_always_encloses():
    """Printed decimal endpoints never shrink the certified interval."""
    rng = random.Random(20260815)
    for _ in range(200):
        q = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
        text = format_enclosure(q, q)
        lo_s, hi_s = text.strip("[]").split(", ")
        assert Fraction(lo_s) <= q <= Fraction(hi_s)
        assert Fraction(hi_s) - Fraction(lo_s) <= 2 * Fraction(1, 10**12)


def test_structural_report_for_probability_free_system():
    ctx = FieldContext([-1, 4])
    d = [Fraction(k, 8) for k in (0, 1, 2, 3, 5, 6)]
    structure = explore(build_ifs(ctx, d))
    out = structural_report(structure)
    assert out["schema_version"] == SCHEMA_VERSION
    assert out["measure"] is None
    assert "probabilities not given" in out["measure_note"]
    assert out["structure"]["reduced_vectors"] == 4
    assert out["hausdorff"]["dimension"]["value"] == pytest.approx(1.0, abs=1e-9)
    text = render_text(out)
    assert "hausdorff dimension:" in text
    assert "measure analysis unavailable" in text


def test_full_report_shape(gap_report_dict):
    out = gap_report_dict
    assert out["schema_version"] == SCHEMA_VERSION
    measure = out["measure"]
    assert set(measure) == {
        "essential_interval",
        "positive_rows",
        "column_sums",
        "pisot_reciprocal",
        "isolation",
        "sane",
    }
    assert measure["sane"] is True
    # this system has essential matrices with zero rows
    assert measure["positive_rows"]["holds"] is False
    assert measure["positive_rows"]["witnesses"] == [[3, 1], [3, 2]]
    cs = measure["column_sums"]
    assert cs["holds"] is True and cs["matches_hausdorff"] is True
    bounds = measure["essential_interval"]
    assert set(bounds) == {
        "outer_lo",
        "outer_hi",
        "inner_lo",
        "inner_hi",
        "p_max",
        "p_min",
        "min_witness",
        "max_witness",
        "cycle_count",
        "certified_count",
        "excluded_count",
        "excluded_sample",
        "cycle_budget",
    }
    assert 0 < bounds["certified_count"] <= bounds["cycle_count"]
    assert bounds["p_min"] == bounds["p_max"] == cs["common_sum"]
    at_zero = measure["isolation"]["at_zero"]
    assert at_zero["isolated"] is True
    assert at_zero["reason"] == "outside_outer"
    assert at_zero["dimension"]["dimension"]["value"] == pytest.approx(1.5)


def test_render_text_positive_rows_hold_branch(eight_map_twelfths_structure):
    report = build_dimension_report(eight_map_twelfths_structure, cycle_budget=2)
    text = render_text(full_report(eight_map_twelfths_structure, report))
    assert "positive rows: hold for every essential matrix" in text
    assert "column sums: differ" in text
    assert "1/rho is Pisot" in text


def test_dumps_is_pure_json_and_deterministic(gap_report_dict):
    blob = dumps(gap_report_dict)
    assert blob.endswith("\n")
    assert dumps(gap_report_dict) == blob
    # every value is JSON-native, so a parse and re-dump is the identity
    assert dumps(json.loads(blob)) == blob


def test_render_text_deterministic_and_complete(gap_report_dict):
    text = render_text(gap_report_dict)
    assert text == render_text(gap_report_dict)
    assert text.endswith("\n")
    for needle in (
        "system: 6 maps",
        "reduced characteristic vectors",
        "incidence spectral radius",
        "hausdorff dimension:",
        "essential interval, outer:",
        "essential interval, inner:",
        "positive rows: FAIL at",
        "column sums: all equal",
        "endpoint 0:",
        "ISOLATED",
        "sanity: ok",
    ):
        assert needle in text
