"""Tests for saving and reloading explored structures."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from ifsdim.cache import (
    CACHE_VERSION,
    CacheError,
    load_structure,
    save_structure,
    system_fingerprint,
)
from ifsdim.config import build_system, parse_config
from ifsdim.field import FieldContext
from ifsdim.ifs import build_ifs
from ifsdim.net import explore

import oracle_helpers as oh


def _children_snapshot(structure):
    out = []
    for vec in structure.reduced:
        if vec.children is None:
            out.append(None)
            continue
        out.append(
            [
                (
                    rec.child,
                    tuple(rec.offset.coeffs),
                    rec.edge_index,
                    rec.gap_before,
                    rec.abuts_left,
                    rec.abuts_right,
                )
                for rec in vec.children
            ]
        )
    return out


def _layout(structure):
    """Everything a cache stores, with elements as coefficient tuples."""
    return (
        [
            (tuple(v.length.coeffs), tuple(n.coeffs for n in v.neighbours), v.level)
            for v in structure.reduced
        ],
        _children_snapshot(structure),
        [(f.reduced, f.sibling_index) for f in structure.fulls],
        structure.root_full,
        structure.saturated,
        structure.levels_explored,
    )


def test_round_trip_preserves_structure(
    tmp_path, six_map_quarter, six_map_quarter_structure
):
    path = str(tmp_path / "cache.json")
    orig = six_map_quarter_structure
    save_structure(path, orig)
    loaded = load_structure(path, six_map_quarter)
    assert len(loaded.reduced) == len(orig.reduced)
    assert len(loaded.fulls) == len(orig.fulls)
    assert loaded.root_full == orig.root_full
    assert loaded.saturated == orig.saturated
    assert loaded.levels_explored == orig.levels_explored
    assert loaded.edge_count() == orig.edge_count()
    for rid in range(len(orig.reduced)):
        assert oh.reduced_signature(loaded, rid) == oh.reduced_signature(orig, rid)
        assert loaded.reduced[rid].level == orig.reduced[rid].level
    assert [(f.reduced, f.sibling_index) for f in loaded.fulls] == [
        (f.reduced, f.sibling_index) for f in orig.fulls
    ]
    assert _children_snapshot(loaded) == _children_snapshot(orig)


def test_fingerprint_guards_against_system_swap(
    tmp_path, six_map_quarter_structure, gap_system
):
    path = str(tmp_path / "cache.json")
    save_structure(path, six_map_quarter_structure)
    with pytest.raises(CacheError):
        load_structure(path, gap_system)


def test_probability_change_invalidates_cache(
    tmp_path, six_map_quarter_structure
):
    path = str(tmp_path / "cache.json")
    save_structure(path, six_map_quarter_structure)
    ctx = FieldContext([-1, 4])
    d = [Fraction(k, 8) for k in (0, 1, 2, 3, 5, 6)]
    p = (Fraction(1, 2),) + tuple(Fraction(1, 10) for _ in range(5))
    with pytest.raises(CacheError):
        load_structure(path, build_ifs(ctx, d, p))


def test_version_stamp_is_checked(
    tmp_path, six_map_quarter, six_map_quarter_structure
):
    path = tmp_path / "cache.json"
    save_structure(str(path), six_map_quarter_structure)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["cache_version"] = CACHE_VERSION + 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CacheError):
        load_structure(str(path), six_map_quarter)


@pytest.mark.parametrize("bad_id", [-1, 999])
def test_reduced_id_out_of_range_raises(
    tmp_path, six_map_quarter, six_map_quarter_structure, bad_id
):
    path = tmp_path / "cache.json"
    save_structure(str(path), six_map_quarter_structure)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["fulls"][1][0] = bad_id
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CacheError, match="reduced id out of range"):
        load_structure(str(path), six_map_quarter)


def _first_child(payload):
    return next(e for e in payload["reduced"] if e[3])[3][0]


def _set_offset(payload, raw):
    """Replace the element-table entry of the first child's offset."""
    payload["elements"][_first_child(payload)[1]] = raw


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(lambda p: _first_child(p).pop(), id="missing-key"),
        pytest.param(lambda p: _first_child(p).__setitem__(0, "0"), id="child-as-text"),
        pytest.param(lambda p: _first_child(p).__setitem__(0, 1.0), id="child-as-float"),
        pytest.param(lambda p: _first_child(p).__setitem__(3, 1), id="flag-as-int"),
        pytest.param(lambda p: _set_offset(p, 5), id="offset-not-a-list"),
        pytest.param(lambda p: _set_offset(p, "0"), id="offset-as-text"),
        pytest.param(lambda p: _set_offset(p, [0.5]), id="offset-as-float"),
        pytest.param(lambda p: _set_offset(p, []), id="offset-too-short"),
        pytest.param(lambda p: _set_offset(p, ["x"]), id="offset-not-a-number"),
        pytest.param(lambda p: _set_offset(p, ["1/0"]), id="offset-over-0"),
        pytest.param(lambda p: p.update(root_full=0.0), id="root-as-float"),
        pytest.param(lambda p: p["fulls"][1].__setitem__(0, True), id="reduced-id-as-bool"),
        pytest.param(lambda p: p["reduced"][0].pop(), id="missing-children"),
        pytest.param(lambda p: p["reduced"][0].__setitem__(2, "0"), id="level-as-text"),
        pytest.param(lambda p: p["fulls"][1].__setitem__(1, None), id="sibling-as-null"),
        pytest.param(lambda p: p.update(saturated=0), id="saturated-as-int"),
        pytest.param(lambda p: p.update(saturated=False), id="saturated-false"),
        pytest.param(lambda p: p.update(levels_explored="many"), id="depth-as-text"),
        pytest.param(
            lambda p: p["reduced"][2].__setitem__(3, None), id="saturated-but-unexpanded"
        ),
        pytest.param(lambda p: p.update(elements={}), id="elements-not-a-list"),
        pytest.param(lambda p: p["reduced"][1].__setitem__(1, 0), id="neighbours-not-a-list"),
        pytest.param(lambda p: p["reduced"][0].__setitem__(0, -1), id="length-id-minus-one"),
        pytest.param(
            lambda p: p["reduced"][1][1].__setitem__(0, len(p["elements"])),
            id="neighbour-id-past-end",
        ),
        pytest.param(lambda p: _first_child(p).__setitem__(1, -1), id="offset-id-minus-one"),
        pytest.param(
            lambda p: _first_child(p).__setitem__(1, len(p["elements"])), id="offset-id-past-end"
        ),
        pytest.param(lambda p: _first_child(p).__setitem__(1, True), id="offset-id-as-bool"),
        pytest.param(lambda p: p["reduced"][0].__setitem__(0, 0.0), id="length-id-as-float"),
        pytest.param(lambda p: _first_child(p).__setitem__(0, True), id="child-id-as-bool"),
        pytest.param(lambda p: _first_child(p).__setitem__(0, -1), id="child-id-minus-one"),
        pytest.param(
            lambda p: _first_child(p).__setitem__(0, len(p["fulls"])), id="child-id-past-end"
        ),
        pytest.param(
            lambda p: p["reduced"][1][1].__setitem__(0, True), id="neighbour-id-as-bool"
        ),
        pytest.param(lambda p: p["fulls"].append(list(p["fulls"][-1])), id="duplicate-full"),
    ],
)
def test_malformed_record_raises(tmp_path, six_map_quarter, six_map_quarter_structure, spoil):
    path = tmp_path / "cache.json"
    save_structure(str(path), six_map_quarter_structure)
    payload = json.loads(path.read_text(encoding="utf-8"))
    spoil(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CacheError):
        load_structure(str(path), six_map_quarter)


def _version_3_payload(payload):
    """The same structure in the version-3 layout: one object per record,
    every element spelt out as its coefficient strings."""
    elements = payload["elements"]
    reduced = [
        {
            "length": elements[length],
            "neighbours": [elements[v] for v in neighbours],
            "level": level,
            "children": [
                {
                    "child": child,
                    "offset": elements[offset],
                    "gap_before": gap,
                    "abuts_left": left,
                    "abuts_right": right,
                }
                for child, offset, gap, left, right in children
            ],
        }
        for length, neighbours, level, children in payload["reduced"]
    ]
    old = {k: v for k, v in payload.items() if k != "elements"}
    return dict(old, cache_version=3, reduced=reduced)


def test_version_3_file_is_rejected_on_its_version(
    tmp_path, six_map_quarter, six_map_quarter_structure
):
    path = tmp_path / "cache.json"
    save_structure(str(path), six_map_quarter_structure)
    payload = _version_3_payload(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with pytest.raises(CacheError, match="cache version 3 != 4"):
        load_structure(str(path), six_map_quarter)


@pytest.mark.parametrize("payload", [[], "text"])
def test_malformed_payload_raises(tmp_path, six_map_quarter, payload):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CacheError):
        load_structure(str(path), six_map_quarter)


def test_corrupted_file_raises(tmp_path, six_map_quarter):
    path = tmp_path / "cache.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(CacheError):
        load_structure(str(path), six_map_quarter)


def test_missing_file_raises(tmp_path, six_map_quarter):
    with pytest.raises(CacheError):
        load_structure(str(tmp_path / "nope.json"), six_map_quarter)


def test_fingerprint_covers_definition(six_map_quarter):
    fp = system_fingerprint(six_map_quarter)
    assert fp["minpoly"] == [-1, 4]
    assert fp["probabilities"] == ["1/6"] * 6
    assert len(fp["translations"]) == 6


def test_fingerprint_tells_the_roots_of_one_polynomial_apart(tmp_path):
    # 5x^2 - 5x + 1 has the roots 0.276 and 0.724 in (0, 1)
    def system(isolating):
        ctx = FieldContext([1, -5, 5], isolating)
        return build_ifs(ctx, [ctx.zero, 1 - ctx.rho])

    small = system([Fraction(0), Fraction(1, 2)])
    large = system([Fraction(1, 2), Fraction(1)])
    path = str(tmp_path / "cache.json")
    save_structure(path, explore(small))
    assert load_structure(path, small).reduced_count == 1
    with pytest.raises(CacheError):
        load_structure(path, large)


# SHA-256 of `save_structure` output (cache version 4) for the benchmark
# suite.  Each file was recorded only after it loaded to a structure equal
# to the one loaded from the version-3 file, written when the explorer still
# ordered values by the exact Fraction alone: the same vector order and ids,
# lengths, neighbours, levels, child offsets and flags.  The version-3 files
# in turn equal the version-2 payloads recorded from the all-pairs explorer
# with their letter tables and edge indices dropped; the letters are checked
# where `edge_matrix` derives them.
SUITE_CACHE_SHA256 = {
    "table_87": "1fc342b4f040bac91eab6833b917e25b5f4745b6638633ced6a96304b32993cc",
    "cantor_4_9": "63faf6c37ef45ae0dcc4d211269ce47f8dc558107d86cd7ed57c57ffc694c712",
    "convolution_3_8": "12258cdc0e701a98a31f36d3e02ec949820b3be02745ad6a97252c3da5382c74",
    "golden_third": "cb1d289d6a5f7a6764004c7d1aa5d14f8a97eaf077f3ac5e8fafef53cc11b251",
    "tribonacci_third": "c168ae1356780e16a15527fd8afbfa773d52bcfe9367fc457679ef613adec5d9",
    "quadratic_ninth": "8990b411767a5d22218e7ebae32f44f11e9355a32f4a2204ddba6e1340fa89eb",
}


@pytest.mark.parametrize("name", sorted(SUITE_CACHE_SHA256))
def test_suite_cache_bytes_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import SYSTEMS

    system = build_system(parse_config(SYSTEMS[name]))
    path = tmp_path / "cache.json"
    structure = explore(system)
    save_structure(str(path), structure)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_CACHE_SHA256[name]
    loaded = load_structure(str(path), system)
    assert _layout(loaded) == _layout(structure)
