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
        assert loaded.reduced_signature(rid) == orig.reduced_signature(rid)
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
    return next(e for e in payload["reduced"] if e["children"])["children"][0]


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(lambda p: _first_child(p).pop("gap_before"), id="missing-key"),
        pytest.param(lambda p: _first_child(p).update(child="0"), id="child-as-text"),
        pytest.param(lambda p: _first_child(p).update(child=1.0), id="child-as-float"),
        pytest.param(lambda p: _first_child(p).update(abuts_left=1), id="flag-as-int"),
        pytest.param(lambda p: _first_child(p).update(offset=5), id="offset-not-a-list"),
        pytest.param(lambda p: _first_child(p).update(offset="0"), id="offset-as-text"),
        pytest.param(lambda p: _first_child(p).update(offset=[0.5]), id="offset-as-float"),
        pytest.param(lambda p: _first_child(p).update(offset=[]), id="offset-too-short"),
        pytest.param(lambda p: _first_child(p).update(offset=["x"]), id="offset-not-a-number"),
        pytest.param(lambda p: _first_child(p).update(offset=["1/0"]), id="offset-over-0"),
        pytest.param(lambda p: p.update(root_full=0.0), id="root-as-float"),
        pytest.param(lambda p: p["fulls"][1].__setitem__(0, True), id="reduced-id-as-bool"),
        pytest.param(lambda p: p["reduced"][0].pop("children"), id="missing-children"),
        pytest.param(lambda p: p["reduced"][0].update(level="0"), id="level-as-text"),
        pytest.param(lambda p: p["fulls"][1].__setitem__(1, None), id="sibling-as-null"),
        pytest.param(lambda p: p.update(saturated=0), id="saturated-as-int"),
        pytest.param(lambda p: p.update(levels_explored="many"), id="depth-as-text"),
        pytest.param(
            lambda p: p["reduced"][2].update(children=None), id="saturated-but-unexpanded"
        ),
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


# SHA-256 of `save_structure` output (cache version 3) for the benchmark
# suite.  Each file equals the version-2 payload recorded from the all-pairs
# explorer with its letter tables and edge indices dropped, so a match proves
# the same vector order and ids, child offsets and flags; the letters are
# checked where `edge_matrix` derives them.
SUITE_CACHE_SHA256 = {
    "table_87": "705546258461e51637072843f8a4ae0821b38f28175ca91a4cc8f05792bfbd5e",
    "cantor_4_9": "83d50d6e235106434609c9f604ff98023f847ca2e9b751f9216966179b9fa8e6",
    "convolution_3_8": "eeb5b7f5a96801610b7cd80e2f91ffd786f749c94640a6efd8dd75fb80200c71",
    "golden_third": "b73856596791f52fce831f2d9a0bd7ecd6f1b38f6305b4d193c9e358bc9b4823",
    "tribonacci_third": "01bab4354e831eb16fc88c70db2650bdc5f72f6b0e2e4d2be1f23d89ee6ecbf5",
    "quadratic_ninth": "55e800a147f95b51ef29e16cace1f7e8dc101e9ad01baa0a930fc792e58102cd",
}


@pytest.mark.parametrize("name", sorted(SUITE_CACHE_SHA256))
def test_suite_cache_bytes_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import SYSTEMS

    system = build_system(parse_config(SYSTEMS[name]))
    path = tmp_path / "cache.json"
    save_structure(str(path), explore(system))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_CACHE_SHA256[name]
