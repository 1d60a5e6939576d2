"""Tests for saving and reloading explored structures."""

import json
from fractions import Fraction

import pytest

from ifsdim.cache import (
    CACHE_VERSION,
    CacheError,
    load_structure,
    save_structure,
    system_fingerprint,
)
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
                    rec.letters,
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
