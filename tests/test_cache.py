"""Tests for saving and reloading explored structures."""

import copy
import gc
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ifsdim.cache import (
    CACHE_VERSION,
    CacheError,
    _pack,
    load_structure,
    save_structure,
    system_fingerprint,
)
from ifsdim.config import build_system, parse_config
from ifsdim.field import FieldContext
from ifsdim.ifs import bernoulli_simple_pisot, build_ifs, cantor_like
from ifsdim.net import explore

import oracle_helpers as oh


def test_round_trip_preserves_structure(
    tmp_path, six_map_quarter, six_map_quarter_structure
):
    path = str(tmp_path / "cache.json")
    orig = six_map_quarter_structure
    save_structure(path, orig)
    loaded = load_structure(path, six_map_quarter)
    assert loaded.reduced_count == orig.reduced_count
    assert loaded.full_count == orig.full_count
    assert loaded.root_full == orig.root_full
    assert loaded.saturated == orig.saturated
    assert loaded.levels_explored == orig.levels_explored
    assert loaded.edge_count() == orig.edge_count()
    for rid in range(orig.reduced_count):
        assert oh.reduced_signature(loaded, rid) == oh.reduced_signature(orig, rid)
        assert loaded.level[rid] == orig.level[rid]
        assert oh.reduced_records(loaded, rid) == oh.reduced_records(orig, rid)
    assert loaded.full_reduced == orig.full_reduced
    assert loaded.sibling == orig.sibling


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
    payload = oh.read_unpacked(path)
    payload["full_reduced"][1] = bad_id
    oh.write_packed(path, payload)
    with pytest.raises(CacheError, match="reduced id out of range"):
        load_structure(str(path), six_map_quarter)


def _set_offset(payload, raw):
    """Replace the element-table entry of the first child's offset."""
    payload["elements"][payload["offset"][0]] = raw


def _set(name, position, value):
    """A spoiler that puts `value` at `position` of column `name`; a callable
    `value` is called on the payload first."""

    def spoil(payload):
        payload[name][position] = value(payload) if callable(value) else value

    return spoil


def _duplicate_full(payload):
    for name in oh.FULL_COLUMNS:
        payload[name].append(payload[name][-1])


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(lambda p: p.pop("abuts_right"), id="missing-key"),
        pytest.param(_set("child", 0, "0"), id="child-as-text"),
        pytest.param(_set("child", 0, 1.0), id="child-as-float"),
        pytest.param(_set("gap_before", 0, 1), id="flag-as-int"),
        pytest.param(lambda p: _set_offset(p, 5), id="offset-not-a-list"),
        pytest.param(lambda p: _set_offset(p, "0"), id="offset-as-text"),
        pytest.param(lambda p: _set_offset(p, [0.5]), id="offset-as-float"),
        pytest.param(lambda p: _set_offset(p, []), id="offset-too-short"),
        pytest.param(lambda p: _set_offset(p, ["x"]), id="offset-not-a-number"),
        pytest.param(lambda p: _set_offset(p, ["1/0"]), id="offset-over-0"),
        # a coefficient must read back as itself through `str(Fraction)`
        pytest.param(lambda p: _set_offset(p, ["2/4"]), id="offset-unreduced"),
        pytest.param(lambda p: _set_offset(p, [" 1"]), id="offset-with-space"),
        pytest.param(lambda p: _set_offset(p, ["1_0"]), id="offset-with-underscore"),
        pytest.param(lambda p: _set_offset(p, ["+1"]), id="offset-with-plus"),
        pytest.param(lambda p: _set_offset(p, ["1.5"]), id="offset-as-decimal"),
        pytest.param(lambda p: _set_offset(p, ["1/-2"]), id="offset-negative-denominator"),
        pytest.param(lambda p: p.update(root_full=0.0), id="root-as-float"),
        pytest.param(_set("full_reduced", 1, True), id="reduced-id-as-bool"),
        pytest.param(lambda p: p.pop("child"), id="missing-children"),
        pytest.param(_set("level", 0, "0"), id="level-as-text"),
        pytest.param(_set("sibling", 1, None), id="sibling-as-null"),
        pytest.param(lambda p: p.update(saturated=0), id="saturated-as-int"),
        pytest.param(lambda p: p.update(saturated=False), id="saturated-false"),
        pytest.param(lambda p: p.update(levels_explored="many"), id="depth-as-text"),
        pytest.param(lambda p: oh.drop_children(p, 2), id="saturated-but-unexpanded"),
        pytest.param(lambda p: p.update(elements={}), id="elements-not-a-list"),
        pytest.param(lambda p: p.update(neighbours=0), id="neighbours-not-a-list"),
        pytest.param(_set("length", 0, -1), id="length-id-minus-one"),
        pytest.param(
            _set("neighbours", 1, lambda p: len(p["elements"])), id="neighbour-id-past-end"
        ),
        pytest.param(_set("offset", 0, -1), id="offset-id-minus-one"),
        pytest.param(_set("offset", 0, lambda p: len(p["elements"])), id="offset-id-past-end"),
        pytest.param(_set("offset", 0, True), id="offset-id-as-bool"),
        pytest.param(_set("length", 0, 0.0), id="length-id-as-float"),
        pytest.param(_set("child", 0, True), id="child-id-as-bool"),
        pytest.param(_set("child", 0, -1), id="child-id-minus-one"),
        pytest.param(_set("child", 0, lambda p: len(p["sibling"])), id="child-id-past-end"),
        pytest.param(_set("neighbours", 1, True), id="neighbour-id-as-bool"),
        pytest.param(_duplicate_full, id="duplicate-full"),
        pytest.param(
            _set("neighbour_count", 0, lambda p: p["neighbour_count"][0] + 1),
            id="neighbour-count-past-list",
        ),
        pytest.param(
            _set("child_count", 1, lambda p: p["child_count"][1] - 1),
            id="child-count-short-of-list",
        ),
        pytest.param(lambda p: p["abuts_left"].pop(), id="edge-columns-unequal"),
        pytest.param(lambda p: p["level"].append(0), id="vector-columns-unequal"),
        pytest.param(lambda p: p["sibling"].pop(), id="full-columns-unequal"),
        pytest.param(lambda p: oh.append_vector_copy(p, 1), id="duplicate-reduced"),
        pytest.param(
            lambda p: oh.append_vector_copy(p, 1, fresh_elements=True),
            id="duplicate-reduced-behind-repeated-elements",
        ),
    ],
)
def test_malformed_record_raises(tmp_path, six_map_quarter, six_map_quarter_structure, spoil):
    path = tmp_path / "cache.json"
    save_structure(str(path), six_map_quarter_structure)
    payload = oh.read_unpacked(path)
    spoil(payload)
    oh.write_packed(path, payload)
    with pytest.raises(CacheError):
        load_structure(str(path), six_map_quarter)


def _splice(name, start, stop, text):
    """A spoiler that puts `text` in place of hex digits [start, stop) of the
    packed column `name`."""

    def spoil(payload):
        packed = payload[name]
        payload[name] = packed[:start] + text + packed[stop:]

    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(_splice("child", 0, 0, "0"), id="odd-length-hex"),
        pytest.param(_splice("child", 0, 1, "g"), id="non-hex-digit"),
        pytest.param(_splice("neighbours", 0, 1, "\u0660"), id="non-ascii-digit"),
        pytest.param(_splice("length", 8, 8, " "), id="hex-with-space"),
        pytest.param(_splice("length", 0, 2, ""), id="byte-count-not-a-multiple-of-4"),
        pytest.param(_splice("gap_before", 0, 2, "02"), id="flag-byte-2"),
        pytest.param(
            lambda p: p.update(child=oh.unpack_columns(p)["child"]), id="column-as-json-list"
        ),
        pytest.param(
            lambda p: p.update(gap_before=oh.unpack_columns(p)["gap_before"]),
            id="flags-as-json-list",
        ),
        pytest.param(lambda p: p.update(child=0), id="column-as-int"),
    ],
)
def test_malformed_packing_raises(tmp_path, six_map_quarter, six_map_quarter_structure, spoil):
    path = tmp_path / "cache.json"
    save_structure(str(path), six_map_quarter_structure)
    payload = json.loads(path.read_text(encoding="utf-8"))
    spoil(payload)
    with pytest.raises(CacheError):
        oh.reference_load(payload, six_map_quarter)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CacheError):
        load_structure(str(path), six_map_quarter)


def test_packed_byte_layout_is_pinned():
    # little-endian int32 on every host; the helper packs as the package does
    values = [1, -1, 2**31 - 1]
    assert _pack("level", values) == "01000000ffffffffffffff7f"
    packed = oh.pack_columns({"level": values, "gap_before": [True, False]})
    assert packed == {"level": "01000000ffffffffffffff7f", "gap_before": "0100"}


@pytest.mark.parametrize("value", [2**31, -(2**31) - 1])
def test_a_value_outside_int32_is_not_written(tmp_path, six_map_quarter_structure, value):
    structure = copy.copy(six_map_quarter_structure)
    structure.level = [value, *structure.level[1:]]
    path = tmp_path / "cache.json"
    with pytest.raises(CacheError, match="level holds a value outside int32"):
        save_structure(str(path), structure)
    assert list(tmp_path.iterdir()) == []


def test_an_element_written_twice_is_one_value(
    tmp_path, six_map_quarter, six_map_quarter_structure
):
    # the loader compares elements by value: a copied table entry that no
    # other vector repeats loads to the same structure
    path = tmp_path / "cache.json"
    save_structure(str(path), six_map_quarter_structure)
    payload = oh.read_unpacked(path)
    payload["elements"].append(payload["elements"][payload["length"][1]])
    payload["length"][1] = len(payload["elements"]) - 1
    oh.write_packed(path, payload)
    loaded = load_structure(str(path), six_map_quarter)
    assert oh.structure_layout(loaded) == oh.structure_layout(six_map_quarter_structure)
    assert_canonical_ids(loaded)


def assert_canonical_ids(structure):
    """Two element ids the columns use are equal exactly when their values are."""
    used = {*structure.length, *structure.neighbours, *structure.offset}
    assert len({tuple(structure.elements[vid].coeffs) for vid in used}) == len(used)


INTEGER_COLUMNS = (
    "length", "level", "neighbour_start", "neighbours", "edge_start", "child", "offset",
    "gap_before", "abuts_left", "abuts_right", "full_reduced", "sibling",
)


def assert_columns_agree(path, structure, reference=True):
    """The columns of `structure` from `explore`, of the structure its cache
    loads to, and, unless `reference` is False, of `oh.reference_explore`
    are the same; the cache holds them in the order of first use."""
    save_structure(str(path), structure)
    payload = oh.read_unpacked(path)
    loaded = load_structure(str(path), structure.system)
    layout = oh.structure_layout(structure)
    assert oh.structure_layout(loaded) == layout
    if reference:
        assert oh.structure_layout(oh.reference_explore(structure.system)) == layout
    written = {name: payload[name] for name in layout if name != "elements"}
    written["elements"] = [tuple(map(Fraction, raw)) for raw in payload["elements"]]
    assert written == layout
    # the loaded ids are the cache's: its elements are numbered by first use too
    for name in INTEGER_COLUMNS:
        assert getattr(loaded, name) == layout.get(name, getattr(structure, name)), name
    # the flags load as bools, as `explore` makes them, not as their 0 or 1 bytes
    assert {type(v) for name in oh.FLAG_COLUMNS for v in getattr(loaded, name)} <= {bool}
    assert_canonical_ids(structure)
    assert_canonical_ids(loaded)


@pytest.mark.parametrize(
    "name",
    [
        "six_map_quarter", "zero_row_third", "eight_map_twelfths", "cantor_4_9",
        "convolution_3_8", "table_87", "cantor_3_4_skewed", "gap_system", "golden_half",
        "golden_third", "tribonacci_third", "quadratic_ninth",
    ],
)
def test_explored_loaded_and_reference_columns_agree(request, tmp_path, name):
    system = request.getfixturevalue(name)
    structure = (
        request.getfixturevalue(name + "_structure") if name != "convolution_3_8"
        else explore(system)
    )
    # the memo-free reference takes about 14 s on the 2280 vectors of table_87
    assert_columns_agree(tmp_path / "cache.json", structure, reference=name != "table_87")


def test_columns_agree_on_random_family_draws(tmp_path):
    rng = random.Random(30)
    systems = []
    for _ in range(8):
        d = rng.randint(2, 5)
        systems.append(cantor_like(d, rng.randint(d, 11)))
    for _ in range(4):
        p = Fraction(rng.randint(1, 9), 10)
        systems.append(bernoulli_simple_pisot(rng.choice((2, 3)), p))
    for system in systems:
        assert_columns_agree(tmp_path / "cache.json", explore(system))


def test_a_loaded_table_holds_no_object_per_vector(tmp_path, table_87, table_87_structure):
    # a table held as records took 17,292 objects for its 2280 vectors and 7267 edges
    path = str(tmp_path / "cache.json")
    save_structure(path, table_87_structure)
    gc.collect()
    before = len(gc.get_objects())
    loaded = load_structure(path, table_87)
    gc.collect()
    assert len(gc.get_objects()) - before < 1000
    assert loaded.reduced_count == 2280


# what a past-the-end id is for each column: the length of the table it indexes
_INDEXED = {
    "length": "elements",
    "neighbours": "elements",
    "offset": "elements",
    "child": "sibling",
    "full_reduced": "length",
}


def _spoil_at_random(payload, rng):
    """Spoil one value of `payload` and say how: a bool, a float, a string,
    -1 or a past-the-end id in a random column, a changed count, or a
    duplicated row."""
    kind = rng.randrange(4)
    if kind == 0:
        name = rng.choice(oh.REDUCED_COLUMNS + oh.EDGE_COLUMNS + oh.FULL_COLUMNS + ("neighbours",))
        position = rng.randrange(len(payload[name]))
        value = rng.choice([True, 0.0, "0", -1, len(payload[_INDEXED.get(name, name)])])
        payload[name][position] = value
        return f"{name}[{position}] = {value!r}"
    if kind == 1:
        name = rng.choice(["neighbour_count", "child_count"])
        counts = payload[name]
        i, j = rng.randrange(len(counts)), rng.randrange(len(counts))
        counts[i] += 1
        if rng.random() < 0.5:
            counts[j] -= 1  # the sum stays, so the lists split elsewhere
        return f"{name}: +1 at {i}, -1 at {j} or nowhere"
    if kind == 2:
        rid = rng.randrange(len(payload["length"]))
        fresh = rng.random() < 0.5
        oh.append_vector_copy(payload, rid, fresh_elements=fresh)
        return f"vector {rid} copied, fresh elements {fresh}"
    names = rng.choice([oh.FULL_COLUMNS, oh.EDGE_COLUMNS])
    position = rng.randrange(len(payload[names[0]]))
    for name in names:
        payload[name].insert(position, payload[name][position])
    return f"row {position} of {names[0]} duplicated"


@pytest.mark.parametrize("name", ["six_map_quarter", "golden_third"])
def test_column_loader_agrees_with_the_record_loader(request, tmp_path, name):
    system = request.getfixturevalue(name)
    path = tmp_path / "cache.json"
    save_structure(str(path), request.getfixturevalue(name + "_structure"))
    text = path.read_text(encoding="utf-8")
    rng = random.Random(27)
    outcomes = []
    for _ in range(150):
        payload = oh.unpack_columns(json.loads(text))
        how = _spoil_at_random(payload, rng)
        payload = oh.pack_columns(payload)
        try:
            expected = oh.reference_load(payload, system)
        except CacheError:
            expected = None
        path.write_text(json.dumps(payload), encoding="utf-8")
        try:
            got = load_structure(str(path), system)
        except CacheError:
            got = None
        assert (got is None) == (expected is None), how
        if got is not None:
            assert oh.structure_layout(got) == oh.structure_layout(expected), how
        outcomes.append(got is None)
    # both verdicts occur often enough for the agreement to mean something
    assert 10 <= sum(outcomes) <= 140


def _version_5_payload(payload):
    """The same structure in the version-5 layout: each column a JSON list,
    which is how `oh.unpack_columns` gives it."""
    return dict(payload, cache_version=5)


def _version_4_payload(payload):
    """The same structure in the version-4 layout: one row per reduced
    vector, with its neighbours and child records nested in it, and one
    row per full vector."""
    neighbours = iter(payload["neighbours"])
    edges = zip(*(payload[name] for name in oh.EDGE_COLUMNS))
    reduced = [
        [
            length,
            [next(neighbours) for _ in range(n)],
            level,
            [list(next(edges)) for _ in range(c)],
        ]
        for length, level, n, c in zip(*(payload[name] for name in oh.REDUCED_COLUMNS))
    ]
    kept = {"cache_version", "fingerprint", "elements", "root_full", "saturated"}
    old = {k: v for k, v in payload.items() if k in kept | {"levels_explored"}}
    fulls = [list(row) for row in zip(payload["full_reduced"], payload["sibling"])]
    return dict(old, cache_version=4, reduced=reduced, fulls=fulls)


def _version_3_payload(payload):
    """The same structure in the version-3 layout: one object per record,
    every element spelt out as its coefficient strings."""
    payload = _version_4_payload(payload)
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
    payload = oh.read_unpacked(path)
    olds = ((3, _version_3_payload), (4, _version_4_payload), (5, _version_5_payload))
    for version, old in olds:
        path.write_text(json.dumps(old(payload), indent=1, sort_keys=True) + "\n", "utf-8")
        with pytest.raises(CacheError, match=f"cache version {version} != {CACHE_VERSION}"):
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


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"\xff\xfe{", id="not-utf-8"),
        pytest.param(b"[" * 200_000, id="nested-200000-deep"),
    ],
)
def test_undecodable_file_raises(tmp_path, six_map_quarter, data):
    path = tmp_path / "cache.json"
    path.write_bytes(data)
    with pytest.raises(CacheError, match="cannot read cache"):
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


# SHA-256 of `save_structure` output (cache version 6) for the benchmark
# suite.  A pin is replaced only after the file of the new version loads to
# a `structure_layout` equal to the one loaded from the file of the version
# before, written by the code before: the same vector order and ids, lengths,
# neighbours, levels, child offsets and flags.  Each version-6 file was
# recorded so against the version-5 file, and unpacks (`oh.unpack_columns`)
# to exactly its payload but for the version stamp; the version-5 files were
# recorded against the version-4 files, which equal the version-3 files,
# which were recorded against the version-2 payloads of the all-pairs
# explorer with their letter tables and edge indices dropped.  The letters
# are checked where `edge_matrix` derives them.
SUITE_CACHE_SHA256 = {
    "table_87": "9627fe4d9f33f34a4a89b6a11b014b6b8a18a035a117e5a5b884085adeeea581",
    "cantor_4_9": "2de956287e1c45117cc9e98d4f200ffc97337d8b05c469decb746a7b97a6e418",
    "convolution_3_8": "377b89f61d803ccecb07fb255e415a413a81e7b62e228de786ba2e0e0b49f138",
    "golden_third": "097e80e02b64e044882bd77c5d352dea854cca43829b67bd0ab11f06187acd5a",
    "tribonacci_third": "6327bd29fcf4e8581ae6fc920c0f96ae3550d8b7fb19d2073b84e3f136ae76ca",
    "quadratic_ninth": "05eaae4cf049d86bf089f89c3bce2181210f672416fa275c254bf9ce0e34c8d7",
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
    assert oh.structure_layout(loaded) == oh.structure_layout(structure)


def test_degree_four_cache_bytes_are_pinned(tmp_path):
    # the one pinned cache whose field has degree above 3: rho is the root in
    # (0, 1) of x^4 + x^3 + x^2 + x - 1, the larger of its two real roots, so
    # the fingerprint holds root_index 1 from the integer Sturm chain
    system = bernoulli_simple_pisot(4, Fraction(1, 3))
    path = tmp_path / "cache.json"
    structure = explore(system)
    save_structure(str(path), structure)
    assert json.loads(path.read_text())["fingerprint"]["root_index"] == 1
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "760de95f33381abea96093b9549cd9c304c432ee62c5e54a2ae863dfe0176e53"
    )
    loaded = load_structure(str(path), system)
    assert oh.structure_layout(loaded) == oh.structure_layout(structure)
