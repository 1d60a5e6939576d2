"""Save and reload explored structures.

The cache is compact JSON holding only geometry: the columns of
`net.FiniteTypeStructure`, with per-vector `neighbour_count` and
`child_count` in place of its prefix sums.  Each distinct field element
is written once, as its coefficient strings (`n` or `n/d`, as
`str(Fraction)` writes them), in the `"elements"` table, numbered in the
order the length, neighbours and offset columns first use them.  Since
version 6 each integer column is one string, the hex of its values as
little-endian int32 (`[1, -1]` is `"01000000ffffffff"`), and each flag
column the hex of one 0 or 1 byte per edge, so a load parses a dozen
strings instead of about 40,000 JSON numbers.

The loader checks each column once with C-level builtins: a string of
exactly two hex digits per byte, the right number of bytes, `min` and
`max` in range, and counts that add up to the lengths of the flat lists;
every vector has a child, and every flag byte is 0 or 1.  A column is
decoded as a typed `array`, so each value is an int by construction: the
per-value type check of version 5, which kept bools, floats and strings
out of the id lists, has nothing left to catch.  When an element value is
listed twice, each element index is replaced by that of the first equal
element, so ids are canonical and a repeated table entry cannot hide a
duplicate vector, found on int keys.  Anything else raises CacheError.
The structure then adopts the decoded columns as plain lists: a load
builds no object per vector or per edge.  Letters are not stored:
`edge_matrix` derives the few a command reads.  A version stamp and a
fingerprint of the defining system guard against stale or mismatched
files (a version-5 file is unusable); a cache never overrides the config
it is loaded for.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from fractions import Fraction
from itertools import accumulate

from .ifs import IFSSystem
from .net import FiniteTypeStructure

CACHE_VERSION = 6

_FLAG_COLUMNS = ("gap_before", "abuts_left", "abuts_right")


class CacheError(RuntimeError):
    """The cache file is unreadable, stale, for another system, or cannot be written."""


def _coeffs_out(element) -> list[str]:
    return [str(c) for c in element.coeffs]


def _rational_in(text: str) -> Fraction:
    """The rational that `str(Fraction)` writes as `text`: "2/4", " 1", "1_0"
    or "+1", which `int` and `Fraction` would take, do not read back as
    themselves, and "1.5" is a ValueError, so the loader rejects each."""
    num, slash, den = text.partition("/")
    value = Fraction(int(num), int(den)) if slash else Fraction(int(num))
    if str(value) != text:
        raise CacheError(f"cache coefficient is not a reduced fraction: {text!r}")
    return value


def _coeffs_in(ctx, raw) -> "FieldElement":
    """The element with coefficient strings `raw`.

    Anything but a list of one string per field coefficient is a
    CacheError: a string would pass as the list of its characters, and
    `ctx.element` pads a short list.
    """
    if type(raw) is not list:
        raise CacheError(f"cache coefficients are not a list: {raw!r}")
    if len(raw) != ctx.degree or not all(type(c) is str for c in raw):
        raise CacheError(f"cache coefficients are not {ctx.degree} strings: {raw!r}")
    return ctx.element(list(map(_rational_in, raw)))


def system_fingerprint(system: IFSSystem) -> dict:
    return {
        "minpoly": list(system.context.minpoly_int),
        "root_index": system.context.root_index(),
        "translations": [_coeffs_out(t) for t in system.translations],
        "probabilities": None
        if system.probabilities is None
        else [str(p) for p in system.probabilities],
    }


def _pack(name: str, col: list[int]) -> str:
    """The hex of `col` as little-endian int32 values; CacheError for a
    value outside int32, so the cache is not written."""
    try:
        packed = array("i", col)
    except OverflowError as exc:
        raise CacheError(f"cache column {name} holds a value outside int32: {exc}") from exc
    if sys.byteorder == "big":
        packed.byteswap()
    return packed.tobytes().hex()


def save_structure(path: str, structure: FiniteTypeStructure) -> None:
    """Write a saturated `structure` to `path`, replacing the file atomically."""
    index: dict[int, int] = {}

    def refs(ids: list[int]) -> list[int]:
        """`ids` renumbered in the order of first use over all element columns."""
        return [index.setdefault(vid, len(index)) for vid in ids]

    def counts(starts: list[int]) -> list[int]:
        return [b - a for a, b in zip(starts, starts[1:])]

    s = structure
    columns = {
        "length": refs(s.length),
        "level": s.level,
        "neighbour_count": counts(s.neighbour_start),
        "neighbours": refs(s.neighbours),
        "child_count": counts(s.edge_start),
        "child": s.child,
        "offset": refs(s.offset),
        "full_reduced": s.full_reduced,
        "sibling": s.sibling,
    }
    payload = {name: _pack(name, col) for name, col in columns.items()}
    payload.update({name: bytes(getattr(s, name)).hex() for name in _FLAG_COLUMNS})
    payload.update(
        cache_version=CACHE_VERSION,
        fingerprint=system_fingerprint(s.system),
        root_full=s.root_full,
        saturated=s.saturated,
        levels_explored=s.levels_explored,
        # ids are canonical, so this is the order in which the values are first used
        elements=[_coeffs_out(s.elements[vid]) for vid in index],
    )
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise CacheError(f"cannot write cache {path}: {exc.strerror or exc}") from exc


def load_structure(path: str, system: IFSSystem) -> FiniteTypeStructure:
    """Rebuild a structure for `system` from a cache written earlier.

    Raises CacheError when the file is not UTF-8 JSON (or nests too deep
    to parse), carries a different cache version, fingerprints a different
    system, fails a column check, lists a vector twice, or is not
    saturated.  `cli` saves only saturated structures, so an unsaturated
    one is stale.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CacheError(f"cache {path} is not a JSON object")
    if payload.get("cache_version") != CACHE_VERSION:
        raise CacheError(f"cache version {payload.get('cache_version')} != {CACHE_VERSION}")
    if payload.get("fingerprint") != system_fingerprint(system):
        raise CacheError("cache was written for a different system")
    try:
        return _structure_from(payload, system)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CacheError(f"malformed cache {path}: {exc!r}") from exc


def _hex_bytes(payload: dict, name: str, width: int, size: int | None) -> bytes:
    """The bytes that `payload[name]` writes in hex, two digits each: `size`
    values of `width` bytes (any whole number of values for None)."""
    text = payload[name]
    if type(text) is not str:
        raise CacheError(f"cache column {name} is not a hex string")
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise CacheError(f"cache column {name} is not hex: {exc}") from exc
    count = len(raw) // width if size is None else size
    # fromhex skips whitespace, so two digits per byte also rules that out
    if 2 * len(raw) != len(text) or len(raw) != count * width:
        raise CacheError(f"cache column {name} is not {count} values of {width} bytes in hex")
    return raw


def _column(payload: dict, name: str, size: int | None, lo=None, hi=None) -> list:
    """`payload[name]` decoded: `size` int32 values (any number for None) in [lo, hi).

    A column with lo = 0 is read as unsigned, where a negative value reads
    as 2^31 or more, so one `max` pass checks both bounds.
    """
    unsigned = lo == 0
    packed = array("I" if unsigned else "i", _hex_bytes(payload, name, 4, size))
    if sys.byteorder == "big":
        packed.byteswap()
    col = packed.tolist()
    if unsigned:
        lo, hi = None, 2**31 if hi is None else hi
    if col and (lo is not None and min(col) < lo or hi is not None and max(col) >= hi):
        raise CacheError(f"cache {name} id out of range: {min(col)!r}..{max(col)!r}")
    return col


def _flags(payload: dict, name: str, size: int) -> list:
    """`payload[name]` decoded: `size` bools, each written as a 0 or 1 byte."""
    raw = _hex_bytes(payload, name, 1, size)
    if raw.translate(None, b"\0\1"):
        raise CacheError(f"cache column {name} holds a flag byte that is not 0 or 1")
    return list(map(bool, raw))


def _structure_from(payload: dict, system: IFSSystem) -> FiniteTypeStructure:
    """The structure that `payload` describes, its columns checked and adopted."""
    ctx = system.context
    elements = [_coeffs_in(ctx, raw) for raw in payload["elements"]]
    element_count = len(elements)
    length = _column(payload, "length", None, 0, element_count)
    count = len(length)
    level = _column(payload, "level", count)
    neighbour_count = _column(payload, "neighbour_count", count, 0)
    child_count = _column(payload, "child_count", count, 1)
    neighbours = _column(payload, "neighbours", sum(neighbour_count), 0, element_count)
    full_reduced = _column(payload, "full_reduced", None, 0, count)
    full_count = len(full_reduced)
    sibling = _column(payload, "sibling", full_count)
    edges = sum(child_count)
    child = _column(payload, "child", edges, 0, full_count)
    offset = _column(payload, "offset", edges, 0, element_count)
    flags = [_flags(payload, name, edges) for name in _FLAG_COLUMNS]
    first: dict = {}
    canon = [first.setdefault(element, i) for i, element in enumerate(elements)]
    if len(first) < element_count:  # with no value repeated, each id is canonical already
        length, neighbours, offset = (
            list(map(canon.__getitem__, col)) for col in (length, neighbours, offset)
        )
    neighbour_start = [0, *accumulate(neighbour_count)]
    vectors = [tuple(neighbours[a:b]) for a, b in zip(neighbour_start, neighbour_start[1:])]
    if len(set(zip(length, vectors))) != count:
        raise CacheError("cache lists duplicate reduced vectors")
    if len(set(zip(full_reduced, sibling))) != full_count:
        raise CacheError("cache lists duplicate full vectors")
    root = payload["root_full"]
    if type(root) is not int or not 0 <= root < full_count:
        raise CacheError(f"cache root id out of range: {root!r}")
    if payload["saturated"] is not True:
        raise CacheError("cache holds a structure that is not saturated")
    if type(payload["levels_explored"]) is not int:
        raise CacheError("cache explored depth is not an integer")
    s = FiniteTypeStructure(system)
    s.elements, s.length, s.level, s.neighbours = elements, length, level, neighbours
    s.neighbour_start, s.edge_start = neighbour_start, [0, *accumulate(child_count)]
    s.child, s.offset, s.full_reduced, s.sibling = child, offset, full_reduced, sibling
    s.gap_before, s.abuts_left, s.abuts_right = flags
    s.root_full, s.saturated, s.levels_explored = root, True, payload["levels_explored"]
    return s
