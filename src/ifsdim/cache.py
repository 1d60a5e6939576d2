"""Save and reload explored structures.

The cache is compact JSON holding only geometry, as flat lists (columns).
Each distinct field element is written once, as its coefficient strings,
in the `"elements"` table; element columns hold indices into it:

    per reduced vector  length (element), level, neighbour_count, child_count
    per neighbour       neighbours (element), vector by vector
    per child record    child (full id), offset (element), gap_before,
                        abuts_left, abuts_right, vector by vector
    per full vector     full_reduced (reduced id), sibling

The loader checks each column once with C-level builtins: a list of the
right length, `set(map(type, column))` only int (only bool for the flags,
so no bool, float or string passes as an id), `min` and `max` in range,
and counts that add up to the lengths of the flat lists; every vector has
a child.  Duplicate vectors are found on int keys, each element index
first replaced by that of the first equal element, so a repeated table
entry cannot hide one.  Anything else raises CacheError.  Letters are not
stored: `edge_matrix` derives the few a command reads.  A version stamp
and a fingerprint of the defining system guard against stale or
mismatched files; a cache never overrides the config it is loaded for.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import accumulate, chain

from .ifs import IFSSystem
from .net import ChildRecord, FiniteTypeStructure, FullVector, ReducedVector

CACHE_VERSION = 5


class CacheError(RuntimeError):
    """The cache file is unreadable, stale, for another system, or cannot be written."""


def _coeffs_out(element) -> list[str]:
    return [str(c) for c in element.coeffs]


def _coeffs_in(ctx, raw) -> "FieldElement":
    """The element with coefficient strings `raw`.

    Anything but a list of one string per field coefficient is a
    CacheError: a string would pass as the list of its characters,
    `Fraction` takes a float as its binary value, and `ctx.element` pads a
    short list.
    """
    if type(raw) is not list:
        raise CacheError(f"cache coefficients are not a list: {raw!r}")
    if len(raw) != ctx.degree or not all(type(c) is str for c in raw):
        raise CacheError(f"cache coefficients are not {ctx.degree} strings: {raw!r}")
    return ctx.element([Fraction(c) for c in raw])


def system_fingerprint(system: IFSSystem) -> dict:
    return {
        "minpoly": list(system.context.minpoly_int),
        "root_index": system.context.root_index(),
        "translations": [_coeffs_out(t) for t in system.translations],
        "probabilities": None
        if system.probabilities is None
        else [str(p) for p in system.probabilities],
    }


def save_structure(path: str, structure: FiniteTypeStructure) -> None:
    """Write a saturated `structure` to `path`, replacing the file atomically."""
    index: dict = {}

    def refs(elements) -> list[int]:
        """The positions of `elements` in the element table, adding new ones."""
        return [index.setdefault(element, len(index)) for element in elements]

    reduced = structure.reduced
    edges = [rec for vec in reduced for rec in vec.children]
    payload = {
        "cache_version": CACHE_VERSION,
        "fingerprint": system_fingerprint(structure.system),
        "root_full": structure.root_full,
        "saturated": structure.saturated,
        "levels_explored": structure.levels_explored,
        "length": refs(vec.length for vec in reduced),
        "level": [vec.level for vec in reduced],
        "neighbour_count": [len(vec.neighbours) for vec in reduced],
        "neighbours": refs(v for vec in reduced for v in vec.neighbours),
        "child_count": [len(vec.children) for vec in reduced],
        "child": [rec.child for rec in edges],
        "offset": refs(rec.offset for rec in edges),
        "gap_before": [rec.gap_before for rec in edges],
        "abuts_left": [rec.abuts_left for rec in edges],
        "abuts_right": [rec.abuts_right for rec in edges],
        "full_reduced": [f.reduced for f in structure.fulls],
        "sibling": [f.sibling_index for f in structure.fulls],
    }
    payload["elements"] = [_coeffs_out(element) for element in index]
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

    Raises CacheError when the file does not parse, carries a different
    cache version, fingerprints a different system, fails a column check,
    lists a vector twice, or is not saturated.  `cli` saves only saturated
    structures, so an unsaturated one is stale.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
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


def _column(payload: dict, name: str, kind: type, size: int | None, lo=None, hi=None) -> list:
    """`payload[name]`, checked: `size` values (any for None) of type `kind` in [lo, hi)."""
    col = payload[name]
    if type(col) is not list or size is not None and len(col) != size:
        raise CacheError(f"cache column {name} is not a list of {size} entries")
    if not set(map(type, col)) <= {kind}:
        raise CacheError(f"cache column {name} holds a value that is not {kind.__name__}")
    if col and (lo is not None and min(col) < lo or hi is not None and max(col) >= hi):
        raise CacheError(f"cache {name} id out of range: {min(col)!r}..{max(col)!r}")
    return col


def _split(flat: list, counts: list[int]) -> list[list]:
    """`flat` cut into consecutive slices of `counts` entries each."""
    ends = list(accumulate(counts))
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _structure_from(payload: dict, system: IFSSystem) -> FiniteTypeStructure:
    """The structure that `payload` describes, built column by column."""
    ctx = system.context
    elements = [_coeffs_in(ctx, raw) for raw in payload["elements"]]
    element_count = len(elements)
    length = _column(payload, "length", int, None, 0, element_count)
    count = len(length)
    level = _column(payload, "level", int, count)
    neighbour_count = _column(payload, "neighbour_count", int, count, 0)
    child_count = _column(payload, "child_count", int, count, 1)
    neighbours = _column(payload, "neighbours", int, sum(neighbour_count), 0, element_count)
    full_reduced = _column(payload, "full_reduced", int, None, 0, count)
    full_count = len(full_reduced)
    sibling = _column(payload, "sibling", int, full_count)
    edges = sum(child_count)
    child = _column(payload, "child", int, edges, 0, full_count)
    offset = _column(payload, "offset", int, edges, 0, element_count)
    flags = [_column(payload, f, bool, edges) for f in ("gap_before", "abuts_left", "abuts_right")]
    first: dict = {}
    canon = [first.setdefault(element, i) for i, element in enumerate(elements)]
    canon_neighbours = _split([canon[v] for v in neighbours], neighbour_count)
    if len(set(zip(map(canon.__getitem__, length), map(tuple, canon_neighbours)))) != count:
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
    element_at = elements.__getitem__
    edge_index = chain.from_iterable(map(range, child_count))
    records = list(map(ChildRecord, child, map(element_at, offset), edge_index, *flags))
    vector_neighbours = map(tuple, _split(list(map(element_at, neighbours)), neighbour_count))
    children = _split(records, child_count)
    structure = FiniteTypeStructure(system)
    structure.reduced = list(
        map(ReducedVector, map(element_at, length), vector_neighbours, level, children)
    )
    structure.fulls = list(map(FullVector, full_reduced, sibling))
    structure.root_full = root
    structure.saturated = True
    structure.levels_explored = payload["levels_explored"]
    return structure
