"""Save and reload explored structures.

The cache is compact JSON holding only geometry: the reduced vectors with
their child records, and the full vectors.  Each distinct field element is
written once, as its coefficient strings, in the `"elements"` table, and
every record refers to elements by their index there:

    reduced vector  [length, [neighbour, ...], level, [child record, ...] | null]
    child record    [child full id, offset, gap_before, abuts_left, abuts_right]
    full vector     [reduced id, sibling index]

A table repeats few values (59 distinct elements among the 26,760 of
x/3 + {0, 2/87, 2/3}), so the loader decodes each once.  It then walks
the records once, checking each id where it reads it (an int, not a bool,
in range of the table it indexes) and raising CacheError for anything
else, and builds each child record directly from its row.  Letters are not
stored: a command reads a few edges, and `matrices.edge_matrix` derives
theirs more cheaply than every edge's could be written and parsed.  A
version stamp plus a fingerprint of the defining system guard against
stale or mismatched files; a cache never overrides the config it is loaded
for.  A file of an older version is reported unusable.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .ifs import IFSSystem
from .net import ChildRecord, FiniteTypeStructure

CACHE_VERSION = 4


class CacheError(RuntimeError):
    """The cache file is unreadable, stale, belongs to another system, or
    cannot be written."""


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
    out = {
        "minpoly": list(system.context.minpoly_int),
        "root_index": system.context.root_index(),
        "translations": [_coeffs_out(t) for t in system.translations],
        "probabilities": None
        if system.probabilities is None
        else [str(p) for p in system.probabilities],
    }
    return out


def save_structure(path: str, structure: FiniteTypeStructure) -> None:
    index: dict = {}

    def ref(element) -> int:
        """The position of `element` in the element table, added when new."""
        return index.setdefault(element, len(index))

    reduced = []
    for vec in structure.reduced:
        entry = [ref(vec.length), [ref(v) for v in vec.neighbours], vec.level, None]
        if vec.children is not None:
            entry[3] = [
                [rec.child, ref(rec.offset), rec.gap_before, rec.abuts_left, rec.abuts_right]
                for rec in vec.children
            ]
        reduced.append(entry)
    payload = {
        "cache_version": CACHE_VERSION,
        "fingerprint": system_fingerprint(structure.system),
        "elements": [_coeffs_out(element) for element in index],
        "root_full": structure.root_full,
        "saturated": structure.saturated,
        "levels_explored": structure.levels_explored,
        "reduced": reduced,
        "fulls": [[f.reduced, f.sibling_index] for f in structure.fulls],
    }
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
    cache version, fingerprints a different system, holds a record of the
    wrong length, a wrongly typed field or an id out of range, or is not
    saturated, or claims saturation while a vector has no child records.
    `cli` saves only saturated structures, so an unsaturated one is stale.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CacheError(f"cache {path} is not a JSON object")
    if payload.get("cache_version") != CACHE_VERSION:
        raise CacheError(
            f"cache version {payload.get('cache_version')} != {CACHE_VERSION}"
        )
    if payload.get("fingerprint") != system_fingerprint(system):
        raise CacheError("cache was written for a different system")
    try:
        return _structure_from(payload, system)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CacheError(f"malformed cache {path}: {exc!r}") from exc


def _bad_id(what: str, value) -> CacheError:
    return CacheError(f"cache {what} id out of range: {value!r}")


def _structure_from(payload: dict, system: IFSSystem) -> FiniteTypeStructure:
    """The structure that `payload` describes.

    Each id check is written out where the id is read, not behind a helper
    call: a table of 2280 vectors holds about 37,000 ids.
    """
    ctx = system.context
    elements = [_coeffs_in(ctx, raw) for raw in payload["elements"]]
    element_count = len(elements)
    rows = payload["reduced"]
    structure = FiniteTypeStructure(system)
    for idx, (length, neighbours, level, _) in enumerate(rows):
        if type(level) is not int:
            raise CacheError("cache vector level is not an integer")
        if type(length) is not int or not 0 <= length < element_count:
            raise _bad_id("element", length)
        for v in neighbours:
            if type(v) is not int or not 0 <= v < element_count:
                raise _bad_id("element", v)
        rid, fresh = structure.register_reduced(
            elements[length], tuple([elements[v] for v in neighbours]), level
        )
        if rid != idx or not fresh:
            raise CacheError("cache lists duplicate reduced vectors")
    reduced_count = len(structure.reduced)
    for idx, (rid, sibling) in enumerate(payload["fulls"]):
        if type(rid) is not int or not 0 <= rid < reduced_count:
            raise _bad_id("reduced", rid)
        if type(sibling) is not int:
            raise CacheError("cache sibling index is not an integer")
        if structure.register_full(rid, sibling) != idx:
            raise CacheError("cache lists duplicate full vectors")
    full_count = len(structure.fulls)
    for vec, (_, _, _, children) in zip(structure.reduced, rows):
        if children is None:
            continue
        records = []
        for edge_index, (child, offset, gap, left, right) in enumerate(children):
            if type(child) is not int or not 0 <= child < full_count:
                raise _bad_id("child", child)
            if type(offset) is not int or not 0 <= offset < element_count:
                raise _bad_id("element", offset)
            if not (type(gap) is type(left) is type(right) is bool):
                raise CacheError("cache child flags are not booleans")
            records.append(ChildRecord(child, elements[offset], edge_index, gap, left, right))
        vec.children = records
    root = payload["root_full"]
    if type(root) is not int or not 0 <= root < full_count:
        raise _bad_id("root", root)
    structure.root_full = root
    if payload["saturated"] is not True:
        raise CacheError("cache holds a structure that is not saturated")
    if type(payload["levels_explored"]) is not int:
        raise CacheError("cache explored depth is not an integer")
    if any(vec.children is None for vec in structure.reduced):
        raise CacheError("saturated cache holds a vector that was never expanded")
    structure.saturated = True
    structure.levels_explored = payload["levels_explored"]
    return structure
