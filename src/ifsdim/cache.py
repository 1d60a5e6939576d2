"""Save and reload explored structures.

The cache is JSON holding only geometry: the reduced vectors with their
child records, and the full vectors.  Letters are not stored: a command
reads a few edges, and `matrices.edge_matrix` derives theirs more cheaply
than every edge's could be written and parsed.  A version stamp plus a
fingerprint of the defining system guard against stale or mismatched
files; a cache never overrides the config it is loaded for.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .ifs import IFSSystem
from .net import ChildRecord, FiniteTypeStructure

CACHE_VERSION = 3


class CacheError(RuntimeError):
    """The cache file is unreadable, stale, or belongs to another system."""


def _coeffs_out(element) -> list[str]:
    return [str(c) for c in element.coeffs]


def _coeffs_in(ctx, raw, decoded: dict) -> "FieldElement":
    """The element with coefficient strings `raw`, decoded once per load.

    A table repeats few distinct coefficient lists (59 among the 26,760 of
    x/3 + {0, 2/87, 2/3}); `decoded` maps each list, as a tuple, to its
    element.  Elements are immutable, so sharing one is safe.  Anything
    but a list of one string per field coefficient is a CacheError: a
    string would pass as the list of its characters, `Fraction` takes a
    float as its binary value, and `ctx.element` pads a short list.  Only
    such lists enter `decoded`, so its hits need no item check.
    """
    if type(raw) is not list:
        raise CacheError(f"cache coefficients are not a list: {raw!r}")
    key = tuple(raw)
    element = decoded.get(key)
    if element is None:
        if len(raw) != ctx.degree or not all(type(c) is str for c in raw):
            raise CacheError(f"cache coefficients are not {ctx.degree} strings: {raw!r}")
        element = decoded[key] = ctx.element([Fraction(c) for c in raw])
    return element


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
    reduced = []
    for vec in structure.reduced:
        children = None
        if vec.children is not None:
            children = [
                {
                    "child": rec.child,
                    "offset": _coeffs_out(rec.offset),
                    "gap_before": rec.gap_before,
                    "abuts_left": rec.abuts_left,
                    "abuts_right": rec.abuts_right,
                }
                for rec in vec.children
            ]
        reduced.append(
            {
                "length": _coeffs_out(vec.length),
                "neighbours": [_coeffs_out(v) for v in vec.neighbours],
                "level": vec.level,
                "children": children,
            }
        )
    payload = {
        "cache_version": CACHE_VERSION,
        "fingerprint": system_fingerprint(structure.system),
        "root_full": structure.root_full,
        "saturated": structure.saturated,
        "levels_explored": structure.levels_explored,
        "reduced": reduced,
        "fulls": [[f.reduced, f.sibling_index] for f in structure.fulls],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def load_structure(path: str, system: IFSSystem) -> FiniteTypeStructure:
    """Rebuild a structure for `system` from a cache written earlier.

    Raises CacheError when the file does not parse, carries a different
    cache version, fingerprints a different system, holds a record with a
    missing key, a wrongly typed field or an id out of range, or claims
    saturation while a vector has no child records.
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


def _index(value, count: int, what: str) -> int:
    """`value` if it is an int in range(count), else CacheError."""
    if type(value) is not int or not 0 <= value < count:
        raise CacheError(f"cache {what} id out of range: {value!r}")
    return value


def _structure_from(payload: dict, system: IFSSystem) -> FiniteTypeStructure:
    ctx = system.context
    decoded: dict = {}
    structure = FiniteTypeStructure(system)
    for idx, entry in enumerate(payload["reduced"]):
        if type(entry["level"]) is not int:
            raise CacheError("cache vector level is not an integer")
        rid, fresh = structure.register_reduced(
            _coeffs_in(ctx, entry["length"], decoded),
            tuple(_coeffs_in(ctx, v, decoded) for v in entry["neighbours"]),
            entry["level"],
        )
        if rid != idx or not fresh:
            raise CacheError("cache lists duplicate reduced vectors")
    for idx, (rid, sibling) in enumerate(payload["fulls"]):
        rid = _index(rid, len(structure.reduced), "reduced")
        if type(sibling) is not int:
            raise CacheError("cache sibling index is not an integer")
        fid = structure.register_full(rid, sibling)
        if fid != idx:
            raise CacheError("cache lists duplicate full vectors")
    full_count = len(structure.fulls)
    for rid, entry in enumerate(payload["reduced"]):
        if entry["children"] is None:
            continue
        records = []
        for edge_index, raw in enumerate(entry["children"]):
            child = _index(raw["child"], full_count, "child")
            gap, left, right = raw["gap_before"], raw["abuts_left"], raw["abuts_right"]
            if not (type(gap) is type(left) is type(right) is bool):
                raise CacheError("cache child flags are not booleans")
            offset = _coeffs_in(ctx, raw["offset"], decoded)
            records.append(ChildRecord(child, offset, edge_index, gap, left, right))
        structure.reduced[rid].children = records
    structure.root_full = _index(payload["root_full"], full_count, "root")
    structure.saturated = payload["saturated"]
    structure.levels_explored = payload["levels_explored"]
    if type(structure.saturated) is not bool or type(structure.levels_explored) is not int:
        raise CacheError("cache saturation flag or explored depth is wrongly typed")
    if structure.saturated and any(vec.children is None for vec in structure.reduced):
        raise CacheError("saturated cache holds a vector that was never expanded")
    return structure
