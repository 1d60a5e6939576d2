"""Save and reload explored structures.

The saturated characteristic-vector table can take minutes to build for
large systems, so the result is cached as JSON.  A version stamp plus a
fingerprint of the defining system guard against stale or mismatched
files; a cache never overrides the config it is loaded for.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .ifs import IFSSystem
from .net import ChildRecord, FiniteTypeStructure

CACHE_VERSION = 2


class CacheError(RuntimeError):
    """The cache file is unreadable, stale, or belongs to another system."""


def _coeffs_out(element) -> list[str]:
    return [str(c) for c in element.coeffs]


def _coeffs_in(ctx, raw) -> "FieldElement":
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
    reduced = []
    for vec in structure.reduced:
        children = None
        if vec.children is not None:
            children = [
                {
                    "child": rec.child,
                    "offset": _coeffs_out(rec.offset),
                    "edge_index": rec.edge_index,
                    "gap_before": rec.gap_before,
                    "abuts_left": rec.abuts_left,
                    "abuts_right": rec.abuts_right,
                    "letters": [list(row) for row in rec.letters],
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
    cache version, or fingerprints a different system.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    if payload.get("cache_version") != CACHE_VERSION:
        raise CacheError(
            f"cache version {payload.get('cache_version')} != {CACHE_VERSION}"
        )
    if payload.get("fingerprint") != system_fingerprint(system):
        raise CacheError("cache was written for a different system")

    ctx = system.context
    structure = FiniteTypeStructure(system)
    for idx, entry in enumerate(payload["reduced"]):
        rid, fresh = structure.register_reduced(
            _coeffs_in(ctx, entry["length"]),
            tuple(_coeffs_in(ctx, v) for v in entry["neighbours"]),
            entry["level"],
        )
        if rid != idx or not fresh:
            raise CacheError("cache lists duplicate reduced vectors")
    for idx, (rid, sibling) in enumerate(payload["fulls"]):
        fid = structure.register_full(rid, sibling)
        if fid != idx:
            raise CacheError("cache lists duplicate full vectors")
    full_count = len(structure.fulls)
    for rid, entry in enumerate(payload["reduced"]):
        if entry["children"] is None:
            continue
        records = []
        for raw in entry["children"]:
            if not 0 <= raw["child"] < full_count:
                raise CacheError("cache child id out of range")
            records.append(
                ChildRecord(
                    child=raw["child"],
                    offset=_coeffs_in(ctx, raw["offset"]),
                    edge_index=raw["edge_index"],
                    gap_before=raw["gap_before"],
                    abuts_left=raw["abuts_left"],
                    abuts_right=raw["abuts_right"],
                    letters=tuple(tuple(row) for row in raw["letters"]),
                )
            )
        structure.reduced[rid].children = records
    structure.root_full = payload["root_full"]
    structure.saturated = payload["saturated"]
    structure.levels_explored = payload["levels_explored"]
    if not 0 <= structure.root_full < full_count:
        raise CacheError("cache root id out of range")
    return structure
