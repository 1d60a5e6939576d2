"""Serialization of analysis results to JSON-ready dicts and plain text.

Every numeric quantity is reported three ways where possible: a decimal
approximation, certified rational bounds, and an exact rational when one
is known.  Construction order is deterministic so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .classes import ClassDecomposition, decompose
from .dimension import (
    Certified,
    ColumnSumReport,
    CycleWitness,
    DimensionReport,
    EndpointFinding,
    EssentialBounds,
    HausdorffResult,
    IsolationFindings,
    LocalDimensionResult,
    PisotResult,
    PositiveRowReport,
    hausdorff_dimension,
)
from .net import FiniteTypeStructure
from .spectral import SpectralResult

SCHEMA_VERSION = 2
# decimal places of the printed enclosures
_PLACES = 12


def fraction_str(q) -> str:
    return str(Fraction(q))


def certified_dict(c: Certified | None) -> dict | None:
    if c is None:
        return None
    return {
        "value": float(c.value),
        "lo": fraction_str(c.lo),
        "hi": fraction_str(c.hi),
    }


def spectral_dict(sp: SpectralResult) -> dict:
    return {
        "value": float(sp.value),
        "lo": fraction_str(sp.certified_lo),
        "hi": fraction_str(sp.certified_hi),
        "exact": None if sp.exact is None else fraction_str(sp.exact),
    }


def witness_dict(w: CycleWitness | None) -> dict | None:
    if w is None:
        return None
    return {
        "start": w.start,
        "edges": list(w.edges),
        "rate": certified_dict(w.rate),
        "positive": w.positive,
    }


def hausdorff_dict(h: HausdorffResult) -> dict:
    return {
        "dimension": certified_dict(h.dimension),
        "spectral_radius": spectral_dict(h.spectral),
        "reduced_ids": list(h.reduced_ids),
    }


def bounds_dict(b: EssentialBounds) -> dict:
    return {
        "outer_lo": certified_dict(b.outer_lo),
        "outer_hi": certified_dict(b.outer_hi),
        "inner_lo": certified_dict(b.inner_lo),
        "inner_hi": certified_dict(b.inner_hi),
        "p_max": fraction_str(b.p_max),
        "p_min": fraction_str(b.p_min),
        "min_witness": witness_dict(b.min_witness),
        "max_witness": witness_dict(b.max_witness),
        "cycle_count": b.cycle_count,
        "certified_count": b.certified_count,
        "excluded_count": b.excluded_count,
        "excluded_sample": [
            {"steps": [list(s) for s in steps], "reason": reason}
            for steps, reason in b.excluded[:10]
        ],
        "cycle_budget": b.cycle_budget,
    }


def local_dim_dict(r: LocalDimensionResult | None) -> dict | None:
    if r is None:
        return None
    return {
        "dimension": certified_dict(r.dimension),
        "winner": r.winner,
        "rates": [certified_dict(c) for c in r.rates],
        "spectral": [spectral_dict(sp) for sp in r.spectral],
    }


def endpoint_dict(e: EndpointFinding) -> dict:
    return {
        "point": e.point,
        "dimension": local_dim_dict(e.dimension),
        "isolated": e.isolated,
        "reason": e.reason,
        "family_bound": None if e.family_bound is None else float(e.family_bound),
    }


def isolation_dict(iso: IsolationFindings) -> dict:
    criterion = None
    if iso.cantor_criterion is not None:
        criterion = {
            key: fraction_str(v) if isinstance(v, Fraction) else v
            for key, v in sorted(iso.cantor_criterion.items())
        }
    return {
        "at_zero": endpoint_dict(iso.at_zero),
        "at_one": endpoint_dict(iso.at_one),
        "cantor_criterion": criterion,
    }


def positive_rows_dict(p: PositiveRowReport) -> dict:
    return {
        "holds": p.holds,
        "witnesses": [list(w) for w in p.witnesses],
    }


def column_sums_dict(c: ColumnSumReport) -> dict:
    counter = None
    if c.counterexample is not None:
        rid, edge, got, expected = c.counterexample
        counter = {
            "reduced": rid,
            "edge": edge,
            "sum": fraction_str(got),
            "other_sum": fraction_str(expected),
        }
    return {
        "holds": c.holds,
        "common_sum": None if c.common_sum is None else fraction_str(c.common_sum),
        "counterexample": counter,
        "exponent": None if c.exponent is None else float(c.exponent),
        "matches_hausdorff": c.matches_hausdorff,
    }


def pisot_dict(p: PisotResult) -> dict:
    return {
        "is_pisot": p.is_pisot,
        "indeterminate": p.indeterminate,
        "dominant_root": None if p.dominant_root is None else float(p.dominant_root),
        "conjugate_moduli": [float(m) for m in p.conjugate_moduli],
        "reason": p.reason,
    }


def classes_dict(structure: FiniteTypeStructure, dec: ClassDecomposition) -> dict:
    return {
        "loop_class_count": len(dec.loop_classes),
        "loop_class_sizes": sorted(len(c) for c in dec.loop_classes),
        "essential_size": len(dec.essential),
        "essential_reduced": sorted(dec.essential_reduced),
    }


def _header(
    structure: FiniteTypeStructure, dec: ClassDecomposition, hausdorff: HausdorffResult
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": structure.system.describe(),
        "structure": structure.describe(),
        "classes": classes_dict(structure, dec),
        "hausdorff": hausdorff_dict(hausdorff),
    }


def structural_report(structure: FiniteTypeStructure) -> dict:
    """Probability-free report: structure, classes, Hausdorff dimension."""
    dec = decompose(structure)
    return {
        **_header(structure, dec, hausdorff_dimension(structure, dec)),
        "measure": None,
        "measure_note": "probabilities not given; measure analysis unavailable",
    }


def full_report(structure: FiniteTypeStructure, report: DimensionReport) -> dict:
    return {
        **_header(structure, report.decomposition, report.hausdorff),
        "measure": {
            "essential_interval": bounds_dict(report.bounds),
            "positive_rows": positive_rows_dict(report.positive_rows),
            "column_sums": column_sums_dict(report.column_sums),
            "pisot_reciprocal": pisot_dict(report.pisot),
            "isolation": isolation_dict(report.isolation),
            "sane": report.sane,
        },
    }


def dumps(d: dict) -> str:
    return json.dumps(d, indent=2, sort_keys=True) + "\n"


# -- plain text rendering -------------------------------------------------


def _dec_bound(q: Fraction, round_up: bool) -> str:
    """Decimal string of q rounded outward to `_PLACES` places, so printed
    intervals still enclose the certified ones."""
    scale = 10**_PLACES
    num = q * scale
    if round_up:
        n = -((-num.numerator) // num.denominator)
    else:
        n = num.numerator // num.denominator
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), scale)
    text = "%s%d.%0*d" % (sign, whole, _PLACES, frac)
    return text.rstrip("0").rstrip(".") or "0"


def format_enclosure(lo, hi) -> str:
    """"[lo, hi]" with the endpoints rounded outward to decimals."""
    return "[%s, %s]" % (_dec_bound(Fraction(lo), False), _dec_bound(Fraction(hi), True))


def _fmt_certified(c: dict | None) -> str:
    if c is None:
        return "n/a"
    return "%.12g in %s" % (c["value"], format_enclosure(c["lo"], c["hi"]))


def _fmt_endpoint(e: dict) -> str:
    dim = e["dimension"]
    text = "dim %s" % (_fmt_certified(dim["dimension"]) if dim else "n/a")
    if e["isolated"]:
        text += "  ISOLATED (%s)" % e["reason"]
    if e["family_bound"] is not None:
        text += "  family bound %.6g" % e["family_bound"]
    return text


def render_text(d: dict) -> str:
    lines: list[str] = []
    sysd = d["system"]
    lines.append(
        "system: %d maps, minpoly %s, rho ~ %.12g"
        % (len(sysd["translations"]), sysd["minpoly"], sysd["rho"])
    )
    if "family" in sysd:
        fam = sysd["family"]
        lines.append(
            "family: %s (%s)"
            % (
                fam.get("name", "?"),
                ", ".join(f"{k}={v}" for k, v in sorted(fam.items()) if k != "name"),
            )
        )
    st = d["structure"]
    lines.append(
        "structure: %d reduced characteristic vectors, %d full, %d edges, "
        "%d levels%s"
        % (
            st["reduced_vectors"],
            st["full_vectors"],
            st["edges"],
            st["levels_explored"],
            "" if st["saturated"] else " (NOT saturated)",
        )
    )
    cl = d["classes"]
    lines.append(
        "classes: %d loop classes, essential class has %d full vectors "
        "(reduced ids %s)"
        % (cl["loop_class_count"], cl["essential_size"], cl["essential_reduced"])
    )
    h = d["hausdorff"]
    sp = h["spectral_radius"]
    exact = "" if sp["exact"] is None else " (exact %s)" % sp["exact"]
    lines.append("incidence spectral radius: %.12g%s" % (sp["value"], exact))
    lines.append("hausdorff dimension: %s" % _fmt_certified(h["dimension"]))

    measure = d.get("measure")
    if measure is None:
        lines.append("measure: %s" % d.get("measure_note", "unavailable"))
        return "\n".join(lines) + "\n"

    b = measure["essential_interval"]
    lines.append(
        "essential interval, outer: [%s | %s]  (column sums %s .. %s)"
        % (
            _fmt_certified(b["outer_lo"]),
            _fmt_certified(b["outer_hi"]),
            b["p_min"],
            b["p_max"],
        )
    )
    lines.append(
        "essential interval, inner: [%s | %s]  (%d cycles <= %d edges, "
        "%d excluded by descent)"
        % (
            _fmt_certified(b["inner_lo"]),
            _fmt_certified(b["inner_hi"]),
            b["cycle_count"],
            b["cycle_budget"],
            b["excluded_count"],
        )
    )
    pr = measure["positive_rows"]
    if pr["holds"]:
        lines.append("positive rows: hold for every essential matrix")
    else:
        lines.append(
            "positive rows: FAIL at (reduced, edge) %s"
            % pr["witnesses"][:5]
        )
    cs = measure["column_sums"]
    if cs["holds"]:
        lines.append(
            "column sums: all equal %s, exponent %.12g%s"
            % (
                cs["common_sum"],
                cs["exponent"],
                " = hausdorff dimension" if cs["matches_hausdorff"] else "",
            )
        )
    else:
        c = cs["counterexample"]
        lines.append(
            "column sums: differ (reduced %d edge %d: %s vs %s)"
            % (c["reduced"], c["edge"], c["sum"], c["other_sum"])
        )
    pi = measure["pisot_reciprocal"]
    if pi["is_pisot"]:
        lines.append("1/rho is Pisot (dominant root %.12g)" % pi["dominant_root"])
    elif pi["indeterminate"]:
        lines.append("1/rho Pisot status indeterminate: %s" % pi["reason"])
    else:
        lines.append("1/rho is not Pisot: %s" % pi["reason"])
    iso = measure["isolation"]
    lines.append("endpoint 0: %s" % _fmt_endpoint(iso["at_zero"]))
    lines.append("endpoint 1: %s" % _fmt_endpoint(iso["at_one"]))
    if iso["cantor_criterion"] is not None:
        lines.append("cantor criterion: %s" % iso["cantor_criterion"])
    lines.append("sanity: %s" % ("ok" if measure["sane"] else "VIOLATED"))
    return "\n".join(lines) + "\n"
