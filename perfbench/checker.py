"""Reference facts of a job's output, and the comparison that decides a failure.

A job's facts are its exit code, a dict of discrete facts (structure and
class sizes, exact rationals, verdicts, classifications) and the certified
enclosures it prints.  A job fails when its exit code or a discrete fact
differs from the reference, or when one of its enclosures is disjoint from
the reference enclosure of the same name.  A tighter enclosure passes, and
so does a different walk count: the inner-bound enclosures depend on which
walks were certified, so they are compared only when the walk count agrees.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Enclosures of dimensions, as opposed to spectral radii; the run's
# max_rel_width is taken over these.
DIMENSION_KEYS = ("hausdorff", "outer_lo", "outer_hi", "inner_lo", "inner_hi")
DIMENSION_PREFIXES = ("local_dim", "at_zero.dim", "at_one.dim")
INNER_KEYS = ("inner_lo", "inner_hi")


def _enclosure(d: dict | None) -> list | None:
    if d is None:
        return None
    return [d["lo"], d["hi"], d["value"]]


def _local_dim(prefix: str, r: dict | None, enclosures: dict, discrete: dict) -> None:
    if r is None:
        discrete[prefix] = None
        return
    enclosures[prefix + ".dim"] = _enclosure(r["dimension"])
    for i, rate in enumerate(r["rates"]):
        enclosures[f"{prefix}.rate{i}"] = _enclosure(rate)
    discrete[prefix + ".winner"] = r["winner"]
    discrete[prefix + ".exact"] = [sp["exact"] for sp in r["spectral"]]


def _report_facts(payload: dict, discrete: dict, enclosures: dict) -> int | None:
    discrete["structure"] = payload["structure"]
    discrete["classes"] = payload["classes"]
    h = payload["hausdorff"]
    enclosures["hausdorff"] = _enclosure(h["dimension"])
    enclosures["hausdorff.spectral"] = _enclosure(h["spectral_radius"])
    discrete["hausdorff.exact"] = h["spectral_radius"]["exact"]
    discrete["hausdorff.reduced_ids"] = h["reduced_ids"]
    m = payload["measure"]
    if m is None:
        return None
    b = m["essential_interval"]
    for key in ("outer_lo", "outer_hi", "inner_lo", "inner_hi"):
        enclosures[key] = _enclosure(b[key])
    discrete["p_max"] = b["p_max"]
    discrete["p_min"] = b["p_min"]
    discrete["cycle_budget"] = b["cycle_budget"]
    discrete["positive_rows"] = m["positive_rows"]["holds"]
    cs = m["column_sums"]
    discrete["column_sums"] = [cs["holds"], cs["common_sum"], cs["matches_hausdorff"]]
    p = m["pisot_reciprocal"]
    discrete["pisot"] = [p["is_pisot"], p["indeterminate"]]
    iso = m["isolation"]
    for side in ("at_zero", "at_one"):
        e = iso[side]
        discrete[side + ".isolated"] = [e["isolated"], e["reason"]]
        _local_dim(side, e["dimension"], enclosures, discrete)
    discrete["cantor_criterion"] = iso["cantor_criterion"]
    discrete["sane"] = m["sane"]
    return b["cycle_count"]


def _pointdim_facts(stdout: str, payload: dict, discrete: dict, enclosures: dict) -> None:
    discrete["boundary"] = [l for l in stdout.splitlines() if l.startswith("boundary point:")]
    discrete["classification"] = payload["classification"]
    discrete["isolated"] = payload.get("isolated")
    discrete["periodic"] = "local_dimension" in payload
    if "local_dimension" in payload:
        _local_dim("local_dim", payload["local_dimension"], enclosures, discrete)


def _dot_facts(stdout: str, discrete: dict) -> None:
    lines = stdout.splitlines()
    discrete["edges"] = sum("->" in l for l in lines)
    discrete["nodes"] = sum("[label=" in l and "->" not in l for l in lines)
    discrete["filled"] = sum("style=filled" in l for l in lines)


def job_facts(args: tuple[str, ...], rc, stdout: str, json_text: str | None) -> dict:
    """Facts of one job's output.  `args` starts with the subcommand."""
    discrete: dict = {}
    enclosures: dict = {}
    walks = None
    if rc == 0:
        command = args[0]
        if command == "explore":
            discrete["summary"] = stdout.splitlines()
        elif command == "graph":
            _dot_facts(stdout, discrete)
        elif command == "report":
            walks = _report_facts(json.loads(json_text), discrete, enclosures)
        elif command == "pointdim":
            _pointdim_facts(stdout, json.loads(json_text), discrete, enclosures)
    return {"exit": rc, "discrete": discrete, "enclosures": enclosures, "walks": walks}


def compare(reference: dict, got: dict) -> list[str]:
    """Reasons the job's facts disagree with the reference; empty when it passes."""
    if got["exit"] != reference["exit"]:
        return [f"exit code {got['exit']}, expected {reference['exit']}"]
    problems = []
    for key in sorted(set(reference["discrete"]) | set(got["discrete"])):
        want = reference["discrete"].get(key)
        have = got["discrete"].get(key)
        if want != have:
            problems.append(f"{key}: {have!r}, expected {want!r}")
    same_walks = reference["walks"] == got["walks"]
    for key in sorted(set(reference["enclosures"]) | set(got["enclosures"])):
        if key in INNER_KEYS and not same_walks:
            continue
        want = reference["enclosures"].get(key)
        have = got["enclosures"].get(key)
        if (want is None) != (have is None):
            problems.append(f"{key}: {have!r}, expected {want!r}")
        elif want is not None and (
            Fraction(have[1]) < Fraction(want[0]) or Fraction(have[0]) > Fraction(want[1])
        ):
            problems.append(f"{key}: [{have[0]}, {have[1]}] is disjoint from [{want[0]}, {want[1]}]")
    return problems


def is_dimension(key: str) -> bool:
    return key in DIMENSION_KEYS or key.startswith(DIMENSION_PREFIXES)


def max_rel_width(facts: dict) -> float:
    """Widest (hi - lo) / |value| over the dimension enclosures of one job, or 0.

    A value of exactly 0 (the outer lower bound when P_max = 1) has no
    relative width and is left out.
    """
    widths = [
        (Fraction(hi) - Fraction(lo)) / abs(Fraction(value))
        for key, enc in facts["enclosures"].items()
        if enc is not None and is_dimension(key) and enc[2] != 0
        for lo, hi, value in [enc]
    ]
    return float(max(widths, default=0))


def essential_gap(facts: dict) -> float:
    """Certified outer width minus certified inner width of a report's essential
    interval, or 0 for other jobs.

    The outer interval is [outer_lo.lo, outer_hi.hi], the inner one
    [inner_lo.hi, inner_hi.lo], so the gap stays positive, by the enclosure
    widths, even where the inner witnesses reach both outer bounds.
    """
    enc = facts["enclosures"]
    if enc.get("outer_lo") is None:
        return 0.0
    outer = Fraction(enc["outer_hi"][1]) - Fraction(enc["outer_lo"][0])
    inner = 0
    if enc["inner_lo"] is not None:
        inner = Fraction(enc["inner_hi"][0]) - Fraction(enc["inner_lo"][1])
    return float(outer - inner)
