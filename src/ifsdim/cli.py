"""Command-line front end.

Subcommands:
  explore   build the characteristic-vector table and print a summary
  report    run the full dimension analysis (text on stdout, --json file)
  graph     export the reduced graph or the triple diagram as DOT
  pointdim  local dimension at a point or along an explicit periodic path

Exit codes: 0 success, 2 exploration budget exhausted before saturation,
3 invalid input, 4 point not in the attractor.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .cache import CacheError, load_structure, save_structure
from .classes import build_triple_diagram, classify_truly_essential, decompose
from .config import (  # the parser, also under its earlier CLI names
    ConfigError,
    _parse_value,
    build_system as system_from_config,
    load_config,
    parse_config as parse_config_text,
)
from .dimension import (
    PeriodicSpec,
    build_dimension_report,
    essential_interval_bounds,
    isolated_point_scan,
    local_dim_estimate,
    local_dim_periodic,
)
from .dot import reduced_dot, triple_dot
from .field import FieldError
from .ifs import IFSError, IFSSystem
from .matrices import MatrixTable
from .net import (
    NetStructureError,
    NotProvenFiniteTypeError,
    PointNotInAttractorError,
    explore,
    locate_point,
)
from .report import (
    dumps,
    format_enclosure,
    fraction_str,
    full_report,
    local_dim_dict,
    render_text,
    structural_report,
)

EXIT_OK = 0
EXIT_NOT_FINITE_TYPE = 2
EXIT_INPUT = 3
EXIT_NOT_IN_ATTRACTOR = 4


def _obtain_structure(args: argparse.Namespace, system: IFSSystem):
    if args.cache is not None and os.path.exists(args.cache):
        try:
            structure = load_structure(args.cache, system)
            print(f"loaded structure cache {args.cache}", file=sys.stderr)
            return structure
        except CacheError as exc:
            print(f"cache unusable ({exc}); re-exploring", file=sys.stderr)
    structure = explore(system, max_vectors=args.max_vectors, max_level=args.max_level)
    if args.cache is not None:
        save_structure(args.cache, structure)
        print(f"wrote structure cache {args.cache}", file=sys.stderr)
    return structure


def _write_or_print(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# -- subcommands ---------------------------------------------------------------


def cmd_explore(args: argparse.Namespace, system: IFSSystem) -> int:
    structure = _obtain_structure(args, system)
    info = structure.describe()
    print(f"{info['reduced_vectors']} reduced characteristic vectors")
    print(f"{info['full_vectors']} full characteristic vectors")
    print(f"{info['edges']} edges")
    print(f"levels explored: {info['levels_explored']}")
    print(f"finite type proven: {'yes' if info['saturated'] else 'no'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace, system: IFSSystem) -> int:
    structure = _obtain_structure(args, system)
    if system.probabilities is None:
        payload = structural_report(structure)
    else:
        report = build_dimension_report(
            structure, cycle_budget=args.cycle_budget, depth=args.depth
        )
        payload = full_report(structure, report)
    sys.stdout.write(render_text(payload))
    if args.json is not None:
        _write_or_print(args.json, dumps(payload))
    return EXIT_OK


def cmd_graph(args: argparse.Namespace, system: IFSSystem) -> int:
    structure = _obtain_structure(args, system)
    dec = decompose(structure)
    if args.which == "reduced":
        text = reduced_dot(structure, dec)
    else:
        text = triple_dot(structure, build_triple_diagram(structure, dec))
    _write_or_print(args.dot, text)
    return EXIT_OK


def _parse_point(text: str, system: IFSSystem):
    value = _parse_value(text, 0)
    if isinstance(value, Fraction):
        return system.context.from_rational(value)
    if isinstance(value, list) and all(isinstance(c, Fraction) for c in value):
        return system.context.element(value)
    raise ConfigError(
        "--point must be a rational like 2/3 or a coefficient list like [0, 1]"
    )


def _parse_cycle_spec(text: str) -> PeriodicSpec:
    prefix_part, sep, cycle_part = text.partition("|")
    if not sep:
        prefix_part, cycle_part = "", text
    try:
        prefix = tuple(int(t) for t in prefix_part.split(",") if t.strip())
        cycle = tuple(int(t) for t in cycle_part.split(",") if t.strip())
    except ValueError as exc:
        raise ConfigError(f"--cycle: {exc}") from exc
    if not cycle:
        raise ConfigError("--cycle needs at least one cycle edge")
    return PeriodicSpec(prefix, cycle)


def _fmt_certified_value(c) -> str:
    return "%.12g in %s" % (c.value, format_enclosure(c.lo, c.hi))


def _print_local_dim(result) -> None:
    print("local dimension: %s" % _fmt_certified_value(result.dimension))
    if len(result.rates) > 1:
        print(
            "two one-sided rates (ball mass takes the larger side, hence "
            "the smaller dimension):"
        )
    for i, rate in enumerate(result.rates):
        sp = result.spectral[i]
        exact = "" if sp.exact is None else ", cycle spectral radius %s" % fraction_str(sp.exact)
        marker = "  <- governs" if i == result.winner and len(result.rates) > 1 else ""
        print("  rate[%d] = %s%s%s" % (i, _fmt_certified_value(rate), exact, marker))


def cmd_pointdim(args: argparse.Namespace, system: IFSSystem) -> int:
    if system.probabilities is None:
        raise ConfigError("pointdim needs probabilities in the config")
    structure = _obtain_structure(args, system)
    if args.cycle is not None:
        spec = _parse_cycle_spec(args.cycle)
        try:
            result = local_dim_periodic(structure, MatrixTable(structure), spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        print("explicit periodic path: prefix %s cycle %s" % (spec.prefix, spec.cycle))
        _print_local_dim(result)
        if args.json is not None:
            _write_or_print(args.json, dumps(local_dim_dict(result)))
        return EXIT_OK

    x = _parse_point(args.point, system)
    location = locate_point(structure, x, depth=args.depth)
    dec = decompose(structure)
    diagram = build_triple_diagram(structure, dec)
    classification = classify_truly_essential(diagram, location)
    print("point %s" % args.point)
    print("boundary point: %s" % ("yes" if location.boundary else "no"))
    print("classification: %s" % classification)
    for rep in location.representations:
        shown = ",".join(str(e) for e in rep.edges[:12])
        cyc = ""
        if rep.cycle is not None:
            cyc = " cycle(start=%d, period=%d)" % rep.cycle
        print("  side %s: edges %s%s%s" % (rep.side, shown, "..." if len(rep.edges) > 12 else "", cyc))

    table = MatrixTable(structure)
    live = [r for r in location.representations if r.alive]
    periodic = live and all(r.cycle is not None for r in live)
    payload: dict = {"point": args.point, "classification": classification}
    if periodic:
        spec = PeriodicSpec.from_location(location)
        result = local_dim_periodic(structure, table, spec)
        _print_local_dim(result)
        payload["local_dimension"] = local_dim_dict(result)
        # the isolation verdict only needs the outer interval and the
        # column-sum extremes, so skip the walk enumeration
        bounds = essential_interval_bounds(
            structure, dec, table, diagram, cycle_budget=args.cycle_budget, inner=False
        )
        isolated = result.dimension.lo > bounds.outer_hi.hi or (
            result.dimension.hi < bounds.outer_lo.lo
        )
        reason = "outside the certified outer interval %s" % format_enclosure(
            bounds.outer_lo.lo, bounds.outer_hi.hi
        )
        # endpoints get the sharper family-specific bounds of the scan
        endpoint = None
        if x.sign() == 0:
            endpoint = "at_zero"
        elif (x - system.context.one).sign() == 0:
            endpoint = "at_one"
        if endpoint is not None and not isolated:
            finding = getattr(
                isolated_point_scan(structure, dec, table, bounds), endpoint
            )
            if finding.isolated:
                isolated = True
                phrases = {
                    "outside_outer": "outside the certified outer interval",
                    "family_bound": "above the family upper bound for "
                    "truly essential points",
                    "column_sum_criterion": "beyond the extreme column sums "
                    "of the essential class",
                }
                reason = phrases.get(finding.reason, finding.reason)
                if finding.family_bound is not None:
                    reason += " (bound %.12g)" % finding.family_bound
        if isolated:
            print("ISOLATED: the value lies %s" % reason)
        payload["isolated"] = isolated
    else:
        slopes = local_dim_estimate(structure, diagram, table, location, args.depth)
        print("no periodic representation within depth; slope sequence:")
        for n, slope in slopes[-10:]:
            print("  n=%4d  log-mass slope %.9f" % (n, slope))
        payload["slopes"] = [[n, s] for n, s in slopes]
    if args.json is not None:
        _write_or_print(args.json, dumps(payload))
    return EXIT_OK


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="system description file")
    common.add_argument("--cache", default=None, help="structure cache path")
    common.add_argument("--max-vectors", type=int, default=100000)
    common.add_argument("--max-level", type=int, default=200)
    common.add_argument("--cycle-budget", type=int, default=8)
    common.add_argument("--depth", type=int, default=60)
    common.add_argument("--dot", default=None, help="DOT output path (graph)")
    common.add_argument("--json", default=None, help="JSON output path")

    parser = argparse.ArgumentParser(
        prog="ifsdim",
        description="finite-type overlapping IFS dimension analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("explore", parents=[common])
    sub.add_parser("report", parents=[common])
    graph = sub.add_parser("graph", parents=[common])
    graph.add_argument("which", choices=("reduced", "triple"))
    point = sub.add_parser("pointdim", parents=[common])
    group = point.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", help="rational like 2/3, or [c0, c1, ...] in rho")
    group.add_argument("--cycle", help="edge path 'p1,p2|c1,c2' (prefix | cycle)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("max_vectors", "max_level", "cycle_budget", "depth"):
            if getattr(args, name) <= 0:
                raise ConfigError(f"--{name.replace('_', '-')} must be positive")
        system = load_config(args.config)
        if args.command == "explore":
            return cmd_explore(args, system)
        if args.command == "report":
            return cmd_report(args, system)
        if args.command == "graph":
            return cmd_graph(args, system)
        return cmd_pointdim(args, system)
    except NotProvenFiniteTypeError as exc:
        print(f"not proven finite type: {exc}", file=sys.stderr)
        return EXIT_NOT_FINITE_TYPE
    except PointNotInAttractorError as exc:
        print(f"point not in attractor: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_ATTRACTOR
    except (ConfigError, IFSError, FieldError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NetStructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
