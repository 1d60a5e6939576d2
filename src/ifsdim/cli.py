"""Command-line front end.

Subcommands:
  explore   build the characteristic-vector table and print a summary
  report    run the full dimension analysis (text on stdout, --json file)
  graph     export the reduced graph or the triple diagram as DOT
  pointdim  local dimension at a point or along an explicit periodic path

Exit codes: 0 success, 1 stdout closed by its reader, 2 exploration
budget exhausted before saturation or an argument usage error (argparse),
3 invalid input, 4 point not in the attractor.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import sys

from .cache import CacheError, load_structure, save_structure
from .config import ConfigError, _parse_value, field_element, load_config
from .field import FieldError
from .ifs import IFSError, IFSSystem
from .net import (
    DEFAULT_DEPTH,
    NetStructureError,
    NotProvenFiniteTypeError,
    PointNotInAttractorError,
    explore,
    locate_point,
)

# The analysis layers, and the names this module takes from each.  They are
# most of what a fresh process compiles at start-up, and `explore` and input
# errors use none of them, so they are bound on first use: by `main` for the
# other commands, and by the module `__getattr__` for a lookup from outside.
_LAYERS = {
    "classes": (
        "INTERIOR_ESSENTIAL",
        "build_triple_diagram",
        "classify_truly_essential",
        "decompose",
    ),
    "dimension": (
        "PeriodicSpec",
        "build_dimension_report",
        "essential_interval_bounds",
        "isolated_point_scan",  # unused here; perfbench/tracer.py wraps cli's binding
        "isolation_verdict",
        "local_dim_periodic",
    ),
    "dot": ("reduced_dot", "triple_dot"),
    "matrices": ("MatrixTable",),
    "report": (
        "_fmt_certified",
        "dumps",
        "format_enclosure",
        "fraction_str",
        "full_report",
        "local_dim_dict",
        "render_text",
        "structural_report",
    ),
}


def _load_layers() -> None:
    """Import the modules of `_LAYERS` and bind their names here.

    A name already bound keeps its value: the benchmark's tracer may have
    wrapped it before the first command ran.
    """
    namespace = globals()
    for module_name, names in _LAYERS.items():
        module = importlib.import_module(f".{module_name}", __package__)
        for name in names:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if any(name in names for names in _LAYERS.values()):
        _load_layers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
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
        try:
            save_structure(args.cache, structure)
        except CacheError as exc:
            print(f"cache not written ({exc})", file=sys.stderr)
        else:
            print(f"wrote structure cache {args.cache}", file=sys.stderr)
    return structure


def _cannot_write(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _check_writable(path: str | None) -> None:
    """Raise ConfigError, before any work, unless the file `path` (if given)
    can be opened for writing.  It is opened for appending, which truncates
    nothing, and removed again if this made it; an existing FIFO or device
    is left to the final write, as closing it could end its reader's input.
    """
    if path is None:
        return
    made = not os.path.lexists(path)
    if not made and not os.path.isfile(path) and not os.path.isdir(path):
        return
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    if made:
        os.remove(path)


def _write_or_print(path: str | None, text: str) -> None:
    """Write `text` to the file `path`, or to stdout when it is None.

    Unbuffered (`PYTHONUNBUFFERED` or `python -u`), `sys.stdout.buffer` is
    the raw `FileIO`, and a large write to a pipe may come back short,
    which `sys.stdout.write` does not retry: the rest would be dropped
    with no error.  So the bytes go to the `FileIO` in a loop until all
    are written, and a reader that closed the pipe raises
    `BrokenPipeError`.  A stdout with no `.buffer` is written as it is.
    """
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
        return
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.FileIO):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[raw.write(data) :]


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
        report = build_dimension_report(structure, cycle_budget=args.cycle_budget)
        payload = full_report(structure, report)
    _write_or_print(None, render_text(payload))
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
    return field_element(
        system.context,
        _parse_value(text, 0),
        "--point must be a rational like 2/3 or a coefficient list like [0, 1]",
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


def _print_local_dim(d: dict) -> None:
    """Print a `local_dim_dict`."""
    print("local dimension: %s" % _fmt_certified(d["dimension"]))
    if len(d["rates"]) > 1:
        print(
            "two one-sided rates (ball mass takes the larger side, hence "
            "the smaller dimension):"
        )
    for i, rate in enumerate(d["rates"]):
        sp = d["spectral"][i]
        exact = "" if sp["exact"] is None else ", cycle spectral radius %s" % sp["exact"]
        marker = "  <- governs" if i == d["winner"] and len(d["rates"]) > 1 else ""
        print("  rate[%d] = %s%s%s" % (i, _fmt_certified(rate), exact, marker))


# how pointdim words the `isolation_verdict` reasons other than the outer interval
_ISOLATION_PHRASES = {
    "family_bound": "above the family upper bound for truly essential points",
    "column_sum_criterion": "beyond the extreme column sums of the essential class",
}


def cmd_pointdim(args: argparse.Namespace, system: IFSSystem) -> int:
    if system.probabilities is None:
        raise ConfigError("pointdim needs probabilities in the config")
    # each flag is parsed before exploring, so a malformed one explores
    # nothing; whether the cycle's edges exist is checked on the structure
    if args.cycle is not None:
        spec = _parse_cycle_spec(args.cycle)
        structure = _obtain_structure(args, system)
        try:
            result = local_dim_periodic(structure, MatrixTable(structure), spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        payload = local_dim_dict(result)
        print("explicit periodic path: prefix %s cycle %s" % (spec.prefix, spec.cycle))
        _print_local_dim(payload)
        if args.json is not None:
            _write_or_print(args.json, dumps(payload))
        return EXIT_OK

    x = _parse_point(args.point, system)
    structure = _obtain_structure(args, system)
    location = locate_point(structure, x, depth=args.depth)
    dec = decompose(structure)
    # expanded on demand: the classification reads only the triples along
    # the point's walk
    classification = classify_truly_essential(build_triple_diagram(structure, dec), location)
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
    # the isolation verdict and the aperiodic answer only need the outer
    # interval and the column-sum extremes, so skip the walk enumeration
    bounds = essential_interval_bounds(structure, dec, table, inner=False)
    outer = format_enclosure(bounds.outer_lo.lo, bounds.outer_hi.hi)
    live = [r for r in location.representations if r.alive]
    periodic = live and all(r.cycle is not None for r in live)
    payload: dict = {"point": args.point, "classification": classification}
    if periodic:
        spec = PeriodicSpec.from_location(location)
        result = local_dim_periodic(structure, table, spec)
        payload["local_dimension"] = local_dim_dict(result)
        _print_local_dim(payload["local_dimension"])
        isolated, reason, family_bound = isolation_verdict(structure, bounds, x, result)
        if isolated:
            if reason == "outside_outer":
                phrase = "outside the certified outer interval %s" % outer
            else:
                phrase = _ISOLATION_PHRASES[reason]
                if family_bound is not None:
                    phrase += " (bound %.12g)" % family_bound
            print("ISOLATED: the value lies %s" % phrase)
        payload["isolated"] = isolated
    elif classification == INTERIOR_ESSENTIAL:
        # both local dimensions at a truly essential point lie in the outer
        # interval (Hare, Hare and Matthews, J. Fractal Geom. 3 (2016))
        print(
            "no period within depth %d; the lower and upper local dimensions "
            "lie in the certified outer interval %s" % (args.depth, outer)
        )
        payload["local_dimension_bounds"] = {
            "lo": fraction_str(bounds.outer_lo.lo),
            "hi": fraction_str(bounds.outer_hi.hi),
        }
    else:
        print(
            "no period within depth %d; no local dimension is certified "
            "(a larger --depth may settle it)" % args.depth
        )
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
    measure = argparse.ArgumentParser(add_help=False)
    measure.add_argument("--json", default=None, help="JSON output path")

    parser = argparse.ArgumentParser(
        prog="ifsdim",
        description="finite-type overlapping IFS dimension analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("explore", parents=[common])
    report = sub.add_parser("report", parents=[common, measure])
    report.add_argument("--cycle-budget", type=int, default=8)
    graph = sub.add_parser("graph", parents=[common])
    graph.add_argument("which", choices=("reduced", "triple"))
    graph.add_argument("--dot", default=None, help="DOT output path")
    point = sub.add_parser("pointdim", parents=[common, measure])
    point.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    group = point.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", help="rational like 2/3, or [c0, c1, ...] in rho")
    group.add_argument("--cycle", help="edge path 'p1,p2|c1,c2' (prefix | cycle)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if name in ("max_vectors", "max_level", "cycle_budget", "depth") and value <= 0:
                raise ConfigError(f"--{name.replace('_', '-')} must be positive")
        system = load_config(args.config)
        _check_writable(getattr(args, "json", None))
        _check_writable(getattr(args, "dot", None))
        if args.command != "explore":
            _load_layers()
        command = {
            "explore": cmd_explore,
            "report": cmd_report,
            "graph": cmd_graph,
            "pointdim": cmd_pointdim,
        }[args.command]
        code = command(args, system)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send the unwritten rest to devnull so the
        # flush at interpreter exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
