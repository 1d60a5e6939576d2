"""The benchmark's workloads: which systems each one analyses and the jobs of one pass.

Every pass follows the session of a user meeting a system for the first
time: a cold `explore --cache C`, the certified `report`, then follow-up
`graph` and `pointdim` queries answered from the warm cache C.  All
systems come from the fixed suite named in ROADMAP.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Config files in the format `ifsdim --config` reads.
SYSTEMS = {
    # x/3 + {0, 2/87, 2/3}: 2280 reduced vectors, 4679 triples
    "table_87": (
        "minpoly = [-1, 3]\n"
        "translations = [0, 2/87, 2/3]\n"
        "probabilities = [1/3, 1/3, 1/3]\n"
    ),
    "cantor_4_9": (
        "family = cantor\n"
        "d = 4\n"
        "m = 9\n"
        "probabilities = [%s]\n" % ", ".join(["1/10"] * 10)
    ),
    "convolution_3_8": (
        "family = convolution\n"
        "d = 3\n"
        "k = 8\n"
        "base_probabilities = [1/2, 1/2]\n"
    ),
    "golden_third": "family = bernoulli_simple_pisot\nk = 2\np = 1/3\n",
    "tribonacci_third": "family = bernoulli_simple_pisot\nk = 3\np = 1/3\n",
    # rho the small root of 9x^2 - 18x + 4
    "quadratic_ninth": (
        "minpoly = [4, -18, 9]\n"
        "isolating = [0, 1/2]\n"
        "translations = [[0], [0, 1, -1], [1, -2, 1], [1, -1]]\n"
        "probabilities = [1/4, 1/4, 1/4, 1/4]\n"
    ),
}

# The table pool: the interior periodic point 1/87 and the gap point 1/5
# (exit code 4) in every pass, and two of the boundary points 0, 1, 2/87.
TABLE_POINTS = ("1/87", "1/5")
TABLE_BOUNDARY = ("0", "1", "2/87")
ENDPOINTS = ("0", "1")


@dataclass(frozen=True)
class Session:
    """The jobs run on one system within a pass."""

    system: str
    report_args: tuple[str, ...]
    # False: the report explores again instead of reading the cache.
    report_cached: bool
    # pointdim queries: all of `points` and `draw` of `pool`, by the seed
    points: tuple[str, ...]
    pool: tuple[str, ...] = ()
    draw: int = 0


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    # Exploration, MatrixTable, the triple diagram and the cache dominate;
    # budget 4 keeps the spectral work to 29 walks.
    "table": (
        Session("table_87", ("--cycle-budget", "4"), True, TABLE_POINTS, TABLE_BOUNDARY, 2),
    ),
    # 6-8 reduced vectors; spectral certification of 962 + 194 products.
    "spectral": (
        Session("cantor_4_9", ("--cycle-budget", "6"), False, ENDPOINTS),
        Session("convolution_3_8", ("--cycle-budget", "6"), False, ENDPOINTS),
    ),
    # Irrational rho of degree 2 and 3; about 32,000 walks on small matrices.
    "enumeration": (
        Session("golden_third", (), False, ENDPOINTS),
        Session("tribonacci_third", (), False, ENDPOINTS),
        Session("quadratic_ninth", ("--cycle-budget", "10"), False, ENDPOINTS),
    ),
}


@dataclass(frozen=True)
class Job:
    """One `ifsdim` invocation.

    `kind` names the end-to-end metric the job's time adds to: `explore`
    (explore_s), `report` (report_s) or `query` (query_s).  `id` keys the
    job's reference outputs.
    """

    id: str
    kind: str
    system: str
    args: tuple[str, ...]
    cache: bool
    json: bool


def session_jobs(session: Session, rng: random.Random, every_point: bool) -> list[Job]:
    """The jobs of one session.

    `rng` draws the pointdim points from the pool and orders them;
    `every_point` takes the whole pool instead.
    """
    name = session.system
    points = list(session.points)
    points += session.pool if every_point else rng.sample(session.pool, session.draw)
    rng.shuffle(points)
    jobs = [
        Job(f"{name}:explore", "explore", name, ("explore",), True, False),
        Job(
            f"{name}:report",
            "report",
            name,
            ("report",) + session.report_args,
            session.report_cached,
            True,
        ),
        Job(f"{name}:graph reduced", "query", name, ("graph", "reduced"), True, False),
        Job(f"{name}:graph triple", "query", name, ("graph", "triple"), True, False),
    ]
    for point in points:
        jobs.append(
            Job(f"{name}:pointdim {point}", "query", name, ("pointdim", "--point", point), True, True)
        )
    return jobs


def pass_jobs(workload: str, rng: random.Random, every_point: bool = False) -> list[Job]:
    """The jobs of one pass over a workload, in the order they run."""
    return [job for s in WORKLOADS[workload] for job in session_jobs(s, rng, every_point)]


def write_configs(workload: str, directory: Path) -> dict[str, str]:
    """Write the config file of each system of a workload; name -> path."""
    configs = {}
    for session in WORKLOADS[workload]:
        path = directory / f"{session.system}.cfg"
        path.write_text(SYSTEMS[session.system], encoding="utf-8")
        configs[session.system] = str(path)
    return configs
