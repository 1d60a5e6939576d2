"""End-to-end tests driving the command line entry point in process."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from ifsdim import cli, config, dimension
from ifsdim.classes import build_triple_diagram, classify_truly_essential, decompose
from ifsdim.cli import ConfigError, main
from ifsdim.matrices import MatrixTable
from ifsdim.config import build_system, parse_config
from ifsdim.net import explore, locate_point

import oracle_helpers as oh

SIX_CFG = """\
# six maps with contraction 1/4 on eighths; full-interval attractor
minpoly = [-1, 4]
translations = [0, 1/8, 2/8, 3/8, 5/8, 6/8]
probabilities = [1/6, 1/6, 1/6, 1/6, 1/6, 1/6]
"""

FREE_CFG = """\
minpoly = [-1, 4]
translations = [0, 1/8, 2/8, 3/8, 5/8, 6/8]
"""

GAP_CFG = """\
minpoly = [-1, 4]
translations = [0, 1/12, 2/12, 7/12, 8/12, 9/12]
probabilities = [1/8, 1/8, 1/4, 1/4, 1/8, 1/8]
"""

ZEROROW_CFG = """\
minpoly = [-1, 3]
translations = [0, 4/9, 5/9, 2/3]
probabilities = [1/4, 1/4, 1/4, 1/4]
"""

GOLDEN_THIRD_CFG = """\
family = bernoulli_simple_pisot
k = 2
p = 1/3
"""

GOLDEN_HALF_CFG = """\
family = bernoulli_simple_pisot
k = 2
p = 1/2
"""

# the first map is lighter than every column sum of the essential class
CANTOR_LIGHT_CFG = """\
family = cantor
d = 3
m = 4
probabilities = [1/10, 1/5, 1/5, 1/5, 3/10]
"""

# x/4 + {0, 1/12, ..., 9/12}, equal weights: 1/1009 has period 252
CANTOR_4_9_CFG = """\
family = cantor
d = 4
m = 9
probabilities = [1/10, 1/10, 1/10, 1/10, 1/10, 1/10, 1/10, 1/10, 1/10, 1/10]
"""

# x/3 + {0, 2/87, 2/3}: 2280 reduced vectors, 4679 triples
TABLE_87_CFG = """\
minpoly = [-1, 3]
translations = [0, 2/87, 2/3]
probabilities = [1/3, 1/3, 1/3]
"""


@pytest.fixture(scope="module")
def cfgdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    for name, text in (
        ("six.cfg", SIX_CFG),
        ("free.cfg", FREE_CFG),
        ("gap.cfg", GAP_CFG),
        ("zerorow.cfg", ZEROROW_CFG),
        ("golden_third.cfg", GOLDEN_THIRD_CFG),
        ("golden_half.cfg", GOLDEN_HALF_CFG),
        ("cantor_light.cfg", CANTOR_LIGHT_CFG),
        ("cantor_4_9.cfg", CANTOR_4_9_CFG),
        ("table_87.cfg", TABLE_87_CFG),
    ):
        (root / name).write_text(text, encoding="utf-8")
    return root


# -- config parsing ---------------------------------------------------------


def test_parse_config_text_values():
    cfg = parse_config("a = 1/2\nb = [1, 2/3, [4]]\nc = word\n")
    assert cfg == {
        "a": Fraction(1, 2),
        "b": [Fraction(1), Fraction(2, 3), [Fraction(4)]],
        "c": "word",
    }


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("a = 1\na = 2\n")


def test_family_shorthand_cantor():
    system = build_system(
        {"family": "cantor", "d": Fraction(3), "m": Fraction(4)}
    )
    assert len(system.translations) == 5
    assert system.probabilities is None


def test_family_shorthand_convolution():
    system = build_system(
        {
            "family": "convolution",
            "d": Fraction(3),
            "k": Fraction(2),
            "base_probabilities": [Fraction(1, 2), Fraction(1, 2)],
        }
    )
    assert tuple(system.probabilities) == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )


def test_raw_config_with_coefficient_lists():
    cfg = parse_config(
        "minpoly = [4, -18, 9]\n"
        "isolating = [0, 1/2]\n"
        "translations = [[0], [0, 1, -1], [1, -2, 1], [1, -1]]\n"
        "probabilities = [1/4, 1/4, 1/4, 1/4]\n"
    )
    system = build_system(cfg)
    assert len(system.translations) == 4


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match="translations"):
        build_system({"minpoly": [Fraction(-1), Fraction(4)]})


@pytest.mark.parametrize("entry", ["[]", "[[0]]", "word"])
def test_a_translation_must_name_an_element(entry):
    # an empty coefficient list names no element; it is not 0
    cfg = parse_config("minpoly = [-1, 3]\ntranslations = [%s, 2/3]\n" % entry)
    with pytest.raises(ConfigError, match="each translation must be a rational"):
        build_system(cfg)


# -- exit codes ---------------------------------------------------------------


def test_explore_summary(cfgdir, capsys):
    rc = main(["explore", "--config", str(cfgdir / "six.cfg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4 reduced characteristic vectors" in out
    assert "finite type proven: yes" in out


@pytest.mark.parametrize("point", ["[]", "[[1/2]]", "half"])
def test_pointdim_point_must_name_an_element(cfgdir, capsys, point):
    # an empty coefficient list names no point; it is not 0
    rc = main(["pointdim", "--config", str(cfgdir / "six.cfg"), "--point", point])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "--point must be a rational like 2/3" in captured.err


def test_malformed_config_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("minpoly = [-1, 4]\ntranslations [0, 1/2]\n", encoding="utf-8")
    rc = main(["explore", "--config", str(bad)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "line 2" in err


def test_unknown_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "minpoly = [-1, 4]\ntranslations = [0]\nwibble = 1\n", encoding="utf-8"
    )
    rc = main(["explore", "--config", str(bad)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "unknown key" in err


def test_budget_exhaustion_exit_code(cfgdir, capsys):
    rc = main(
        ["explore", "--config", str(cfgdir / "six.cfg"), "--max-vectors", "2"]
    )
    assert rc == 2
    assert "not proven finite type" in capsys.readouterr().err


def test_flag_validation(cfgdir, capsys):
    base = ["pointdim", "--config", str(cfgdir / "six.cfg"), "--point", "0"]
    assert main(base + ["--depth", "-3"]) == 3
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["pointdim", "--point", "0", "--cycle-budget", "2"],
        ["explore", "--json", "out.json"],
        ["graph", "reduced", "--depth", "5"],
        ["report", "--dot", "out.dot"],
        ["report", "--depth", "5"],
    ],
)
def test_subcommands_reject_flags_they_ignore(cfgdir, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--config", str(cfgdir / "six.cfg")])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_point_in_attractor_gap_exits_4(cfgdir, capsys):
    rc = main(
        ["pointdim", "--config", str(cfgdir / "zerorow.cfg"), "--point", "0.35"]
    )
    assert rc == 4
    assert "not in attractor" in capsys.readouterr().err


# -- pointdim -----------------------------------------------------------------


def test_pointdim_gap_endpoint_isolated(cfgdir, capsys):
    rc = main(
        [
            "pointdim",
            "--config",
            str(cfgdir / "gap.cfg"),
            "--point",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "local dimension: 1.5 in" in out
    assert "ISOLATED: the value lies outside the certified outer interval" in out


def test_pointdim_golden_third_flagged_by_family_bound(cfgdir, capsys):
    rc = main(
        [
            "pointdim",
            "--config",
            str(cfgdir / "golden_third.cfg"),
            "--point",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "2.28301182859" in out
    assert "ISOLATED" in out
    assert "above the family upper bound" in out
    assert "2.10295931729" in out


def test_pointdim_golden_half_not_flagged(cfgdir, capsys):
    rc = main(
        [
            "pointdim",
            "--config",
            str(cfgdir / "golden_half.cfg"),
            "--point",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "1.44042009041" in out
    assert "ISOLATED" not in out


def test_pointdim_explicit_cycle(cfgdir, capsys):
    rc = main(
        ["pointdim", "--config", str(cfgdir / "six.cfg"), "--cycle", "0|0"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "explicit periodic path: prefix (0,) cycle (0,)" in out
    assert "1.29248125036" in out


def test_pointdim_bad_cycle_edge(cfgdir, capsys):
    rc = main(["pointdim", "--config", str(cfgdir / "six.cfg"), "--cycle", "99"])
    assert rc == 3
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--point", "abc"], ["--cycle", "0,x"]])
def test_pointdim_malformed_flag_fails_before_exploring(
    cfgdir, capsys, tmp_path, monkeypatch, flag
):
    def no_explore(*args, **kwargs):
        raise AssertionError("explored before the flag was parsed")

    monkeypatch.setattr(cli, "explore", no_explore)
    cache = tmp_path / "structure.json"
    argv = ["pointdim", "--config", str(cfgdir / "table_87.cfg"), "--cache", str(cache)]
    assert main(argv + flag) == 3
    assert "input error" in capsys.readouterr().err
    assert not cache.exists()


def test_pointdim_slope_sequence_for_aperiodic_point(cfgdir, capsys, tmp_path):
    # no float slope sequence: an aperiodic point gets a certified interval
    # or no number at all
    six = str(cfgdir / "six.cfg")
    jsons = []
    outs = []
    for depth in ("3", "20", "60"):
        jsons.append(tmp_path / ("six-%s.json" % depth))
        argv = ["pointdim", "--config", six, "--point", "1/97", "--depth", depth]
        assert main(argv + ["--json", str(jsons[-1])]) == 0
        outs.append(capsys.readouterr().out)
    shallow, aperiodic, periodic = outs

    # at depth 3 the walk has not reached the essential triple class yet
    assert "classification: needs_more_depth" in shallow
    assert "local dimension:" not in shallow
    assert json.loads(jsons[0].read_text()) == {
        "classification": "needs_more_depth",
        "point": "1/97",
    }
    assert shallow.splitlines()[-1] == (
        "no period within depth 3; no local dimension is certified "
        "(a larger --depth may settle it)"
    )

    # at depth 20 the point is truly essential but shows no period; the
    # certified outer interval contains the value that depth 60 certifies
    assert "classification: interior_essential" in aperiodic
    lines = aperiodic.splitlines()
    assert lines[-1] == (
        "no period within depth 20; the lower and upper local dimensions lie "
        "in the certified outer interval [0.79248125036, 1.292481250361]"
    )
    assert "local dimension: 1.01456770863 in [1.014567708633, 1.014567708634]" in periodic
    bounds = json.loads(jsons[1].read_text())["local_dimension_bounds"]
    value = json.loads(jsons[2].read_text())["local_dimension"]["dimension"]
    assert Fraction(bounds["lo"]) <= Fraction(value["lo"])
    assert Fraction(value["hi"]) <= Fraction(bounds["hi"])

    for path in jsons:
        assert "slopes" not in json.loads(path.read_text())

    # period 252: the default depth closes it
    cantor = str(cfgdir / "cantor_4_9.cfg")
    assert main(["pointdim", "--config", cantor, "--point", "1/1009"]) == 0
    out = capsys.readouterr().out
    assert "cycle(start=5, period=252)" in out
    assert "local dimension: 1.01065475209 in [1.010654752093, 1.010654752094]\n" in out


@pytest.mark.parametrize("point, depth", [("0", "1"), ("2/87", "2")])
def test_boundary_point_prints_the_same_at_a_short_depth(cfgdir, capsys, tmp_path, point, depth):
    # --depth bounds only the interior search: a boundary point's forced
    # chains run to their close, here past the depth asked for
    argv = ["pointdim", "--config", str(cfgdir / "table_87.cfg"), "--point", point]
    outs = []
    for extra, name in ((["--depth", depth], "short.json"), ([], "default.json")):
        assert main(argv + extra + ["--json", str(tmp_path / name)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert (tmp_path / "short.json").read_bytes() == (tmp_path / "default.json").read_bytes()
    assert "classification: non_essential" in outs[0]


def test_pointdim_needs_probabilities(cfgdir, capsys):
    rc = main(["pointdim", "--config", str(cfgdir / "free.cfg"), "--point", "0"])
    assert rc == 3
    assert "probabilities" in capsys.readouterr().err


# stdout of pointdim, byte for byte: two one-sided rates, and both phrasings
# of an isolated value
PINNED_POINTDIM = {
    ("six", "1/2"): (
        "point 1/2\n"
        "boundary point: yes\n"
        "classification: essential_not_truly\n"
        "  side left: edges 3,3 cycle(start=1, period=1)\n"
        "  side right: edges 4,0,0 cycle(start=2, period=1)\n"
        "local dimension: 1.29248125036 in [1.29248125036, 1.292481250361]\n"
        "two one-sided rates (ball mass takes the larger side, hence the smaller dimension):\n"
        "  rate[0] = 1.29248125036 in [1.29248125036, 1.292481250361], "
        "cycle spectral radius 1/6  <- governs\n"
        "  rate[1] = 1.29248125036 in [1.29248125036, 1.292481250361], "
        "cycle spectral radius 1/6\n"
    ),
    ("golden_third", "0"): (
        "point 0\n"
        "boundary point: yes\n"
        "classification: non_essential\n"
        "  side right: edges 0,0 cycle(start=1, period=1)\n"
        "local dimension: 2.28301182859 in [2.283011828589, 2.28301182859]\n"
        "  rate[0] = 2.28301182859 in [2.283011828589, 2.28301182859], "
        "cycle spectral radius 1/3\n"
        "ISOLATED: the value lies above the family upper bound for truly "
        "essential points (bound 2.10295931729)\n"
    ),
    ("gap", "0"): (
        "point 0\n"
        "boundary point: yes\n"
        "classification: non_essential\n"
        "  side right: edges 0,0 cycle(start=1, period=1)\n"
        "local dimension: 1.5 in [1.499999999999, 1.500000000001]\n"
        "  rate[0] = 1.5 in [1.499999999999, 1.500000000001], cycle spectral radius 1/8\n"
        "ISOLATED: the value lies outside the certified outer interval "
        "[0.999999999999, 1.000000000001]\n"
    ),
}


@pytest.mark.parametrize("cfg, point", sorted(PINNED_POINTDIM))
def test_pointdim_stdout_is_pinned(cfgdir, capsys, cfg, point):
    assert main(["pointdim", "--config", str(cfgdir / (cfg + ".cfg")), "--point", point]) == 0
    assert capsys.readouterr().out == PINNED_POINTDIM[cfg, point]


# golden_third at 1/87 and 2/87: the period-56 cycle product has rank one, so its
# radius is its trace, a rational over 3^54, past any denominator a float midpoint
# suggests; the lo and hi are the dimension enclosure printed before it was exact
GOLDEN_RANK_ONE = {
    "1/87": (
        "1281809070080/58149737003040059690390169",
        "3144577005603711512797877396207740701059/2694786220333779305987449915176463171040",
        "3144577005603711523313564268655204214809/2694786220333779305987449915176463168240",
    ),
    "2/87": (
        "6390250496000/58149737003040059690390169",
        "596785380065526490115752850990346638343/538957244066755861197489983035292634208",
        "745981725081908112973711663862318242117/673696555083444826496862478794115792060",
    ),
}


@pytest.mark.parametrize("point", sorted(GOLDEN_RANK_ONE))
def test_rank_one_cycle_radius_is_its_exact_trace(
    cfgdir, capsys, tmp_path, golden_third_structure, point
):
    structure = golden_third_structure
    radius, old_lo, old_hi = map(Fraction, GOLDEN_RANK_ONE[point])
    spec = dimension.PeriodicSpec.from_location(locate_point(structure, Fraction(point)))
    assert spec.second is None and len(spec.cycle) == 56
    table = MatrixTable(structure)
    anchor = dimension._walk_from(structure, structure.root_full, spec.prefix)
    rows = table.cycle_matrix(anchor, spec.cycle).rows
    n = len(rows)
    assert n > 1 and any(any(row) for row in rows)
    # every 2x2 minor vanishes: rank one, so det 0 and sp = trace
    assert all(
        rows[i][k] * rows[j][l] == rows[i][l] * rows[j][k]
        for i in range(n) for j in range(n) for k in range(n) for l in range(n)
    )
    trace = sum(rows[i][i] for i in range(n))
    assert trace == radius
    result = dimension.local_dim_periodic(structure, table, spec)
    assert result.spectral[0].exact == trace
    out = tmp_path / "point.json"
    argv = ["pointdim", "--config", str(cfgdir / "golden_third.cfg"), "--point", point]
    assert main(argv + ["--json", str(out)]) == 0
    assert "cycle spectral radius %s\n" % radius in capsys.readouterr().out
    dim = json.loads(out.read_text())["local_dimension"]["dimension"]
    assert old_lo <= Fraction(dim["lo"]) <= Fraction(dim["hi"]) <= old_hi


@pytest.mark.parametrize("cfg", ["gap", "golden_third", "golden_half", "six", "cantor_light"])
def test_pointdim_agrees_with_report_at_the_endpoints(cfgdir, capsys, tmp_path, cfg):
    # both reach the endpoint verdict through dimension.isolation_verdict
    config_path = str(cfgdir / (cfg + ".cfg"))
    report_json = tmp_path / "report.json"
    report = ["report", "--config", config_path, "--cycle-budget", "2"]
    assert main(report + ["--json", str(report_json)]) == 0
    isolation = json.loads(report_json.read_text(encoding="utf-8"))["measure"]["isolation"]
    for point, key in (("0", "at_zero"), ("1", "at_one")):
        point_json = tmp_path / ("point%s.json" % point)
        pointdim = ["pointdim", "--config", config_path, "--point", point]
        assert main(pointdim + ["--json", str(point_json)]) == 0
        payload = json.loads(point_json.read_text(encoding="utf-8"))
        finding = isolation[key]
        assert payload["isolated"] is finding["isolated"]
        assert payload["local_dimension"]["dimension"] == finding["dimension"]["dimension"]
    capsys.readouterr()


# -- report and graph -----------------------------------------------------------


def test_report_on_a_contraction_ratio_near_1e_20(tmp_path, capsys):
    # rho, the root in [0, 1/2] of (10^40 + 7) x^2 + x - 1, is about 1e-20;
    # bracketed relative to itself, |ln rho| keeps its digits, and the two
    # halves give dimension ln 2 / |ln rho|, about 2 ln 2 / ln(10^40)
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "minpoly = [-1, 1, %d]\nisolating = [0, 1/2]\n"
        "translations = [0, 1]\nprobabilities = [1/2, 1/2]\n" % (10**40 + 7),
        encoding="utf-8",
    )
    jpath = tmp_path / "tiny.json"
    assert main(["report", "--config", str(path), "--json", str(jpath)]) == 0
    assert "hausdorff dimension: 0.0150514997832 in" in capsys.readouterr().out
    dim = json.loads(jpath.read_text(encoding="utf-8"))["hausdorff"]["dimension"]
    with mpmath.workdps(60):
        a = mpmath.mpf(10**40 + 7)
        rho = (mpmath.sqrt(1 + 4 * a) - 1) / (2 * a)
        true = mpmath.log(2) / -mpmath.log(rho)
        lo, hi = (Fraction(dim[k]) for k in ("lo", "hi"))
        lo, hi = (mpmath.mpf(q.numerator) / q.denominator for q in (lo, hi))
        assert lo <= true <= hi
        assert hi - lo <= true * mpmath.mpf(10) ** -30


def test_report_probability_free(cfgdir, capsys, tmp_path):
    jpath = tmp_path / "out.json"
    rc = main(
        ["report", "--config", str(cfgdir / "free.cfg"), "--json", str(jpath)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "measure analysis unavailable" in out
    payload = json.loads(jpath.read_text(encoding="utf-8"))
    assert payload["schema_version"] == 2
    assert payload["measure"] is None


# SHA-256 of `report --cycle-budget 4` stdout for each config above
REPORT_STDOUT_SHA256 = {
    "six": "fe8701e391e00e7bf6dc10ceffde2d4b1fd255304ecb4cbfd1f8357b41b7a496",
    "free": "7119d6bdbff6e911f18de641a8d0f5dff2885801333d42a1dc94018152433ae4",
    "gap": "87d4be8fe5cb4a3113aa13a4e22d4c837917ebe01ec533f285dc023c07a8d4a8",
    "zerorow": "8b1af526ae96ac92bfe152bd601b194299888a9dbfe383640b5b25ca59ea2ac2",
    "golden_third": "a6c448b236dc99625b34273a7664e2fafe6506d0bc54428c8b74e3a6b83bd479",
    "golden_half": "0ccae2ddd2454588058c6129ad2f2cff54ff846e061176ef16cd1b5404a1cb1d",
    "cantor_light": "7e5546ba20c65998e65ebdb6fb1b0dc97c1d5cb61ffaa41a4385a0383b236be2",
}


@pytest.mark.parametrize("cfg", sorted(REPORT_STDOUT_SHA256))
def test_report_stdout_is_pinned(cfgdir, capsys, cfg):
    argv = ["report", "--config", str(cfgdir / (cfg + ".cfg")), "--cycle-budget", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_STDOUT_SHA256[cfg]


# commands whose stdout and --json must not depend on where the structure
# came from; the pointdim points read edge matrices of a loaded structure
CACHE_REUSE_CASES = [
    pytest.param("gap", ["report", "--cycle-budget", "2"], id="gap-report"),
    pytest.param("gap", ["pointdim", "--point", "0"], id="gap-0"),
    pytest.param("gap", ["pointdim", "--point", "3/4"], id="gap-3_4"),
    pytest.param("gap", ["pointdim", "--point", "1/15"], id="gap-1_15"),
    pytest.param("golden_third", ["pointdim", "--point", "0"], id="golden_third-0"),
    pytest.param("golden_third", ["pointdim", "--point", "1"], id="golden_third-1"),
    pytest.param("six", ["pointdim", "--point", "1/97", "--depth", "20"], id="six-1_97"),
]


@pytest.mark.parametrize("cfg, args", CACHE_REUSE_CASES)
def test_cache_reuse_is_byte_identical(cfgdir, capsys, tmp_path, cfg, args):
    cache = str(tmp_path / "structure.json")
    jsons = [str(tmp_path / ("out%d.json" % i)) for i in range(3)]
    argv = [args[0], "--config", str(cfgdir / (cfg + ".cfg"))] + args[1:]

    assert main(argv + ["--cache", cache, "--json", jsons[0]]) == 0
    first = capsys.readouterr()
    assert "wrote structure cache" in first.err

    assert main(argv + ["--cache", cache, "--json", jsons[1]]) == 0
    second = capsys.readouterr()
    assert "loaded structure cache" in second.err

    assert main(argv + ["--json", jsons[2]]) == 0
    third = capsys.readouterr()

    assert first.out == second.out == third.out
    blobs = []
    for path in jsons:
        with open(path, encoding="utf-8") as handle:
            blobs.append(handle.read())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("bad_id", [-1, 999])
def test_cache_with_bad_reduced_id_is_replaced(cfgdir, capsys, tmp_path, bad_id):
    cache = tmp_path / "structure.json"
    config_path = str(cfgdir / "six.cfg")
    assert main(["explore", "--config", config_path, "--cache", str(cache)]) == 0
    capsys.readouterr()
    payload = oh.read_unpacked(cache)
    payload["full_reduced"][1] = bad_id
    oh.write_packed(cache, payload)
    argv = ["report", "--config", config_path, "--cycle-budget", "2"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "cache unusable" in captured.err
    assert captured.out == fresh


def test_cache_with_a_child_record_missing_a_key_is_replaced(cfgdir, capsys, tmp_path):
    cache = tmp_path / "structure.json"
    config_path = str(cfgdir / "six.cfg")
    assert main(["explore", "--config", config_path, "--cache", str(cache)]) == 0
    capsys.readouterr()
    payload = oh.read_unpacked(cache)
    payload["abuts_right"].pop()  # the last child record is one field short
    oh.write_packed(cache, payload)
    argv = ["report", "--config", config_path, "--cycle-budget", "2"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "cache unusable" in captured.err
    assert "wrote structure cache" in captured.err
    assert captured.out == fresh


def test_saturated_cache_with_an_unexpanded_vector_is_replaced(cfgdir, capsys, tmp_path):
    cache = tmp_path / "structure.json"
    config_path = str(cfgdir / "golden_third.cfg")
    assert main(["explore", "--config", config_path, "--cache", str(cache)]) == 0
    capsys.readouterr()
    payload = oh.read_unpacked(cache)
    assert payload["saturated"] is True
    # vector 2 loses its child records, as if it had never been expanded
    start, count = sum(payload["child_count"][:2]), payload["child_count"][2]
    for name in ("child", "offset", "gap_before", "abuts_left", "abuts_right"):
        del payload[name][start : start + count]
    payload["child_count"][2] = 0
    oh.write_packed(cache, payload)
    argv = ["report", "--config", config_path, "--cycle-budget", "2"]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "cache unusable" in captured.err
    assert "wrote structure cache" in captured.err
    assert captured.out == fresh


def test_unsaturated_cache_is_replaced(cfgdir, capsys, tmp_path):
    cache = tmp_path / "structure.json"
    argv = ["explore", "--config", str(cfgdir / "six.cfg"), "--cache", str(cache)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert "finite type proven: yes" in fresh
    payload = json.loads(cache.read_text(encoding="utf-8"))
    payload["saturated"] = False
    cache.write_text(json.dumps(payload), encoding="utf-8")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "cache unusable" in captured.err
    assert "wrote structure cache" in captured.err
    assert captured.out == fresh
    assert json.loads(cache.read_text(encoding="utf-8"))["saturated"] is True


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"\xff\xfe{", id="not-utf-8"),
        pytest.param(b"[" * 200_000, id="nested-200000-deep"),
    ],
)
def test_cache_that_does_not_decode_is_replaced(cfgdir, capsys, tmp_path, data):
    argv = ["explore", "--config", str(cfgdir / "golden_third.cfg")]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    cache = tmp_path / "structure.json"
    cache.write_bytes(data)
    assert main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "cache unusable (cannot read cache" in captured.err
    assert "wrote structure cache" in captured.err
    assert captured.out == fresh
    assert main(argv + ["--cache", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "loaded structure cache" in captured.err
    assert captured.out == fresh


def test_stale_cache_is_replaced(cfgdir, capsys, tmp_path):
    cache = str(tmp_path / "structure.json")
    assert main(["explore", "--config", str(cfgdir / "six.cfg"), "--cache", cache]) == 0
    capsys.readouterr()
    rc = main(["explore", "--config", str(cfgdir / "gap.cfg"), "--cache", cache])
    captured = capsys.readouterr()
    assert rc == 0
    assert "cache unusable" in captured.err
    assert "wrote structure cache" in captured.err


def test_cache_that_cannot_be_written_warns_and_finishes(cfgdir, capsys, tmp_path):
    six = ["explore", "--config", str(cfgdir / "six.cfg")]
    assert main(six) == 0
    expected = capsys.readouterr().out
    # a directory can be neither read nor replaced as a cache file
    cache = tmp_path / "structure"
    cache.mkdir()
    rc = main(six + ["--cache", str(cache)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == expected
    assert "cache unusable" in captured.err
    assert "cache not written" in captured.err
    assert "wrote structure cache" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["structure"]


def test_json_path_that_cannot_be_written_is_an_input_error(cfgdir, capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "report.json"
    argv = ["report", "--config", str(cfgdir / "six.cfg"), "--cycle-budget", "2"]
    assert main(argv + ["--json", str(missing)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: cannot write %s" % missing)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--cycle-budget", "2", "--json"],
        ["pointdim", "--point", "1/3", "--json"],
        ["graph", "reduced", "--dot"],
    ],
)
def test_output_path_is_checked_before_exploring(cfgdir, capsys, tmp_path, monkeypatch, argv):
    def no_explore(*args, **kwargs):
        raise AssertionError("explored before the output path was checked")

    monkeypatch.setattr(cli, "explore", no_explore)
    # a missing directory, and a directory where the file should be
    for path in (tmp_path / "no-such-dir" / "out", tmp_path):
        assert main(argv + [str(path), "--config", str(cfgdir / "six.cfg")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: cannot write %s" % path)
    assert list(tmp_path.iterdir()) == []


def test_failed_run_leaves_its_json_path_as_it_was(cfgdir, capsys, tmp_path):
    # the path check neither truncates an existing file nor leaves a new one
    argv = ["pointdim", "--config", str(cfgdir / "zerorow.cfg"), "--point", "0.35", "--json"]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept", encoding="utf-8")
    assert main(argv + [str(new)]) == 4
    assert main(argv + [str(old)]) == 4
    assert capsys.readouterr().out == ""
    assert not new.exists()
    assert old.read_text(encoding="utf-8") == "kept"


def test_dot_path_that_cannot_be_written_is_an_input_error(cfgdir, capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "graph.dot"
    argv = ["graph", "reduced", "--config", str(cfgdir / "six.cfg")]
    assert main(argv + ["--dot", str(missing)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: cannot write %s" % missing)


def test_graph_to_stdout_and_file(cfgdir, capsys, tmp_path):
    rc = main(["graph", "reduced", "--config", str(cfgdir / "six.cfg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("digraph reduced_transitions {")
    dot = tmp_path / "graph.dot"
    rc = main(
        [
            "graph",
            "reduced",
            "--config",
            str(cfgdir / "six.cfg"),
            "--dot",
            str(dot),
        ]
    )
    second = capsys.readouterr()
    assert rc == 0
    assert second.out == ""
    assert dot.read_text(encoding="utf-8") == out


def test_graph_triple(cfgdir, capsys):
    rc = main(["graph", "triple", "--config", str(cfgdir / "gap.cfg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("digraph triple_diagram {")


# SHA-256 of `graph` stdout: node ids, their order, labels and fills, byte
# for byte (the benchmark checker compares only node, edge and fill counts)
GRAPH_STDOUT_SHA256 = {
    ("six", "reduced"): "5906569da4c8cad83f1f892a15924e3f98611ef008f0cdcacd802081bb2c6a79",
    ("six", "triple"): "28ab47127904cbd381f0fef1d7bbd98011d3771e3fbd141b3ad81f1d9cdb1a02",
    ("free", "reduced"): "5906569da4c8cad83f1f892a15924e3f98611ef008f0cdcacd802081bb2c6a79",
    ("free", "triple"): "28ab47127904cbd381f0fef1d7bbd98011d3771e3fbd141b3ad81f1d9cdb1a02",
    ("gap", "reduced"): "185ef42d857b34c7e32d596b5884fa9970c3dbd2c3e06e27fd8e5e9c3ee53d86",
    ("gap", "triple"): "5232081b20feb394a266fc6ebb364c1190862ca5bf0ce25a90d847d4a133340b",
    ("zerorow", "reduced"): "6fbd6d667d62ef3740b09ac5e7ed7f2bb7c338a5723637318a520d81b13c1f66",
    ("zerorow", "triple"): "31e89c8f5d9f742609cd608cb7a4d9e4c47cf396fb0cb2ac6dd0b7d3035e362b",
    ("golden_third", "reduced"): "b8dc41150e84c8cb978ac2fec2201454434d807127bf5f78b0647454186c9b4c",
    ("golden_third", "triple"): "f1e3edd1865b1bed364d2ea45f5369566542241c4c7746976646b1ddd9a6fc0b",
    ("golden_half", "reduced"): "b8dc41150e84c8cb978ac2fec2201454434d807127bf5f78b0647454186c9b4c",
    ("golden_half", "triple"): "f1e3edd1865b1bed364d2ea45f5369566542241c4c7746976646b1ddd9a6fc0b",
    ("cantor_light", "reduced"): "60840feff4c2c1f8730dd85271834b10b49f75f39076f7a3b0c9a8859ec45bb0",
    ("cantor_light", "triple"): "c887d230d5ccd4deb0b1b3b2451288452a9a1ddacf1e6304f2598130d979d86c",
    ("table_87", "reduced"): "6d1e316731a8761e21974ffc1f8e990b527989a5d34c7d7c839c69bdcfd53882",
    ("table_87", "triple"): "28662544edbd7f25a776bb3f8f383ac9bdf4a2ac96c7c39327e913edb1b5dcc0",
}


@pytest.mark.parametrize("cfg, which", sorted(GRAPH_STDOUT_SHA256))
def test_graph_stdout_is_pinned(cfgdir, capsys, cfg, which):
    assert main(["graph", which, "--config", str(cfgdir / (cfg + ".cfg"))]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GRAPH_STDOUT_SHA256[cfg, which]


@pytest.mark.parametrize("cfg", ["table_87", "golden_third"])
def test_graph_stdout_from_a_warm_cache_is_pinned(cfgdir, tmp_path, capsys, cfg):
    # the pins above come from fresh explorations; a cached structure must
    # print the same bytes, irrational coordinates included
    config_path = str(cfgdir / (cfg + ".cfg"))
    cache = str(tmp_path / "cache.json")
    assert main(["explore", "--config", config_path, "--cache", cache]) == 0
    capsys.readouterr()
    for which in ("reduced", "triple"):
        assert main(["graph", which, "--config", config_path, "--cache", cache]) == 0
        captured = capsys.readouterr()
        assert "loaded structure cache" in captured.err
        digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        assert digest == GRAPH_STDOUT_SHA256[cfg, which], which


# SHA-256 of `graph triple` stdout and its number of filled (essential)
# triples on the six benchmark systems, as recorded when the constructor
# still expanded the whole diagram and ran Tarjan over all of it
SUITE_TRIPLE_DOT = {
    "table_87": ("28662544edbd7f25a776bb3f8f383ac9bdf4a2ac96c7c39327e913edb1b5dcc0", 6),
    "cantor_4_9": ("2bb94b3034b50b359dbbc0bb64e3c76ecf89bfba5de67518eb50647d07087960", 4),
    "convolution_3_8": ("66e59da0a5a0fc242ab754404e376d6f032aa3808790e42e02683748f68bd2ee", 3),
    "golden_third": ("f1e3edd1865b1bed364d2ea45f5369566542241c4c7746976646b1ddd9a6fc0b", 6),
    "tribonacci_third": ("b5caccdeb2b0d3c09bfbe545138fbcbc244e2251febdb661602137786208554e", 15),
    "quadratic_ninth": ("cd12731b905223701b752fe7da70c31a22a386f9cee516c3e28ba10c409ebd33", 12),
}


@pytest.mark.parametrize("name", sorted(SUITE_TRIPLE_DOT))
def test_suite_triple_dot_stdout_is_pinned(tmp_path, capsys, monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import SYSTEMS

    config_path = tmp_path / (name + ".cfg")
    config_path.write_text(SYSTEMS[name], encoding="utf-8")
    assert main(["graph", "triple", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    digest, filled = SUITE_TRIPLE_DOT[name]
    assert out.count('fillcolor="#cfd8e8"') == filled
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "name",
    ["six", "free", "gap", "zerorow", "golden_third", "golden_half", "cantor_light"]
    + ["cantor_4_9", "convolution_3_8", "table_87", "tribonacci_third", "quadratic_ninth"],
)
def test_exact_logs_nest_inside_the_padded_ones(cfgdir, tmp_path, capsys, monkeypatch, name):
    # every dimension enclosure of a report, from the exact logarithms, lies
    # inside the one the padded float logarithms gave, and nothing discrete moves
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from checker import is_dimension, job_facts
    from workloads import SYSTEMS

    config_path = cfgdir / (name + ".cfg")
    if not config_path.exists():
        config_path = tmp_path / (name + ".cfg")
        config_path.write_text(SYSTEMS[name], encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ("report", "--config", str(config_path), "--cycle-budget", "4", "--json", str(out))

    def facts():
        rc = main(list(argv))
        return job_facts(argv, rc, capsys.readouterr().out, out.read_text(encoding="utf-8"))

    new = facts()
    with monkeypatch.context() as m:
        m.setattr(dimension, "log_enclosure", oh.padded_log_enclosure)
        m.setattr(dimension, "rho_log_enclosure", oh.padded_rho_log_enclosure)
        old = facts()
    assert new["exit"] == old["exit"] == 0
    assert new["discrete"] == old["discrete"]
    keys = [key for key in old["enclosures"] if is_dimension(key)]
    assert keys and sorted(keys) == sorted(k for k in new["enclosures"] if is_dimension(k))
    for key in keys:
        old_lo, old_hi, _ = map(Fraction, old["enclosures"][key])
        lo, hi, _ = map(Fraction, new["enclosures"][key])
        assert old_lo <= lo <= hi <= old_hi, key
        assert hi - lo < old_hi - old_lo or lo == old_lo == hi, key


# every point pointdim classifies above, with its --depth
QUERIED_POINTS = {
    "six": [("1/2", 60), ("0", 60), ("1", 60), ("1/97", 20)],
    "gap": [("0", 60), ("1", 60), ("3/4", 60), ("1/15", 60)],
    "golden_third": [("0", 60), ("1", 60)],
    "golden_half": [("0", 60), ("1", 60)],
    "cantor_light": [("0", 60), ("1", 60)],
}


@pytest.mark.parametrize("cfg", sorted(QUERIED_POINTS))
def test_pointdim_classifies_on_an_unexpanded_diagram(cfgdir, cfg):
    # pointdim hands classify_truly_essential a diagram that expands on
    # demand; the answer must be the one the whole diagram gives
    system = config.load_config(str(cfgdir / (cfg + ".cfg")))
    structure = explore(system)
    dec = decompose(structure)
    whole = oh.whole_triple_diagram(structure, dec)
    for point, depth in QUERIED_POINTS[cfg]:
        location = locate_point(structure, cli._parse_point(point, system), depth=depth)
        fresh = build_triple_diagram(structure, dec)
        got = classify_truly_essential(fresh, location)
        assert got == classify_truly_essential(whole, location), point


# -- what a fresh process imports ----------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# runs `cli.main` (config parse included) on each argv in a fresh
# interpreter and prints, as JSON, each (exit code, stdout), whether numpy
# got loaded, which `ifsdim` modules did, and whether dataclasses was loaded
# at the start and at the end; with "block" set, any import of numpy raises
# ImportError; with "trace" set, a perfbench Tracer is installed around
# every command and the names of its spans are printed too
FRESH_RUNS = """\
import contextlib, io, json, sys
dataclasses_at_start = "dataclasses" in sys.modules
argvs, block, trace = json.loads(sys.argv[1])
if block:
    sys.modules["numpy"] = None
from ifsdim import cli
tracer = None
if trace:
    sys.path.insert(0, trace)
    from tracer import Tracer
    tracer = Tracer()
cold = "decompose" not in vars(cli)
runs = []
with tracer.installed() if tracer else contextlib.nullcontext():
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        runs.append([rc, out.getvalue()])
print(json.dumps({
    "runs": runs,
    "numpy": sys.modules.get("numpy") is not None,
    "modules": sorted(m[7:] for m in sys.modules if m.startswith("ifsdim.")),
    "dataclasses": [dataclasses_at_start, "dataclasses" in sys.modules],
    "cold": cold,
    "spans": None if tracer is None else [s.name for s in tracer.spans],
}))
"""

# the modules that only the analysis commands need
LAYERS = {"classes", "dimension", "dot", "matrices", "report", "spectral"}


def _fresh_runs(argvs, block=False, trace=False):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    arg = json.dumps([argvs, block, str(PERFBENCH) if trace else None])
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUNS, arg],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_that_screen_nothing_run_without_numpy(cfgdir, capsys):
    # the pytest process has numpy loaded already, so only a fresh
    # interpreter shows what a command imports
    argvs = [
        ["explore", "--config", str(cfgdir / "six.cfg")],
        ["graph", "reduced", "--config", str(cfgdir / "golden_third.cfg")],
        ["graph", "triple", "--config", str(cfgdir / "golden_third.cfg")],
        ["pointdim", "--config", str(cfgdir / "zerorow.cfg"), "--point", "0.35"],
    ]
    fresh = _fresh_runs(argvs, block=True)
    assert not fresh["numpy"]
    expected = []
    for argv in argvs:
        rc = main(argv)
        expected.append([rc, capsys.readouterr().out])
    assert fresh["runs"] == expected
    assert [rc for rc, _ in fresh["runs"]] == [0, 0, 0, 4]

    # a report does load numpy and the analysis layers, and must show them
    # loaded, so neither check can pass for want of detecting an import
    report = ["report", "--config", str(cfgdir / "six.cfg"), "--cycle-budget", "2"]
    fresh = _fresh_runs([report])
    assert fresh["numpy"]
    assert LAYERS <= set(fresh["modules"])
    assert fresh["dataclasses"] == [False, False]
    assert fresh["runs"] == [[main(report), capsys.readouterr().out]]


def test_explore_and_input_errors_load_no_analysis_layer(cfgdir, tmp_path):
    # the test above checks that a report does load them
    bad = tmp_path / "bad.cfg"
    bad.write_text("minpoly = [-1, 4]\ntranslations [0, 1/2]\n", encoding="utf-8")
    for argvs, codes in (
        ([], []),
        ([["explore", "--config", str(cfgdir / "six.cfg")]], [0]),
        ([["report", "--config", str(bad)]], [3]),
    ):
        fresh = _fresh_runs(argvs)
        assert [rc for rc, _ in fresh["runs"]] == codes
        assert {"cli", "config", "net"} <= set(fresh["modules"]), argvs
        assert not LAYERS & set(fresh["modules"]), argvs
        # dataclasses would bring inspect, ast, dis and tokenize with it
        assert fresh["dataclasses"] == [False, False], argvs


def test_no_package_module_imports_dataclasses():
    # the fresh runs above check the commands they run; this covers every
    # module, lazy imports inside functions included
    for path in sorted((SRC / "ifsdim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in [n.split(".")[0] for n in names], (path.name, node.lineno)


def test_a_tracer_installed_on_a_cold_cli_wraps_the_report(cfgdir, capsys):
    # the tracer looks the layer names up on `cli` before any command has
    # bound them; the wrappers it sets must survive the command's own binding
    report = ["report", "--config", str(cfgdir / "six.cfg"), "--cycle-budget", "2"]
    fresh = _fresh_runs([report], trace=True)
    assert fresh["cold"]
    assert {"dimension.report", "dimension.bounds"} <= set(fresh["spans"])
    assert fresh["runs"] == [[main(report), capsys.readouterr().out]]


def _graph_triple_read_for_one_line(cfgdir, tmp_path, capsys, unbuffered):
    """(exit code, stderr) of `graph triple` of table_87 read by a reader
    that closes the pipe after the first line."""
    # the triple DOT of table_87 is about 650 kB, more than a pipe holds, so
    # the write is still under way when the reader goes
    config_path = str(cfgdir / "table_87.cfg")
    cache = str(tmp_path / "cache.json")
    assert main(["explore", "--config", config_path, "--cache", cache]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ifsdim.cli", "graph", "triple"]
        + ["--config", config_path, "--cache", cache],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"digraph triple_diagram {\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert err == "loaded structure cache %s\n" % cache
    return proc.wait(timeout=120)


def test_a_reader_that_closes_early_gets_exit_1_and_no_traceback(cfgdir, tmp_path, capsys):
    assert _graph_triple_read_for_one_line(cfgdir, tmp_path, capsys, False) == 1


def test_an_unbuffered_reader_that_closes_early_gets_exit_1(cfgdir, tmp_path, capsys):
    # unbuffered, the one large write to the pipe comes back short instead
    # of raising; the write loop sees the closed pipe on its next write
    assert _graph_triple_read_for_one_line(cfgdir, tmp_path, capsys, True) == 1


# -- benchmark tracer bindings ---------------------------------------------------


def test_tracer_wraps_the_cli_path(cfgdir, monkeypatch, capsys):
    # perfbench/tracer.py wraps CLI layers by module attribute; every one
    # must resolve, and the explore path must pass through its wrappers
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import HOT, SPANS, Tracer

    for targets in SPANS.values():
        for owner, attr in targets:
            assert callable(getattr(owner, attr)), (owner, attr)
    for owner, attr, _ in HOT.values():
        assert callable(getattr(owner, attr)), (owner, attr)

    tracer = Tracer()
    with tracer.installed():
        assert main(["explore", "--config", str(cfgdir / "six.cfg")]) == 0
    assert {"config.load", "net.explore"} <= {s.name for s in tracer.spans}
    assert cli.load_config is config.load_config

    # report and an endpoint pointdim: the paths the isolation verdict runs on
    layers = {"matrices.table", "dimension.bounds", "dimension.local_dim"}
    for argv, scans, triples in (
        (["report", "--cycle-budget", "2"], 1, 0),
        (["pointdim", "--point", "0"], 0, 1),
    ):
        tracer = Tracer()
        with tracer.installed():
            assert main(argv + ["--config", str(cfgdir / "golden_half.cfg")]) == 0
        names = [s.name for s in tracer.spans]
        assert layers <= set(names), argv
        # pointdim judges the value it computed; only report scans both endpoints
        assert names.count("dimension.isolation") == scans, argv
        # only pointdim reads a triple diagram, to classify its point
        assert names.count("classes.triple") == triples, argv
    capsys.readouterr()
