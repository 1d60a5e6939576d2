"""End-to-end tests driving the command line entry point in process."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from ifsdim import cli, config
from ifsdim.cli import ConfigError, main, parse_config_text, system_from_config

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
    ):
        (root / name).write_text(text, encoding="utf-8")
    return root


# -- config parsing ---------------------------------------------------------


def test_parse_config_text_values():
    cfg = parse_config_text("a = 1/2\nb = [1, 2/3, [4]]\nc = word\n")
    assert cfg == {
        "a": Fraction(1, 2),
        "b": [Fraction(1), Fraction(2, 3), [Fraction(4)]],
        "c": "word",
    }


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\na = 2\n")


def test_family_shorthand_cantor():
    system = system_from_config(
        {"family": "cantor", "d": Fraction(3), "m": Fraction(4)}
    )
    assert len(system.translations) == 5
    assert system.probabilities is None


def test_family_shorthand_convolution():
    system = system_from_config(
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
    cfg = parse_config_text(
        "minpoly = [4, -18, 9]\n"
        "isolating = [0, 1/2]\n"
        "translations = [[0], [0, 1, -1], [1, -2, 1], [1, -1]]\n"
        "probabilities = [1/4, 1/4, 1/4, 1/4]\n"
    )
    system = system_from_config(cfg)
    assert len(system.translations) == 4


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match="translations"):
        system_from_config({"minpoly": [Fraction(-1), Fraction(4)]})


# -- exit codes ---------------------------------------------------------------


def test_explore_summary(cfgdir, capsys):
    rc = main(["explore", "--config", str(cfgdir / "six.cfg")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4 reduced characteristic vectors" in out
    assert "finite type proven: yes" in out


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
    base = ["report", "--config", str(cfgdir / "six.cfg")]
    assert main(base + ["--depth", "-3"]) == 3
    assert "--depth" in capsys.readouterr().err


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
            "--cycle-budget",
            "2",
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
            "--cycle-budget",
            "2",
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
            "--cycle-budget",
            "2",
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


def test_pointdim_slope_sequence_for_aperiodic_point(cfgdir, capsys):
    rc = main(
        [
            "pointdim",
            "--config",
            str(cfgdir / "six.cfg"),
            "--point",
            "1/97",
            "--depth",
            "20",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "no periodic representation within depth" in out
    assert "log-mass slope" in out


def test_pointdim_needs_probabilities(cfgdir, capsys):
    rc = main(["pointdim", "--config", str(cfgdir / "free.cfg"), "--point", "0"])
    assert rc == 3
    assert "probabilities" in capsys.readouterr().err


# -- report and graph -----------------------------------------------------------


def test_report_probability_free(cfgdir, capsys, tmp_path):
    jpath = tmp_path / "out.json"
    rc = main(
        ["report", "--config", str(cfgdir / "free.cfg"), "--json", str(jpath)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "measure analysis unavailable" in out
    payload = json.loads(jpath.read_text(encoding="utf-8"))
    assert payload["schema_version"] == 1
    assert payload["measure"] is None


def test_report_cache_reuse_is_byte_identical(cfgdir, capsys, tmp_path):
    cache = str(tmp_path / "structure.json")
    jsons = [str(tmp_path / ("out%d.json" % i)) for i in range(3)]
    argv = ["report", "--config", str(cfgdir / "gap.cfg"), "--cycle-budget", "2"]

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


def test_stale_cache_is_replaced(cfgdir, capsys, tmp_path):
    cache = str(tmp_path / "structure.json")
    assert main(["explore", "--config", str(cfgdir / "six.cfg"), "--cache", cache]) == 0
    capsys.readouterr()
    rc = main(["explore", "--config", str(cfgdir / "gap.cfg"), "--cache", cache])
    captured = capsys.readouterr()
    assert rc == 0
    assert "cache unusable" in captured.err
    assert "wrote structure cache" in captured.err


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


# -- benchmark tracer bindings ---------------------------------------------------


def test_tracer_wraps_the_cli_path(cfgdir, monkeypatch, capsys):
    # perfbench/tracer.py wraps CLI layers by module attribute; every one
    # must resolve, and the explore path must pass through its wrappers
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        assert main(["explore", "--config", str(cfgdir / "six.cfg")]) == 0
    assert {"config.load", "net.explore"} <= {s.name for s in tracer.spans}
    assert cli.load_config is config.load_config
