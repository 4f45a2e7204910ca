import json
import math

import numpy as np
import pytest
from scipy.special import gammaincc

from gammaclutter import cli, detector, texture


def write_scenario(tmp_path, **overrides):
    doc = {"M": 4, "kappa": 2, "S": 0.0, "q": 0.0, "nu": "inf",
           "rho_s": 0.0, "rho_c": 0.0, "pfa": 1e-4}
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = [l for l in open(path).read().splitlines() if l]
    comments = [l for l in lines if l.startswith("#")]
    header = next(l for l in lines if not l.startswith("#"))
    rows = [l for l in lines if not l.startswith("#")][1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    return comments, header.split(","), data


def test_survival_command_erlang_column(tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out.csv"
    rc = cli.main(["survival", "--scenario", scen, "--out", str(out),
                   "--v-min", "0.1", "--v-max", "3.0", "--v-points", "12"])
    assert rc == 0
    comments, header, data = read_csv(out)
    assert comments and comments[0].startswith("# scenario:")
    assert header == ["v", "sf_eff-sdp"]
    want = gammaincc(4, 4 * data[:, 0])
    assert np.max(np.abs(data[:, 1] - want)) < 1e-8


def test_survival_csv_round_trip_bit_exact(tmp_path):
    scen = write_scenario(tmp_path, kappa=2, q=0.6, nu=2.0,
                          rho_c=0.5, rho_s=0.8, S=2.0)
    out = tmp_path / "a.csv"
    cli.main(["survival", "--scenario", scen, "--out", str(out),
              "--methods", "eff-sdp,dmg-sdp", "--v-points", "9",
              "--v-max", "8.0"])
    _, header, data = read_csv(out)
    assert header == ["v", "sf_eff-sdp", "sf_dmg-sdp"]
    # 17-significant-digit format round-trips float64 exactly
    text = open(out).read()
    for row in data:
        for x in row:
            assert format(float(format(x, ".17g")), ".17g") == format(x, ".17g")
    out2 = tmp_path / "b.csv"
    cli.main(["survival", "--scenario", scen, "--out", str(out2),
              "--methods", "eff-sdp,dmg-sdp", "--v-points", "9",
              "--v-max", "8.0"])
    assert text == open(out2).read()


def test_pd_command_null_row_and_monotonicity(tmp_path):
    scen = write_scenario(tmp_path, q=0.5, nu=2.0, rho_c=0.6, rho_s=0.7,
                          pfa=1e-3)
    out = tmp_path / "pd.csv"
    rc = cli.main(["pd", "--scenario", scen, "--out", str(out),
                   "--sir-grid-db=-40:12:6",
                   "--methods", "eff-sdp,eff-sp"])
    assert rc == 0
    _, header, data = read_csv(out)
    assert header == ["S_dB", "pd_eff-sdp", "pd_eff-sp"]
    # S ~ 1e-4 at -40 dB: the null coincidence pd ~ pfa
    assert data[0, 1] == pytest.approx(1e-3, abs=1e-4)
    assert np.all(np.diff(data[:, 1]) >= -1e-6)


def test_compare_command_json_and_seed_stability(tmp_path):
    scen = write_scenario(tmp_path, M=3, q=0.4, nu=2.0, rho_c=0.3,
                          rho_s=0.5, S=1.0, kappa=1)
    out1, out2 = tmp_path / "e1.json", tmp_path / "e2.json"
    args = ["compare", "--scenario", scen, "--replicates", "12",
            "--samples", "400", "--seed", "7", "--threads", "1"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    assert payload["K"] == 12 and payload["n"] == 400
    assert len(payload["statistics"]) == 12
    assert "bootstrap_band" in payload and "greenwood" in payload


def test_bench_command_small(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--draws", "1", "--grid-points", "8",
                   "--M", "6", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if l]
    assert lines[1].split(",")[0] == "method"
    body = [l.split(",") for l in lines[2:]]
    assert [r[0] for r in body] == [m.name for m in texture.ALL_METHODS]
    # deviations exist for every non-reference method
    for r in body[1:]:
        assert float(r[2]) < 0.2
    # the command prints the means of the library loop's table
    table = detector.bench(1, 8, 6, 3)
    assert [[r[0]] + r[2:] for r in body] == [
        [m, cli._fmt(np.mean(rows[1])), cli._fmt(np.mean(rows[2]))]
        for m, rows in table.items()]
    assert np.isnan(table["eff-sdp"][1:]).all()
    assert all((rows[0] > 0).all() for rows in table.values())


def test_bench_rejects_empty_runs(capsys):
    # no draws printed a table of NaN with exit 0; no grid points failed
    # inside numpy with an unrelated message
    for flag in ("--draws", "--grid-points"):
        assert cli.main(["bench", flag, "0", "--M", "4"]) == cli.EXIT_CONFIG
        assert f"{flag} 0 must be >= 1" in capsys.readouterr().err


def test_exit_codes(tmp_path):
    assert cli.main(["survival", "--scenario",
                     str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"M": 4}))
    assert cli.main(["survival", "--scenario", str(bad)]) == cli.EXIT_CONFIG
    scen = write_scenario(tmp_path, kappa=2.5)
    assert cli.main(["survival", "--scenario", scen]) == cli.EXIT_CONFIG
    scen2 = write_scenario(tmp_path, rho_c=1.7)
    assert cli.main(["pd", "--scenario", scen2]) == cli.EXIT_CONFIG
    scen3 = write_scenario(tmp_path)
    assert cli.main(["survival", "--scenario", scen3,
                     "--methods", "bogus-sdp"]) == cli.EXIT_CONFIG
    assert cli.main(["compare", "--scenario", scen3, "--replicates", "4",
                     "--samples", "50", "--threads", "1",
                     "--alpha", "1.5"]) == cli.EXIT_CONFIG


def test_zero_pfa_and_empty_method_are_config_errors(tmp_path, capsys):
    # --pfa 0 and --method "" once fell back on the scenario's pfa and
    # method and exited 0
    scen = write_scenario(tmp_path)
    assert cli.main(["pd", "--scenario", scen, "--pfa", "0"]) \
        == cli.EXIT_CONFIG
    assert "pfa 0.0 outside (0, 1]" in capsys.readouterr().err
    assert cli.main(["compare", "--scenario", scen, "--threads", "1",
                     "--replicates", "4", "--samples", "50",
                     "--method", ""]) == cli.EXIT_CONFIG
    assert "unknown method ''" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["8", 8.5, True])
def test_non_integer_texture_order_is_a_config_error(tmp_path, order, capsys):
    # "8" and true once died with a TypeError traceback and 8.5 inside numpy
    scen = write_scenario(tmp_path, nu=2.0, texture_order=order)
    for command in ("survival", "pd"):
        assert cli.main([command, "--scenario", scen]) == cli.EXIT_CONFIG
        assert "must be an integer >= 1" in capsys.readouterr().err


def test_compare_checks_arguments_before_building(tmp_path, monkeypatch):
    # a bad --alpha, --replicates or --samples exits at once: the survival
    # interpolator, which takes seconds to build, is never started
    def unreachable(*args, **kwargs):
        raise AssertionError("interpolator built before argument checks")

    monkeypatch.setattr(texture, "survival_interpolator", unreachable)
    scen = write_scenario(tmp_path)
    for flag, value in (("--alpha", "1.5"), ("--alpha", "0"),
                        ("--replicates", "0"), ("--samples", "0")):
        assert cli.main(["compare", "--scenario", scen, "--threads", "1",
                         flag, value]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("seed", [1.5, -1, 2 ** 64, "7", True])
def test_compare_rejects_a_bad_seed_before_building(tmp_path, seed,
                                                    monkeypatch, capsys):
    # "seed": 1.5 was echoed as 1.5 while seed 1's stream was drawn, and
    # "seed": -1 escaped as an OverflowError traceback
    def unreachable(*args, **kwargs):
        raise AssertionError("interpolator built before the seed check")

    monkeypatch.setattr(texture, "survival_interpolator", unreachable)
    scen = write_scenario(tmp_path, seed=seed)
    args = ["compare", "--scenario", scen, "--threads", "1",
            "--replicates", "4", "--samples", "50"]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "seed must be an integer in [0, 2^64)" in capsys.readouterr().err
    assert cli.main(args + ["--seed", "-1"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command,key,value", [
    ("pd", "pfa", "1e-6"),      # a TypeError traceback
    ("pd", "pfa", True),        # P_D = 1 at every SIR, exit 0
    ("compare", "method", 5),   # an AttributeError traceback
    ("survival", "S", True),    # silently S = 1
    ("survival", "kappa", True),
    ("survival", "kappa", -math.inf),   # an OverflowError traceback
    ("pd", "kappa", math.nan),          # a ValueError naming no key
    ("survival", "M", 4.5),     # silently M = 4
    ("pd", "rho_c", "0.5"),
])
def test_scenario_values_of_the_wrong_type_are_config_errors(
        tmp_path, command, key, value, capsys):
    scen = write_scenario(tmp_path, **{key: value})
    args = [command, "--scenario", scen]
    if command == "compare":
        args += ["--threads", "1", "--replicates", "4", "--samples", "50"]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert f"{key}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("command,overrides,extra,key", [
    ("pd", {"S_grid_dB": [0, 20, 4.5]}, [], "S_grid_dB"),   # ran 4 points
    ("pd", {"S_grid_dB": "0:20:41"}, [], "S_grid_dB"),      # "too many values"
    ("pd", {"S_grid_dB": [0, 20]}, [], "S_grid_dB"),        # "not enough"
    ("pd", {"S_grid_dB": [0, 20, 0]}, [], "S_grid_dB"),     # empty table
    ("pd", {"S_grid_dB": [0, 20, True]}, [], "S_grid_dB"),
    ("pd", {}, ["--sir-grid-db", "0:20:0"], "--sir-grid-db"),
    ("survival", {}, ["--v-points", "0"], "--v-points"),
    # exit 3, "power level v nan is not finite", after a numpy warning
    ("survival", {}, ["--v-max", "nan"], "--v-max"),
    ("survival", {}, ["--v-max", "inf"], "--v-max"),
    ("survival", {}, ["--v-min", "nan"], "--v-min"),
])
def test_bad_grids_are_config_errors(tmp_path, command, overrides, extra,
                                     key, capsys):
    scen = write_scenario(tmp_path, **overrides)
    assert cli.main([command, "--scenario", scen] + extra) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_negative_worker_counts_are_config_errors(tmp_path, monkeypatch,
                                                  capsys):
    # both ran a single process without a word; they exit before the
    # interpolator is built
    def unreachable(*args, **kwargs):
        raise AssertionError("interpolator built before the worker check")

    monkeypatch.setattr(texture, "survival_interpolator", unreachable)
    args = ["compare", "--scenario", write_scenario(tmp_path),
            "--replicates", "4", "--samples", "50"]
    assert cli.main(args + ["--threads", "-3"]) == cli.EXIT_CONFIG
    assert "--threads -3 must be >= 0" in capsys.readouterr().err
    monkeypatch.setenv("GAMMACLUTTER_THREADS", "-1")
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "GAMMACLUTTER_THREADS -1 must be >= 0" in capsys.readouterr().err
    # a non-integer value once failed in int() naming neither
    monkeypatch.setenv("GAMMACLUTTER_THREADS", "two")
    assert cli.main(args) == cli.EXIT_CONFIG
    assert "GAMMACLUTTER_THREADS 'two' must be an integer" \
        in capsys.readouterr().err
