import json

import numpy as np
import pytest
from scipy.special import gammaincc

from gammaclutter import cli, texture


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


def test_bench_vmax_raises_beyond_search_range():
    from gammaclutter.errors import NoConvergence
    from gammaclutter.mgf_core import ScenarioContext, scenario
    from gammaclutter.texture import gamma_texture_rule
    # exponential survival with mean 2e5: still e^-4.5 at v = 9e5
    p = scenario(M=1, kappa=1, S=2e5, q=0.0, nu=np.inf)
    with pytest.raises(NoConvergence):
        cli._bench_vmax(p, gamma_texture_rule(p.nu), ScenarioContext(p))
