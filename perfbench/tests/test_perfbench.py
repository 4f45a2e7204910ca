"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

wm = run._import_workloads()

TINY = wm.Sizes(curve_points=2, pd_sir_db=(0.0, 18.0, 3), ks_replicates=4,
                ks_samples=1000, interp_points=40, trace_rounds=1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _package_bindings():
    import gammaclutter
    mods = [m for n, m in sys.modules.items()
            if n == "gammaclutter" or n.startswith("gammaclutter.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
           if callable(v)}
    ctx = gammaclutter.mgf_core.ScenarioContext
    out.update({("ScenarioContext", k): v for k, v in vars(ctx).items()})
    return out


@pytest.mark.parametrize("workload", list(wm.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    res = _result(capsys, workload, trace=0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", list(wm.WORKLOADS))
def test_traced_run_reports_layers_and_restores_functions(capsys, workload):
    before = _package_bindings()
    first = _result(capsys, workload, trace=1)
    assert _package_bindings() == before
    assert first["correct"] and first["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    assert got == want
    # counts repeat exactly for one seed
    second = _result(capsys, workload, trace=1)
    counts = [k for k, v in want.items() if v == "count"]
    assert [first["metrics"][k] for k in counts] == \
        [second["metrics"][k] for k in counts]
    span_file = run.OUT_DIR / f"trace-{workload}-seed3.json"
    spans = json.loads(span_file.read_text())
    assert spans["self_sum_s"] <= spans["traced_wall_s"]


def test_trace_targets_cover_every_layer_function():
    names = {t.name for t in wm.trace_targets()}
    for layer in ("mgf_core", "saddlepoint", "texture", "detector",
                  "fpm_mc", "gof_stats"):
        assert any(n.startswith(layer + ".") for n in names)
    assert len(names) == 14


@pytest.mark.parametrize("workload", list(wm.WORKLOADS))
def test_frozen_outputs_are_checked(workload):
    """At the default sizes a default seed's first operations match the
    reference; a perturbed reference makes the check fail."""
    reference = wm.load_reference()
    wl = wm.make(workload, 1, reference=reference)
    assert wl.frozen and wl.refs
    op = next(op for op in wl.trace_ops()
              if op.kind in ("eff-sp", "replicate"))
    view = op.view(op.call())
    op.check(view)
    assert view == wl.refs[op.key]

    bad = json.loads(json.dumps(reference))
    entry = bad["seeds"]["1"][workload][op.key]
    if isinstance(entry, dict):
        entry["pd"] = [v + 1e-5 for v in entry["pd"]]
    else:
        entry[-1] += 1e-5 if workload != "ks-m10" else 1e-16
    bad_op = next(o for o in wm.make(workload, 1, reference=bad).trace_ops()
                  if o.key == op.key)
    with pytest.raises(wm.CheckFailed):
        bad_op.check(view)


@pytest.mark.parametrize("null_err, signal_err, message", [
    (1e-2, 1e-2, "gives P_FA"), (1e-4, 1e-3, "P_D off its frozen value")])
def test_pd_check_rejects_a_perturbed_survival(monkeypatch, null_err,
                                               signal_err, message):
    """A survival error that moves the threshold fails the pd-m10 check:
    a large one through the frozen threshold's P_FA, a small one on the
    null through P_D recomputed at the frozen threshold."""
    from gammaclutter import detector, texture

    wl = wm.make("pd-m10", 1)
    op = next(o for o in wl.round(0) if o.kind == "eff-sp")
    exact = texture.compound_survival

    def perturbed(v, params, *args, **kwargs):
        err = null_err if params.S == 0.0 else signal_err
        return exact(v, params, *args, **kwargs) * (1.0 - err)

    monkeypatch.setattr(texture, "compound_survival", perturbed)
    monkeypatch.setattr(detector, "compound_survival", perturbed)
    view = op.view(op.call())
    assert view["threshold"] != wl.refs[op.key]["threshold"]
    with pytest.raises(wm.CheckFailed, match=message):
        op.check(view)


def test_invariant_checks_reject_bad_curves():
    with pytest.raises(wm.CheckFailed):
        wm._check_survival([0.5, 0.6], None)
    with pytest.raises(wm.CheckFailed):
        wm._check_survival([1.2, 0.6], None)
    wm._check_survival(np.array([0.9, 0.5, 0.5]), None)


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ks-m10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
