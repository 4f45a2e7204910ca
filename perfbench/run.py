"""gammaclutter benchmark runner.

    python3 perfbench/run.py --workload curve-m100 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.

``--trace 0`` runs the workload's closed loop for ``--seconds`` seconds
(``pd-m10`` ends a started kappa cycle) and reports the end-to-end metrics,
with every time rescaled to the reference speed of the host (see
``calibration_s``).
``--trace 1`` runs the workload's fixed traced operation list twice, first
plain and then with every traced function wrapped, and reports per-layer
calls, self time and errors; the spans go to ``perfbench/out/``.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

T_START = time.perf_counter()
# One BLAS thread for every workload, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Fresh processes that repeat the set-up, one after another, so that
# setup_s is a median over this process and them.
SETUP_CHILDREN = 4
# The shared host's CPUs change speed by up to a half, in phases of seconds
# to minutes, and CPU time changes with wall time.  So every timed
# operation and every set-up is bracketed by calibration_s(), and its time
# is divided by the host scale, the kernel's time next to it over
# CAL_REF_S: times are reported as they would be at the speed where the
# kernel takes CAL_REF_S, which lies between its times in the fast and the
# slow phases of the machine in BASELINE.json.
CAL_REF_S = 0.050
# Self times that every workload's traced run has; the others are zero on
# some workload and appear only in the printed table and the span file.
SELF_TIME_METRICS = ("mgf_core", "saddlepoint", "texture",
                     "mgf_core.ScenarioContext", "mgf_core.sc_eigenvalues",
                     "mgf_core.speckle_coeffs", "saddlepoint.solve_saddle",
                     "saddlepoint.survival_sdp")


def _import_workloads():
    """Import the benchmark modules and the package from this checkout."""
    src = ROOT / "src"
    if not (src / "gammaclutter" / "__init__.py").is_file():
        raise ImportError(f"no package source under {src}")
    for p in (str(src), str(HERE)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import gammaclutter
    if Path(gammaclutter.__file__).resolve().parent != src / "gammaclutter":
        raise ImportError(f"gammaclutter imported from {gammaclutter.__file__}"
                          f", not from {src}")
    import workloads
    return workloads


def calibration_s() -> float:
    """Time of a fixed kernel that does not touch the package: an
    interpreted loop, small complex log-sums like the saddle-point phase,
    small symmetric eigenproblems and vector math, the kinds of work the
    package's operations do."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    z = np.linspace(0.1, 1.0, 24) + 0.3j
    c = np.linspace(0.05, 0.5, 10)
    for _ in range(500):
        acc += (z + 2.0 * (np.log(1.0 - np.multiply.outer(z, c)) @ c)).imag[0]
    a = np.random.default_rng(0).random((60, 60))
    for _ in range(10):
        np.linalg.eigvalsh(a + a.T)
    x = np.linspace(0.0, 1.0, 2000)
    for _ in range(200):
        np.exp(-x) * np.log1p(x)
    return time.perf_counter() - t0


def _host_scale() -> float:
    """Slowness of the host now relative to the reference speed."""
    calibration_s()                     # warm-up: first LAPACK call
    return statistics.median(calibration_s() for _ in range(3)) / CAL_REF_S


def _run_op(op, log, during=contextlib.nullcontext()):
    """(seconds, view, error message) for one operation; only its call runs
    inside ``during``, its check after it."""
    t0 = time.perf_counter()
    try:
        with during:
            out = op.call()
        dt = time.perf_counter() - t0
        view = op.view(out)
        op.check(view)
        return dt, view, None
    except Exception as exc:             # counted, reported, and the run goes on
        dt = time.perf_counter() - t0
        log(f"FAILED {op.kind} {op.key}: {type(exc).__name__}: {exc}\n"
            + traceback.format_exc())
        return dt, None, f"{type(exc).__name__}: {exc}"


def timed_run(wl, seconds, log):
    """Closed loop over the workload's rounds for ``seconds`` seconds.

    Per kind, the items done and the time taken, summed over the run's
    operations twice: as measured, and with each operation's time divided
    by the host scale, the mean of the calibration times before and after
    it over CAL_REF_S.
    """
    sums: dict[str, list[float]] = {}      # kind: [items, scaled s, s, ops]
    attempted = failed = 0
    calibration_s()                     # warm-up: first LAPACK call
    cal_prev = calibration_s()
    t0 = time.perf_counter()
    r = 0
    while True:
        for op in wl.round(r):
            dt, view, err = _run_op(op, log)
            cal = calibration_s()
            attempted += 1
            failed += err is not None
            if err is None:
                scale = 0.5 * (cal_prev + cal) / CAL_REF_S
                acc = sums.setdefault(op.kind, [0, 0.0, 0.0, 0])
                acc[0] += op.items
                acc[1] += dt / scale
                acc[2] += dt
                acc[3] += 1
            cal_prev = cal
        r += 1
        if r % wl.block == 0 and time.perf_counter() - t0 >= seconds:
            break
    return sums, attempted, failed, r


def traced_run(wl, workloads_mod, log):
    """Each operation of the fixed traced list runs twice, plain and then
    traced, so that drift of the machine's speed falls on both alike."""
    from tracer import Tracer

    ops = wl.trace_ops()
    targets = workloads_mod.trace_targets()
    originals = [t.owner.__dict__[t.attr] for t in targets]
    tracer = Tracer(targets)
    plain_wall = traced_wall = 0.0
    failed = 0
    t_origin = time.perf_counter()
    for op in ops:
        dt, plain, err = _run_op(op, log)
        plain_wall += dt
        dt, traced, err_t = _run_op(op, log, during=tracer)
        traced_wall += dt
        failed += (err is not None) + (err_t is not None)
        if err is None and err_t is None and plain != traced:
            log(f"FAILED {op.kind} {op.key}: traced output differs")
            failed += 1
    if not all(t.owner.__dict__[t.attr] is f
               for t, f in zip(targets, originals)):
        log("FAILED traced functions were not restored")
        failed += 1
    summary = tracer.summary()
    self_sum = sum(row["self_s"] for row in summary.values())
    if self_sum > traced_wall:
        log(f"FAILED self times {self_sum} exceed traced wall {traced_wall}")
        failed += 1
    metrics = _layer_metrics(tracer, summary, traced_wall - plain_wall)
    info = {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "self_sum_s": self_sum, "summary": {
                k: {f: v for f, v in row.items() if f != "notes"}
                for k, row in summary.items()}}
    return tracer, t_origin, metrics, 2 * len(ops), failed, info


def _layer_metrics(tracer, summary, overhead):
    m = {}
    for name, row in summary.items():
        m[f"{name}.calls"] = (row["calls"], "count")
        m[f"{name}.errors"] = (row["errors"], "count")
    for name in SELF_TIME_METRICS:
        if name in summary:
            val = summary[name]["self_s"]
        else:
            val = sum(row["self_s"] for k, row in summary.items()
                      if k.split(".", 1)[0] == name)
        m[f"{name}.self_s"] = (val, "s")
    sc = summary["mgf_core.sc_eigenvalues"]
    m["mgf_core.sc_eigenvalues.distinct_frac"] = (
        len(set(sc["notes"])) / sc["calls"] if sc["calls"] else 0.0,
        "fraction")
    sdp = summary["saddlepoint.survival_sdp"]
    m["saddlepoint.survival_sdp.us_per_call"] = (
        1e6 * sdp["self_s"] / sdp["calls"] if sdp["calls"] else 0.0, "us")
    thr = summary["detector.threshold_for_pfa"]
    evals = tracer.children_of("detector.threshold_for_pfa",
                               "texture.compound_survival")
    m["detector.threshold_for_pfa.sf_evals_per_call"] = (
        evals / thr["calls"] if thr["calls"] else 0.0, "count")
    sim = summary["fpm_mc.simulate_returns"]
    m["fpm_mc.draws_per_s"] = (
        sum(sim["notes"]) / sim["total_s"] if sim["total_s"] else 0.0, "1/s")
    m["trace_overhead_s"] = (overhead, "s")
    return m


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and stop")
    return ap.parse_args(argv)


def _child_setup(args) -> tuple[float, float]:
    """(set-up time, host scale) of a fresh runner process with the same
    arguments."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    setup, scale = proc.stdout.strip().splitlines()[-1].split()
    return float(setup), float(scale)


def main(argv=None, sizes=None) -> int:
    args = _parse(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        workloads = _import_workloads()
    except ImportError as exc:
        log(f"cannot set up the benchmark: {exc}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; expected one of "
            f"{', '.join(workloads.WORKLOADS)}")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2
    sizes = sizes or workloads.DEFAULT_SIZES

    wl = workloads.make(args.workload, args.seed, sizes)
    setups = [(time.perf_counter() - T_START, _host_scale())]
    if args.setup_only:
        print(*setups[0])
        return 0
    try:                    # setup_s is an end-to-end metric: trace 0 only
        setups += [_child_setup(args)
                   for _ in range(SETUP_CHILDREN * (not args.trace))]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        log(f"cannot set up the benchmark: {exc}")
        return 2
    setup_s = statistics.median(t / scale for t, scale in setups)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"frozen_refs={bool(wl.refs)}")
    print("# setup_s " + " ".join(f"{t:.4f}" for t, _ in setups)
          + " host_scale " + " ".join(f"{k:.3f}" for _, k in setups))

    if args.trace:
        tracer, t_origin, metrics, attempted, failed, info = traced_run(
            wl, workloads, log)
        print(f"# plain_wall_s={info['plain_wall_s']:.4f} traced_wall_s="
              f"{info['traced_wall_s']:.4f} self_sum_s="
              f"{info['self_sum_s']:.4f}")
        print("# function calls self_s total_s errors")
        for name, row in info["summary"].items():
            print(f"# {name} {row['calls']} {row['self_s']:.6f} "
                  f"{row['total_s']:.6f} {row['errors']}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                    t_origin, {"workload": args.workload, "seed": args.seed,
                               **info})
    else:
        sums, attempted, failed, rounds = timed_run(wl, args.seconds, log)
        rates = {}
        for kind, (items, scaled, measured, n) in sums.items():
            rates[kind] = items / scaled
            print(f"# {kind}.norm_items_per_s={rates[kind]:.6g} "
                  f"measured={items / measured:.6g} ops={n}")
        print(f"# rounds={rounds} attempted={attempted} failed={failed}")
        items = statistics.geometric_mean(rates.values()) if rates else 0.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "norm_items_per_s": (items, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
