"""Freeze the current outputs as the benchmark's reference.

    python3 perfbench/freeze.py

Writes ``perfbench/reference.json``: the 400-point survival table that the
ks-m10 ensembles test against, the output of the ks-m10 interpolator build,
and for each default seed the outputs of every workload's traced operation
list.  Runs later
compare their outputs with these where the seed and sizes match.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402

import numpy as np  # noqa: E402

from run import _import_workloads  # noqa: E402

DEFAULT_SEEDS = range(0, 11)


def freeze(seeds=DEFAULT_SEEDS):
    wm = _import_workloads()
    from gammaclutter import texture

    sizes = wm.DEFAULT_SIZES
    sf = texture.survival_interpolator(wm.KsM10.params, "eff-sdp",
                                       n_points=wm.KS_TABLE_POINTS)
    grid = np.linspace(0.0, sf.v_max, wm.KS_TABLE_POINTS)
    reference = {"sizes": sizes.as_json(),
                 "ks_sf": {"grid": grid.tolist(),
                           "log_sf": np.log(sf(grid)).tolist()},
                 "seeds": {}}
    ks = wm.make("ks-m10", DEFAULT_SEEDS[0], sizes, reference)
    op = ks.round(0)[0]
    view = op.view(op.call())
    op.check(view)                               # invariants only
    reference["ks_interp"] = view
    for seed in seeds:
        per_seed = reference["seeds"][str(seed)] = {}
        for name in wm.WORKLOADS:
            wl = wm.make(name, seed, sizes, reference)
            views = per_seed[name] = {}
            for op in wl.trace_ops():
                if op.kind == "interpolator":    # frozen above
                    continue
                view = op.view(op.call())
                op.check(view)                   # invariants only
                views[op.key] = view
            print(f"froze {name} seed {seed}: {len(views)} operations",
                  flush=True)
    return reference


if __name__ == "__main__":
    ref = freeze()
    path = _import_workloads().REFERENCE_PATH
    with open(path, "w") as fh:
        json.dump(ref, fh)
    print(f"wrote {path}")
