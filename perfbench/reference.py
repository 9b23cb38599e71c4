"""Committed reference values and the checks made against them.

``reference.json`` holds, per size and workload:

- ``fixed``: point means whose inputs do not depend on the workload
  seed. For ``sweep3d`` they are computed with exact Ewald sums
  (``AssemblyOptions(use_tables=False)``), so a faster kernel is judged
  against the physics, not against the old tables. For ``profile2d``
  they are the fixed-seed anchor job's means.
- ``population``: mean and standard deviation of the enhancement over
  many samples, for the seed-dependent Monte-Carlo points; a run's
  Monte-Carlo mean must lie within :data:`MC_SIGMAS` standard errors.

Regenerate with ``python3 perfbench/reference.py`` from the repository
root (a few minutes on one core).
"""

from __future__ import annotations

import json
import math
import os
import sys

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "reference.json")

#: |tabulated-kernel mean - exact-Ewald mean| allowed on sweep3d points.
TOL_EXACT_3D = 1e-4
#: |mean - committed mean| allowed on the 2D anchor job.
TOL_ANCHOR_2D = 1e-6
#: Monte-Carlo means must lie within this many standard errors of the
#: population mean (plus :data:`MC_ABS_TOL`).
MC_SIGMAS = 5.0
MC_ABS_TOL = 1e-3
#: Samples behind each population entry.
POPULATION_SAMPLES = {"full": 32, "tiny": 8}


def point_key(sweep: str, point) -> str:
    return (f"{sweep}|{point.scenario}|{point.frequency_hz:.6e}|"
            f"{point.estimator}")


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_results(results: dict, ref: dict) -> list[str]:
    """Problems found comparing one cold unit's results to ``ref``.

    Every point must be finite and either a ``fixed`` point within its
    tolerance or a ``population`` point within the Monte-Carlo band.
    """
    problems = []
    tol = ref["tolerance"]
    seen = set()
    for sweep, result in results.items():
        for point in result.points:
            key = point_key(sweep, point)
            values = [float(v) for v in point.values]
            if not all(math.isfinite(v) for v in values + [point.mean]):
                problems.append(f"{key}: non-finite value")
                continue
            if key in ref["fixed"]:
                seen.add(key)
                want = ref["fixed"][key]
                if abs(point.mean - want) > tol:
                    problems.append(f"{key}: mean {point.mean!r} differs "
                                    f"from reference {want!r} by more "
                                    f"than {tol}")
                continue
            pop_key = key.rsplit("|", 1)[0]
            pop = ref["population"].get(pop_key)
            if pop is None:
                problems.append(f"{key}: no reference entry")
                continue
            band = (MC_SIGMAS * pop["std"] / math.sqrt(len(values))
                    + MC_ABS_TOL)
            if abs(point.mean - pop["mean"]) > band:
                problems.append(f"{key}: Monte-Carlo mean {point.mean!r} "
                                f"outside {pop['mean']!r} +/- {band:.4g}")
    missing = set(ref["fixed"]) - seen
    if missing:
        problems.append(f"reference points not produced: {sorted(missing)}")
    return problems


def _population(scenario, frequency_hz: float, n_samples: int) -> dict:
    import numpy as np
    from repro.engine import EstimatorSpec, SweepSpec, run_sweep

    spec = SweepSpec(scenarios=scenario, frequencies_hz=frequency_hz,
                     estimators=EstimatorSpec(kind="montecarlo",
                                              n_samples=n_samples,
                                              seed=12345))
    values = np.asarray(run_sweep(spec).points[0].values)
    return {"mean": float(values.mean()), "std": float(values.std(ddof=1)),
            "n": int(values.size)}


def build_reference() -> dict:
    """Recompute every reference entry (slow: exact Ewald sums)."""
    from repro.engine import ResultCache, run_batch

    import workloads

    out = {}
    for size in workloads.SIZES:
        n_pop = POPULATION_SAMPLES[size]
        exact = run_batch(workloads.sweep3d_specs(0, size, exact=True),
                          cache=ResultCache())
        fast = workloads.sweep3d_specs(0, size)
        fixed, population = {}, {}
        for sweep, result in exact.items():
            for point in result.points:
                if point.seed is None:
                    fixed[point_key(sweep, point)] = point.mean
        for sweep in ("fig7",):
            spec = fast[sweep]
            for scenario in spec.scenarios:
                for f in spec.frequencies_hz:
                    key = f"{sweep}|{scenario.name}|{f:.6e}"
                    population[key] = _population(scenario, f, n_pop)
        entry = {"sweep3d": {"tolerance": TOL_EXACT_3D, "fixed": fixed,
                             "population": population}}

        specs = workloads.profile2d_specs(0, size)
        anchor = run_batch({"anchor": specs["anchor"]}, cache=ResultCache())
        fixed = {point_key("anchor", p): p.mean
                 for p in anchor["anchor"].points}
        population = {}
        for scenario in specs["fig6"].scenarios:
            for f in specs["fig6"].frequencies_hz:
                key = f"fig6|{scenario.name}|{f:.6e}"
                population[key] = _population(scenario, f, n_pop)
        entry["profile2d"] = {"tolerance": TOL_ANCHOR_2D, "fixed": fixed,
                              "population": population}
        out[size] = entry
    return out


if __name__ == "__main__":
    import env

    env.pin_blas()
    from common import SRC

    sys.path.insert(1, SRC)
    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)
    doc = build_reference()
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH}")
