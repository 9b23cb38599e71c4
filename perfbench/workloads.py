"""Workload inputs: the sweep sets each benchmark workload runs.

Every builder takes the workload seed and a size (``"full"`` for the
measured benchmark, ``"tiny"`` for the self-test) and returns named
:class:`repro.engine.SweepSpec` objects. The seed changes *values*
only -- Monte-Carlo seeds -- never the amount of work: grids, mode
counts, frequency grids and sample counts are fixed per size, so two
seeds cost the same and the spread between runs is the machine's, not
the inputs'.

Points whose inputs do not depend on the seed (SSCM nodes, the
deterministic spheroid, the 2D anchor samples) are checked against the
committed references in ``reference.json``; seed-dependent Monte-Carlo
points are checked statistically against the same references.
"""

from __future__ import annotations

import numpy as np

from repro.constants import GHZ, UM
from repro.core import StochasticLossConfig
from repro.engine import (
    DeterministicScenario,
    EstimatorSpec,
    ProfileScenario,
    StochasticScenario,
    SweepSpec,
)
from repro.surfaces import GaussianCorrelation
from repro.surfaces.deterministic import half_spheroid
from repro.swm.assembly import AssemblyOptions
from repro.swm.solver import SWMOptions

SIZES = ("full", "tiny")

# Per-size knobs. "full" is sized so one cold unit lasts a few seconds
# on one core; "tiny" only has to exercise every code path quickly.
_SWEEP3D = {
    "full": {"grid": 8, "modes": 4, "freqs_ghz": (1.0, 3.0, 5.0),
             "etas_um": (1.0, 2.0), "spheroid_grid": 10,
             "spheroid_freqs_ghz": (8.0, 16.0), "mc_samples": 6},
    "tiny": {"grid": 8, "modes": 2, "freqs_ghz": (1.0, 5.0),
             "etas_um": (1.0,), "spheroid_grid": 8,
             "spheroid_freqs_ghz": (8.0,), "mc_samples": 2},
}
_PROFILE2D = {
    "full": {"n": 160, "etas_um": (1.0, 2.0), "freqs_ghz": (5.0,),
             "mc_samples": 2, "anchor_samples": 2},
    "tiny": {"n": 48, "etas_um": (1.0,), "freqs_ghz": (5.0,),
             "mc_samples": 2, "anchor_samples": 2},
}
_SERVICE = {
    "full": {"grid": 6, "modes": 2, "read_freqs_ghz": (1.0, 3.0, 5.0),
             "write_samples": 2, "profile_n": 48},
    "tiny": {"grid": 6, "modes": 2, "read_freqs_ghz": (1.0, 5.0),
             "write_samples": 2, "profile_n": 32},
}

#: Seed of the 2D anchor job, whose inputs never depend on the
#: workload seed (so it has an exact committed reference).
ANCHOR_SEED = 2009

SIGMA_UM = 1.0
SPHEROID_PATCH_UM = 3.0
SPHEROID_HEIGHT_UM = 1.45
SPHEROID_DIAMETER_UM = 2.35


def mc_seed(seed: int, stream: int) -> int:
    """A Monte-Carlo seed derived from the workload seed."""
    return int(np.random.SeedSequence([int(seed), int(stream)])
               .generate_state(1)[0])


def _options(exact: bool) -> SWMOptions | None:
    """Default solver options, or exact Ewald sums for references."""
    return SWMOptions(assembly=AssemblyOptions(use_tables=False)) \
        if exact else None


def _stochastic(name: str, eta_um: float, grid: int, modes: int,
                exact: bool) -> StochasticScenario:
    cf = GaussianCorrelation(sigma=SIGMA_UM * UM, eta=eta_um * UM)
    return StochasticScenario(
        name, cf, StochasticLossConfig(points_per_side=grid,
                                       max_modes=modes),
        options=_options(exact))


def sweep3d_specs(seed: int, size: str = "full",
                  exact: bool = False) -> dict[str, SweepSpec]:
    """fig3-style SSCM stacks, fig5-style spheroid points and a
    fig7-style single-frequency Monte-Carlo point."""
    p = _SWEEP3D[size]
    freqs = tuple(f * GHZ for f in p["freqs_ghz"])
    fig3 = SweepSpec(
        scenarios=[_stochastic(f"eta{eta:g}um", eta, p["grid"], p["modes"],
                               exact) for eta in p["etas_um"]],
        frequencies_hz=freqs,
        estimators=EstimatorSpec(kind="sscm", order=1),
        tags={"workload": "sweep3d", "part": "fig3"})
    n = p["spheroid_grid"]
    heights = half_spheroid(n, SPHEROID_PATCH_UM, SPHEROID_HEIGHT_UM,
                            SPHEROID_DIAMETER_UM)
    fig5 = SweepSpec(
        scenarios=DeterministicScenario(
            "spheroid", heights * UM, SPHEROID_PATCH_UM * UM,
            options=_options(exact)),
        frequencies_hz=tuple(f * GHZ for f in p["spheroid_freqs_ghz"]),
        tags={"workload": "sweep3d", "part": "fig5"})
    fig7 = SweepSpec(
        scenarios=_stochastic("model", 1.0, p["grid"], p["modes"], exact),
        frequencies_hz=freqs[-1],
        estimators=EstimatorSpec(kind="montecarlo",
                                 n_samples=p["mc_samples"],
                                 seed=mc_seed(seed, 7)),
        tags={"workload": "sweep3d", "part": "fig7"})
    return {"fig3": fig3, "fig5": fig5, "fig7": fig7}


def _profile(eta_um: float, n: int) -> ProfileScenario:
    cf = GaussianCorrelation(sigma=SIGMA_UM, eta=eta_um)
    return ProfileScenario(f"bem2-eta{eta_um:g}um", cf,
                           period_um=5.0 * eta_um, n=n, normalize=True)


def profile2d_specs(seed: int, size: str = "full") -> dict[str, SweepSpec]:
    """fig6's ``ProfileScenario`` rows: 2D Monte Carlo on profiles,
    plus one fixed-seed anchor job with an exact committed reference."""
    p = _PROFILE2D[size]
    scenarios = [_profile(eta, p["n"]) for eta in p["etas_um"]]
    freqs = tuple(f * GHZ for f in p["freqs_ghz"])
    fig6 = SweepSpec(
        scenarios=scenarios, frequencies_hz=freqs,
        estimators=EstimatorSpec(kind="montecarlo",
                                 n_samples=p["mc_samples"],
                                 seed=mc_seed(seed, 6)),
        tags={"workload": "profile2d", "part": "fig6"})
    anchor = SweepSpec(
        scenarios=scenarios[0], frequencies_hz=freqs[0],
        estimators=EstimatorSpec(kind="montecarlo",
                                 n_samples=p["anchor_samples"],
                                 seed=ANCHOR_SEED),
        tags={"workload": "profile2d", "part": "anchor"})
    return {"fig6": fig6, "anchor": anchor}


def service_read_specs(size: str = "full") -> dict[str, SweepSpec]:
    """The service's fixed read set: sweeps replayed warm from cache."""
    p = _SERVICE[size]
    freqs = tuple(f * GHZ for f in p["read_freqs_ghz"])
    sscm = SweepSpec(
        scenarios=_stochastic("read-eta1um", 1.0, p["grid"], p["modes"],
                              False),
        frequencies_hz=freqs,
        estimators=EstimatorSpec(kind="sscm", order=1),
        tags={"workload": "service", "part": "read-sscm"})
    mc3d = SweepSpec(
        scenarios=_stochastic("read-eta2um", 2.0, p["grid"], p["modes"],
                              False),
        frequencies_hz=freqs[-1],
        estimators=EstimatorSpec(kind="montecarlo", n_samples=4,
                                 seed=ANCHOR_SEED),
        tags={"workload": "service", "part": "read-mc3d"})
    mc2d = SweepSpec(
        scenarios=_profile(1.0, p["profile_n"]),
        frequencies_hz=freqs[-1],
        estimators=EstimatorSpec(kind="montecarlo", n_samples=2,
                                 seed=ANCHOR_SEED),
        tags={"workload": "service", "part": "read-mc2d"})
    return {"read-sscm": sscm, "read-mc3d": mc3d, "read-mc2d": mc2d}


def service_write_spec(seed: int, index: int,
                       size: str = "full") -> SweepSpec:
    """The ``index``-th cold write: a small Monte-Carlo sweep whose
    seed is new for every write, so its job is never cached."""
    p = _SERVICE[size]
    return SweepSpec(
        scenarios=_stochastic("write-eta1um", 1.0, p["grid"], p["modes"],
                              False),
        frequencies_hz=tuple(f * GHZ for f in p["read_freqs_ghz"][-2:]),
        estimators=EstimatorSpec(kind="montecarlo",
                                 n_samples=p["write_samples"],
                                 seed=mc_seed(seed, 1000 + index)),
        tags={"workload": "service", "part": "write"})
