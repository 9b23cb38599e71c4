"""Shared pieces of the workload runners: outcome, statistics, checks."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Where traced runs write their spans (once, at the end of the run).
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

#: Fresh-process set-ups per run, spread over the measuring time;
#: ``setup_s`` is their median.
SETUP_REPEATS = 11

#: Percentile of a run's samples that timed metrics report (see
#: :func:`fast`).
FAST_PERCENTILE = 5.0

#: Percentiles tried for tail notes, highest first.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def median(values) -> float:
    return float(statistics.median(values))


def fast(values) -> float:
    """The :data:`FAST_PERCENTILE` of ``values``: the timing at the
    host's fast speed.

    The shared host flips between speed states every few seconds: the
    same ``sweep3d`` warm read, repeated back to back in one process,
    takes ~0.72 ms in one state and ~1.25 ms in another, with no steal
    time and CPU time equal to wall time. A median of a run's samples
    reports how long the slow state held during that run -- load from
    other tenants. Over 25 s windows of one long series, the median
    read spread (IQR/median) 0.16-0.31 between windows and this
    percentile 0.02-0.14. A change to the program moves every sample,
    so it moves this one too. What it cannot remove is the fast state's
    own drift over minutes (the same read's floor was 0.68, 0.75 and
    1.0 ms in different minutes). Medians and tails are kept as
    unbounded notes.
    """
    return float(np.percentile(values, FAST_PERCENTILE))


def tail_note(values, unit: str) -> dict:
    """The highest ladder percentile with at least ten samples beyond
    it, with its sample count (an unbounded note, never a metric)."""
    n = len(values)
    for pct in _TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return {"percentile": pct,
                    "value": float(np.percentile(values, pct)),
                    "unit": unit, "samples": n,
                    "beyond": int(n * (1.0 - pct / 100.0))}
    return {"percentile": None, "unit": unit, "samples": n,
            "why": "fewer than ten samples beyond the 90th percentile"}


def results_identical(a: dict, b: dict) -> bool:
    """Bit-identity of two ``{name: SweepResult}`` maps (means, stds
    and every value array)."""
    if a.keys() != b.keys():
        return False
    for name in a:
        pa, pb = a[name].points, b[name].points
        if len(pa) != len(pb):
            return False
        for x, y in zip(pa, pb):
            if (x.key != y.key or x.n_evals != y.n_evals
                    or np.float64(x.mean).tobytes()
                    != np.float64(y.mean).tobytes()
                    or np.float64(x.std).tobytes()
                    != np.float64(y.std).tobytes()
                    or np.asarray(x.values).tobytes()
                    != np.asarray(y.values).tobytes()):
                return False
    return True


def load_bench() -> dict:
    """The repository's ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment for child processes: BLAS pinned, program on path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def probe_setup(workload: str, size: str) -> float:
    """Seconds from spawning a fresh process until it reports ready."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           workload, size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


class SetupSchedule:
    """Takes the run's :data:`SETUP_REPEATS` set-up samples evenly
    spread over its measuring time, not in one burst at the start.

    Set-up time drifts with the host like every other timing; samples
    spread over the run meet more of its speed states. ``probe`` takes
    one sample and returns it in seconds. Sample ``i`` is due once the
    run has measured ``i * seconds / SETUP_REPEATS`` seconds; time spent
    probing is not measuring time, so :meth:`take_due` returns it for
    the caller to add to its deadline.
    """

    def __init__(self, seconds: float, probe, taken=()) -> None:
        self.probe = probe
        self.samples = list(taken)
        self.interval = seconds / SETUP_REPEATS
        self.start = time.perf_counter()
        self.probing_s = 0.0

    def _due(self) -> bool:
        measured = time.perf_counter() - self.start - self.probing_s
        return (len(self.samples) < SETUP_REPEATS
                and measured >= len(self.samples) * self.interval)

    def take_due(self) -> float:
        """Take every sample that is due; return the seconds spent."""
        t0 = time.perf_counter()
        while self._due():
            self.samples.append(self.probe())
        spent = time.perf_counter() - t0
        self.probing_s += spent
        return spent

    def finish(self) -> list[float]:
        """Take the samples still missing; return all of them."""
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self.probe())
        return self.samples


def trace_dir(workload: str, seed: int) -> str:
    """A fresh directory for one traced run's span files."""
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
