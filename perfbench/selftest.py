"""Self-test of the benchmark itself (not of the program)::

    python3 perfbench/selftest.py

1. Runs every workload at the tiny size, untraced and traced, each in a
   fresh process, and checks that the last output line has exactly the
   result keys, reports correct outputs, and names exactly the metrics
   ``BENCHMARK.json`` lists for that mode, with their units.
2. Installs the tracer, runs a tiny unit of each batch workload -- once
   normally and once raising inside the traced region -- and checks that
   every wrapped attribute is identical to its original afterwards.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json``
   and the benchmark's files, and checks that it fails without printing
   a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import env

env.pin_blas()

from common import HERE, ROOT, SRC, load_bench  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, timeout=300)


def _check_output(proc: subprocess.CompletedProcess,
                  want: dict[str, str]) -> str | None:
    """Why one run's output breaks the contract, or ``None``."""
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"exit {proc.returncode}: {proc.stderr.decode()[-500:]}"
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["attempted"] < 1:
        return f"not correct: {lines[-2][-800:]}"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {got} != {want}"
    return None


def check_outputs(bench: dict) -> list[str]:
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listing in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[listing]}
            label = f"{workload} --trace {trace}"
            problem = _check_output(_run(ROOT, workload, trace), want)
            print(f"{label}: {problem or 'ok'}", flush=True)
            if problem:
                failures.append(f"{label}: {problem}")
    return failures


def check_restore() -> list[str]:
    sys.path.insert(1, SRC)
    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)
    from repro.engine import ResultCache, run_batch

    import tracer
    import workloads

    failures = []
    before = tracer.snapshot()
    for raise_inside in (False, True):
        t = tracer.Tracer()
        try:
            with t, t.trace("unit"):
                run_batch(workloads.sweep3d_specs(1, "tiny"),
                          cache=ResultCache())
                run_batch(workloads.profile2d_specs(1, "tiny"),
                          cache=ResultCache())
                if raise_inside:
                    raise KeyError("raised inside the traced region")
        except KeyError:
            pass
        if not t.spans:
            failures.append("tracer recorded no spans")
        after = tracer.snapshot()
        changed = [k for k in before if after[k] is not before[k]]
        if changed:
            failures.append(f"not restored (raise={raise_inside}): {changed}")
    print(f"wrappers restored: {'ok' if not failures else 'FAIL'}",
          flush=True)
    return failures


def check_bare_directory() -> list[str]:
    bare = os.path.join(ROOT, ".perfbench_tmp", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, "sweep3d", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    failures = []
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-200:]!r}")
    print(f"bare directory fails cleanly: {'ok' if not failures else 'FAIL'}",
          flush=True)
    return failures


def main() -> int:
    failures = check_outputs(load_bench())
    failures += check_restore()
    failures += check_bare_directory()
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
