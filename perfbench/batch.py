"""The batch workloads, ``sweep3d`` and ``profile2d``.

One *cold unit* runs the workload's whole sweep set through
:func:`repro.engine.run_batch`, serially, from an empty
:class:`~repro.engine.ResultCache` after :func:`~repro.engine.clear_memo`
(so kernel tables and KL models are rebuilt too). Units repeat until
the measuring time is spent.

Warm reads are interleaved with the cold units: after each job of a
unit commits, :data:`READS_PER_JOB` reads replay the same ``run_batch``
call against the previous unit's full cache, which must answer without
a solve and bit-identically. Spreading the reads over the whole run
samples the host's speed at many moments (it flips between speed
states every few seconds); their time is measured and kept out of the
unit's. ``warm_read_ms`` is the :func:`common.fast` percentile of all
of a run's replays.

A unit's time splits into *segments* at the job commits: one per job,
from the end of the previous job's reads to its commit, and a last one
from the last reads to ``run_batch``'s return. Segment ``i`` is the
same work in every unit, and at a few tenths of a second it is short
enough to land in one host speed state, so ``sweep_s`` is the sum over
segments of each segment's fast percentile across the run's units:
the cold unit's time at the host's fast speed. The median unit time is
a note.

The fresh-process set-ups behind ``setup_s`` are taken between units,
spread over the measuring time (see :class:`common.SetupSchedule`).

With tracing on, untraced and traced units alternate, so the tracing
overhead is measured under the same machine conditions.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext

from repro.engine import ResultCache, SerialExecutor, clear_memo, run_batch

import reference
import workloads
from common import (
    ROOT,
    Outcome,
    SetupSchedule,
    fast,
    median,
    probe_setup,
    results_identical,
    tail_note,
    trace_dir,
)
from env import peak_rss_mb
from layers import layer_metrics, layer_shares
from tracer import Tracer

READS_PER_JOB = 4

_BUILDERS = {"sweep3d": workloads.sweep3d_specs,
             "profile2d": workloads.profile2d_specs}


def _sanity(workload: str, summary: dict, out: Outcome) -> None:
    """The traced run's layer-dominance checks."""
    shares = layer_shares(summary)
    top = max(shares, key=shares.get) if shares else None
    out.notes["layer_shares"] = shares
    if workload == "sweep3d":
        out.check(top == "fastkernel",
                  f"largest layer share is {top}, expected fastkernel")
    else:
        out.check(top == "periodic2d",
                  f"largest layer share is {top}, expected periodic2d")
        out.check(summary["spans"].get("fastkernel", 0) == 0,
                  "fastkernel ran on the 2D workload")


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str) -> Outcome:
    out = Outcome()
    specs = _BUILDERS[workload](seed, size)
    points = sum(len(spec.jobs()) for spec in specs.values())
    ref = reference.load()[size][workload]
    executor = SerialExecutor()
    tracer = Tracer()

    # One untimed warm-up unit: lazy imports and first-call costs are
    # paid once per process, not per cold unit. Its result is the one
    # checked against the reference; every later unit must match it.
    clear_memo()
    previous = ResultCache()
    t0 = time.perf_counter()
    first = run_batch(specs, executor=executor, cache=previous)
    out.notes["warmup_unit_s"] = time.perf_counter() - t0
    problems = reference.check_results(first, ref)
    out.check(not problems, "; ".join(problems))

    cold: list[float] = []
    traced_cold: list[float] = []
    segments: list[list[float]] = []
    traced_segments: list[list[float]] = []
    reads: list[float] = []
    setups = SetupSchedule(seconds, lambda: probe_setup(workload, size))
    deadline = time.perf_counter() + seconds
    unit = 0
    while True:
        deadline += setups.take_due()
        traced = trace and unit % 2 == 1
        replays: list[tuple[float, dict]] = []
        cuts: list[float] = []  # segment boundaries: (end, next start)

        def read_previous(_done: int, _total: int) -> None:
            cuts.append(time.perf_counter())
            for _ in range(READS_PER_JOB):
                with tracer.span("replay") if traced else nullcontext():
                    t0 = time.perf_counter()
                    replay = run_batch(specs, executor=executor,
                                       cache=previous)
                    replays.append((time.perf_counter() - t0, replay))
            cuts.append(time.perf_counter())

        clear_memo()
        cache = ResultCache()
        if traced:
            tracer.install()
        try:
            with tracer.trace("unit") if traced else nullcontext():
                t0 = time.perf_counter()
                result = run_batch(specs, executor=executor, cache=cache,
                                   progress=read_previous)
                t1 = time.perf_counter()
        finally:
            if traced:
                tracer.restore()
        bounds = [t0, *cuts, t1]
        unit_segments = [end - start for start, end
                         in zip(bounds[::2], bounds[1::2])]
        if traced:
            traced_cold.append(sum(unit_segments))
            traced_segments.append(unit_segments)
        else:
            cold.append(sum(unit_segments))
            segments.append(unit_segments)
            reads.extend(latency for latency, _ in replays)
        out.check(results_identical(result, first),
                  f"cold unit {unit} differs from the warm-up unit")
        for _, replay in replays:
            out.check(results_identical(replay, first)
                      and all(p.cache_hit for r in replay.values()
                              for p in r.points),
                      f"warm read during unit {unit} is not a bit-identical "
                      "cache replay")
        previous = cache
        unit += 1
        if time.perf_counter() >= deadline and (traced_cold or not trace):
            break

    setups = setups.finish()
    sweep_s = sum(fast(times) for times in zip(*segments))
    reads_ms = [r * 1e3 for r in reads]
    out.notes.update({
        "cold_units": len(cold), "points_per_unit": points,
        "segments_per_unit": len(segments[0]),
        "warm_reads": len(reads_ms), "cold_unit_s": cold,
        "cold_unit_median_s": median(cold),
        "warm_read_median_ms": median(reads_ms),
        "warm_read_tail": tail_note(reads_ms, "ms"),
        "setup_samples_s": setups,
    })
    if trace:
        spans = os.path.join(trace_dir(workload, seed), "spans.jsonl")
        tracer.dump(spans)
        out.notes["spans"] = os.path.relpath(spans, ROOT)
        summary = tracer.summary()
        overhead = sum(fast(times) for times in zip(*traced_segments)) \
            - sweep_s
        out.notes["traced_units"] = len(traced_cold)
        _sanity(workload, summary, out)
        for name, (value, unit_name) in layer_metrics(
                summary, len(traced_cold), overhead).items():
            out.metric(name, value, unit_name)
    else:
        out.metric("setup_s", median(setups), "s")
        out.metric("sweep_s", sweep_s, "s")
        out.metric("warm_read_ms", fast(reads_ms), "ms")
        out.metric("write_ms", sweep_s / points * 1e3, "ms")
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    return out
