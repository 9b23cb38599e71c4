"""Steadiness tool: is every end-to-end metric steady within its bound?

Runs each workload of ``BENCHMARK.json`` ``--runs`` times on different
seeds for ``run_seconds`` each, in ``--sets`` sets separated by
:data:`GAP_S` seconds, with the workload order rotated from run to run
so no workload always follows the same neighbour. For
every set and metric it prints the median and the spread -- the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) over the median -- next to the
metric's bound from ``BENCHMARK.json``, and whether later sets' medians
agree with the first set's within the bound::

    python3 perfbench/steady.py --runs 10 --sets 2 \\
        --out perfbench/steadiness.json

Run from the repository root; exits 1 when any end-to-end metric's
spread exceeds its bound or two sets disagree by more than it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT, load_bench

#: Spread a tail note must stay within to be promoted to a metric.
TAIL_PROMOTION = 0.1
#: Seconds between two sets, so they meet the host at different times.
GAP_S = 60.0


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.decode()[-800:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    notes = json.loads(lines[-2])["record"]["notes"]
    for key, note in notes.items():
        if key.endswith("_tail") and note.get("percentile") is not None:
            values[f"{key}.p{note['percentile']:g}"] = note["value"]
    return values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(samples: dict, bounds: dict) -> dict:
    """``samples[set][workload][metric] -> values`` to the summary.

    Tail notes carry no bound; they are summarized against a tenth, the
    steadiness a tail must show before it may become a bounded metric.
    """
    out: dict = {}
    first = samples[0]
    for workload in first:
        out[workload] = {}
        for metric in first[workload]:
            if any(len(s[workload].get(metric, ())) < 2 for s in samples):
                continue  # a tail note some runs could not give
            bound = bounds.get(metric, TAIL_PROMOTION)
            sets = [s[workload][metric] for s in samples]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = [(m - medians[0]) / medians[0] for m in medians[1:]]
            out[workload][metric] = {
                "bound": bound, "medians": medians, "spreads": spreads,
                "drift_vs_first": drift,
                "spread_ok": all(sp <= bound for sp in spreads),
                "sets_agree": all(abs(d) <= bound for d in drift),
            }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", default=None,
                        help="write the JSON summary here")
    args = parser.parse_args(argv)
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    samples: list[dict] = []
    started = time.time()
    for set_index in range(args.sets):
        if set_index:
            time.sleep(GAP_S)
        values: dict = {w: {} for w in workloads}
        for i in range(args.runs):
            order = workloads[i % len(workloads):] + \
                workloads[:i % len(workloads)]
            for workload in order:
                seed = 1 + set_index * args.runs + i
                metrics = run_once(workload, seed, seconds)
                for name, value in metrics.items():
                    values[workload].setdefault(name, []).append(value)
                print(f"set {set_index} run {i} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v:.5g}" for k, v in metrics.items()),
                      flush=True)
        samples.append(values)

    summary = summarize(samples, bounds)
    ok = True
    print(f"\n{'workload':10} {'metric':22} {'bound':>6} "
          f"{'medians':>24} {'IQR/median':>18} {'drift':>8}  verdict")
    for workload, metrics in summary.items():
        for metric, s in metrics.items():
            good = s["spread_ok"] and s["sets_agree"]
            if metric in bounds:
                ok &= good
                verdict = "ok" if good else "NOT STEADY"
            else:
                verdict = ("note: steady within a tenth" if good
                           else "note: not steady within a tenth")
            print(f"{workload:10} {metric:22} {s['bound']:6.3f} "
                  f"{' '.join(f'{m:.5g}' for m in s['medians']):>24} "
                  f"{' '.join(f'{x:.3f}' for x in s['spreads']):>18} "
                  f"{' '.join(f'{d:+.3f}' for d in s['drift_vs_first']):>8}"
                  f"  {verdict}")
    if args.out:
        doc = {"runs_per_set": args.runs, "sets": args.sets,
               "gap_s": GAP_S, "run_seconds": seconds,
               "started_unix": started, "finished_unix": time.time(),
               "summary": summary, "samples": samples}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
