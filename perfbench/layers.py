"""Per-layer metrics from a traced run.

Counts and self times are reported *per unit*: one cold unit on the
batch workloads, one request cycle (one write plus its reads) on
``service``. Latencies (``*_ms``) are means per call. ``*.share`` is
the layer's self time over the time of the benchmark's unit spans.
"""

from __future__ import annotations

#: name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "fastkernel.calls": "count",
    "fastkernel.pairs": "count",
    "fastkernel.self_s": "s",
    "fastkernel.share": "ratio",
    "plan.calls": "count",
    "plan.self_s": "s",
    "assembly.self_s": "s",
    "lu.systems": "count",
    "lu.flops": "flop",
    "lu.self_s": "s",
    "solver.solves": "count",
    "solver.stacked_frac": "ratio",
    "solver.self_s": "s",
    "periodic2d.calls": "count",
    "periodic2d.self_s": "s",
    "periodic2d.share": "ratio",
    "kl.calls": "count",
    "kl.self_s": "s",
    "engine.jobs": "count",
    "engine.groups": "count",
    "engine.jobs_per_group": "count",
    "engine.self_s": "s",
    "cache.gets": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "wire.bytes": "B",
    "wire.dumps_ms": "ms",
    "wire.loads_ms": "ms",
    "scheduler.submit_ms": "ms",
    "scheduler.queue_wait_ms": "ms",
    "http.requests": "count",
    "http.request_ms": "ms",
    "trace.overhead_s": "s",
}

#: Span names grouped into the layers whose shares are compared.
_LAYER_OF = {"cache.get": "cache", "cache.put": "cache",
             "wire.encode": "wire", "wire.decode": "wire"}

#: Span names the benchmark itself opens around a cold unit, a warm
#: read or a cold write (not program layers).
ROOT_SPANS = ("unit", "read", "write")
#: Benchmark spans nested inside a unit (a batch workload's replays).
_OWN_SPANS = ROOT_SPANS + ("replay",)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_shares(summary: dict) -> dict[str, float]:
    """Self-time share of every program layer over the unit spans."""
    root = sum(summary["total_s"].get(name, 0.0) for name in ROOT_SPANS)
    shares: dict[str, float] = {}
    for name, self_s in summary["self_s"].items():
        if name in _OWN_SPANS:
            continue
        layer = _LAYER_OF.get(name, name)
        shares[layer] = shares.get(layer, 0.0) + _ratio(self_s, root)
    return shares


def layer_metrics(summary: dict, units: int, overhead_s: float,
                  extra: dict | None = None) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric from one tracer summary.

    ``extra`` supplies the values measured outside the tracer
    (``scheduler.queue_wait_ms`` from the server's own histogram, the
    client's ``http.*`` and ``wire.bytes`` figures).
    """
    self_s = summary["self_s"]
    total = summary["total_s"]
    spans = summary["spans"]
    counters = summary["counters"]
    shares = layer_shares(summary)
    per = 1.0 / max(units, 1)

    def n(name: str) -> float:
        return float(spans.get(name, 0))

    def ms_per_call(name: str) -> float:
        return 1e3 * _ratio(total.get(name, 0.0), n(name))

    values = {
        "fastkernel.calls": n("fastkernel") * per,
        "fastkernel.pairs": counters.get("fastkernel.pairs", 0.0) * per,
        "fastkernel.self_s": self_s.get("fastkernel", 0.0) * per,
        "fastkernel.share": shares.get("fastkernel", 0.0),
        "plan.calls": counters.get("plan.calls", 0.0) * per,
        "plan.self_s": self_s.get("plan", 0.0) * per,
        "assembly.self_s": self_s.get("assembly", 0.0) * per,
        "lu.systems": counters.get("lu.systems", 0.0) * per,
        "lu.flops": counters.get("lu.flops", 0.0) * per,
        "lu.self_s": self_s.get("lu", 0.0) * per,
        "solver.solves": counters.get("solver.solves", 0.0) * per,
        "solver.stacked_frac": _ratio(
            counters.get("solver.stacked_solves", 0.0),
            counters.get("solver.solves", 0.0)),
        "solver.self_s": self_s.get("solver", 0.0) * per,
        "periodic2d.calls": n("periodic2d") * per,
        "periodic2d.self_s": self_s.get("periodic2d", 0.0) * per,
        "periodic2d.share": shares.get("periodic2d", 0.0),
        "kl.calls": counters.get("kl.calls", 0.0) * per,
        "kl.self_s": self_s.get("kl", 0.0) * per,
        "engine.jobs": counters.get("engine.jobs", 0.0) * per,
        "engine.groups": counters.get("engine.groups", 0.0) * per,
        "engine.jobs_per_group": _ratio(
            counters.get("engine.grouped_jobs", 0.0),
            counters.get("engine.groups", 0.0)),
        "engine.self_s": self_s.get("engine", 0.0) * per,
        "cache.gets": n("cache.get") * per,
        "cache.hit_ratio": _ratio(counters.get("cache.get.hits", 0.0),
                                  n("cache.get")),
        "cache.get_ms": ms_per_call("cache.get"),
        "cache.put_ms": ms_per_call("cache.put"),
        "wire.bytes": 0.0,
        "wire.dumps_ms": ms_per_call("wire.encode"),
        "wire.loads_ms": ms_per_call("wire.decode"),
        "scheduler.submit_ms": ms_per_call("scheduler"),
        "scheduler.queue_wait_ms": 0.0,
        "http.requests": 0.0,
        "http.request_ms": 0.0,
        "trace.overhead_s": overhead_s,
    }
    values.update(extra or {})
    return {name: (float(values[name]), unit)
            for name, unit in PER_LAYER.items()}


def merge_summaries(*summaries: dict) -> dict:
    """Sum tracer summaries (the client's and the server's)."""
    out: dict = {"self_s": {}, "total_s": {}, "spans": {}, "counters": {}}
    for summary in summaries:
        for part, values in summary.items():
            for key, value in values.items():
                out[part][key] = out[part].get(key, 0) + value
    return out
