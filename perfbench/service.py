"""The ``service`` workload: a read/write load on the sweep service.

The server runs in its own process (:mod:`serve`, i.e. ``repro-experiments
serve --cache-dir``). One closed-loop client -- one thread, one request
at a time, in this process -- sends warm reads over a fixed read set
and, every :data:`WRITE_EVERY`-th request, a cold write:
a small two-frequency Monte-Carlo sweep with a seed no earlier request
used, so its jobs are always solved (as one frequency-stacked group).

- A *read* is ``POST /v1/sweeps`` plus ``GET /v1/sweeps/<id>`` (a
  fully cached sweep completes at submit) plus wire decode.
- A *write* is ``POST /v1/sweeps``, then the ``/events`` stream until
  it closes, then the final status and wire decode.

The read set is solved once in this process into a disk cache before
any server starts. ``setup_s`` is the median of :data:`SETUP_REPEATS`
server starts on a copy of that cache: the measured server's own start, then fresh servers
started and stopped between requests, spread over the measuring time
(see :class:`common.SetupSchedule`), so none of them sees the measured
server's writes. ``sweep_s``, ``warm_read_ms`` and ``write_ms`` are
the fast percentiles (see :func:`common.fast`) of the run's write
closes, reads and writes.

Every warm read must be bit-identical to the read set's cold result.
Every write is checked for its solve count and finite values, and every
:data:`COMPARE_EVERY`-th write against an in-process
:func:`repro.engine.run_sweep` of the same spec.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext

from repro.engine import ResultCache, run_batch, run_sweep
from repro.service import wire

import workloads
from common import (
    HERE,
    ROOT,
    Outcome,
    SetupSchedule,
    child_env,
    fast,
    median,
    results_identical,
    tail_note,
    trace_dir,
)
from env import peak_rss_mb
from layers import layer_metrics, merge_summaries
from tracer import Tracer

WRITE_EVERY = 5
COMPARE_EVERY = 10
_LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")


class Server:
    """One server process on an ephemeral port, stopped by SIGINT."""

    def __init__(self, cache_dir: str, workdir: str, name: str,
                 trace_dir: str | None = None) -> None:
        self.log_path = os.path.join(workdir, f"{name}.log")
        cmd = [sys.executable, os.path.join(HERE, "serve.py"),
               "--cache-dir", cache_dir]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     env=child_env(), cwd=ROOT)
        self.host, self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 60.0) -> tuple[str, int]:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path, "rb") as fh:
                match = _LISTENING.search(fh.read())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """The closed-loop client: one thread, one request at a time.

    Each request opens its own connection, as the program's own
    :class:`~repro.service.client.ServiceClient` (urllib) does. On a
    kept-alive connection the server's responses currently wait about
    40 ms each for the client's delayed ACK (headers and body leave in
    separate segments under Nagle's algorithm).
    """

    def __init__(self, server: Server) -> None:
        self.host, self.port = server.host, server.port
        self.requests = 0
        self.request_s = 0.0
        self.bytes = 0

    def _call(self, method: str, path: str, body: bytes | None = None,
              stream: bool = False) -> bytes:
        headers = {"Content-Type": "application/json"} if body else {}
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        if not stream:
            self.requests += 1
            self.request_s += time.perf_counter() - t0
        if resp.status >= 300:
            raise RuntimeError(f"{method} {path} -> HTTP {resp.status}: "
                               f"{data[:200]!r}")
        return data

    def healthy(self) -> bool:
        try:
            return bool(json.loads(self._call("GET", "/v1/healthz"))["ok"])
        except (OSError, http.client.HTTPException, RuntimeError):
            return False

    def submit(self, spec) -> str:
        body = wire.dumps(spec).encode("utf-8")
        self.bytes += len(body)
        return json.loads(self._call("POST", "/v1/sweeps", body))["id"]

    def result(self, ticket: str):
        data = self._call("GET", f"/v1/sweeps/{ticket}")
        self.bytes += len(data)
        status = json.loads(data)
        if status.get("state") != "complete":
            raise RuntimeError(f"sweep {ticket} is {status.get('state')}: "
                               f"{status.get('error')}")
        return wire.from_wire(wire.open_envelope(status["result"]))

    def read(self, spec):
        return self.result(self.submit(spec))

    def write(self, spec):
        """Returns ``(result, seconds until the event stream closed)``."""
        t0 = time.perf_counter()
        ticket = self.submit(spec)
        self._call("GET", f"/v1/sweeps/{ticket}/events", stream=True)
        closed = time.perf_counter() - t0
        return self.result(ticket), closed

    def queue_wait_ms(self) -> float:
        """Mean queue wait from the server's own Prometheus histogram."""
        text = self._call("GET", "/v1/metrics").decode("utf-8")
        sums = re.search(r"^repro_scheduler_queue_wait_seconds_sum\S* (\S+)",
                         text, re.M)
        counts = re.search(
            r"^repro_scheduler_queue_wait_seconds_count\S* (\S+)", text, re.M)
        if not sums or not counts or float(counts.group(1)) == 0.0:
            return 0.0
        return 1e3 * float(sums.group(1)) / float(counts.group(1))


def _start_ready(cache_dir: str, workdir: str, name: str, read_specs,
                 trace_dir: str | None = None) -> tuple[Server, Client, float]:
    """Start a server; return it once healthy with the read set warm."""
    t0 = time.perf_counter()
    server = Server(cache_dir, workdir, name, trace_dir)
    try:
        client = Client(server)
        while not client.healthy():
            time.sleep(0.005)
        for spec in read_specs.values():
            client.read(spec)
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - t0


def _check_write(out: Outcome, spec, result, index: int) -> None:
    samples = spec.estimators[0].n_samples
    points = result.points
    ok = len(points) == len(spec.jobs()) and all(
        p.n_evals == samples and not p.cache_hit
        and math.isfinite(p.mean)
        and all(math.isfinite(float(v)) for v in p.values)
        for p in points)
    out.check(ok, f"write {index}: wrong solve count or non-finite value")


def _loop(client: Client, read_specs, cold, seed: int, size: str,
          seconds: float, out: Outcome, first_write: int,
          tracer: Tracer | None = None,
          setups: SetupSchedule | None = None) -> dict:
    """The closed loop; returns per-request timings and sampled writes."""
    names = list(read_specs)
    reads, writes, closes, compare = [], [], [], []
    deadline = time.perf_counter() + seconds
    request = 0
    index = first_write
    while time.perf_counter() < deadline or not writes:
        if setups:
            deadline += setups.take_due()
        request += 1
        if request % WRITE_EVERY == 0:
            spec = workloads.service_write_spec(seed, index, size)
            with tracer.trace("write") if tracer else nullcontext():
                t0 = time.perf_counter()
                result, closed = client.write(spec)
                writes.append(time.perf_counter() - t0)
            closes.append(closed)
            _check_write(out, spec, result, index)
            if index % COMPARE_EVERY == 0:
                compare.append((spec, result))
            index += 1
        else:
            name = names[request % len(names)]
            with tracer.trace("read") if tracer else nullcontext():
                t0 = time.perf_counter()
                result = client.read(read_specs[name])
                reads.append(time.perf_counter() - t0)
            out.check(results_identical({name: result}, {name: cold[name]})
                      and all(p.cache_hit for p in result.points),
                      f"warm read {request} of {name} is not a bit-identical "
                      "cache replay")
    return {"reads": reads, "writes": writes, "closes": closes,
            "compare": compare, "next_write": index}


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str) -> Outcome:
    out = Outcome()
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"service-{os.getpid()}")
    read_cache = os.path.join(workdir, "read-cache")
    cache_dir = os.path.join(workdir, "cache")
    os.makedirs(read_cache)
    servers: list[Server] = []

    def probe() -> float:
        server, _, elapsed = _start_ready(read_cache, workdir,
                                          f"setup{len(servers)}", read_specs)
        servers.append(server)
        server.stop()
        return elapsed

    try:
        read_specs = workloads.service_read_specs(size)
        cold = run_batch(read_specs, cache=ResultCache(disk_dir=read_cache))
        shutil.copytree(read_cache, cache_dir)
        server, client, elapsed = _start_ready(cache_dir, workdir, "measured",
                                               read_specs)
        servers.append(server)
        span = seconds / 2 if trace else seconds
        setups = SetupSchedule(span, probe, taken=[elapsed])
        loop = _loop(client, read_specs, cold, seed, size, span, out, 0,
                     setups=setups)
        rss = peak_rss_mb(server.proc.pid)
        server.stop()
        setups = setups.finish()
        if trace:
            spans_dir = trace_dir(workload, seed)
            server, client, _ = _start_ready(cache_dir, workdir, "traced",
                                             read_specs, spans_dir)
            servers.append(server)
            client = Client(server)  # count the loop's requests only
            tracer = Tracer()
            tracer.install()
            try:
                traced = _loop(client, read_specs, cold, seed, size, span,
                               out, loop["next_write"], tracer)
            finally:
                tracer.restore()
            cycles = len(traced["writes"])
            extra = {
                "wire.bytes": client.bytes / cycles,
                "http.requests": client.requests / cycles,
                "http.request_ms": 1e3 * client.request_s / client.requests,
                "scheduler.queue_wait_ms": client.queue_wait_ms(),
            }
            server.stop()
            tracer.dump(os.path.join(spans_dir, "client-spans.jsonl"))
            out.notes["spans"] = os.path.relpath(spans_dir, ROOT)
            with open(os.path.join(spans_dir, "server-summary.json"),
                      encoding="utf-8") as fh:
                server_summary = json.load(fh)
            summary = merge_summaries(tracer.summary(), server_summary)
            overhead = fast(traced["closes"]) - fast(loop["closes"])
            for name, (value, unit) in layer_metrics(
                    summary, cycles, overhead, extra).items():
                out.metric(name, value, unit)
            out.notes["traced_writes"] = cycles
            loop["compare"] += traced["compare"]
        else:
            out.metric("setup_s", median(setups), "s")
            out.metric("sweep_s", fast(loop["closes"]), "s")
            out.metric("warm_read_ms", fast(loop["reads"]) * 1e3, "ms")
            out.metric("write_ms", fast(loop["writes"]) * 1e3, "ms")
            out.metric("peak_rss_mb", rss, "MiB")
        for spec, result in loop["compare"]:
            local = run_sweep(spec, cache=ResultCache())
            out.check(results_identical({"w": result}, {"w": local}),
                      f"write {spec.estimators[0].seed} differs from the "
                      "in-process run_sweep")
        out.notes.update({
            "reads": len(loop["reads"]), "writes": len(loop["writes"]),
            "write_every": WRITE_EVERY, "setup_samples_s": setups,
            "read_median_ms": median(loop["reads"]) * 1e3,
            "write_median_ms": median(loop["writes"]) * 1e3,
            "read_tail": tail_note([r * 1e3 for r in loop["reads"]], "ms"),
            "write_tail": tail_note([w * 1e3 for w in loop["writes"]], "ms"),
            "server_peak_rss_mb": rss,
        })
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return out
