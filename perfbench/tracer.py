"""Layer tracing from outside the program.

A :class:`Tracer` replaces public functions at the names their callers
resolve (``repro.swm.solver.lu_factor``, not ``scipy.linalg.lu_factor``)
with wrappers that record one span per call, and puts every original
back on exit -- also when the traced body raises. Nothing under
``src/`` is edited.

A span carries its layer name, start, end, parent span and trace id;
spans stay in memory (one list per tracer) and are written out once, at
the end, by :meth:`Tracer.dump`. A layer's *self time* is its spans'
duration minus the part of that interval covered by child spans. A call
into a layer that is already active on the same thread is passed
through without a new span, so recursive and delegating calls inside
one layer count once.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

# ---------------------------------------------------------------------
# Counters computed from call arguments (exact, never timed)
# ---------------------------------------------------------------------


def _pairs(args: tuple, kwargs: dict) -> dict:
    """``green_and_gradient_multi(tables, dx, dy, dz)``: pair evaluations
    = broadcast size of the separations x number of tables."""
    import numpy as np

    tables = list(args[0])
    shape = np.broadcast_shapes(*(np.shape(a) for a in args[1:4]))
    return {"pairs": float(np.prod(shape)) * len(tables)}


def _lu_factor(args: tuple, kwargs: dict) -> dict:
    import numpy as np

    a = args[0]
    m = a.shape[-1]
    unit = 8.0 / 3.0 if np.iscomplexobj(a) else 2.0 / 3.0
    return {"systems": 1.0, "flops": unit * m ** 3}


def _lu_solve(args: tuple, kwargs: dict) -> dict:
    import numpy as np

    lu = args[0][0]
    b = args[1]
    m = lu.shape[-1]
    nrhs = 1 if np.ndim(b) == 1 else b.shape[-1]
    unit = 8.0 if np.iscomplexobj(lu) else 2.0
    return {"flops": unit * m * m * nrhs}


def _gesv(args: tuple, kwargs: dict) -> dict:
    """``np.linalg.solve(a, b)`` on a ``(B, m, m)`` stack."""
    import numpy as np

    a, b = args[0], args[1]
    m = a.shape[-1]
    batch = float(np.prod(a.shape[:-2])) if a.ndim > 2 else 1.0
    nrhs = b.shape[-1] if np.ndim(b) == a.ndim else 1
    cplx = np.iscomplexobj(a)
    factor = (8.0 / 3.0 if cplx else 2.0 / 3.0) * m ** 3
    solve = (8.0 if cplx else 2.0) * m * m * nrhs
    return {"systems": batch, "flops": batch * (factor + solve)}


def _one_solve(args: tuple, kwargs: dict) -> dict:
    return {"solves": 1.0}


def _stack_solves(args: tuple, kwargs: dict) -> dict:
    """``solve_many*(heights, ...)`` / ``solve_mesh_many(meshes, ...)``."""
    first = args[1]
    n = first.shape[0] if hasattr(first, "shape") else len(first)
    return {"solves": float(n)}


def _multi_k_solves(args: tuple, kwargs: dict) -> dict:
    freqs = args[2] if len(args) > 2 else kwargs["frequencies_hz"]
    n = float(len(args[1]) * len(list(freqs)))
    return {"solves": n, "stacked_solves": n}


def _one_job(args: tuple, kwargs: dict) -> dict:
    return {"jobs": 1.0}


def _group(args: tuple, kwargs: dict) -> dict:
    jobs = float(len(args[0]))
    return {"jobs": jobs, "grouped_jobs": jobs, "groups": 1.0}


def _cache_get(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"hits": 0.0 if result is None else 1.0}


def _count(name: str) -> Callable[[tuple, dict], dict]:
    def counter(args: tuple, kwargs: dict) -> dict:
        return {name: 1.0}
    return counter


_SOLVER_3D = "repro.swm.solver:SWMSolver3D"
_SOLVER_2D = "repro.swm.solver2d:SWMSolver2D"

#: ``(owner, attribute, layer, counter)``. The owner is ``module`` or
#: ``module:Class``; counters run on the call's arguments (or, for a
#: three-argument counter, also on its result).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.swm.fastkernel", "green_and_gradient_multi", "fastkernel",
     _pairs),
    ("repro.swm.plan:AssemblyPlan3D", "build", "plan", _count("calls")),
    ("repro.swm.plan:AssemblyPlan2D", "build", "plan", _count("calls")),
    ("repro.swm.plan:AssemblyPlan3D", "assemble_k", "plan", None),
    ("repro.swm.plan:AssemblyPlan2D", "assemble_k", "plan", None),
    ("repro.swm.solver", "assemble_media_multi_k", "assembly", None),
    ("repro.swm.solver", "assemble_medium", "assembly", None),
    ("repro.swm.solver", "assemble_medium_many", "assembly", None),
    ("repro.swm.solver2d", "assemble_media_multi_k_2d", "assembly", None),
    ("repro.swm.solver", "lu_factor", "lu", _lu_factor),
    ("repro.swm.solver", "lu_solve", "lu", _lu_solve),
    ("repro.swm.solver2d", "lu_factor", "lu", _lu_factor),
    ("repro.swm.solver2d", "lu_solve", "lu", _lu_solve),
    ("numpy.linalg", "solve", "lu", _gesv),
    (_SOLVER_3D, "solve", "solver", _one_solve),
    (_SOLVER_3D, "solve_um", "solver", _one_solve),
    (_SOLVER_3D, "solve_mesh", "solver", _one_solve),
    (_SOLVER_3D, "solve_many", "solver", _stack_solves),
    (_SOLVER_3D, "solve_many_um", "solver", _stack_solves),
    (_SOLVER_3D, "solve_mesh_many", "solver", _stack_solves),
    (_SOLVER_3D, "solve_mesh_many_multi_k", "solver", _multi_k_solves),
    (_SOLVER_2D, "solve", "solver", _one_solve),
    (_SOLVER_2D, "solve_um", "solver", _one_solve),
    (_SOLVER_2D, "solve_mesh", "solver", _one_solve),
    (_SOLVER_2D, "solve_many", "solver", _stack_solves),
    (_SOLVER_2D, "solve_many_um", "solver", _stack_solves),
    (_SOLVER_2D, "solve_mesh_many", "solver", _stack_solves),
    (_SOLVER_2D, "solve_mesh_many_multi_k", "solver", _multi_k_solves),
    ("repro.swm.plan", "periodic_green2d_pair", "periodic2d",
     _count("calls")),
    ("repro.swm.assembly2d", "periodic_green2d", "periodic2d",
     _count("calls")),
    ("repro.core.pipeline", "build_kl", "kl", _count("calls")),
    ("repro.engine.api", "execute_job", "engine", _one_job),
    ("repro.engine.runtime", "execute_job", "engine", _one_job),
    ("repro.engine.runtime", "execute_job_group", "engine", _group),
    ("repro.service.scheduler", "execute_job", "engine", _one_job),
    ("repro.service.scheduler", "execute_job_group", "engine", _group),
    ("repro.engine.cache:ResultCache", "get", "cache.get", _cache_get),
    ("repro.engine.cache:ResultCache", "put", "cache.put", None),
    ("repro.service.wire", "dumps", "wire.encode", None),
    ("repro.service.wire", "to_wire", "wire.encode", None),
    ("repro.service.wire", "loads", "wire.decode", None),
    ("repro.service.wire", "from_wire", "wire.decode", None),
    ("repro.service.scheduler:SweepScheduler", "submit", "scheduler",
     _count("submits")),
)

#: Callers whose ``np.linalg.solve`` calls are the solver's LU; other
#: callers pass through untraced.
_LU_CALLERS = frozenset({"repro.swm.solver", "repro.swm.solver2d"})


def resolve_owner(owner: str) -> Any:
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls_name) if cls_name else module


def _raw_attr(owner: Any, attr: str) -> Any:
    """The attribute as stored on its owner (no descriptor binding)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Install wrappers on :data:`TARGETS`; collect spans and counters.

    Use as a context manager around a traced region. A wrapped call
    records a span only on a thread that is inside :meth:`trace`, or
    on any thread when ``always=True`` (a traced server has no
    enclosing request span on its handler and dispatch threads).
    """

    def __init__(self, always: bool = False) -> None:
        self.always = always
        self.spans: list[tuple] = []  # (id, parent, trace, name, t0, t1)
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []
        self._active_trace: int | None = None

    # -- span stack ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace: int | None = None):
        """Record one span (used for the benchmark's own unit spans)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if trace is None:
            # A root span outside any unit (a server thread's call)
            # opens a trace of its own.
            trace = parent[1] if parent else (self._active_trace or span_id)
        stack.append((span_id, trace, name))
        t0 = time.perf_counter()
        try:
            yield span_id
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, parent[0] if parent else None,
                                   trace, name, t0, t1))

    @contextmanager
    def trace(self, name: str):
        """A root span opening a new trace id (one cold unit, one
        request cycle)."""
        trace_id = next(self._ids)
        self._active_trace = trace_id
        try:
            with self.span(name, trace=trace_id) as span_id:
                yield span_id
        finally:
            self._active_trace = None

    # -- wrapping ------------------------------------------------------

    def _wrap(self, func: Callable, layer: str,
              counter: Callable | None, lu_caller_check: bool) -> Callable:
        tracer = self
        takes_result = (counter is not None
                        and counter.__code__.co_argcount == 3)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if ((not stack and not tracer.always)
                    or any(entry[2] == layer for entry in stack)
                    or (lu_caller_check and sys._getframe(1).f_globals
                        .get("__name__") not in _LU_CALLERS)):
                return func(*args, **kwargs)
            if counter is not None and not takes_result:
                counts = counter(args, kwargs)
            with tracer.span(layer):
                result = func(*args, **kwargs)
            if counter is not None:
                if takes_result:
                    counts = counter(args, kwargs, result)
                with tracer._lock:
                    for key, value in counts.items():
                        tracer.counters[f"{layer}.{key}"] += value
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", "wrapper")
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner_name, attr, layer, counter in TARGETS:
                owner = resolve_owner(owner_name)
                raw = _raw_attr(owner, attr)
                lu_check = owner_name == "numpy.linalg"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer,
                                                 counter, lu_check))
                else:
                    new = self._wrap(raw, layer, counter, lu_check)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back (last patched, first restored)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, t0, t1 in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(span_id, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[name] += (t1 - t0) - covered
        return dict(out)

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[3]] += 1
        return dict(out)

    def durations(self) -> dict[str, float]:
        """Total (inclusive) duration per span name, in seconds."""
        out: dict[str, float] = defaultdict(float)
        for _, _, _, name, t0, t1 in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def summary(self) -> dict:
        """Everything :mod:`layers` needs, as plain JSON-able data."""
        return {"self_s": self.self_times(), "total_s": self.durations(),
                "spans": self.span_counts(), "counters": dict(self.counters)}

    def dump(self, path: str) -> None:
        """Write every span, once, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, trace, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "trace": trace, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def snapshot() -> dict[str, Any]:
    """Every target attribute as currently stored, keyed by name.

    Compare two snapshots by identity to prove a tracer put every
    original back.
    """
    return {f"{owner}.{attr}": _raw_attr(resolve_owner(owner), attr)
            for owner, attr, _, _ in TARGETS}
