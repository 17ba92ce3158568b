"""Span tracing of sisq's public functions, installed from outside the package.

``install`` replaces every public function of ``sisq.stationary``,
``sisq.spectral``, ``sisq.clt`` and ``sisq.sim`` (their ``__all__``), and
``sisq.cli.main``, by a wrapper that records a span.  The wrapper is bound
in every one of those modules' namespaces that holds the original, so
calls made inside the package, such as ``_propagator_parts`` calling
``full_decomposition`` or ``cli`` calling its imported ``simulate``, are
traced too.  A name that the package no longer has is simply not wrapped.

``layer_metrics`` turns the spans of one pass into the per-layer metrics
listed in README.md.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# The flux route of ``sisq.spectral``; every other public spectral
# function belongs to the dense route.
FLUX = frozenset({"quasi_stationary_distribution", "expected_time_qsd",
                  "survival_probability"})

# Keys of the per-point flux metrics: the analytic workload's (n, R0) grid.
FLUX_POINTS = ("n100_r2", "n1000_r2", "n400_r5", "n1000_r1.2")

_SIM_FANOUT = ("conditioned_ensemble", "extinction_time_samples")


def _param_key(p) -> str:
    return f"n{p.n}_r{p.r0:g}"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "extra")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.extra = {}  # filled by the annotator when the call returns

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "layer": self.layer,
                "start": self.start, "end": self.end, "parent": self.parent,
                "op": self.op, **self.extra}


class Tracer:
    """Holds the spans of one pass in memory.

    Attributes:
        spans: recorded spans in start order; ``parent`` is an index.
        op: id of the operation now running, stamped on each new span.
        enabled: when False the wrappers only call through.
    """

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.enabled = True
        self._stack: list = []

    def wrap(self, fn, name: str, layer: str):
        annotate = _annotator(fn, name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, layer, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.extra = annotate(args, kwargs, result)
            return result

        return traced


def _annotator(fn, name):
    """Extra fields a span of ``name`` records, computed after it ends."""
    if name in ("quasi_stationary_distribution", "conditioned_distribution"):
        return lambda args, kwargs, result: {"key": _param_key(args[0] if args else kwargs["p"])}
    if name in ("simulate", "simulate_restarted"):
        return lambda args, kwargs, result: {"events": int(getattr(result, "n_events", 0))}
    if name in _SIM_FANOUT:
        sig = inspect.signature(fn)

        def fanout(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            return {"replicates": int(bound.get("replicates", 0)),
                    "workers": int(bound.get("workers") or 1)}

        return fanout
    return None


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the public functions of the sisq modules.

    Args:
        modules: {"stationary": module, "spectral": ..., "clt": ...,
            "sim": ..., "cli": ...}.
    """
    wrappers = {}
    for modname in ("stationary", "spectral", "clt", "sim"):
        mod = modules[modname]
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if not inspect.isfunction(fn):
                continue
            layer = modname
            if modname == "spectral":
                layer = "spectral.flux" if name in FLUX else "spectral.dense"
            wrappers[fn] = tracer.wrap(fn, name, layer)
    main = getattr(modules["cli"], "main", None)
    if inspect.isfunction(main):
        wrappers[main] = tracer.wrap(main, "main", "cli")
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])


def _mean(xs: list) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus its direct children's, which
    never overlap because spans nest along the call stack.  Metrics of a
    layer the workload does not run read 0.
    """
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            child[s.parent] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]

    busy = defaultdict(float)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        busy[s.layer] += self_time[i]
        by_name[s.name].append(i)

    def total(name: str, times=dur) -> float:
        return sum(times[i] for i in by_name[name])

    m = {
        "stationary.busy_ms": 1e3 * busy["stationary"],
        "clt.busy_ms": 1e3 * busy["clt"],
        "spectral.flux.busy_ms": 1e3 * busy["spectral.flux"],
        "spectral.flux.calls": len(by_name["quasi_stationary_distribution"]),
    }
    flux_ms = defaultdict(float)
    for i in by_name["quasi_stationary_distribution"]:
        flux_ms[spans[i].extra.get("key")] += 1e3 * dur[i]
    for key in FLUX_POINTS:
        m[f"spectral.flux.{key}.ms"] = flux_ms[key]

    m["spectral.dense.eig_ms"] = 1e3 * total("full_decomposition")
    m["spectral.dense.assembly_ms"] = 1e3 * total("transition_matrix", self_time)
    # The first call per parameter set fills the propagator cache (cold).
    seen, cold, warm = set(), [], []
    for i in by_name["conditioned_distribution"]:
        key = spans[i].extra.get("key")
        (warm if key in seen else cold).append(1e3 * dur[i])
        seen.add(key)
    m["spectral.dense.cold_call_ms"] = _mean(cold)
    m["spectral.dense.warm_call_ms"] = _mean(warm)

    events = sum(spans[i].extra.get("events", 0)
                 for name in ("simulate", "simulate_restarted") for i in by_name[name])
    m["sim.kernel.events"] = events
    m["sim.kernel.events_per_s"] = _rate(events, total("simulate") + total("simulate_restarted"))

    serial_s = parallel_s = 0.0
    workers = 1
    for name, metric in zip(_SIM_FANOUT, ("sim.ensemble.replicates_per_s",
                                          "sim.extinction.replicates_per_s")):
        reps = secs = 0.0
        for i in by_name[name]:
            w = spans[i].extra.get("workers", 1)
            if w > 1:
                parallel_s += dur[i]
                workers = w
            else:
                serial_s += dur[i]
                reps += spans[i].extra.get("replicates", 0)
                secs += dur[i]
        m[metric] = _rate(reps, secs)
    m["sim.fanout.speedup"] = _rate(serial_s, parallel_s)
    m["sim.fanout.overhead_ms"] = 1e3 * (parallel_s - serial_s / workers) if parallel_s else 0.0

    m["cli.self_ms"] = 1e3 * total("main", self_time)
    return m
