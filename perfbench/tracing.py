"""Spans around the public functions of bitboundary, recorded from outside.

`install(tracer)` replaces each measured function by a wrapper that records a
span (name, start, end, parent) and the work counts the call did. Modules
such as `harness` and `search` bind these functions with `from .nets import
...`, so a wrapper on `nets.forward_batch` alone would miss their calls:
every attribute of every loaded bitboundary module that holds the original
function object is rebound. Methods are wrapped on their class.

`DeepNet.digest` is a cached_property and cannot be wrapped on its own; its
cost shows in the self time of `nets.forward_with_first_layer_cache`, the
only caller that reads it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    counts: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded experiment."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        return traced


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def write_spans(spans: List[Span], path: str) -> None:
    """One JSON line per span: id, parent id, name, times (s), self time, counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            fh.write(json.dumps({"id": i, **asdict(span), "self_s": own}) + "\n")


# ---------------------------------------------------------------------------
# measured functions and their work counts
# ---------------------------------------------------------------------------


def _flop(dims, rows: int, first_layer: int) -> float:
    """Matmul flops of rows passing layers first_layer.. (computed, not counted
    by hardware): 2 * fan_in * fan_out per row and layer."""
    return float(rows) * sum(
        2.0 * dims[l] * dims[l + 1] for l in range(first_layer, len(dims) - 1)
    )


def _count_sample(net, config, trial_index):
    dims = config.dims
    normals = sum(dims[l + 1] * dims[l] + dims[l + 1] for l in range(len(dims) - 1))
    return {"n": config.n, "normals": normals}


def _count_batch(phi, net, signs):
    return {"rows": len(signs), "flop": _flop(net.config.dims, len(signs), 0)}


def _count_tail(phi, net, z1):
    return {"rows": len(z1), "flop": _flop(net.config.dims, len(z1), 1)}


def _count_search(res, net, x, *args, **kwargs):
    return {"n": x.n, "evaluations": res.evaluations, "steps": len(res.path or ())}


def _count_points(f, profile, t):
    return {"points": int(getattr(t, "size", 1))}


def _count_draws(out, ensemble, first_trial, count):
    return {"draws": count}


def _count_bytes(_, path, result):
    return {"bytes": os.path.getsize(path)}


# (module, attribute path, counter). The root span is harness.run_experiment;
# its self time is the harness's own work (aggregation, _gp_points, JSON).
MEASURED: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("nets", "sample_network", _count_sample),
    ("nets", "forward_batch", _count_batch),
    ("nets", "forward_from_first_layer", _count_tail),
    ("nets", "forward_with_first_layer_cache", None),
    ("search", "greedy_search", _count_search),
    ("search", "random_flip_walk", _count_search),
    ("kernel", "profile_for_config", None),
    ("kernel", "KernelProfile.evaluate", _count_points),
    ("gp", "build_ensemble", None),
    ("gp", "sample_block", _count_draws),
    ("bitstrings", "BitString.digest", None),
    ("harness", "run_experiment", None),
    ("harness", "write_rows_csv", _count_bytes),
)

ROOT = "harness.run_experiment"

COUNT_KEYS = {
    _count_sample: ("normals",),
    _count_batch: ("rows", "flop"),
    _count_tail: ("rows", "flop"),
    _count_search: ("evaluations", "steps"),
    _count_points: ("points",),
    _count_draws: ("draws",),
    _count_bytes: ("bytes",),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every measured function wherever bitboundary binds it.

    Returns a function that restores the originals.
    """
    undo: List[Tuple[object, str, object]] = []
    packages = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "bitboundary" or name.startswith("bitboundary."))
    ]
    for module_name, attr, count in MEASURED:
        module = importlib.import_module(f"bitboundary.{module_name}")
        name = span_name(module_name, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap(name, original, count))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, count)
        for owner in packages:
            for key, value in list(vars(owner).items()):
                if value is original:
                    undo.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer summary of one traced experiment
# ---------------------------------------------------------------------------


def _percentile(values: List[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced experiment; wall_s is the wall time of
    its run_experiment call, measured by the caller around the wrapper.

    For every measured function: calls, self time (s), inclusive call time
    percentiles (ms) and summed work counts; a function the workload never
    calls reads 0. Derived: computed GFLOP and GFLOP/s over self time,
    evaluations per greedy step, the walk's useful share of evaluations, the
    harness's own time (root self time) and the share of wall_s that the
    self times account for.
    """
    self_s = self_times(tracer.spans)
    totals: Dict[str, Dict[str, float]] = {}
    durations: Dict[str, List[float]] = {}
    for module, attr, count in MEASURED:
        name = span_name(module, attr)
        totals[name] = {"calls": 0, "self_s": 0.0}
        totals[name].update((key, 0) for key in COUNT_KEYS.get(count, ()))
        durations[name] = []
    ms_by_n: Dict[str, Dict[int, List[float]]] = {}
    for span, own in zip(tracer.spans, self_s):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += own
        ms = 1e3 * (span.end - span.start)
        durations[span.name].append(ms)
        for key, value in span.counts.items():
            if key == "n":
                ms_by_n.setdefault(span.name, {}).setdefault(value, []).append(ms)
            else:
                entry[key] += value

    m: Dict[str, float] = {}
    for name, entry in totals.items():
        for key, value in entry.items():
            m[f"{name}.{key}"] = value
        m[f"{name}.ms.p50"] = _percentile(durations[name], 50)
        m[f"{name}.ms.p90"] = _percentile(durations[name], 90)
        if "flop" in entry:
            gflop = entry["flop"] / 1e9
            m[f"{name}.gflop"] = gflop
            m[f"{name}.gflops"] = gflop / entry["self_s"] if entry["self_s"] > 0 else 0.0
        if "steps" in entry:
            evals, steps = entry["evaluations"], entry["steps"]
            m[f"{name}.evals_per_step"] = evals / steps if steps else 0.0
            m[f"{name}.useful_frac"] = steps / evals if evals else 0.0
    m["harness.self_s"] = totals[ROOT]["self_s"]
    m["trace.accounted_frac"] = sum(self_s) / wall_s
    return {
        "metrics": m,
        "spans": len(tracer.spans),
        "ms_by_n": {
            name: {str(n): statistics.fmean(v) for n, v in sorted(per_n.items())}
            for name, per_n in ms_by_n.items()
        },
    }
