"""Spans around the public functions of the hugelschaffer modules.

``install`` wraps every public function in every ``hugelschaffer`` module
namespace that binds it (``area.complete_K`` as well as
``elliptic.complete_K``), so calls between modules are seen.  The program
itself is not modified.  Each span records its name, start, end and parent
in memory; ``Tracer.summary`` reduces them to per-name call counts and
self times (a span's duration minus its children's) when the run ends.

Two counts come from the wrappers themselves: ``oracle.quad`` wraps the
integrand it is given to count evaluations, and ``elliptic.series_eval``
calls ``series_sum`` and returns its ``.value``, which is exactly what
``series_eval`` does, to count the series terms summed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

PACKAGE = "hugelschaffer"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self._open: list[int] = []
        self.integrand_evals = 0
        self.series_terms = 0
        self.depth_exhausted = 0

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[idx] = (name, start, end, self._open[-1] if self._open else -1)

    def summary(self) -> dict:
        """Per-name calls and self time, plus the wrapper counts.

        ``area_exact_series`` counts ``area_exact`` spans with a
        ``series_eval`` span somewhere below them.
        """
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        spans = self.spans
        for name, start, end, parent in spans:
            calls[name] += 1
            self_ns[name] += end - start
            if parent >= 0:
                self_ns[spans[parent][0]] -= end - start
        via_series = set()
        for name, _, _, parent in spans:
            if name != "elliptic.series_eval":
                continue
            while parent >= 0:
                if spans[parent][0] == "area.area_exact":
                    via_series.add(parent)
                parent = spans[parent][3]
        return {
            "calls": dict(calls),
            "self_ns": dict(self_ns),
            "integrand_evals": self.integrand_evals,
            "series_terms": self.series_terms,
            "depth_exhausted": self.depth_exhausted,
            "area_exact_series": len(via_series),
        }


def merge(summaries: list[dict]) -> dict:
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    total = Counter()
    for s in summaries:
        calls.update(s["calls"])
        self_ns.update(s["self_ns"])
        total.update({k: v for k, v in s.items() if isinstance(v, int)})
    return {"calls": dict(calls), "self_ns": dict(self_ns), **total}


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


_QUAD_SPANS = {"simpson": "oracle.quad.simpson", "gauss-legendre": "oracle.quad.gauss"}


def _quad_wrapper(tracer: Tracer, fn, depth_exhausted: type):
    """Names the span by rule and counts integrand evaluations."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        name = _QUAD_SPANS[bound.arguments["spec"].rule.value]
        f = bound.arguments["f"]

        def counted(t):
            tracer.integrand_evals += 1
            return f(t)

        bound.arguments["f"] = counted
        try:
            return tracer.call(name, fn, bound.args, bound.kwargs)
        except depth_exhausted:
            tracer.depth_exhausted += 1
            raise

    return wrapper


def _series_eval_wrapper(tracer: Tracer, fn, series_sum):
    sig = inspect.signature(fn)

    def body(bound):
        result = series_sum(*bound.args, **bound.kwargs)
        tracer.series_terms += result.terms_used
        return result.value

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return tracer.call("elliptic.series_eval", body, (bound,), {})

    return wrapper


def _public_functions(module: types.ModuleType):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for n in names:
        obj = getattr(module, n, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield n, obj


def _make_wrapper(tracer: Tracer, module: types.ModuleType, attr: str, fn):
    short = module.__name__.removeprefix(PACKAGE + ".")
    if short == "oracle" and attr == "quad":
        return _quad_wrapper(tracer, fn, module.DepthExhausted)
    if short == "elliptic" and attr == "series_eval":
        return _series_eval_wrapper(tracer, fn, module.series_sum)
    return _span_wrapper(tracer, f"{short}.{attr}", fn)


def install(tracer: Tracer) -> list:
    """Wrap the package's public functions wherever they are bound.

    Call after the package is imported.  Returns the replaced bindings for
    ``uninstall``.
    """
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    wrappers = {}
    for m in modules:
        for attr, fn in _public_functions(m):
            wrappers[fn] = _make_wrapper(tracer, m, attr, fn)
    replaced = []
    for m in modules:
        for attr, obj in list(vars(m).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(m, attr, wrappers[obj])
                replaced.append((m, attr, obj))
    return replaced


def uninstall(replaced: list) -> None:
    for module, attr, original in replaced:
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _prefixed(table: dict, prefix: str) -> float:
    """Sum of the entries named ``prefix`` or ``prefix.<rule>``."""
    return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))


def layer_metrics(names: list[str], summary: dict, passes: int) -> dict[str, float]:
    """Trace-derived per-layer values, per pass over the traced operations.

    Names ending in ``.calls`` and ``.self_ms`` are read off the span
    table (0 where no span of that name ran); four more are the wrapper
    counts and their ratios.  Other names are left out, for the caller.
    """
    calls, self_ns = summary["calls"], summary["self_ns"]
    quad_calls = _prefixed(calls, "oracle.quad")
    area_exact_calls = calls.get("area.area_exact", 0)
    special = {
        "elliptic.series_terms": summary["series_terms"] / passes,
        "oracle.integrand_evals_per_quad": (
            summary["integrand_evals"] / quad_calls if quad_calls else 0.0
        ),
        "oracle.depth_exhausted": summary["depth_exhausted"] / passes,
        "area.series_route_frac": (
            summary["area_exact_series"] / area_exact_calls if area_exact_calls else 0.0
        ),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = _prefixed(calls, name.removesuffix(".calls")) / passes
        elif name.endswith(".self_ms"):
            out[name] = _prefixed(self_ns, name.removesuffix(".self_ms")) / 1e6 / passes
    return out
