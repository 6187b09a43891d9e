"""Outside-in layer trace: wrap public functions of localizer_lab and numpy/scipy.

Nothing inside the program is edited.  `Tracer.install()` replaces each
traced function under every name its callers look it up by: module globals
of `localizer_lab.*` (and dict values held in them, such as the suite table
of `verification`), plus the `numpy.linalg` and `scipy.linalg` attributes the
program calls through.  Each call becomes a span (name, start, end, parent,
attrs) kept in memory; `uninstall()` restores the originals.

A span's self time is its duration minus the part of its interval that its
direct children cover.  Work handed to the thread pool of
`verification.parallel_map` is parented to the span that called it, so
children of one span may overlap; the union counts once.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

# (layer, module, function) for every traced program function.  The layer
# name is the localizer_lab module that defines the function.
LAYER_FUNCTIONS = [
    ("grading", "localizer_lab.grading", "gap"),
    ("grading", "localizer_lab.grading", "operator_norm"),
    ("grading", "localizer_lab.grading", "lipschitz_derivative"),
    ("grading", "localizer_lab.grading", "func_calc"),
    ("ktheory", "localizer_lab.ktheory", "localizer_index"),
    ("ktheory", "localizer_lab.ktheory", "positive_projection"),
    ("ktheory", "localizer_lab.ktheory", "signature"),
    ("ktheory", "localizer_lab.ktheory", "homotopy_stability"),
    ("ktheory", "localizer_lab.ktheory", "dirac_path_stability"),
    ("oracles", "localizer_lab.oracles", "chern_number_bz"),
    ("oracles", "localizer_lab.oracles", "compressed_index"),
    ("oracles", "localizer_lab.oracles", "graded_kernel_index"),
    ("oracles", "localizer_lab.oracles", "window_signature_index"),
    ("localizer", "localizer_lab.localizer", "choose_params"),
    ("localizer", "localizer_lab.localizer", "constant_C"),
    ("localizer", "localizer_lab.localizer", "assemble_localizer"),
    ("localizer", "localizer_lab.localizer", "support_residual"),
    ("models", "localizer_lab.models", "parse_model"),
    ("localizing", "localizer_lab.localizing", "default_localizer"),
    ("verification", "localizer_lab.verification", "suite_bounds"),
    ("verification", "localizer_lab.verification", "suite_identities"),
    ("verification", "localizer_lab.verification", "suite_homotopy"),
    ("verification", "localizer_lab.verification", "parallel_map"),
    ("cli", "localizer_lab.cli", "main"),
]

# Dense kernels, traced at the module attribute the program calls through.
LINALG_FUNCTIONS = [
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "svd"),
    ("scipy.linalg", "ldl"),
]


def _n3(args, kwargs) -> dict:
    """Computed cubic work of a dense factorization: batch * m * n * min(m, n)."""
    a = args[0] if args else kwargs.get("a", kwargs.get("A"))
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return {"n3": 0}
    m, n = int(shape[-2]), int(shape[-1])
    batch = 1
    for extent in shape[:-2]:
        batch *= int(extent)
    return {"n3": batch * m * n * min(m, n)}


def _windowed(result) -> dict:
    return {"windowed": not result.phi_identity}


def _checks(results) -> dict:
    return {"checks": sum(r.count for r in results),
            "checks_failed": sum(1 for r in results if not r.passed)}


BEFORE = {f"linalg.{name}": _n3 for _, name in LINALG_FUNCTIONS}
AFTER = {
    "localizer.assemble_localizer": _windowed,
    "verification.suite_bounds": _checks,
    "verification.suite_identities": _checks,
    "verification.suite_homotopy": _checks,
}


def span_names() -> list[str]:
    return ([f"linalg.{name}" for _, name in LINALG_FUNCTIONS]
            + [f"{layer}.{fn}" for layer, _, fn in LAYER_FUNCTIONS])


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Span recorder that patches the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, object, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        spans = self.spans
        target = (self._reparenting(fn) if name == "verification.parallel_map"
                  else fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            attrs = before(args, kwargs) if before else {}
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, attrs))
            if after:
                attrs.update(after(result))
            return result

        return traced

    def _reparenting(self, fn):
        """parallel_map whose workers' spans get the calling span as parent.

        Pool threads start with an empty span stack, so without this their
        spans would have no parent and the pool's wait would count as self
        time of the caller.
        """
        def pool_map(worker, items, *args, **kwargs):
            parent = self._stack()[-1]

            def seeded(item):
                stack = self._stack()
                saved = stack[:]
                stack[:] = [parent]
                try:
                    return worker(item)
                finally:
                    stack[:] = saved

            return fn(seeded, items, *args, **kwargs)

        return pool_map

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr in LINALG_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patch(module, attr, original,
                        self.wrap(f"linalg.{attr}", original))
        program = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "localizer_lab"
                                         or name.startswith("localizer_lab."))]
        for layer, module_name, attr in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(f"{layer}.{attr}", original)
            for module in program:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        if isinstance(owner, dict):
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, timed on a traced no-op."""
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - start - plain) / calls)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(children.get(s.sid, []),
                                               s.start, s.end)
            for s in spans}


def metric_units() -> dict[str, str]:
    """Name and unit of every metric layer_metrics reports."""
    units = {}
    for name in span_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in BEFORE:
        units[f"{name}.n3"] = "n3"
    units["localizer.assemble_localizer.windowed_frac"] = "frac"
    units["verification.checks"] = "count"
    units["verification.checks_failed"] = "count"
    return units


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals: `<name>.self_s`, `.calls`, plus the span attrs."""
    own = self_times(spans)
    out = dict.fromkeys(metric_units(), 0)
    windowed = 0
    for s in spans:
        out[f"{s.name}.self_s"] += own[s.sid]
        out[f"{s.name}.calls"] += 1
        if "n3" in s.attrs:
            out[f"{s.name}.n3"] += s.attrs["n3"]
        windowed += bool(s.attrs.get("windowed"))
        out["verification.checks"] += s.attrs.get("checks", 0)
        out["verification.checks_failed"] += s.attrs.get("checks_failed", 0)
    assembled = out["localizer.assemble_localizer.calls"]
    out["localizer.assemble_localizer.windowed_frac"] = (
        windowed / assembled if assembled else 0.0)
    return out
