"""Outside-in tracing of one sweep.

The tracer wraps the program's public functions where the calling modules
bind them, so the program's source stays untouched.  A wrapped function
records a span (name, start, end, parent) per call; ``cos_angle_between``
runs ~740k times a sweep, so it only counts calls and its time stays in
its caller's self time.  Spans are kept in memory and written out by the
caller.  A function missing from the program, or no longer called,
reports zero calls.

Metric names are ``<module>.<function>.<stat>``: ``calls``, ``self_s``
(span time not covered by child spans, summed over calls), ``total_s``
(span time summed over calls) and the work counts in ``WORK``.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

SPANNED = (
    "cli.main",
    "experiment.parse_config",
    "experiment.run_sweep",
    "experiment.reference_hrtf_set",
    "experiment.emit_csv",
    "hrtf.load_hrtf",
    "hrtf.analytic_sphere_hrtf",
    "hrtf.nearfield_transform",
    "bsm.steering_matrix_farfield",
    "bsm.steering_matrix_nearfield",
    "bsm.design_filter",
    "bsm.evaluate_error",
    "field.pressure_at_cosines",
    "field.dvf_at_cosines",
    "field.modal_coefficients",
    "sphmath.legendre_basis",
)
COUNTED = ("sphmath.cos_angle_between",)


def _coeffs(args) -> int:
    k, order = args.get("k"), args.get("order")
    if k is None or order is None:
        return 0
    return (int(order) + 1) * int(np.size(k))


def _file_bytes(key):
    def count(args) -> int:
        path = args.get(key)
        return os.path.getsize(path) if path is not None and os.path.exists(path) else 0

    return count


# Work counters, taken from a call's bound arguments once the call returns
# (outside its span, so their cost lands in the caller's self time).
WORK = {
    "field.modal_coefficients": ("coeffs", _coeffs),  # sum of (N+1) * len(k)
    "hrtf.load_hrtf": ("bytes", _file_bytes("path")),
    "experiment.emit_csv": ("bytes", _file_bytes("path")),
}


class Tracer:
    """Spans and counts of the wrapped functions, in call order."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._counters: dict = {}  # name -> function returning its call count
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _span_wrapper(self, name, fn):
        spans, stack, perf_counter = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if work:
                bound = signature.bind(*args, **kwargs).arguments
                self.work[f"{name}.{work[0]}"] += work[1](bound)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = 0

        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return fn(*args, **kwargs)

        self._counters[name] = lambda: calls
        return wrapper

    @contextmanager
    def installed(self, package: str = "nfbsm"):
        """Wrap every binding of the traced functions in the package's
        loaded modules; restore the originals on exit."""
        modules = [
            m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")
        ]
        patched = []
        try:
            for name in SPANNED + COUNTED:
                module_name, _, func_name = name.rpartition(".")
                module = sys.modules.get(f"{package}.{module_name}")
                original = getattr(module, func_name, None)
                if original is None:
                    continue
                make = self._count_wrapper if name in COUNTED else self._span_wrapper
                wrapper = make(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)

    def counts(self) -> dict[str, int]:
        return {name: calls() for name, calls in self._counters.items()}

    def metrics(self) -> dict[str, float]:
        """calls, self_s and total_s for every traced name, plus work counts."""
        out = {f"{name}.calls": 0 for name in SPANNED + COUNTED}
        for name in SPANNED:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.total_s"] = 0.0
        for (name, start, end, _), self_s in zip(self.spans, self_times(self.spans)):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name}.total_s"] += end - start
        for name, n in self.counts().items():
            out[f"{name}.calls"] = n
        for name, (stat, _) in WORK.items():
            out[f"{name}.{stat}"] = self.work.get(f"{name}.{stat}", 0)
        return out

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [(n, s - origin, e - origin, p) for n, s, e, p in self.spans],
                    "counts": self.counts(),
                },
                fh,
            )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
