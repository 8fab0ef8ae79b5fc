"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` swaps every public function of the layer modules for a
wrapper that records a span (name, start, end, parent span, op id).  Modules
import functions by name (``from .padic import local_class``), so the wrapper
replaces the function in the defining module and in every package module that
holds a reference to it.  ``uninstall`` puts the originals back.

Spans are kept in flat arrays while the run lasts and written out once at the
end.  All per-layer numbers are derived from them afterwards: a span's self
time is its duration minus the time its direct children cover, and a
``kummer_image`` cache miss is a ``kummer_image`` span with
``padic.local_class`` children (a hit returns before computing any class).
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("zarith", "gf2", "padic", "curve", "local_descent", "selmer", "twist_lab", "cli")

# Called in the innermost loops, where a span would cost more than the call:
# legendre runs for every class at an odd place and is only counted; gf2.dot
# is one bit count per matrix entry and stays unwrapped, so its time is part
# of the calling selmer_group's self time.
COUNT_ONLY = frozenset({"zarith.legendre"})
UNWRAPPED = frozenset({"gf2.dot"})

KUMMER = "local_descent.kummer_image"
LOCAL_CLASS = "padic.local_class"
SELMER = "selmer.selmer_group"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.counts: Counter[str] = Counter()
        # Selmer matrix width (columns) of every selmer_group call.
        self.widths = array.array("i")
        # Id of the op in flight; the benchmark sets it before each op.
        self.op = 0
        self._stack = [-1]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so time the consumer spends between
            # items is not charged to the generator.
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    ops.append(tracer.op)
                    ends.append(0.0)
                    stack.append(i)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        stack.pop()
                    yield item

        else:

            def wrapper(*args, **kwargs):
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ops.append(tracer.op)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()

        if name == SELMER:
            spanned, widths = wrapper, self.widths

            def wrapper(*args, **kwargs):
                result = spanned(*args, **kwargs)
                widths.append(2 * len(result.sigma_prime))
                return result

        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: types.ModuleType) -> None:
        """Wrap the public functions of every layer of ``package``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        replace: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                if name in COUNT_ONLY:
                    replace[id(fn)] = (fn, self._count_wrapper(name, fn))
                else:
                    replace[id(fn)] = (fn, self._span_wrapper(name, fn))
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(prefix))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Additive per-name totals, so several processes' results can be summed."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(starts)
        child_s = [0.0] * n
        class_children = [0] * n
        lc = self.names.index(LOCAL_CLASS) if LOCAL_CLASS in self.names else -2
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_s[p] += ends[i] - starts[i]
                if names[i] == lc:
                    class_children[p] += 1
        calls: Counter[str] = Counter(self.counts)
        self_s: dict[str, float] = {}
        misses = classes_in_misses = 0
        kummer = self.names.index(KUMMER) if KUMMER in self.names else -2
        for i in range(n):
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (ends[i] - starts[i]) - child_s[i]
            if names[i] == kummer and class_children[i]:
                misses += 1
                classes_in_misses += class_children[i]
        return {
            "spans": n,
            "calls": dict(calls),
            "self_s": self_s,
            "kummer_misses": misses,
            "local_class_in_misses": classes_in_misses,
            "width_sum": sum(self.widths),
            "width_n": len(self.widths),
        }

    def write(self, path) -> None:
        """One JSON header line, then the span arrays as raw native-endian bytes."""
        header = {
            "names": self.names,
            "n": len(self.span_start),
            "fields": [
                ["name", "i"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def merge(aggregates: list[dict]) -> dict:
    """Sum ``Tracer.aggregate`` results from several processes."""
    out: dict = {"spans": 0, "calls": Counter(), "self_s": Counter(), "kummer_misses": 0,
                 "local_class_in_misses": 0, "width_sum": 0, "width_n": 0}
    for agg in aggregates:
        for key, value in agg.items():
            if isinstance(value, dict):
                out[key].update(value)
            else:
                out[key] += value
    return out
