"""Spans around the calls into each entroset module, installed from outside.

``Tracer.install`` replaces every public function and public method of the
six layer modules with a wrapper, under every name the function is bound
to (``scans.inverse_entropy_rate_arr`` as well as
``kernel.inverse_entropy_rate_arr``).  Each wrapper records one span:
function, start, end, parent span, and an element or row count.  Spans stay
in memory until ``summary`` folds them into self times.  ``uninstall``
puts every original back.  No source file of the package changes.
The tracing overhead is estimated as the number of spans times the cost
of one wrapper around a no-op, since the difference between a traced and
an untraced round is smaller than the host's run-to-run noise.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("cli", "report", "scans", "distribution", "kernel", "setfamily")

#: Scalar helpers called once per element or member, millions of times in a
#: run; a span each would cost more than the call.  The micro timings cover
#: binary_entropy and entropy_of_square.
UNWRAPPED = frozenset({
    "binary_entropy", "entropy_of_square", "as_prob",
    "mask_from_indices", "indices_from_mask",
})


def _count(args) -> int | None:
    """Elements of the first array argument, or rows of a family or distribution."""
    for a in args[:2]:
        size = getattr(a, "size", None)
        if isinstance(size, int):
            return size
        for attr in ("members", "atoms"):
            rows = getattr(a, attr, None)
            if isinstance(rows, tuple):
                return len(rows)
    return None


def span_cost_s(calls: int = 20_000, reps: int = 5) -> float:
    """Seconds a wrapper adds to one call, timed around a no-op taking an array."""
    def noop(arr):
        return None

    arg = np.zeros(1)
    costs = []
    for _ in range(reps):
        wrapped = Tracer()._wrap(noop, "kernel.noop", "kernel")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(arg)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(arg)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


class Tracer:
    def __init__(self) -> None:
        # span: [qualified name, layer, start, end, parent index, count, tag]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, layer: str, count) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, count, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, result=None) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        if type(result).__name__ == "ScanReport":
            span[6] = result.name
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so the generator's own work is
                # charged to its layer and not to whoever iterates it
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name, layer, None)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(idx)
                        return
                    except BaseException:
                        self._close(idx)
                        raise
                    self._close(idx)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, layer, _count(args))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            self._close(idx, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"entroset.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNWRAPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "entroset" and not modname.startswith("entroset."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, attr, obj, wrappers[id(obj)])

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, raw, classmethod(self._wrap(raw.__func__, name, layer)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, raw, staticmethod(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, raw, self._wrap(raw, name, layer))

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- folding -------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer and per function, per-check time, and overhead.

        A span's self time is its duration minus the durations of its
        child spans.  A check's time is the summed duration of the
        outermost spans that returned that check's report.
        """
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent, count, tag in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layer_self = {layer: 0.0 for layer in LAYERS}
        funcs: dict[str, list] = {}
        checks: dict[str, float] = {}
        for i, (name, layer, t0, t1, parent, count, tag) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            layer_self[layer] += own
            row = funcs.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += own
            row[3] += count or 0
            if tag is not None and not self._tagged_above(parent, tag):
                checks[tag] = checks.get(tag, 0.0) + (t1 - t0)
        return {
            "layer_self_s": layer_self,
            "check_s": checks,
            "functions": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2], "count": v[3]}
                          for k, v in sorted(funcs.items())},
            "spans": len(self.spans),
            "overhead_s": len(self.spans) * span_cost_s(),
        }

    def _tagged_above(self, parent: int, tag: str) -> bool:
        while parent >= 0:
            if self.spans[parent][6] == tag:
                return True
            parent = self.spans[parent][4]
        return False
