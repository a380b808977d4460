"""In-memory span tracer that wraps ordlite's public functions from outside.

Nothing inside `src/ordlite` is changed: `Tracer.patch` swaps a module or
class attribute for a wrapper and `Tracer.restore` puts the original back.
Because ordlite calls its layers through module attributes
(`ordinals.locate_sat`, `chain.validate_block`) or through methods, the
wrappers see every call the program makes.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter_ns


class Tracer:
    """Spans are (name, start_ns, end_ns, parent index or -1, op id)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.enabled = True
        self.op = None  # block height or CLI op index of the work in progress
        self._stack: list[int] = []
        self._patched: list = []

    def _span_wrapper(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(self.counts, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, name: str, *, count_only=False, observe=None):
        """Wrap `owner.attr`. A count-only wrapper records calls, no spans;
        `observe(counts, args, result)` runs after each traced call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        if count_only:
            wrapped = self._count_wrapper(name, fn)
        else:
            wrapped = self._span_wrapper(name, fn, observe)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args) inside a span named `name` (for the benchmark's own
        calls into a layer, such as one CLI command)."""
        return self._span_wrapper(name, fn, None)(*args, **kwargs)

    def totals(self, keep=lambda op: True) -> dict:
        """name -> {"calls": n, "self_s": span time minus child span time},
        over the spans whose op id satisfies `keep`."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for (name, start, end, _, op), covered in zip(self.spans, child_ns):
            if not keep(op):
                continue
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start - covered) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent, op in self.spans:
                fp.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
