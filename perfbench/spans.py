"""Outside-in tracing of mixbit: timing wrappers installed around public functions.

Nothing inside the package is edited. `Tracer.patch` replaces a traced
function on the module that defines it and on every other mixbit module
that holds the same object under some name (for example the names
`mixbit.cli` imports with `from .sensitivity import mqe_sensitivity`);
without the second step those callers would bypass the wrapper.
`Tracer.uninstall` puts the originals back.

Each traced call records a span (name, parent span, start, end). A span's
self time is its duration minus the durations of its child spans; the
children of one span run one after another, so their durations do not
overlap.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, modules):
        self._modules = list(modules)
        self._patches = []  # (owner, attribute, original)
        self._stack = []
        self.spans = []  # [name, parent index or None, start, end]
        self.values = defaultdict(int)  # counts and other per-operation values, by metric name

    def reset(self) -> None:
        self.spans.clear()
        self.values.clear()

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) runs once the span has closed."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else None, perf_counter(), None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call adds one to values[name]; no span."""
        values = self.values

        def wrapper(*args, **kwargs):
            values[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def peak_memory(self, name, fn):
        """Wrap fn so that tracemalloc runs only during the call; values[name] keeps the peak in MB."""
        values = self.values

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                values[name] = max(values[name], tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attribute: str, wrapper) -> None:
        """Replace owner.attribute, and every mixbit module's alias of it, by wrapper."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)
        for module in self._modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, alias, original))
                    setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def layer_times(self) -> dict:
        """{name: (calls, busy_s, self_s)} over the spans recorded since reset()."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (name, _, start, end) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_s[sid]
        return {name: tuple(row) for name, row in out.items()}
