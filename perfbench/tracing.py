"""In-memory spans around the benchmark's calls into the library.

A span is one call: its name (``<layer>.<call>``), start and end on the
``time.perf_counter`` clock, the index of the span that was open when it
started, and the id of the trial, round trip or code it belongs to.  Spans
stay in a list until the run ends and are written out with its report.

The untraced passes use ``NULL``, whose ``span`` and ``call`` do no
bookkeeping, so the end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from time import perf_counter

FIELDS = ("id", "name", "parent", "item", "start", "end")


class Tracer:
    """Records nested spans; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item=None):
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = self.spans[parent][3]
        sid = len(self.spans)
        rec = [sid, name, parent, item, perf_counter(), None]
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            rec[5] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, item=None, **kwargs):
        with self.span(name, item):
            return fn(*args, **kwargs)

    @contextmanager
    def wrapping(self, module, layer: str):
        """Trace every public function of ``module`` as ``<layer>.<name>``.

        The library looks these up on the module at call time, so the
        wrappers see calls made from inside other layers.  The originals are
        put back on exit.
        """
        originals = {
            name: obj
            for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
        }

        def wrap(name, fn):
            def traced(*args, **kwargs):
                return self.call(f"{layer}.{name}", fn, *args, **kwargs)

            return traced

        try:
            for name, fn in originals.items():
                setattr(module, name, wrap(name, fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)


class _NullTracer:
    spans: tuple = ()

    def span(self, name: str, item=None):
        return nullcontext()

    def call(self, name: str, fn, *args, item=None, **kwargs):
        return fn(*args, **kwargs)

    def wrapping(self, module, layer: str):
        return nullcontext()


NULL = _NullTracer()


def durations(spans, name: str) -> list[float]:
    """Seconds taken by every span called ``name``."""
    return [s[5] - s[4] for s in spans if s[1] == name]


def self_times(spans) -> dict[str, float]:
    """Per layer: span time not covered by the span's own children."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[5] - s[4]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        layer = s[1].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]
