"""In-memory span tracing around the library's public functions.

The tracer replaces each traced function by a wrapper that records a span
(name, start, end, parent span, goal id).  A function imported elsewhere
with ``from ... import`` is bound under its own name in the importing module
too, so every ``riq`` module attribute that is the same object is patched,
not just the defining one.  ``uninstall`` restores the originals.

Self time of a span is its duration minus the time its direct children
cover; spans of one thread nest, so that is the sum of the children's
durations.

Some spans carry a payload computed after the traced call returns (a count
or a key of its input).  Span times are read from a clock that stands still
while payloads are computed, so that work is charged to no span: it is
reported as the self time of the ``trace`` layer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# A span is a list [name, start, end, parent index, goal id, outermost, extra];
# a span is outermost when no enclosing span has the same name.
NAME, START, END, PARENT, GOAL, OUTER, EXTRA = range(7)


def layer_of(name: str) -> str:
    """A span's layer is the part of its name before the first dot."""
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.goal = -1
        #: spans are recorded only while this is set
        self.recording = False
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        #: seconds spent computing payloads; span clocks exclude them
        self.payload_s = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; ``after(result, args)``
        returns the span's extra payload, computed outside every span."""
        spans, stack, active, perf = self.spans, self._stack, self._open, time.perf_counter

        def clock() -> float:
            return perf() - self.payload_s

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.goal,
                   not active[name], None]
            active[name] += 1
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                active[name] -= 1
            if after is not None:
                start = perf()
                rec[EXTRA] = after(result, args)
                self.payload_s += perf() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str, after=None) -> None:
        """Trace a module-level function under every riq binding of it."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
            return
        wrapped = self.span(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "riq" or mod_name.startswith("riq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            print(f"trace: {cls.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.span(name, original, after))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def busy(self) -> dict[str, float]:
        """Time covered by the spans of each name, counting only outermost
        ones, so a recursive function is not counted twice."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[OUTER]:
                out[s[NAME]] += s[END] - s[START]
        return out

    def nearest(self, idx: int, names) -> str | None:
        """Name of the closest ancestor whose name is in ``names``."""
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return self.spans[parent][NAME]
            parent = self.spans[parent][PARENT]
        return None

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            out[layer_of(s[NAME])] += own
        out["trace"] = self.payload_s
        return dict(out)

    def write(self, path) -> None:
        """One line per span: name, start, end, parent, goal (times in
        seconds from the first span, on the clock that excludes payloads)."""
        base = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\tgoal\n")
            for s in self.spans:
                out.write(f"{s[NAME]}\t{s[START] - base:.7f}\t{s[END] - base:.7f}"
                          f"\t{s[PARENT]}\t{s[GOAL]}\n")
