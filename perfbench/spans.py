"""Timing spans around the module attributes the CLI solve path calls.

Wrappers are installed from outside the package, on the names each module
looks up at call time, and removed again afterwards; timed (untraced) runs
never see them.  Spans stay in memory as (name, start, end, parent, solve)
tuples and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs on the solve path, as the callers look them up.
TRACED = (
    ("cli", "parse_instance"),
    ("cli", "solve_approx"),
    ("cli", "rank"),
    ("cli", "build_system"),
    ("cli", "exact_by_nullspace"),
    ("approx", "build_system"),
    ("approx", "solve"),
    ("approx", "column_echelon_grouped"),
    ("approx", "greedy_assign"),
    ("approx", "unpermute"),
    ("exact", "solve"),
)

ROOT = "cli.main"


def span_name(fn) -> str:
    """Layer-qualified name of a function: its defining module, then its name."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans; ``solve`` is the id stamped on spans opened from now on.

    ``modules`` maps the names in TRACED to the imported modules.
    """

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[int] = []
        self.solve = -1
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve)

        return traced

    def install(self) -> None:
        """Wrap every TRACED attribute that exists; missing ones are skipped."""
        for mod_name, attr in TRACED:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span_name(fn), fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def layer_totals(self) -> tuple[dict, dict]:
        """Per span name: summed self time in seconds, and the call count.

        Self time is a span's duration minus its children's durations;
        spans on one thread nest, so children never overlap.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, solve in self.spans:
                fh.write(json.dumps([name, start, end, parent, solve]) + "\n")
