"""Spans and counters recorded from outside the program.

The tracer wraps public functions of the quasibraid modules and patches every
module namespace that holds the original object, so calls made through a
``from .x import f`` binding (``realization.braid_along``,
``crossing_graph.primitive_intersections``, the package namespace itself) are
seen too.  Spans live in memory as ``[name, start, end, parent, op, tag]`` lists
and are written out once, at the end of the run.  A span's tag is an
optional label taken from its arguments, such as the strand count of a
``build_plan`` call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

# (module, function) pairs that get a span on every call.
SPANNED = (
    ("poly", "discriminant_w"),
    ("poly", "roots"),
    ("poly", "raw_roots"),
    ("poly", "fiber_roots"),
    ("branch", "branch_points"),
    ("branch", "check_genericity"),
    ("branch", "select_rotation"),
    ("branch", "perturb_generic"),
    ("monodromy", "track_roots"),
    ("monodromy", "braid_along"),
    ("monodromy", "qp_factorization"),
    ("monodromy", "lollipop_loop"),
    ("crossing_graph", "sample_crossing_graph"),
    ("crossing_graph", "crossings_of"),
    ("realization", "build_plan"),
    ("realization", "realize"),
    ("render", "render_plane_svg"),
)

# Hot geometry predicates: a span per call would dominate the read it sits
# in, so these are only counted.
COUNTED = (("paths", "primitive_intersections"),)


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(
        self,
        observers: dict[str, Callable] | None = None,
        taggers: dict[str, Callable] | None = None,
    ) -> None:
        """Patch every quasibraid namespace that binds a traced function.

        ``observers`` maps a span name to ``fn(args, kwargs, result)``, called
        after a successful traced call so results can be counted where the
        work happens.  ``taggers`` maps a span name to ``fn(args, kwargs)``
        giving the span's tag.
        """
        observers = observers or {}
        taggers = taggers or {}
        for module, func in SPANNED:
            name = f"{module}.{func}"
            wrap = self._spanned(name, observers.get(name), taggers.get(name))
            self._replace(module, func, wrap)
        for module, func in COUNTED:
            self._replace(module, func, self._counted(f"{module}.{func}"))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _replace(self, module: str, func: str, make: Callable) -> None:
        original = getattr(sys.modules[f"quasibraid.{module}"], func)
        wrapper = make(original)
        for mod_name, namespace in list(sys.modules.items()):
            if mod_name != "quasibraid" and not mod_name.startswith("quasibraid."):
                continue
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    self._patches.append((namespace, attr, original))

    def _spanned(
        self, name: str, observe: Callable | None, tag: Callable | None
    ) -> Callable:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                label = tag(args, kwargs) if tag is not None else None
                record = [name, time.perf_counter(), None, parent, self.op, label]
                self.spans.append(record)
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return wrapper

        return make

    def _counted(self, name: str) -> Callable:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.active:
                    self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- analysis ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_ms(self) -> dict[str, float]:
        """Self time in ms per name: each span's duration minus the durations
        of its child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += 1e3 * (end - start - child[i])
        return dict(totals)

    def nested_ms(self, name: str, ancestor: str) -> float:
        """Total ms of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += span[2] - span[1]
        return 1e3 * total

    def total_ms(self, name: str, tag=None) -> float:
        """Total duration in ms of ``name`` spans (with ``tag``, if given)."""
        return 1e3 * sum(
            s[2] - s[1] for s in self.spans if s[0] == name and (tag is None or s[5] == tag)
        )

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "tag"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )
