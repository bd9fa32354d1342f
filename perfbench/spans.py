"""Spans around public cognilog functions, patched in from outside.

A function is patched under every name that binds it in a cognilog module:
``search`` and ``reasoning`` import from ``boolmat`` with ``from .boolmat
import ...``, so patching ``cognilog.boolmat`` alone would miss their calls.
Spans live in flat arrays while the benchmark runs and are written out at
the end.  A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

# The layers are cognilog's modules; ``cli`` is argparse glue over the same
# functions and is left out.
TRACED = {
    "store": ("parse_log", "format_log"),
    "model": ("build_elog", "validate_category", "extract_subepisode", "canonical_action_order"),
    "boolmat": ("adjacency", "causal_closure", "evaluate_conversion"),
    "belog": ("mapping_compatibility",),
    "temporal": ("check_temporal_consistency",),
    "search": ("search_functors", "score_functor"),
    "reasoning": ("abstract_episode", "infer_missing", "comprehend", "classify_story", "plan"),
}
NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)


class Tracer:
    """Records a span (function, parent span, operation, start, end) per
    call of every function in ``NAMES`` while installed."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(index)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0)
            stack.append(sid)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "cognilog" or k.startswith("cognilog.")]
        for index, qualified in enumerate(NAMES):
            module, fn = qualified.split(".")
            original = getattr(sys.modules[f"cognilog.{module}"], fn)
            wrapper = self._wrap(index, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patches):
            setattr(m, attr, value)
        self._patches.clear()

    def counts(self, first: int = 0) -> list[int]:
        """Calls per traced function among spans ``first`` onwards."""
        out = [0] * len(NAMES)
        for i in range(first, len(self.name)):
            out[self.name[i]] += 1
        return out

    def self_ns(self, first: int = 0) -> list[int]:
        """Self time per traced function among spans ``first`` onwards; a
        span's parent never precedes ``first`` when ``first`` starts a pass."""
        own = {i: self.end[i] - self.start[i] for i in range(first, len(self.name))}
        for i in range(first, len(self.name)):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        out = [0] * len(NAMES)
        for i, t in own.items():
            out[self.name[i]] += t
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                f.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{NAMES[self.name[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
