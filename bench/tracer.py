"""Spans and counters around the program's public functions.

The tracer changes no file of the program. It replaces a function by a
timing wrapper at the place where its caller looks it up (a module
attribute), and puts the original back on ``uninstall``. Two kinds of
wrapper exist:

* a span records name, start, end, parent span and round for every call;
  it goes around calls that happen at most a few thousand times a round;
* a counter adds calls, seconds and a work count to running totals; it
  goes around the hot leaf calls (simulator kernels, distances), where a
  span per call would cost more memory than the work it measures.

Seconds a counter spends under a span are charged to that span, so a
span's self time is its duration minus its child spans and counters.
Spans stay in memory and are written out once, by ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, round, counted]
        self.counters: dict[str, float] = defaultdict(float)
        self.round = -1
        self._stack: list[int] = []
        self._in_counter = False
        self._saved: list[tuple[object, str, object]] = []

    # --- installing -------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span(self, owner, attr: str, name: str, on_return=None) -> None:
        """Wrap ``owner.attr`` in a span; ``on_return(args, result)`` sees each call."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _now(), 0.0, stack[-1] if stack else -1, self.round, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = _now()
            if on_return is not None:
                on_return(args, result)
            return result

        self.patch(owner, attr, wrapper)

    def counter(self, owner, attr: str, layer: str, work=None) -> None:
        """Wrap ``owner.attr`` in a counter; ``work(args)`` adds to ``<layer>.work``.

        A call made inside another counted call is not counted again.
        """
        fn = getattr(owner, attr)
        totals, spans, stack = self.counters, self.spans, self._stack
        calls, secs, units = f"{layer}.calls", f"{layer}.seconds", f"{layer}.work"

        def wrapper(*args, **kwargs):
            if self._in_counter:
                return fn(*args, **kwargs)
            self._in_counter = True
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                self._in_counter = False
                totals[calls] += 1
                totals[secs] += dt
                if work is not None:
                    totals[units] += work(args)
                if stack:
                    spans[stack[-1]][5] += dt

        self.patch(owner, attr, wrapper)

    # --- reading ------------------------------------------------------------

    def durations(self, name: str, rounds=None) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and _in(s, rounds)]

    def self_seconds(self, prefix: str, rounds=None) -> float:
        """Summed self time of the spans whose name starts with ``prefix``."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(
            s[2] - s[1] - child[i] - s[5]
            for i, s in enumerate(self.spans)
            if s[0].startswith(prefix) and _in(s, rounds)
        )

    def has_ancestor(self, idx: int, names) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "round")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [dict(zip(keys, s[:5])) for s in self.spans],
                    "counters": dict(self.counters),
                },
                fh,
            )
            fh.write("\n")


def _in(span, rounds) -> bool:
    return rounds is None or span[4] in rounds
