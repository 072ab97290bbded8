"""Call tracing for the benchmark's traced run.

The tracer wraps public functions of the selfext modules from outside the
program: every wrapped call becomes a span with a start, an end and the
span that caused it.  A function's self time is its span's duration minus
the durations of the wrapped calls made inside it.  Functions called very
often (HOT) are not kept span by span but combined per (name, parent name).
All spans stay in memory until write() is called at the end of a pass.
"""
from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# certifier.TERMINAL_TAGS, fixed here because the metric names are fixed
# in BENCHMARK.json and run.py reads them without importing selfext.
TERMINAL_TAGS = ("T-SMALL", "T-WEIGHT", "T-HEIGHT", "T-ROCK", "T-SPECHT")


def _count_hits(name):
    def observe(counters, result):
        counters[f"{name}.hits"] += result is not None
    return observe


def _count_members(counters, result):
    counters["blocks.enumerate_block.members"] += len(result)


def _count_certificate(counters, cert):
    counters["certifier.certify.steps"] += len(cert.steps)
    if cert.terminal is not None:
        counters[f"certifier.terminal.{cert.terminal.tag}"] += 1


# (module.function within the package, observer of its result or None).
# zigzag and cli are left out on purpose; see README.md.
TARGETS = (
    ("partitions.check_partition", None),
    ("partitions.partitions_of", None),
    ("abacus.core_and_weight", None),
    ("signatures.signature", None),
    ("bijections.mullineux", None),
    ("bijections.regularize", None),
    ("specht.specht_irreducible", None),
    ("specht.irreducible_specht_preimage",
     _count_hits("specht.irreducible_specht_preimage")),
    ("specht.theorem_b_applicable",
     _count_hits("specht.theorem_b_applicable")),
    ("blocks.enumerate_block", _count_members),
    ("blocks.is_rock_block", None),
    ("certifier.certify", _count_certificate),
    ("certifier.validate", None),
    ("tables.derive_table1", None),
    ("tables.derive_table2", None),
    ("tables.local_signature", None),
)

# 10^4 to 10^6 calls per pass: combined per (name, parent) instead of kept.
HOT = frozenset({
    "partitions.check_partition", "partitions.partitions_of",
    "abacus.core_and_weight", "signatures.signature", "bijections.mullineux",
    "bijections.regularize", "specht.specht_irreducible",
    "tables.local_signature",
})

HIT_RATIOS = ("specht.theorem_b_applicable",
              "specht.irreducible_specht_preimage")


class _Frame:
    __slots__ = ("name", "parent", "span", "anchor", "start", "child")

    def __init__(self, name, parent, span):
        self.name = name
        self.parent = parent
        self.span = span
        # nearest recorded span at or above this frame
        self.anchor = span if span is not None else (
            parent.anchor if parent is not None else None)
        self.child = 0.0


class Tracer:
    """Wraps functions, records their spans, and restores them on remove()."""

    def __init__(self, run_id: str, hot=HOT, clock=time.perf_counter):
        self.run_id = run_id
        self.hot = frozenset(hot)
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)   # outermost calls only
        self.counters = Counter()
        self.spans = []       # (span, name, start, end, parent span)
        self.combined = {}    # (name, parent name) -> [spans, total_s, self_s]
        self._stack = []
        self._active = Counter()
        self._ids = itertools.count(1)
        self._patched = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()

    def install(self, targets=TARGETS, package: str = "selfext") -> None:
        """Wrap each package.module.function on every attribute of every
        loaded package module that holds the same function object, so calls
        through `from .x import y` bindings are traced too."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for name, observe in targets:
            module_name, func_name = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"],
                               func_name)
            wrapper = self.wrap(name, original, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        """Put every original function back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for fn.  A generator function is timed per
        resume, so only the work done while it runs counts."""
        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                self.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    frame = self._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame)
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            self.calls[name] += 1
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                observe(self.counters, result)
            return result
        return traced

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        span = None if name in self.hot else next(self._ids)
        frame = _Frame(name, parent, span)
        self._stack.append(frame)
        self._active[name] += 1
        frame.start = self.clock()
        return frame

    def _exit(self, frame):
        end = self.clock()
        self._stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        name, parent = frame.name, frame.parent
        self.self_s[name] += own
        self._active[name] -= 1
        if not self._active[name]:
            self.total_s[name] += duration
        if parent is not None:
            parent.child += duration
        if frame.span is None:
            key = (name, parent.name if parent is not None else None)
            record = self.combined.setdefault(key, [0, 0.0, 0.0])
            record[0] += 1
            record[1] += duration
            record[2] += own
        else:
            self.spans.append((frame.span, name, frame.start, end,
                               parent.anchor if parent is not None else None))

    def write(self, path) -> None:
        """Write the spans as JSON lines, one object per span or combination."""
        with open(path, "w") as out:
            for span, name, start, end, parent in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "span": span, "name": name,
                    "start": start, "end": end, "parent": parent}) + "\n")
            for (name, parent), (count, total, own) in self.combined.items():
                out.write(json.dumps({
                    "run": self.run_id, "name": name, "parent": parent,
                    "spans": count, "total_s": total, "self_s": own}) + "\n")


def layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in HIT_RATIOS:
        units[f"{name}.hit_ratio"] = "ratio"
    units["blocks.enumerate_block.members"] = "count"
    units["certifier.certify.steps"] = "count"
    for tag in TERMINAL_TAGS:
        units[f"certifier.terminal.{tag}"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def layer_values(tracer: Tracer) -> dict:
    """The per-layer metrics one traced pass yields (all but the overhead,
    which needs an untraced pass to compare with)."""
    values = {}
    for name, _ in TARGETS:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_s[name]
    for name in HIT_RATIOS:
        calls = tracer.calls[name]
        values[f"{name}.hit_ratio"] = (
            tracer.counters[f"{name}.hits"] / calls if calls else 0.0)
    for name in ("blocks.enumerate_block.members", "certifier.certify.steps"):
        values[name] = tracer.counters[name]
    for tag in TERMINAL_TAGS:
        values[f"certifier.terminal.{tag}"] = \
            tracer.counters[f"certifier.terminal.{tag}"]
    return values
