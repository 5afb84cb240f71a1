"""Spans around the public functions of the ellspec modules.

The tracer patches, from outside, every public function of tate, surface,
jacobian, bundles, existence, schemas and cli, and restores them on
uninstall.  HomLattice.degree and HomLattice.bilinear are patched to
count calls only.  Every name that
refers to a patched function in any ellspec module is rebound, so calls
made through `from .x import f` are seen too.

For each span name it keeps the call count, the self time (duration less
the time of traced callees) and the inclusive time of outermost calls.
Groups (all decoders, all encoders) get an inclusive time of their own.
The first spans of a pass are also kept whole, with their parent and
their root span (the top-level call, such as one cli.main, that they
serve), for writing out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = ("tate", "surface", "jacobian", "bundles", "existence", "schemas", "cli")
# Called once or twice per candidate of the lattice box search: counted
# only, since a span per call would more than double the traced time.
COUNTED_METHODS = (("surface", "HomLattice", "degree"), ("surface", "HomLattice", "bilinear"))


def _groups(name: str) -> tuple[str, ...]:
    if name.startswith("schemas.decode_") or name == "schemas.check_version":
        return (name, "schemas.decode")
    if name.startswith("schemas.encode_"):
        return (name, "schemas.encode")
    return (name,)


class Tracer:
    def __init__(self, keep_spans: int = 50_000) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.keep_spans = keep_spans
        self.recording = False
        self._active: Counter = Counter()
        self._stack: list[list[int]] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.inclusive_ns.clear()

    def _wrap(self, name: str, fn):
        groups = _groups(name)
        clock = time.perf_counter_ns
        stack, active = self._stack, self._active
        calls, self_ns, inclusive = self.calls, self.self_ns, self.inclusive_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else 0
            root = stack[0][1] if stack else span_id
            frame = [0, span_id]
            stack.append(frame)
            for g in groups:
                active[g] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_ns[name] += duration - frame[0]
                for g in groups:
                    active[g] -= 1
                    if not active[g]:
                        inclusive[g] += duration
                if self.recording and len(self.spans) < self.keep_spans:
                    self.spans.append((root, span_id, parent, name, start, start + duration))

        return traced

    def _count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        wrapped: dict[object, object] = {}
        for short in MODULES:
            module = importlib.import_module(f"ellspec.{short}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for short, cls_name, meth in COUNTED_METHODS:
            cls = getattr(importlib.import_module(f"ellspec.{short}"), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._count(f"{short}.{cls_name}.{meth}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ellspec" and not mod_name.startswith("ellspec."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def layer_self_ns(self, short: str) -> int:
        prefix = short + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix))
