"""In-memory span tracer for the benchmark's traced runs.

A span is (id, parent, name, layer, start, end, error, attrs).  Spans are
opened by the benchmark itself, or by wrappers that the ``patch_*`` methods
put around the toolkit's entry points for the length of a traced run.
Nothing inside ``src/`` is changed: a wrapper replaces the function object
in every loaded ``optospring`` module that holds it, so calls made between
modules (``cli.main`` -> ``stability_map`` -> ``extract_mode``) are seen, and
``restore`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float = float("nan")
    end: float = float("nan")
    error: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, layer)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    # -- patching -----------------------------------------------------------

    def patch_span(self, target: str, name: str, layer: str, on_result=None):
        """Open a span around every call of ``module:function`` (or
        ``module:Class.method``).  ``on_result(span, result)`` may record
        attributes of the returned value."""
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name, layer) as sp:
                    result = original(*args, **kwargs)
                    if on_result is not None:
                        on_result(sp, result)
                return result
            return wrapper
        self._patch(target, make)

    def patch_count(self, target: str, key: str):
        """Count calls of ``target`` without opening a span (for per-step
        functions, where a span per call would swamp the run)."""
        counts = self.counts

        def make(original):
            counts[key] = 0

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper
        self._patch(target, make)

    def patch_result(self, target: str, transform):
        """Replace what ``target`` returns by ``transform(result)``."""
        def make(original):
            def wrapper(*args, **kwargs):
                return transform(original(*args, **kwargs))
            return wrapper
        self._patch(target, make)

    def _patch(self, target: str, make):
        module_name, _, qualname = target.rpartition(":")
        owner = sys.modules.get(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(target)
            return
        wrapper = functools.wraps(original)(make(original))
        if path:  # a method: patch the class
            self._set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name == "optospring" or name.startswith("optospring."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(sp)
        return out

    @staticmethod
    def self_time(sp: Span, children: dict[int, list[Span]]) -> float:
        """Span duration minus the time its direct children cover (children
        of one span never overlap: the run is single-threaded)."""
        return sp.duration - sum(k.duration for k in children.get(sp.id, []))

    def layer_self_times(self, root: Span) -> dict[str, float]:
        """Self time per layer over ``root`` and all its descendants."""
        children = self.children()
        out: dict[str, float] = {}
        todo = [root]
        while todo:
            sp = todo.pop()
            out[sp.layer] = out.get(sp.layer, 0.0) + self.self_time(sp, children)
            todo.extend(children.get(sp.id, []))
        return out

    def find(self, name: str, within: Span | None = None) -> list[Span]:
        """Spans called ``name``, or those of them inside ``within``."""
        return [sp for sp in self.spans if sp.name == name
                and (within is None
                     or within.start <= sp.start and sp.end <= within.end)]

    def to_json(self) -> dict:
        return {
            "counts": self.counts,
            "missing_hooks": self.missing,
            "spans": [{"id": sp.id, "parent": sp.parent, "name": sp.name,
                       "layer": sp.layer, "start": sp.start, "end": sp.end,
                       "error": sp.error, "attrs": sp.attrs}
                      for sp in self.spans],
        }
