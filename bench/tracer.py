"""In-process tracing of calls into normlens's public functions.

``Tracer`` rebinds every public function of the layer modules, in every
``normlens*`` module namespace that holds it, to a wrapper that records a
span (id, parent id, invocation id, name, start, end) in memory and adds the
work counts the layer metrics need. A module that imported a function by
name (``from .fd import closure``) holds its own reference, which patching
the defining module alone would miss. Leaving the ``with`` block restores
every original.

An invocation is one top-level call, here one ``cli.main``; spans of one
invocation share its id.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "dsl", "model", "fd", "classify", "completeness", "transform")


def _fds_built(args, kwargs, result):
    return {"fds_built": len(result)}


def _project(args, kwargs, result):
    fds = args[0] if args else kwargs["fds"]
    return {"scanned": len(fds), "kept": len(result)}


def _keys(args, kwargs, result):
    return {"keys_found": len(result)}


def _emitted(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# Work counts read from a call's arguments and result, by span name.
QUANTITIES: dict[str, Callable] = {
    "model.normalize_fds": _fds_built,
    "fd.project_fds": _project,
    "fd.candidate_keys": _keys,
    "dsl.emit_report": _emitted,
}


def public_functions(package: str = "normlens") -> dict[str, Callable]:
    """``{"<layer>.<name>": function}`` for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found[f"{layer}.{name}"] = obj
    return found


class Spans:
    """Column store of finished spans, in the order they ended."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self.span = array("q")
        self.parent = array("q")
        self.invocation = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.span)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,parent,invocation,name,start_s,end_s\n")
            for row in zip(self.span, self.parent, self.invocation, self.name,
                           self.start, self.end):
                out.write(f"{row[0]},{row[1]},{row[2]},{self.names[row[3]]},"
                          f"{row[4]:.9f},{row[5]:.9f}\n")


class Tracer:
    """Context manager that traces every public layer function while active."""

    def __init__(self, package: str = "normlens") -> None:
        self.package = package
        self.functions = public_functions(package)
        self.names = list(self.functions)
        self.spans = Spans(self.names)
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next_span = 0
        self._invocation = 0
        self._patched: list[tuple[object, str, Callable]] = []

    def reset(self) -> None:
        """Drop recorded spans and counters; patches stay in place."""
        self.spans = Spans(self.names)
        self.counters = Counter()
        self._next_span = 0
        self._invocation = 0

    def _wrap(self, index: int, func: Callable) -> Callable:
        quantities = QUANTITIES.get(self.names[index])
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1] if stack else -1
            if parent < 0:
                self._invocation += 1
            stack.append(span)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans = self.spans
                spans.span.append(span)
                spans.parent.append(parent)
                spans.invocation.append(self._invocation)
                spans.name.append(index)
                spans.start.append(start)
                spans.end.append(end)
            if quantities is not None:
                prefix = self.names[index]
                for key, value in quantities(args, kwargs, result).items():
                    self.counters[f"{prefix}.{key}"] += value
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {
            id(func): (func, self._wrap(index, func))
            for index, func in enumerate(self.functions.values())
        }
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == self.package or name.startswith(f"{self.package}."))
        ]
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        self._patched.append((module, attr, value))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __exit__(self, *exc_info) -> None:
        self.restore()


def summarize(spans: Spans, counters: Counter[str]) -> dict[str, float]:
    """Per-function calls and self time, plus the derived work ratios.

    Self time is a span's duration minus the durations of its direct
    children. Span ids are given on entry, so a parent's id is always lower
    than its children's, and one pass in id order can mark every span that
    runs inside a ``transform.decompose_step``.
    """
    names = spans.names
    count = len(spans)
    duration = [0.0] * count
    name_of = [0] * count
    parent_of = [-1] * count
    for span, parent, name, start, end in zip(
        spans.span, spans.parent, spans.name, spans.start, spans.end
    ):
        duration[span] = end - start
        name_of[span] = name
        parent_of[span] = parent
    child_time = [0.0] * count
    for span in range(count):
        if parent_of[span] >= 0:
            child_time[parent_of[span]] += duration[span]

    step = names.index("transform.decompose_step")
    candidate_keys = names.index("fd.candidate_keys")
    closure = names.index("fd.closure")
    relation_nc = names.index("completeness.relation_nc")
    inside_step = [False] * count
    stats: Counter[str] = Counter(counters)
    for span in range(count):
        name = names[name_of[span]]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += duration[span] - child_time[span]
        stats[f"{name}.total_s"] += duration[span]
        parent = parent_of[span]
        if parent >= 0:
            inside_step[span] = inside_step[parent] or name_of[parent] == step
            if name_of[span] == closure and name_of[parent] == candidate_keys:
                stats["fd.candidate_keys.subsets_tested"] += 1
        if inside_step[span] and name_of[span] == relation_nc:
            stats["transform.relation_nc_in_steps"] += 1

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    steps = stats["transform.decompose_step.calls"]
    rescored = stats["transform.relation_nc_in_steps"]
    stats["fd.project_fds.kept_ratio"] = ratio(
        stats["fd.project_fds.kept"], stats["fd.project_fds.scanned"]
    )
    stats["fd.candidate_keys.keys_per_subset"] = ratio(
        stats["fd.candidate_keys.keys_found"], stats["fd.candidate_keys.subsets_tested"]
    )
    stats["transform.relations_scored_per_step"] = ratio(rescored, steps)
    stats["transform.rescore_useful_ratio"] = ratio(2 * steps, rescored)
    return dict(stats)
