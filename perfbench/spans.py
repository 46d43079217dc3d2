"""Span tracing from outside the library.

``Tracer.install`` wraps apicheck's public functions wherever the package's
modules refer to them, so a call made inside the library (``cli.main`` calling
``constraints.check`` calling ``expr.parse``) gets a span too. ``enable`` and
``disable`` swap the wrappers in and out, so one process can alternate traced
and untraced operations. Spans live in flat integer arrays and are written out
once, when the run ends.
"""

from __future__ import annotations

import array
import sys
import time

import numpy as np

# (layer, attribute, tag) for every public call that gets a span; the layer is the
# apicheck module. A tag splits one function's spans by a property of its first argument.
TARGETS = (
    ("expr", "parse", None),
    ("expr", "serialize", None),
    ("expr", "flatten", None),
    ("spec", "load_spec", None),
    ("spec", "derive_from_corpus", None),
    ("constraints", "check", None),
    ("constraints", "check_call", None),
    ("constraints", "violation_rates", None),
    ("metrics", "evaluate", None),
    ("metrics", "exact_match", None),
    ("metrics", "intent_f1", None),
    ("metrics", "slot_f1", None),
    ("topconvert", "load_examples", None),
    ("topconvert", "convert_example", None),
    ("topconvert", "spis_sample", None),
    ("retrieval", "build_index", None),
    ("retrieval", "retrieve_scored", None),
    ("retrieval", "retrieve", None),
    ("retrieval", "build_prompt", None),
    ("decode", "load_vocab", None),
    ("decode", "new_session", None),
    ("decode", "allowed_tokens", lambda state: state.mode.value),
    ("decode", "advance", None),
    ("cli", "main", lambda argv: argv[0]),
)
METHODS = (("retrieval", "HashedBowEmbedder", "embed"),)
LAYERS = ("expr", "spec", "constraints", "metrics", "topconvert", "retrieval", "decode", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.op = array.array("q")
        self._stack: list[int] = []
        self._op = [-1]
        self._swaps: list[tuple[object, str, object, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def wrap(self, name: str, fn, tag=None):
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, current_op, clock = self._stack, self._op, time.perf_counter_ns
        fixed = self.name_id(name)
        tagged: dict = {}

        def traced(*args, **kwargs):
            if tag is None:
                nid = fixed
            else:
                key = tag(args[0])
                nid = tagged.get(key)
                if nid is None:
                    nid = tagged[key] = self.name_id(f"{name}.{key}")
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(current_op[0])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Prepare wrappers for every target; ``enable`` puts them in place."""
        modules = [m for n, m in sys.modules.items() if n == "apicheck" or n.startswith("apicheck.")]
        for layer, attr, tag in TARGETS:
            fn = getattr(sys.modules[f"apicheck.{layer}"], attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(f"{layer}.{attr}", fn, tag)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._swaps.append((mod, key, fn, wrapper))
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"apicheck.{layer}"], cls_name, None)
            fn = getattr(cls, attr, None) if cls is not None else None
            if fn is not None:
                self._swaps.append((cls, attr, fn, self.wrap(f"{layer}.{attr}", fn)))

    def enable(self) -> None:
        for obj, key, _fn, wrapper in self._swaps:
            setattr(obj, key, wrapper)

    def disable(self) -> None:
        for obj, key, fn, _wrapper in self._swaps:
            setattr(obj, key, fn)

    def buffer_bytes(self) -> int:
        return sum(a.itemsize * len(a) for a in (self.name, self.start, self.end, self.parent, self.op))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\top\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.op[i]}\t{self.parent[i]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )



class SpanSummary:
    """Durations per span name and self time per layer, from the recorded spans.

    ``scale(start, end)``, given span start and end times in seconds, returns the
    factor each span's duration is multiplied by.
    """

    def __init__(self, tracer: Tracer, measured_ops: set[int], scale):
        self.names = tracer.names
        self.name, start, end, self.parent, op = (
            np.frombuffer(a, dtype=np.int64)
            for a in (tracer.name, tracer.start, tracer.end, tracer.parent, tracer.op)
        )
        self.dur = (end - start) * 1e-9 * scale(start * 1e-9, end * 1e-9)
        self.self_time = self.dur - self._child_sum(self.parent >= 0)
        self.measured = np.isin(op, sorted(measured_ops))

    def _child_sum(self, children: np.ndarray) -> np.ndarray:
        """Per span, the summed duration of the direct children that ``children`` selects."""
        return np.bincount(
            self.parent[children], weights=self.dur[children], minlength=len(self.dur)
        )

    def ids(self, prefix: str) -> list[int]:
        return [i for i, nm in enumerate(self.names) if nm == prefix or nm.startswith(prefix + ".")]

    def median(self, name: str, minus_children: str | None = None) -> float:
        """Median duration (s) of spans called ``name`` or tagged ``name.<tag>``; 0 if none.

        With ``minus_children``, each span's time in such direct children is left out.
        """
        sel = np.isin(self.name, self.ids(name))
        dur = self.dur[sel]
        if minus_children is not None:
            kids = np.isin(self.name, self.ids(minus_children)) & (self.parent >= 0)
            dur = dur - self._child_sum(kids)[sel]
        return float(np.median(dur)) if len(dur) else 0.0

    def layer_self(self, layer: str) -> float:
        """Self time (s) of a layer's spans inside measured operations."""
        sel = np.isin(self.name, self.ids(layer)) & self.measured
        return float(self.self_time[sel].sum())
