"""Span tracing of the calls into each rodtopo layer, from outside the package.

``Tracer.active()`` rebinds every public function of the layer modules, in
every ``rodtopo`` module namespace that holds it (``rodtopo.plumbing.
hermite_normal_form`` as well as ``rodtopo.intlin.hermite_normal_form``), to
a wrapper that records a span: function, start, end and parent span.  Calls
between functions of one module go through the module globals, so they are
seen too.  Spans stay in memory; ``layer_metrics()`` turns one pass's spans
into the per-layer metrics, where a span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("intlin", "roddiagram", "plumbing", "topology", "modelmap", "cli")

# extra per-span data, taken from the call's arguments and result
NOTES = {
    "plumbing.decompose_component": lambda args, result: len(args[0]),
    "topology.compactify": lambda args, result: bool(result.waypoints),
    "modelmap.tension_field": lambda args, result: int(result[2].size),
}


def public_functions():
    """{qualified name: function} for the public functions of every layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"rodtopo.{layer}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out[f"{layer}.{name}"] = obj
    return out


@contextlib.contextmanager
def rebound(replacements):
    """Replace each function in ``replacements`` (original -> stand-in) in
    every rodtopo module namespace, restoring the originals on exit."""
    by_id = {id(orig): new for orig, new in replacements.items()}
    undo = []
    try:
        for modname, mod in list(sys.modules.items()):
            if modname != "rodtopo" and not modname.startswith("rodtopo."):
                continue
            for name, obj in list(vars(mod).items()):
                new = by_id.get(id(obj))
                if new is not None:
                    setattr(mod, name, new)
                    undo.append((mod, name, obj))
        yield
    finally:
        for mod, name, obj in reversed(undo):
            setattr(mod, name, obj)


class Tracer:
    def __init__(self):
        from rodtopo.intlin import IntMatrix

        self._matrix = IntMatrix
        self.names = []  # function id -> qualified name
        self.wrappers = {}  # original -> wrapper
        for qual, fn in public_functions().items():
            self.wrappers[fn] = self._wrap(len(self.names), fn, NOTES.get(qual))
            self.names.append(qual)
        self.reset()

    def reset(self):
        self.spans = []  # (function id, start, end, parent span index or -1)
        self.notes = {}  # span index -> NOTES value
        self.stack = []
        self.matrix_inits = 0

    def _wrap(self, fid, fn, note):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent)
            if note is not None:
                self.notes[idx] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        init = self._matrix.__init__

        def counting_init(matrix, entries):
            self.matrix_inits += 1
            init(matrix, entries)

        self._matrix.__init__ = counting_init
        try:
            with rebound(self.wrappers):
                yield self
        finally:
            self._matrix.__init__ = init

    def span_records(self):
        """The spans as dicts, in call order, for writing out."""
        return [
            {"id": i, "name": self.names[fid], "start": t0, "end": t1, "parent": parent}
            for i, (fid, t0, t1, parent) in enumerate(self.spans)
        ]

    def layer_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset:
        {name: (value, unit)}."""
        spans, names = self.spans, self.names
        cover = [0.0] * len(spans)
        for fid, t0, t1, parent in spans:
            if parent >= 0:
                cover[parent] += t1 - t0
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        under_decompose = [False] * len(spans)
        hermite_in_decompose = 0
        rods_decomposed = 0
        compactified = augmented = 0
        field_order = defaultdict(int)  # parent span -> tension_field calls so far
        field_s = [0.0, 0.0]
        grid_points = 0
        for i, (fid, t0, t1, parent) in enumerate(spans):
            name = names[fid]
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - cover[i]
            if parent >= 0:
                under_decompose[i] = (
                    under_decompose[parent]
                    or names[spans[parent][0]] == "plumbing.decompose_component"
                )
            if name == "intlin.hermite_normal_form" and under_decompose[i]:
                hermite_in_decompose += 1
            elif name == "plumbing.decompose_component":
                rods_decomposed += self.notes.get(i, 0)
            elif name == "topology.compactify":
                compactified += 1
                augmented += bool(self.notes.get(i, False))
            elif name == "modelmap.tension_field":
                level = field_order[parent]
                field_order[parent] += 1
                if level < 2:
                    field_s[level] += t1 - t0
                grid_points += self.notes.get(i, 0)

        def count(name):
            return calls[name], "count"

        def seconds(table, name):
            return table[name], "s"

        return {
            "intlin.hermite_calls": count("intlin.hermite_normal_form"),
            "intlin.hermite_self_s": seconds(own, "intlin.hermite_normal_form"),
            "intlin.smith_calls": count("intlin.smith_normal_form"),
            "intlin.smith_self_s": seconds(own, "intlin.smith_normal_form"),
            "intlin.detk_calls": count("intlin.determinant_divisor"),
            "intlin.detk_self_s": seconds(own, "intlin.determinant_divisor"),
            "intlin.matrix_inits": (self.matrix_inits, "count"),
            "roddiagram.parse_calls": count("roddiagram.parse"),
            "roddiagram.parse_self_s": seconds(own, "roddiagram.parse"),
            "plumbing.decompose_calls": count("plumbing.decompose_component"),
            "plumbing.decompose_self_s": seconds(own, "plumbing.decompose_component"),
            "plumbing.relations_calls": count("plumbing.verify_plumbing_relations"),
            "plumbing.hermite_per_rod": (
                hermite_in_decompose / rods_decomposed if rods_decomposed else 0.0,
                "calls/rod",
            ),
            "topology.pi1_calls": count("topology.fundamental_group"),
            "topology.pi1_self_s": seconds(own, "topology.fundamental_group"),
            "topology.compactify_self_s": seconds(own, "topology.compactify"),
            "topology.fillin_path_calls": count("topology.fillin_path"),
            "topology.augmented_share": (augmented / compactified if compactified else 0.0, "ratio"),
            "modelmap.build_s": seconds(total, "modelmap.build_model_map"),
            "modelmap.field_h_s": (field_s[0], "s"),
            "modelmap.field_h2_s": (field_s[1], "s"),
            "modelmap.grid_points": (grid_points, "count"),
            "modelmap.pointwise_calls": count("modelmap.tension_norm"),
            "modelmap.pointwise_s": seconds(total, "modelmap.tension_norm"),
            "cli.self_s": seconds(own, "cli.main"),
            "trace.spans": (len(spans), "count"),
        }


def field_peak_mb(run_pass):
    """Largest tracemalloc peak inside one ``tension_field`` call during
    ``run_pass()``, above the memory already traced when the call began.
    Returns 0.0 when the pass makes no such call."""
    from rodtopo import modelmap

    orig = modelmap.tension_field
    peaks = [0]

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return orig(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    with rebound({orig: measured}):
        tracemalloc.start()
        try:
            run_pass()
        finally:
            tracemalloc.stop()
    return max(peaks) / 2**20
