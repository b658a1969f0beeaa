"""Span tracer for the benchmark's traced runs.

Timing wrappers are installed from outside the library, on every module
attribute of the ``kottler_imcf`` package that is bound to a traced
function.  The package binds names with ``from .x import y``, so a
function such as ``integrate`` is looked up in ``functionals``,
``surfaces`` and ``flow`` as well as in ``base``; patching only the
defining module would miss those internal calls.

A span is (name, start, end, parent index).  Spans stay in memory until
``dump`` writes them out.  Self time is a span's duration minus the
durations of its children; calls run on one thread, so children never
overlap.  Stdlib only, so the traced CLI child can time its own import.
"""

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "kottler_imcf"

# (defining module, attribute, span name); None keeps "module.attribute".
TARGETS = [
    ("base", "make_base", None),
    ("base", "integrate", None),
    ("background", "horizon_radius", None),
    ("background", "static_residual", None),
    ("surfaces", "compute_geometry", None),
    ("flow", "run_flow", None),
    ("flow", "step_graph_pde", None),
    ("flow", "cfl_limit", None),
    ("flow", "_sample_row", "flow.sample_row"),
    ("cli", "parse_config", None),
    ("cli", "run_scenario", None),
    ("cli", "emit_trace_csv", "cli.emit"),
    ("cli", "emit_audit_json", "cli.emit"),
]


def _geometry_kind(surface):
    """The geometry path compute_geometry takes: slice, sphere or torus."""
    grid = type(surface.background.base.grid).__name__
    if grid == "PointGrid" or surface.is_constant:
        return "surfaces.compute_geometry.slice"
    if grid == "AxisymmetricSphereGrid":
        return "surfaces.compute_geometry.sphere"
    return "surfaces.compute_geometry.torus"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self._stack = []
        self._patches = []

    def _enter(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, name, fn):
        enter, leave, spans = self._enter, self._exit, self.spans
        if name == "surfaces.compute_geometry":
            @functools.wraps(fn)
            def traced(surface):
                index = enter(name)
                try:
                    spans[index][0] = _geometry_kind(surface)
                    return fn(surface)
                finally:
                    leave(index)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(index)
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target wherever the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        functionals = sys.modules[PACKAGE + ".functionals"]
        targets = list(TARGETS) + [
            ("functionals", name, None) for name in functionals.__all__
            if callable(getattr(functionals, name))
            and not isinstance(getattr(functionals, name), type)
        ]
        for module_name, attr, span_name in targets:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
            if original is None:  # module not imported, or the function is gone
                continue
            traced = self._wrap(span_name or f"{module_name}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, traced)
        surface_cls = sys.modules[PACKAGE + ".surfaces"].GraphSurface
        self._patch(surface_cls, "__init__",
                    self._wrap("surfaces.GraphSurface", surface_cls.__init__))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def load(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [[name, float(start), float(end), int(parent)]
                for name, start, end, parent in (line.rstrip("\n").split(",") for line in fh)]


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans, root=None):
    """Aggregate the spans under the span named ``root`` (None: all spans).

    Returns ({name: [calls, total_s, self_s]}, {layer: self_s},
    integrate calls made inside flow.sample_row spans, geometry
    evaluations made inside flow.step_graph_pde spans).  base.integrate's
    self time counts toward the layer of the span that called it, since
    integrate is the quadrature that every layer calls.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inside, in_row, in_step = [False] * n, [False] * n, [False] * n
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    layers = defaultdict(float)
    row_integrals = step_geometry = 0
    for i, (name, start, end, parent) in enumerate(spans):
        up = parent >= 0
        inside[i] = root is None or name == root or (up and inside[parent])
        in_row[i] = name == "flow.sample_row" or (up and in_row[parent])
        in_step[i] = name == "flow.step_graph_pde" or (up and in_step[parent])
        if not inside[i]:
            continue
        own = end - start - child_time[i]
        entry = by_name[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
        layer = layer_of(name)
        if name == "base.integrate":
            if up:
                layer = layer_of(spans[parent][0])
            row_integrals += in_row[i]
        elif name.startswith("surfaces.compute_geometry."):
            step_geometry += in_step[i]
        layers[layer] += own
    return dict(by_name), dict(layers), row_integrals, step_geometry
