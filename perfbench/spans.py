"""In-memory span tracer for the benchmark's traced run.

The tracer swaps the public functions that ``vesseltrees.pipeline`` calls
(its module globals and the ``pipeline.vio`` I/O functions) for wrappers
that record one span per call: name, layer, start, end, parent span and
the cloud being processed. Spans stay in memory until the run ends. The
wrappers also keep counts taken from return values and the inputs the
benchmark needs afterwards to measure each layer's floor.

Nothing here runs unless ``Tracer.install`` is called; ``Tracer.restore``
puts the original functions back.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (attribute on vesseltrees.pipeline, layer). The layer is the module the
# function lives in, so self times add up per module.
PIPELINE_FUNCS = (
    ("knn_neighbors", "graphs"),
    ("anisotropic_knn", "graphs"),
    ("build_confluent_graph", "graphs"),
    ("build_geodesic_graph", "graphs"),
    ("minimum_arborescence", "solvers"),
    ("minimum_spanning_tree", "solvers"),
    ("centerline_roc", "metrics"),
    ("bifurcation_roc", "metrics"),
    ("angular_errors", "metrics"),
    ("median_angular_error", "metrics"),
    ("roc_sweep", "metrics"),
    ("connectivity_roc", "metrics"),
    ("generate_tree", "synth"),
    ("sample_centerline", "synth"),
    ("reconstruct_cloud", "pipeline"),
)
IO_FUNCS = (
    "read_point_cloud", "write_point_cloud", "read_tree", "write_tree",
    "read_json", "write_json", "write_csv", "write_neighbor_pairs",
    "read_neighbor_pairs",
)
IO_READS = {"read_point_cloud", "read_tree", "read_json",
            "read_neighbor_pairs"}


@dataclass
class Span:
    sid: int          # index in Tracer.spans
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    cloud: str | None = None
    step: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around layer calls; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.captured = defaultdict(list)
        self._stack: list[Span] = []
        self._cloud: str | None = None
        self._step: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str, step: str | None = None):
        """Span for a block the benchmark itself runs, such as a CLI step."""
        if step is not None:
            self._step, self._cloud = step, None
        sp = self._open(name, layer)
        try:
            yield sp
        finally:
            self._close(sp)
            if step is not None:
                self._step = None

    def _open(self, name, layer) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(len(self.spans), name, layer, time.perf_counter(),
                  parent=parent, cloud=self._cloud, step=self._step)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span):
        sp.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if name == "read_point_cloud":
                self._cloud = os.path.splitext(
                    os.path.basename(os.fspath(args[0])))[0]
            sp = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._observe(sp, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, sp: Span, arg: dict, result):
        """Counts from return values, and inputs kept for the floors."""
        name = sp.name
        if sp.layer == "io":
            sp.info["path"] = os.fspath(arg["path"])
        elif name in ("knn_neighbors", "anisotropic_knn"):
            sp.info["pairs"] = int(result.n_pairs)
            if name == "knn_neighbors":
                # result.k is the k actually used, after any clamp
                self.captured["knn"].append((arg["samples"], int(result.k)))
        elif name == "build_confluent_graph":
            sp.info["pairs"] = int(arg["neighbors"].n_pairs)
            sp.info["arcs"] = int(result.n_arcs)
            self.captured["confluent"].append(
                (arg["samples"], arg["neighbors"].pairs, arg["epsilon"],
                 arg["elastic_lambda"]))
        elif name == "build_geodesic_graph":
            sp.info["edges"] = int(result.n_arcs)
        elif name in ("minimum_arborescence", "minimum_spanning_tree"):
            sp.info["tree_nodes"] = int(result.n_nodes)
            sp.info["excluded"] = int(result.excluded.size)
            if name == "minimum_arborescence":
                self.captured["arc_weights"].append(arg["graph"].weights)
        elif name == "connectivity_roc":
            sp.info["pairs"] = int(arg["neighbors"].n_pairs)
        elif name == "roc_sweep" and arg["kind"] == "centerline":
            self.captured["resample"].append(
                (arg["gt"], arg["recon"], arg["step"]))
        elif name == "sample_centerline":
            sp.info["samples"] = len(result)
        elif name == "reconstruct_cloud":
            cfg, neighbors = arg["cfg"], result[2]
            sp.info["k_clamped"] = int(not cfg.anisotropic
                                       and neighbors.k < cfg.k)

    def install(self, pipeline):
        """Swap the wrappers into ``pipeline`` and its ``vio`` module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(pipeline, attr, layer) for attr, layer in PIPELINE_FUNCS]
        targets += [(pipeline.vio, attr, "io") for attr in IO_FUNCS]
        for module, attr, layer in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, attr, layer))

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Spans come from one thread, so a span's children never overlap
        and their durations can simply be subtracted.
        """
        own = {sp.sid: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own

    def select(self, name=None, layer=None, step=None, top_io=False):
        """Spans by name/layer/step; ``top_io`` drops I/O nested in I/O."""
        out = []
        for sp in self.spans:
            if name is not None and sp.name != name:
                continue
            if layer is not None and sp.layer != layer:
                continue
            if step is not None and sp.step != step:
                continue
            if (top_io and sp.parent is not None
                    and self.spans[sp.parent].layer == "io"):
                continue
            out.append(sp)
        return out

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"id": sp.sid, "name": sp.name, "layer": sp.layer,
                 "start_s": sp.start - t0, "end_s": sp.end - t0,
                 "parent": sp.parent, "cloud": sp.cloud, "step": sp.step,
                 **sp.info} for sp in self.spans]
