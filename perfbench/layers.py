"""Per-layer wall-time accounting for the traced run.

The benchmark wraps the public entry points of each program module from
the outside (nothing under ``src/`` changes) and keeps a stack of open
frames.  A frame's *self time* is its duration minus the frames opened
inside it, so the self times of one op's frames, plus the op frame's own
remainder (the named residual ``trace.residual``), add up to the op's
traced wall time exactly.

Layers, after the program's modules:

==================  ====================================================
``core``            runners and serving backends (their own code)
``nn.prep``         ``QuantParams``, ``im2col``, ``pack_image``
``nn.post``         ``unpack_bits``, ``EbnnModel.classify_features``
``runtime.launch``  ``Dpu.launch``, ``DpuSet.launch`` / ``launch_async``
``runtime.alloc``   ``DpuSystem.allocate`` / ``free``, ``DpuSet.load``
``transfer.to``     scatter, broadcast, ``scatter_rows``, ``write_symbol``
``transfer.from``   ``read_symbol``, ``read_symbol_array``, gather
``parallel``        ``launch_parallel`` (worker-side kernels land here)
``kernel.compute``  registered kernel bodies
``kernel.cost``     ``charge_gemm_row_costs``, ``charge_ebnn_costs``
``interp``          the instruction interpreter, in-process runs
``serve.loop``      ``InferenceServer.run``
==================  ====================================================

Spans go to a :class:`repro.telemetry.Tracer` whose time axis is the
host wall clock, so the existing Chrome-trace exporter writes them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from repro import telemetry

MAX_SPANS = 20_000

class WallTracer(telemetry.Tracer):
    """A tracer whose "simulated" cursor follows the host wall clock."""

    def __init__(self) -> None:
        super().__init__()
        self.origin = time.perf_counter()

    def _open(self, span) -> None:
        self.sim_now = time.perf_counter() - self.origin
        super()._open(span)

    def _close(self, span) -> None:
        self.sim_now = time.perf_counter() - self.origin
        super()._close(span)


class _Frame:
    __slots__ = ("layer", "start", "children", "span")

    def __init__(self, layer: str, start: float, span) -> None:
        self.layer = layer
        self.start = start
        self.children = 0.0
        self.span = span


class Recorder:
    """Self time, calls and bytes per layer, plus serving batch records."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.batches: list[dict] = []
        self.layer_wall: dict[int, float] = defaultdict(float)
        self.tracer = WallTracer()
        #: Spans left to record: the Chrome trace covers the first ops
        #: only, so memory and file size stay bounded.
        self.span_budget = MAX_SPANS
        self._stack: list[_Frame] = []
        self._undo: list = []

    # ------------------------------------------------------------------ #
    # frames
    # ------------------------------------------------------------------ #

    def enter(self, layer: str, name: str) -> _Frame:
        span = None
        if self.span_budget > 0:
            self.span_budget -= 1
            span = self.tracer.span(name, category=layer)
            span.__enter__()
        frame = _Frame(layer, time.perf_counter(), span)
        if not any(f.layer == layer for f in self._stack):
            self.calls[layer] += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        duration = time.perf_counter() - frame.start
        if self._stack.pop() is not frame:
            raise RuntimeError("unbalanced layer frames")
        self.self_s[frame.layer] += duration - frame.children
        if self._stack:
            self._stack[-1].children += duration
        if frame.span is not None:
            frame.span.__exit__(None, None, None)
        return duration

    def op(self, fn, *args, **kwargs):
        """Run one op under the root frame; returns (result, wall_s)."""
        frame = self.enter("trace.residual", "bench.op")
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.exit(frame)
        return result, duration

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` by a frame-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        name = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = recorder.enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def wrap_kernel(self, name: str) -> None:
        from repro.dpu.kernel import GLOBAL_KERNELS

        original = GLOBAL_KERNELS.get(name)
        GLOBAL_KERNELS.register(name, _KernelProbe(self, name, original))
        self._undo.append(lambda: GLOBAL_KERNELS.register(name, original))

    def install(self) -> None:
        """Wrap every layer's public entry points."""
        import repro.core.mapping_ebnn as mapping_ebnn
        import repro.core.mapping_yolo as mapping_yolo
        import repro.host.parallel as parallel
        import repro.host.transfer as transfer
        import repro.nn.models.darknet as darknet
        import repro.serve.pool as pool
        from repro.dpu.device import Dpu
        from repro.dpu.fastpath import FastInterpreter
        from repro.dpu.interpreter import Interpreter
        from repro.host.runtime import AsyncLaunch, DpuSet, DpuSystem
        from repro.nn.models.ebnn import EbnnModel
        from repro.nn.quantize import QuantParams
        from repro.serve.server import InferenceServer

        self.wrap(mapping_yolo.YoloPimRunner, "run", "core")
        self.wrap(mapping_ebnn.EbnnPimRunner, "run", "core")
        self.wrap(pool.EbnnBackend, "run_batch", "core", _note_batch)
        self.wrap(pool.YoloBackend, "run_batch", "core", _note_batch)

        self.wrap(QuantParams, "from_tensor", "nn.prep")
        self.wrap(QuantParams, "quantize", "nn.prep")
        self.wrap(darknet, "im2col", "nn.prep")
        for module in (mapping_ebnn, pool):
            self.wrap(module, "pack_image", "nn.prep")
            self.wrap(module, "unpack_bits", "nn.post")
        self.wrap(EbnnModel, "classify_features", "nn.post")

        self.wrap(Dpu, "launch", "runtime.launch", _count("dpu_launches"))
        self.wrap(DpuSet, "launch", "runtime.launch", _note_set_launch)
        self.wrap(DpuSet, "launch_async", "runtime.launch", _count("set_launches"))
        self.wrap(AsyncLaunch, "wait", "runtime.launch", _note_report)
        self.wrap(DpuSystem, "allocate", "runtime.alloc")
        self.wrap(DpuSystem, "free", "runtime.alloc")
        self.wrap(DpuSet, "load", "runtime.alloc")

        self.wrap(DpuSet, "scatter", "transfer.to")
        self.wrap(DpuSet, "broadcast", "transfer.to")
        self.wrap(transfer, "scatter_rows", "transfer.to")
        self.wrap(mapping_yolo, "scatter_rows", "transfer.to")
        self.wrap(Dpu, "write_symbol", "transfer.to", _bytes_to)
        self.wrap(Dpu, "read_symbol", "transfer.from", _bytes_from)
        self.wrap(Dpu, "read_symbol_array", "transfer.from")
        self.wrap(DpuSet, "gather", "transfer.from")

        self.wrap(parallel, "launch_parallel", "parallel", _count("fanouts"))
        self.wrap_kernel("yolo_gemm_row")
        self.wrap_kernel("ebnn_conv_pool")
        self.wrap(mapping_yolo, "charge_gemm_row_costs", "kernel.cost")
        self.wrap(mapping_ebnn, "charge_ebnn_costs", "kernel.cost")
        self.wrap(Interpreter, "run", "interp")
        self.wrap(FastInterpreter, "run", "interp")

        self.wrap(InferenceServer, "run", "serve.loop")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def track_yolo_layers(self, runner) -> None:
        """Time each conv layer's GEMM of a ``YoloPimRunner``."""
        original = runner._pim_gemm
        recorder = self

        def pim_gemm(plan, a, b):
            start = time.perf_counter()
            try:
                return original(plan, a, b)
            finally:
                recorder.layer_wall[plan.layer_index] += (
                    time.perf_counter() - start
                )

        runner._pim_gemm = pim_gemm
        self._undo.append(lambda: vars(runner).pop("_pim_gemm", None))


class _KernelProbe:
    """A registered kernel body timed as ``kernel.compute``.

    The parallel engine pickles kernels by reference for its workers; a
    probe pickles as the original kernel, so worker-side runs go
    untimed and their time stays with ``parallel``.
    """

    def __init__(self, recorder: Recorder, name: str, original) -> None:
        self.recorder = recorder
        self.name = name
        self.original = original

    def __call__(self, ctx, **params):
        frame = self.recorder.enter("kernel.compute", f"kernel.{self.name}")
        try:
            return self.original(ctx, **params)
        finally:
            self.recorder.exit(frame)

    def __reduce__(self):
        return _resolve, (self.original.__module__, self.original.__qualname__)


def _resolve(module: str, qualname: str):
    return getattr(importlib.import_module(module), qualname)


def _count(name):
    def after(recorder, args, kwargs, result):
        recorder.counts[name] += 1
    return after


def _note_report(recorder, args, kwargs, report):
    recorder.counts["set_cycles"] += report.cycles


def _note_set_launch(recorder, args, kwargs, report):
    recorder.counts["set_launches"] += 1
    _note_report(recorder, args, kwargs, report)


def _bytes_to(recorder, args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs["data"]
    recorder.counts["to_dpu_bytes"] += len(data)


def _bytes_from(recorder, args, kwargs, result):
    recorder.counts["from_dpu_bytes"] += len(result)


def _note_batch(recorder, args, kwargs, execution):
    # run_batch(self, members, attributes, requests, now, fault_policy)
    backend, requests, now = args[0], args[3], args[4]
    recorder.batches.append({
        "model": backend.name,
        "size": len(requests),
        "waits": [now - r.arrival_s for r in requests],
        "service_s": execution.seconds,
    })
