"""Outside-in layer tracing: wrappers around each layer's public entry points.

:class:`Tracer` replaces a fixed list of module and class attributes of the
``repro`` package (``TARGETS``) with timing wrappers and puts the originals
back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes: the
wrappers live here and attribute time to the layer whose entry point was
called.

Each wrapper opens a span on a thread-local stack.  A span's *self* time is
its duration minus the time its child spans cover, so the self times of one
thread tile the time spent inside its outermost spans exactly.  On close a
span adds three counters to the active :mod:`repro.obs` recorder,
``perf:<name>:calls``, ``perf:<name>:incl_s`` and ``perf:<name>:self_s``,
and emits one ``perf.span`` event.  Fork workers record into the child
recorder that :class:`repro.parallel.ExecutionContext` gives each task, and
their counters come back through the context's existing absorb path, where
counters add exactly.  Only the process that installed the tracer adds its
self time to ``perf:attributed_s``: worker time runs concurrently with the
parent's ``parallel.run`` span, so counting it too would attribute more than
the wall-clock.

With no recorder attached every wrapper is a pass-through, so the code that
runs the checks after a traced job is not traced.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.core.dim import DIM
from repro.core.sse import SSE
from repro.nn.module import Module
from repro.obs import get_recorder
from repro.optim.optimizers import Optimizer
from repro.parallel import ExecutionContext
from repro.serve.registry import ModelRegistry
from repro.tensor import is_grad_enabled
from repro.tensor.tensor import Tensor

import repro.core.scis as core_scis
import repro.core.sharded as core_sharded
import repro.data.shards as data_shards
import repro.data.streaming as streaming
import repro.models.gan as gan
import repro.models.ot_direct as ot_direct
import repro.ot.divergence as divergence

__all__ = ["Tracer", "TARGETS"]

# A nested call of a layer inside its own span adds no span: only the
# outermost Module.__call__ of a forward pass counts, and the shard loads a
# scan makes belong to the scan.
_NN_SPANS = ("nn.forward", "nn.infer")


def _nn_span(args, kwargs) -> str:
    return "nn.forward" if is_grad_enabled() else "nn.infer"


def _count_sinkhorn(recorder, args, kwargs, result) -> None:
    batch, n, m = result.plan.shape
    sweeps = int(result.iterations.sum())
    recorder.inc("perf:ot.sinkhorn_problems", batch)
    recorder.inc("perf:ot.sinkhorn_sweeps", sweeps)
    recorder.inc("perf:ot.sinkhorn_cells", sweeps * n * m)
    recorder.inc("perf:ot.sinkhorn_converged", int(result.converged.sum()))


def _count_infer_rows(recorder, args, kwargs, result) -> None:
    if not is_grad_enabled():
        recorder.inc("perf:nn.infer_rows", args[1].shape[0])


def _count_dim_steps(recorder, args, kwargs, result) -> None:
    recorder.inc("perf:dim.steps", result.steps)


def _count_sse_evaluations(recorder, args, kwargs, result) -> None:
    recorder.inc("perf:sse.evaluations", len(result.evaluations))


def _count_shard_bytes(recorder, args, kwargs, result) -> None:
    recorder.inc("perf:data.shards.bytes_read", result[0].nbytes)


# (owner, attribute, span name or callable picking it, spans it nests
# transparently under, counter hook run on the result)
TARGETS: List[Tuple[object, str, object, Tuple[str, ...], Optional[Callable]]] = [
    (Module, "__call__", _nn_span, _NN_SPANS, _count_infer_rows),
    (gan.GAINImputer, "reconstruct_batch", "models.reconstruct", (), None),
    (ot_direct.SinkhornImputer, "reconstruct_batch", "models.reconstruct", (), None),
    (core_scis, "impute_equation", "models.impute", (), None),
    (streaming, "impute_equation", "models.impute", (), None),
    (Tensor, "backward", "tensor.backward", (), None),
    (Optimizer, "step", "optim.step", (), None),
    (divergence, "sinkhorn_batched", "ot.sinkhorn", (), _count_sinkhorn),
    (divergence, "masked_cost_matrix", "ot.cost", (), None),
    (divergence, "masked_cost_matrix_tensor", "ot.cost", (), None),
    (divergence.MaskingSinkhornLoss, "__call__", "ot.loss", (), None),
    (ot_direct, "squared_euclidean_cost", "ot.cost", (), None),
    (ot_direct, "squared_euclidean_cost_tensor", "ot.cost", (), None),
    (DIM, "train", "dim.train", (), _count_dim_steps),
    (SSE, "prepare", "sse.prepare", (), None),
    (SSE, "estimate_minimum_size", "sse.estimate", (), _count_sse_evaluations),
    (data_shards.ShardStore, "scan", "data.shards.scan", (), None),
    (
        data_shards.ShardStore,
        "shard",
        "data.shards.read",
        ("data.shards.scan",),
        _count_shard_bytes,
    ),
    (core_sharded, "write_shard_file", "data.shards.write", (), None),
    (ModelRegistry, "load", "serve.registry_load", (), None),
]


class Tracer:
    """Installs the layer wrappers; one instance per traced process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        self._pid: Optional[int] = None

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._pid = os.getpid()
        for owner, attr, name, transparent, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, transparent, hook))
        original_run = ExecutionContext.__dict__["run"]
        self._saved.append((ExecutionContext, "run", original_run))
        ExecutionContext.run = self._wrap_run(original_run)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _close(self, frame: list, recorder) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, children = frame
        incl = end - start
        own = max(incl - children, 0.0)
        if stack:
            stack[-1][2] += incl
        recorder.inc(f"perf:{name}:calls")
        recorder.inc(f"perf:{name}:incl_s", incl)
        recorder.inc(f"perf:{name}:self_s", own)
        if os.getpid() == self._pid:
            recorder.inc("perf:attributed_s", own)
        recorder.emit(
            "perf.span",
            span=name,
            start=recorder.clock_at(start),
            seconds=incl,
            self_seconds=own,
            depth=len(stack),
            pid=os.getpid(),
            thread=threading.current_thread().name,
        )
        return incl

    def _wrap(self, fn, name, transparent, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = get_recorder()
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][0] in transparent:
                return fn(*args, **kwargs)
            frame = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, recorder)
            if hook is not None:
                hook(recorder, args, kwargs, result)
            return result

        return wrapper

    def _wrap_run(self, run):
        tracer = self

        @functools.wraps(run)
        def traced_run(context, tasks, label="tasks"):
            recorder = get_recorder()
            if not recorder.enabled:
                return run(context, tasks, label)
            tasks = [tracer._wrap(task, "parallel.task", (), None) for task in tasks]
            workers = context.resolved_workers()
            pooled = context.backend == "process" and workers > 1 and len(tasks) > 1
            frame = tracer._open("parallel.run")
            try:
                return run(context, tasks, label)
            finally:
                incl = tracer._close(frame, recorder)
                recorder.inc("perf:parallel.tasks", len(tasks))
                recorder.inc(
                    "perf:parallel.capacity_s",
                    incl * (min(workers, len(tasks)) if pooled else 1),
                )

        return traced_run
