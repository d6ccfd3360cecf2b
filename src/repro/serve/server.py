"""Long-lived imputation serving: request queue, micro-batching, JSONL loop.

:class:`ImputationServer` is the in-process serving core.  Registry entries
are loaded once (and LRU-cached up to ``ServeConfig.max_models``); callers
submit impute requests — single rows or whole matrices — and get
:class:`concurrent.futures.Future` handles back.  A single dispatcher
thread drains the queue, *coalesces* adjacent requests for the same
registry key into one model invocation (bounded by
``max_batch_requests`` / ``max_batch_rows`` / ``batch_window_seconds``),
and executes the per-key groups of each batch through a
:class:`repro.parallel.ExecutionContext` (serial by default — forking from
the dispatcher thread is opt-in via an explicit context).

Serving semantics (contract: ``docs/serving.md``):

* Observed cells pass through **bit-exactly** — the raw request value is
  restored after any normalise/denormalise round trip.
* Missing cells are filled by the entry's model on the entry's normaliser
  scale; stochastic models draw their noise per *service batch*, so a
  row's imputed values are deterministic given the batch composition but
  may differ across batch compositions.
* A failed request (unknown key, schema mismatch, wrong width) resolves
  its future with an error response; it never tears down the server.

Telemetry (all recorder-guarded): ``serve.request`` and ``serve.batch``
events, the ``serve.queue_depth`` gauge, ``serve.requests`` /
``serve.batches`` / ``serve.errors`` / ``serve.evictions`` counters, and
``serve.latency_seconds`` / ``serve.coalesced`` histograms.  Every request
additionally carries a :class:`~repro.obs.tracing.TraceContext` from
submit to reply: the lifecycle is emitted as a ``serve.request`` root span
with ``serve.queue_wait`` / ``serve.coalesce`` / ``serve.execute`` /
``serve.reply`` children that tile the request's wall-clock, plus a
``serve.model`` span from inside the worker (fork children included —
their spans are clock-anchored and absorbed with the parent trace_id), so
``repro obs waterfall <trace_id>`` reconstructs the end-to-end breakdown.

:func:`serve_jsonl` is the transport the ``repro serve run`` CLI speaks:
line-delimited JSON requests in, line-delimited JSON responses out
(matched by ``id``, not order), with graceful drain-then-exit shutdown on
EOF or an explicit ``{"op": "shutdown"}`` request.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TextIO, Union

import numpy as np

from ..data.batches import BatchPlan
from ..data.dataset import IncompleteDataset
from ..data.io import read_csv, write_csv
from ..obs import get_recorder
from ..obs.live import prometheus_exposition
from ..obs.tracing import TraceContext, record_span, start_trace
from ..parallel import ExecutionContext
from .registry import LoadedModel, ModelRegistry, RegistryError

__all__ = [
    "ServeConfig",
    "ImputeResponse",
    "ImputationServer",
    "serve_jsonl",
]

_SHUTDOWN = object()  # queue sentinel


@dataclass
class ServeConfig:
    """Knobs of the serving loop.

    ``batch_window_seconds`` is how long the dispatcher waits for more
    requests to coalesce after the first arrives; ``max_batch_requests`` /
    ``max_batch_rows`` cap one dispatch.  ``max_models`` bounds the
    loaded-entry LRU cache (eviction emits ``serve.evict``); evicted
    entries are transparently reloaded from disk on next use.
    """

    max_batch_requests: int = 64
    max_batch_rows: int = 4096
    batch_window_seconds: float = 0.005
    max_models: int = 8

    def __post_init__(self) -> None:
        if self.max_batch_requests < 1:
            raise ValueError(f"max_batch_requests must be >= 1, got {self.max_batch_requests}")
        if self.max_batch_rows < 1:
            raise ValueError(f"max_batch_rows must be >= 1, got {self.max_batch_rows}")
        if self.batch_window_seconds < 0:
            raise ValueError(f"batch_window_seconds must be >= 0, got {self.batch_window_seconds}")
        if self.max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {self.max_models}")


@dataclass
class ImputeResponse:
    """The resolution of one impute request."""

    id: str
    key: str
    values: Optional[np.ndarray]  # imputed rows (None on error)
    error: Optional[str] = None
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    coalesced: int = 1  # requests served by the same model invocation

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class _Pending:
    """A queued request: payload plus its future and timing bookkeeping.

    ``ctx`` is the request's root :class:`TraceContext` (``None`` with a
    disabled recorder) — it is carried explicitly because the request
    crosses from the submitting thread to the dispatcher thread, where
    thread-local ambient context cannot follow.  ``dequeued`` is stamped by
    the dispatcher when the request leaves the queue, splitting queue-wait
    from coalescing time in the request's span waterfall.
    """

    id: str
    key: str
    values: np.ndarray
    future: "Future[ImputeResponse]"
    submitted: float = field(default_factory=time.perf_counter)
    ctx: Optional[TraceContext] = None
    dequeued: float = 0.0


class ImputationServer:
    """Loads registry entries once and serves impute requests from a queue."""

    def __init__(
        self,
        registry: Union[ModelRegistry, str],
        config: Optional[ServeConfig] = None,
        context: Optional[ExecutionContext] = None,
    ) -> None:
        self.registry = (
            registry if isinstance(registry, ModelRegistry) else ModelRegistry(registry)
        )
        self.config = config if config is not None else ServeConfig()
        self.context = context if context is not None else ExecutionContext()
        self._queue: "queue.Queue[object]" = queue.Queue()
        self._models: "Dict[str, LoadedModel]" = {}  # insertion order = LRU order
        self._models_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._draining = True
        self._started = False
        self._stopped = False
        # Monotonic default request ids: id(future) is reused after garbage
        # collection, so long-lived servers could emit colliding ids.
        self._request_seq = itertools.count()
        self.served_requests = 0
        self.served_rows = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ImputationServer":
        """Spawn the dispatcher thread (idempotent)."""
        if self._stopped:
            raise RuntimeError("server has been shut down; create a new one")
        if self._thread is None:
            recorder = get_recorder()
            if recorder.enabled:
                # Create the gauge before concurrency begins: later .set()
                # calls then never race on registry creation.
                recorder.set_gauge("serve.queue_depth", self._queue.qsize())
            self._thread = threading.Thread(
                target=self._loop, name="repro-serve-dispatcher", daemon=True
            )
            self._started = True
            self._thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the dispatcher.

        ``drain`` (default) serves everything already queued first; with
        ``drain=False`` queued requests resolve with a shutdown error.
        Idempotent; safe to call before :meth:`start`.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = drain
        self._queue.put(_SHUTDOWN)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def submit(
        self,
        key: str,
        values: np.ndarray,
        request_id: Optional[str] = None,
    ) -> "Future[ImputeResponse]":
        """Enqueue rows (nan marks missing) for imputation under ``key``."""
        if self._stopped:
            raise RuntimeError("server is shut down")
        values = np.atleast_2d(np.asarray(values, dtype=np.float64))
        if values.ndim != 2:
            raise ValueError(f"request values must be 1-D or 2-D, got shape {values.shape}")
        future: "Future[ImputeResponse]" = Future()
        recorder = get_recorder()
        pending = _Pending(
            id=request_id if request_id is not None else f"r{next(self._request_seq)}",
            key=key,
            values=values,
            future=future,
            ctx=start_trace() if recorder.enabled else None,
        )
        self._queue.put(pending)
        if recorder.enabled:
            recorder.set_gauge("serve.queue_depth", self._queue.qsize())
        return future

    def impute_rows(
        self, key: str, values: np.ndarray, timeout: Optional[float] = None
    ) -> ImputeResponse:
        """Synchronous convenience: submit and wait."""
        return self.submit(key, values).result(timeout=timeout)

    def impute_csv(
        self,
        key: str,
        input_path: str,
        output_path: str,
        timeout: Optional[float] = None,
    ) -> ImputeResponse:
        """Bulk path: read a CSV, impute it as one request, write the result.

        The bulk request rides the same queue and batching machinery as
        single-row requests.
        """
        dataset = read_csv(input_path)
        response = self.submit(key, dataset.values, request_id=f"csv:{input_path}").result(
            timeout=timeout
        )
        if response.ok:
            write_csv(
                IncompleteDataset(
                    response.values,
                    feature_names=list(dataset.feature_names),
                    name=dataset.name,
                ),
                output_path,
            )
        return response

    # ------------------------------------------------------------------
    # Model cache
    # ------------------------------------------------------------------
    def _get_model(self, key: str) -> LoadedModel:
        """Fetch a loaded entry, loading and LRU-evicting as needed."""
        with self._models_lock:
            if key in self._models:
                loaded = self._models.pop(key)  # re-insert = mark most recent
                self._models[key] = loaded
                return loaded
        loaded = self.registry.load(key)  # RegistryError propagates to caller
        recorder = get_recorder()
        with self._models_lock:
            self._models[key] = loaded
            while len(self._models) > self.config.max_models:
                evicted_key = next(iter(self._models))
                del self._models[evicted_key]
                if recorder.enabled:
                    recorder.inc("serve.evictions")
                    recorder.emit("serve.evict", key=evicted_key)
        return loaded

    def reload(self) -> None:
        """Drop the model cache so the next requests re-read the registry."""
        with self._models_lock:
            self._models.clear()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        stop = False
        while not stop:
            item = self._queue.get()
            if item is _SHUTDOWN:
                break
            item.dequeued = time.perf_counter()
            batch = [item]
            rows = item.values.shape[0]
            deadline = time.perf_counter() + self.config.batch_window_seconds
            while (
                len(batch) < self.config.max_batch_requests
                and rows < self.config.max_batch_rows
            ):
                remaining = deadline - time.perf_counter()
                try:
                    nxt = self._queue.get(block=remaining > 0, timeout=max(remaining, 0) or None)
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    stop = True
                    break
                nxt.dequeued = time.perf_counter()
                batch.append(nxt)
                rows += nxt.values.shape[0]
            self._dispatch(batch)
        # Post-sentinel: serve or fail whatever is still queued.
        leftovers: List[_Pending] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                item.dequeued = time.perf_counter()
                leftovers.append(item)
        if leftovers:
            if self._draining:
                self._dispatch(leftovers)
            else:
                for pending in leftovers:
                    pending.future.set_result(
                        ImputeResponse(
                            id=pending.id, key=pending.key, values=None,
                            error="server shut down before the request was served",
                        )
                    )

    def _dispatch(self, batch: List[_Pending]) -> None:
        """Serve one coalesced batch: group by key, one model call per key."""
        recorder = get_recorder()
        if recorder.enabled:
            recorder.set_gauge("serve.queue_depth", self._queue.qsize())
        groups: Dict[str, List[_Pending]] = {}
        for pending in batch:
            groups.setdefault(pending.key, []).append(pending)

        ready: List[tuple] = []  # (key, group, loaded) — model load errors resolve early
        for key, group in groups.items():
            try:
                loaded = self._get_model(key)
            except RegistryError as exc:
                self._fail_group(group, str(exc), recorder)
                continue
            width = loaded.entry.n_features
            ok_group = []
            for pending in group:
                if pending.values.shape[1] != width:
                    self._fail_group(
                        [pending],
                        f"registry entry {key!r} expects {width} columns, "
                        f"request has {pending.values.shape[1]}",
                        recorder,
                    )
                else:
                    ok_group.append(pending)
            if ok_group:
                ready.append((key, ok_group, loaded))
        if not ready:
            return

        started = time.perf_counter()
        # Pre-assign each request's execute-span identity so the model span
        # emitted inside the worker (possibly a fork child) can parent
        # itself to the right request even across the process boundary.
        staged = [
            (
                key,
                group,
                loaded,
                [p.ctx.child() if p.ctx is not None else None for p in group],
            )
            for key, group, loaded in ready
        ]
        tasks = [
            (lambda g=group, m=loaded, e=exec_ctxs: _serve_group_rows(m, g, e))
            for key, group, loaded, exec_ctxs in staged
        ]
        outputs = self.context.run(tasks, label="serve.batch")
        for (key, group, loaded, exec_ctxs), output in zip(staged, outputs):
            seconds = time.perf_counter() - started
            n_rows = int(sum(p.values.shape[0] for p in group))
            self.served_requests += len(group)
            self.served_rows += n_rows
            if recorder.enabled:
                recorder.inc("serve.batches")
                recorder.inc("serve.requests", len(group))
                recorder.observe("serve.coalesced", len(group))
                recorder.emit(
                    "serve.batch",
                    key=key,
                    n_requests=len(group),
                    n_rows=n_rows,
                    seconds=seconds,
                    queue_depth=self._queue.qsize(),
                )
            split = BatchPlan.of_sizes(
                [p.values.shape[0] for p in group]
            ).bounds(output.shape[0])
            for pending, exec_ctx, (start, stop) in zip(group, exec_ctxs, split):
                n = stop - start
                rows = output[start:stop]
                exec_end = time.perf_counter()
                response = ImputeResponse(
                    id=pending.id,
                    key=key,
                    values=rows,
                    queue_seconds=started - pending.submitted,
                    service_seconds=seconds,
                    coalesced=len(group),
                )
                pending.future.set_result(response)
                done = time.perf_counter()
                if recorder.enabled:
                    latency = done - pending.submitted
                    recorder.observe("serve.latency_seconds", latency)
                    recorder.emit(
                        "serve.request",
                        id=pending.id,
                        key=key,
                        n_rows=n,
                        queue_seconds=response.queue_seconds,
                        latency_seconds=latency,
                        coalesced=len(group),
                        trace_id=pending.ctx.trace_id if pending.ctx else None,
                    )
                    self._emit_request_spans(
                        recorder, pending, exec_ctx, started, exec_end, done
                    )

    def _emit_request_spans(
        self,
        recorder,
        pending: _Pending,
        exec_ctx: Optional[TraceContext],
        started: float,
        exec_end: float,
        done: float,
    ) -> None:
        """Emit the request's span waterfall: root + four tiling children.

        ``queue_wait`` / ``coalesce`` / ``execute`` / ``reply`` partition
        ``[submitted, done]`` with no gaps, so the children account for the
        request's full measured wall-clock by construction.  The execute
        span reuses the pre-assigned ``exec_ctx`` so the worker-side
        ``serve.model`` span (absorbed from a fork child) hangs under it.
        """
        ctx = pending.ctx
        if ctx is None:
            return
        clock_at = getattr(recorder, "clock_at", None)
        at = clock_at if callable(clock_at) else (lambda _t: None)
        dequeued = pending.dequeued or pending.submitted
        record_span(
            "serve.request",
            ctx,
            done - pending.submitted,
            start=at(pending.submitted),
            recorder=recorder,
            request=pending.id,
            key=pending.key,
        )
        for name, t0, t1, child in (
            ("serve.queue_wait", pending.submitted, dequeued, ctx.child()),
            ("serve.coalesce", dequeued, started, ctx.child()),
            ("serve.execute", started, exec_end, exec_ctx),
            ("serve.reply", exec_end, done, ctx.child()),
        ):
            record_span(
                name,
                child if child is not None else ctx.child(),
                t1 - t0,
                start=at(t0),
                recorder=recorder,
                request=pending.id,
            )

    def _fail_group(self, group: List[_Pending], message: str, recorder) -> None:
        for pending in group:
            done = time.perf_counter()
            latency = done - pending.submitted
            if recorder.enabled:
                recorder.inc("serve.errors")
                # Errored requests hit the same latency histogram as
                # successes — muting them would bias the tail downward.
                recorder.observe("serve.latency_seconds", latency)
                recorder.emit(
                    "serve.request",
                    id=pending.id,
                    key=pending.key,
                    n_rows=int(pending.values.shape[0]),
                    error=message,
                    latency_seconds=latency,
                    trace_id=pending.ctx.trace_id if pending.ctx else None,
                )
                if pending.ctx is not None:
                    clock_at = getattr(recorder, "clock_at", None)
                    record_span(
                        "serve.request",
                        pending.ctx,
                        latency,
                        start=(
                            clock_at(pending.submitted)
                            if callable(clock_at)
                            else None
                        ),
                        recorder=recorder,
                        request=pending.id,
                        key=pending.key,
                        error=True,
                    )
            pending.future.set_result(
                ImputeResponse(id=pending.id, key=pending.key, values=None, error=message)
            )


def _serve_group_rows(
    loaded: LoadedModel,
    group: List[_Pending],
    exec_ctxs: Optional[List[Optional[TraceContext]]] = None,
) -> np.ndarray:
    """Impute one key-group's stacked rows; observed cells pass through raw.

    Runs in the dispatcher thread (serial context) or a fork worker
    (process context).  ``exec_ctxs`` carries each request's pre-assigned
    execute-span context, so the ``serve.model`` span emitted here parents
    to the right request's trace even when it is recorded by a child
    recorder and absorbed later.
    """
    t0 = time.perf_counter()
    raw = np.vstack([pending.values for pending in group])
    mask = (~np.isnan(raw)).astype(np.float64)
    scaled = loaded.normalizer.transform(raw) if loaded.normalizer else raw
    dataset = IncompleteDataset(
        scaled,
        feature_names=list(loaded.entry.schema["feature_names"]),
        feature_types=list(loaded.entry.schema["feature_types"]),
        name=f"serve:{loaded.entry.key}",
    )
    imputed = loaded.model.transform(dataset)
    if loaded.normalizer is not None:
        imputed = loaded.normalizer.inverse_transform(imputed)
    # Bit-exact pass-through: never let the scale round trip touch observed
    # cells.
    result = np.where(mask == 1.0, np.nan_to_num(raw, nan=0.0), imputed)
    recorder = get_recorder()
    if recorder.enabled and exec_ctxs:
        seconds = time.perf_counter() - t0
        clock_at = getattr(recorder, "clock_at", None)
        start = clock_at(t0) if callable(clock_at) else None
        for pending, exec_ctx in zip(group, exec_ctxs):
            if exec_ctx is None:
                continue
            record_span(
                "serve.model",
                exec_ctx.child(),
                seconds,
                start=start,
                recorder=recorder,
                request=pending.id,
                key=loaded.entry.key,
                n_rows=int(pending.values.shape[0]),
            )
    return result


# ----------------------------------------------------------------------
# The JSONL transport (what `repro serve run` speaks)
# ----------------------------------------------------------------------
def _rows_from_json(rows: object) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError("'rows' must be a non-empty list of lists")
    return np.asarray(
        [[np.nan if cell is None else float(cell) for cell in row] for row in rows],
        dtype=np.float64,
    )


def _rows_to_json(values: np.ndarray) -> List[List[Optional[float]]]:
    return [
        [None if not np.isfinite(cell) else float(cell) for cell in row]
        for row in np.atleast_2d(values)
    ]


def serve_jsonl(
    server: ImputationServer,
    in_stream: TextIO,
    out_stream: TextIO,
) -> Dict[str, int]:
    """Serve line-delimited JSON requests until EOF or a shutdown request.

    Requests (one JSON object per line; responses are matched by ``id``,
    not by order):

    * ``{"op": "impute", "id": .., "key": .., "rows": [[..]]}`` — impute
      rows (``null`` cells are missing) → ``{"id", "ok", "rows", ..}``.
    * ``{"op": "impute_csv", "id": .., "key": .., "input": p, "output": p}``
      — bulk-impute a CSV file → ``{"id", "ok", "n_rows", "output"}``.
    * ``{"op": "keys", "id": ..}`` — list registry keys.
    * ``{"op": "metrics", "id": ..}`` — Prometheus text exposition of the
      live recorder's metrics (a placeholder comment when no recorder is
      attached).
    * ``{"op": "ping", "id": ..}`` — liveness check.
    * ``{"op": "shutdown", "id": ..}`` — drain, acknowledge, exit.

    EOF is the implicit shutdown request: the server drains every pending
    response before the function returns (graceful shutdown).
    """
    server.start()
    write_lock = threading.Lock()
    pending: List[Future] = []
    stats = {"requests": 0, "responses": 0, "errors": 0}

    def reply(payload: Dict[str, object]) -> None:
        with write_lock:
            out_stream.write(json.dumps(payload) + "\n")
            out_stream.flush()
        stats["responses"] += 1
        if payload.get("ok") is False:
            stats["errors"] += 1

    def on_done(request_id: str, op: str, output: Optional[str]):
        def callback(future: Future) -> None:
            response: ImputeResponse = future.result()
            if not response.ok:
                reply({"id": request_id, "ok": False, "error": response.error})
                return
            payload: Dict[str, object] = {
                "id": request_id,
                "ok": True,
                "key": response.key,
                "n_rows": int(response.values.shape[0]),
                "coalesced": response.coalesced,
            }
            if op == "impute":
                payload["rows"] = _rows_to_json(response.values)
            else:
                payload["output"] = output
            reply(payload)

        return callback

    shutdown_id: Optional[str] = None
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        stats["requests"] += 1
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op", "impute")
            request_id = str(request.get("id", stats["requests"]))
            if op == "shutdown":
                shutdown_id = request_id
                break
            if op == "ping":
                reply({"id": request_id, "ok": True, "op": "pong"})
                continue
            if op == "keys":
                reply({"id": request_id, "ok": True, "keys": server.registry.keys()})
                continue
            if op == "metrics":
                recorder = get_recorder()
                if recorder.enabled:
                    exposition = prometheus_exposition(recorder.metrics.snapshot())
                else:
                    exposition = "# no recorder attached (run with --trace or --live)\n"
                reply(
                    {
                        "id": request_id,
                        "ok": True,
                        "op": "metrics",
                        "exposition": exposition,
                    }
                )
                continue
            if op == "impute":
                values = _rows_from_json(request["rows"])
                future = server.submit(str(request["key"]), values, request_id=request_id)
                future.add_done_callback(on_done(request_id, "impute", None))
                pending.append(future)
            elif op == "impute_csv":
                # Reads/writes happen in a helper thread so bulk file I/O
                # does not stall the request-intake loop.
                def run_csv(req=request, rid=request_id):
                    try:
                        response = server.impute_csv(
                            str(req["key"]), str(req["input"]), str(req["output"])
                        )
                    except (OSError, ValueError) as exc:
                        reply({"id": rid, "ok": False, "error": str(exc)})
                        return
                    if response.ok:
                        reply(
                            {
                                "id": rid,
                                "ok": True,
                                "key": response.key,
                                "n_rows": int(response.values.shape[0]),
                                "coalesced": response.coalesced,
                                "output": str(req["output"]),
                            }
                        )
                    else:
                        reply({"id": rid, "ok": False, "error": response.error})

                worker = threading.Thread(target=run_csv, daemon=True)
                worker.start()
                pending.append(worker)
            else:
                reply({"id": request_id, "ok": False, "error": f"unknown op {op!r}"})
        except (KeyError, TypeError, ValueError, RegistryError) as exc:
            reply({"id": str(stats["requests"]), "ok": False, "error": str(exc)})

    # Graceful shutdown: every accepted request gets its response first.
    for item in pending:
        if isinstance(item, Future):
            item.exception()  # waits; response written by the callback
        else:
            item.join()
    server.shutdown(drain=True)
    if shutdown_id is not None:
        reply(
            {
                "id": shutdown_id,
                "ok": True,
                "op": "shutdown",
                "served_requests": server.served_requests,
                "served_rows": server.served_rows,
            }
        )
    return stats
