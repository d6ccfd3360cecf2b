"""Names, units and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is the contract: its
``end_to_end`` metrics are printed by every workload, its ``per_layer``
metrics by every traced run.  This module adds what the contract cannot
hold:

* ``EXTRA_END_TO_END`` — end-to-end metrics the contract does not gate:
  those that exist on some workloads only (an RMSE needs ground truth, a
  tail latency needs requests), and ``rows_per_s``, which on the table
  workloads restates ``p50_ms`` and on ``serve`` (the rate a fresh server
  drains a full queue) moved by more than any allowed bound between runs.
  They are printed by the workloads that have them and compared by
  ``perf/compare.py`` with the bounds given here.
* ``LAYER_UNITS`` — the full per-layer table a traced run writes to its
  output file.  ``BENCHMARK.json`` lists the subset that is defined, and
  never a constant zero time, on every workload.
* How each per-layer metric is read from the counters
  :class:`tracer.Tracer` records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scis", "otdirect", "sharded", "serve")


def load_contract() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# name -> unit, better, bound (worst allowed relative change), workloads.
EXTRA_END_TO_END: Dict[str, dict] = {
    "rows_per_s": {"unit": "rows/s", "better": "higher", "bound": 0.2, "workloads": WORKLOADS},
    "rmse": {"unit": "1", "better": "lower", "bound": 0.005, "workloads": ("scis", "otdirect")},
    "sample_rate": {"unit": "1", "better": "lower", "bound": 0.02, "workloads": ("scis", "sharded")},
    "failed_frac": {"unit": "1", "better": "lower", "bound": 0.0, "workloads": WORKLOADS},
    "p99_ms": {"unit": "ms", "better": "lower", "bound": 0.15, "workloads": ("serve",)},
    "p99_ms.r800": {"unit": "ms", "better": "lower", "bound": 0.15, "workloads": ("serve",)},
}

# A relative bound alone would flag a 2 ms set-up that grows by 1 ms.
ABSOLUTE_FLOOR = {"setup_s": 0.1}

_SERVE_PHASES = ("", ".r800", ".r1600")

LAYER_UNITS: Dict[str, str] = {
    "data.prepare_s": "s",
    "data.shards.generate_s": "s",
    "data.shards.scan_s": "s",
    "data.shards.read_s": "s",
    "data.shards.reads": "count",
    "data.shards.bytes_read": "bytes",
    "data.shards.write_s": "s",
    "ot.sinkhorn_s": "s",
    "ot.sinkhorn_calls": "count",
    "ot.sinkhorn_problems": "count",
    "ot.sinkhorn_sweeps": "count",
    "ot.sinkhorn_cells": "count",
    "ot.sinkhorn_converged_frac": "frac",
    "ot.cost_s": "s",
    "ot.cost_calls": "count",
    "ot.loss_s": "s",
    "nn.forward_s": "s",
    "nn.forward_calls": "count",
    "tensor.backward_s": "s",
    "tensor.backward_calls": "count",
    "optim.step_s": "s",
    "optim.steps": "count",
    "nn.infer_s": "s",
    "nn.infer_calls": "count",
    "nn.infer_rows": "rows",
    "models.reconstruct_s": "s",
    "models.impute_s": "s",
    "dim.train_s": "s",
    "dim.steps": "count",
    "sse.prepare_s": "s",
    "sse.estimate_s": "s",
    "sse.evaluations": "count",
    "scis.initial_train_s": "s",
    "scis.retrain_s": "s",
    "scis.impute_s": "s",
    "sharded.train_s": "s",
    "sharded.impute_s": "s",
    "sharded.peak_resident_rows": "rows",
    "otdirect.rounds": "count",
    "otdirect.pairs": "count",
    "parallel.run_s": "s",
    "parallel.task_s": "s",
    "parallel.runs": "count",
    "parallel.tasks": "count",
    "parallel.efficiency": "frac",
    "parallel.fallbacks": "count",
    **{f"serve.queue_ms{p}": "ms" for p in _SERVE_PHASES},
    **{f"serve.service_ms{p}": "ms" for p in _SERVE_PHASES},
    **{f"serve.coalesced{p}": "count" for p in _SERVE_PHASES},
    **{f"serve.batches{p}": "count" for p in _SERVE_PHASES},
    "serve.registry_load_s": "s",
    "serve.max_rate_rps": "1/s",
    "bench.attributed_frac": "frac",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_frac": "frac",
    "bench.warmup_s": "s",
    "bench.gen_lag_p99_ms": "ms",
}

# metric -> (span name, counter kind): self time unless the kind says incl.
SPAN_METRICS = {
    "data.shards.scan_s": ("data.shards.scan", "self_s"),
    "data.shards.read_s": ("data.shards.read", "self_s"),
    "data.shards.reads": ("data.shards.read", "calls"),
    "data.shards.write_s": ("data.shards.write", "self_s"),
    "ot.sinkhorn_s": ("ot.sinkhorn", "self_s"),
    "ot.sinkhorn_calls": ("ot.sinkhorn", "calls"),
    "ot.cost_s": ("ot.cost", "self_s"),
    "ot.cost_calls": ("ot.cost", "calls"),
    "ot.loss_s": ("ot.loss", "self_s"),
    "nn.forward_s": ("nn.forward", "self_s"),
    "nn.forward_calls": ("nn.forward", "calls"),
    "tensor.backward_s": ("tensor.backward", "self_s"),
    "tensor.backward_calls": ("tensor.backward", "calls"),
    "optim.step_s": ("optim.step", "self_s"),
    "optim.steps": ("optim.step", "calls"),
    "nn.infer_s": ("nn.infer", "self_s"),
    "nn.infer_calls": ("nn.infer", "calls"),
    "models.reconstruct_s": ("models.reconstruct", "self_s"),
    "models.impute_s": ("models.impute", "self_s"),
    "dim.train_s": ("dim.train", "self_s"),
    "sse.prepare_s": ("sse.prepare", "self_s"),
    "sse.estimate_s": ("sse.estimate", "incl_s"),
    "parallel.run_s": ("parallel.run", "incl_s"),
    "parallel.task_s": ("parallel.task", "incl_s"),
    "parallel.runs": ("parallel.run", "calls"),
    "serve.registry_load_s": ("serve.registry_load", "self_s"),
}

# metric -> counter the tracer's result hooks (or the program) increment.
COUNTER_METRICS = {
    "ot.sinkhorn_problems": "perf:ot.sinkhorn_problems",
    "ot.sinkhorn_sweeps": "perf:ot.sinkhorn_sweeps",
    "ot.sinkhorn_cells": "perf:ot.sinkhorn_cells",
    "nn.infer_rows": "perf:nn.infer_rows",
    "dim.steps": "perf:dim.steps",
    "sse.evaluations": "perf:sse.evaluations",
    "data.shards.bytes_read": "perf:data.shards.bytes_read",
    "parallel.tasks": "perf:parallel.tasks",
    "parallel.fallbacks": "parallel.fallbacks",
}

# Work counters that repeat exactly for a given seed and config on the
# table workloads; serve coalesces requests by arrival time, so its counts
# vary from run to run.
TABLE_WORKLOADS = ("scis", "otdirect", "sharded")
DETERMINISTIC_COUNTERS = (
    "ot.sinkhorn_cells",
    "ot.sinkhorn_sweeps",
    "sse.evaluations",
    "data.shards.reads",
    "parallel.tasks",
    "dim.steps",
    "otdirect.pairs",
)


def layer_metrics_from_counters(counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values derived from one traced section's counters."""

    def span(name: str, kind: str) -> float:
        return counters.get(f"perf:{name}:{kind}", 0.0)

    values = {metric: span(*key) for metric, key in SPAN_METRICS.items()}
    values.update({metric: counters.get(key, 0.0) for metric, key in COUNTER_METRICS.items()})
    problems = values["ot.sinkhorn_problems"]
    converged = counters.get("perf:ot.sinkhorn_converged", 0.0)
    values["ot.sinkhorn_converged_frac"] = converged / problems if problems else 0.0
    capacity = counters.get("perf:parallel.capacity_s", 0.0)
    values["parallel.efficiency"] = values["parallel.task_s"] / capacity if capacity else 0.0
    return values
