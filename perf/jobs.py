"""Run one workload in this process and write its result as JSON.

``perf/run.py`` starts this script once per workload and mode, in a fresh
interpreter with BLAS pinned to one thread; it is not meant to be started
by hand.  ``--trace 0`` sets up several times, runs one untimed warm-up job
and then times jobs (windows of requests for ``serve``) for ``--seconds``;
``--trace 1`` installs :class:`tracer.Tracer` around one more job (one
window per rate for ``serve``) after a few untraced reference jobs.

The seed only generates inputs: every model, SCIS and sharding seed stays
at its default, so repeats with one seed do identical work.  Every output
is checked outside the timed region; a failed check counts against
``failed`` and the run goes on.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.runner import prepare_case
from repro.bench.serving import _check_response
from repro.core import SCIS, DimConfig, DimImputer, ScisConfig, fit_impute_sharded
from repro.data import MinMaxNormalizer, ShardStore, generate, generate_sharded
from repro.models import GAINImputer, SinkhornImputer
from repro.obs import InMemoryRecorder, recording
from repro.parallel import ExecutionContext
from repro.serve import ImputationServer, ModelRegistry, ServeConfig
from repro.tensor.backend import get_backend

from catalog import LAYER_UNITS, layer_metrics_from_counters
from tracer import Tracer

OUT = Path(__file__).resolve().parent / "out"
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_JOBS = 3  # timed jobs per run at least; a traced run's untraced references
GEN_LAG_LIMIT_MS = 5.0


def pool_workers() -> int:
    """Two fork workers, or fewer on a machine with fewer CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def quantile_spread(values: List[float]) -> Optional[float]:
    """Inter-quartile range over the median (None below two samples)."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def observed_cells_intact(values: np.ndarray, output: np.ndarray) -> bool:
    """Observed cells bit-identical to the input, and nothing non-finite."""
    observed = ~np.isnan(values)
    return (
        output.shape == values.shape
        and output[observed].tobytes() == values[observed].tobytes()
        and bool(np.isfinite(output).all())
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children (fork pools)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metric(value: float, unit: str, n: int, spread: Optional[float] = None) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n), "spread": spread}


# ----------------------------------------------------------------------
# Table workloads: one job imputes one whole table
# ----------------------------------------------------------------------
class Scis:
    """SCIS on a 200k-row table; SSE keeps the initial 1000-row model.

    The error bound is loose enough that SSE accepts ``n* = n0`` on every
    seed: a tighter bound retrains on an ``n*`` that ranges over 2x across
    seeds, and so would job time.
    """

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.n_samples = 20_000 if quick else 200_000
        self.epochs = 2 if quick else 20

    def setup(self) -> Dict[str, float]:
        start = time.perf_counter()
        self.case = prepare_case("trial", n_samples=self.n_samples, seed=self.seed)
        self.rows = self.case.train.n_samples
        return {"data.prepare_s": time.perf_counter() - start}

    def job(self):
        dim = DimConfig(
            epochs=self.epochs, batch_size=64, sinkhorn_max_iter=50, use_adversarial=False
        )
        config = ScisConfig(initial_size=1000, error_bound=0.05, dim=dim, workers=1)
        return SCIS(GAINImputer(epochs=self.epochs), config).fit_transform(self.case.train)

    def check(self, result) -> bool:
        return observed_cells_intact(self.case.train.values, result.imputed)

    def quality(self, result) -> Dict[str, float]:
        return {"rmse": self.case.holdout.rmse(result.imputed), "sample_rate": result.sample_rate}

    def layers(self, result) -> Dict[str, float]:
        return {
            "scis.initial_train_s": result.timings["initial_train"],
            "scis.retrain_s": result.timings["retrain"],
            "scis.impute_s": result.timings["impute"],
        }

    def close(self) -> None:
        pass


class OtDirect:
    """OT-direct imputation of a 1024-row table, pair solves on a fork pool."""

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.n_samples = 256 if quick else 1024
        self.epochs = 2 if quick else 5
        self.mlp_epochs = 1 if quick else 2

    def setup(self) -> Dict[str, float]:
        start = time.perf_counter()
        self.case = prepare_case("trial", n_samples=self.n_samples, seed=self.seed)
        self.rows = self.case.train.n_samples
        return {"data.prepare_s": time.perf_counter() - start}

    def job(self):
        imputer = SinkhornImputer(
            epochs=self.epochs,
            batch_size=128,
            sinkhorn_max_iter=50,
            mlp_epochs=self.mlp_epochs,
            context=ExecutionContext.from_env(workers=pool_workers()),
        )
        return imputer, imputer.fit_transform(self.case.train)

    def check(self, output) -> bool:
        return observed_cells_intact(self.case.train.values, output[1])

    def quality(self, output) -> Dict[str, float]:
        return {"rmse": self.case.holdout.rmse(output[1])}

    def layers(self, output) -> Dict[str, float]:
        report = output[0].report
        return {"otdirect.rounds": report.rounds, "otdirect.pairs": report.pairs}

    def close(self) -> None:
        pass


class Sharded:
    """Out-of-core SCIS over a 1M-row, 16-shard store, shards imputed on a pool."""

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.n_samples = 100_000 if quick else 1_000_000
        self.shard_rows = 8192 if quick else 65536
        self.epochs = 1 if quick else 4
        self.store_path = workdir / "store"
        self.output_path = workdir / "imputed"

    def setup(self) -> Dict[str, float]:
        shutil.rmtree(self.store_path, ignore_errors=True)
        start = time.perf_counter()
        self.store = generate_sharded(
            "trial",
            self.store_path,
            n_samples=self.n_samples,
            seed=self.seed,
            shard_rows=self.shard_rows,
        )
        self.rows = self.store.rows
        return {"data.shards.generate_s": time.perf_counter() - start}

    def job(self):
        shutil.rmtree(self.output_path, ignore_errors=True)
        dim = DimConfig(
            epochs=self.epochs, batch_size=64, sinkhorn_max_iter=50, use_adversarial=False
        )
        return fit_impute_sharded(
            self.store,
            self.output_path,
            GAINImputer(epochs=self.epochs),
            ScisConfig(initial_size=200, error_bound=0.02, dim=dim),
            context=ExecutionContext.from_env(workers=pool_workers()),
        )

    def check(self, report) -> bool:
        try:
            output = ShardStore(report.output_path)
            return output.n_shards == self.store.n_shards and all(
                observed_cells_intact(self.store.shard_values(i), output.shard_values(i))
                for i in range(self.store.n_shards)
            )
        finally:
            shutil.rmtree(self.output_path, ignore_errors=True)

    def quality(self, report) -> Dict[str, float]:
        return {"sample_rate": report.sample_rate}

    def layers(self, report) -> Dict[str, float]:
        return {
            "sharded.train_s": report.training_seconds,
            "sharded.impute_s": report.impute_seconds,
            "sharded.peak_resident_rows": report.peak_resident_rows,
        }

    def close(self) -> None:
        shutil.rmtree(self.store_path, ignore_errors=True)


def run_table(workload_cls, args, workdir: Path) -> dict:
    """Set up, warm up, then time jobs (or trace one) for one table workload."""
    result = {"attempted": 0, "failed": 0, "e2e": {}, "layers": {}}
    setups: List[float] = []
    for index in range(1 if args.trace else SETUPS):
        if index:
            workload.close()
        start = time.perf_counter()
        workload = workload_cls(args.seed, args.quick, workdir)
        setup_layers = workload.setup()
        setups.append(time.perf_counter() - start)

    def checked_job():
        """(seconds, output) of one job; (None, None) if it raised or failed its check."""
        result["attempted"] += 1
        try:
            start = time.perf_counter()
            output = workload.job()
            elapsed = time.perf_counter() - start
        except Exception:  # a failing job is counted, and the run goes on
            traceback.print_exc()
            result["failed"] += 1
            return None, None
        if not workload.check(output):
            result["failed"] += 1
            return None, None
        return elapsed, output

    warmup_s, output = checked_job()
    quality = workload.quality(output) if output is not None else {}

    times: List[float] = []
    target = 1 + MIN_JOBS  # the warm-up counts as attempted
    deadline = time.perf_counter() + (0.0 if args.trace else args.seconds)
    while result["attempted"] < target or time.perf_counter() < deadline:
        elapsed, output = checked_job()
        if elapsed is not None:
            times.append(elapsed)
            quality = quality or workload.quality(output)
    if not times:
        raise RuntimeError(f"every {args.workload} job failed")
    median = statistics.median(times)

    if not args.trace:
        e2e = result["e2e"]
        e2e["setup_s"] = metric(statistics.median(setups), "s", len(setups), quantile_spread(setups))
        e2e["rows_per_s"] = metric(workload.rows / median, "rows/s", len(times), quantile_spread(times))
        e2e["p50_ms"] = metric(1000.0 * median, "ms", len(times), quantile_spread(times))
        for name, value in quality.items():
            e2e[name] = metric(value, "1", 1)
        e2e["failed_frac"] = metric(result["failed"] / result["attempted"], "1", result["attempted"])
        e2e["peak_rss_mb"] = metric(peak_rss_mb(), "MB", 1)
        workload.close()
        return result

    tracer = Tracer()
    recorder = InMemoryRecorder()
    tracer.install()
    try:
        with recording(recorder):
            start = time.perf_counter()
            output = workload.job()
            traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    result["attempted"] += 1
    if not workload.check(output):
        result["failed"] += 1
    counters = recorder.metrics.snapshot()["counters"]
    layers = layer_metrics_from_counters(counters)
    layers.update(setup_layers)
    layers.update(workload.layers(output))
    attributed = counters.get("perf:attributed_s", 0.0)
    layers["bench.attributed_frac"] = attributed / traced_s
    layers["bench.unattributed_s"] = traced_s - attributed
    layers["bench.trace_overhead_frac"] = traced_s / median - 1.0
    layers["bench.warmup_s"] = warmup_s or 0.0
    result["layers"] = layers
    write_trace(args.workload, args.seed, [recorder])
    workload.close()
    return result


# ----------------------------------------------------------------------
# Serving: an open loop of single-row requests from one thread
# ----------------------------------------------------------------------
def _stamp(done: np.ndarray, index: int, future) -> None:
    done[index] = time.perf_counter()


class Serve:
    """A DIM-GAIN model behind :class:`ImputationServer`, driven open loop."""

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.n_samples = 500 if quick else 2000
        self.epochs = 1 if quick else 4
        self.registry_path = workdir / "registry"
        self.draws = 0
        self.server: Optional[ImputationServer] = None

    def setup(self) -> Dict[str, float]:
        shutil.rmtree(self.registry_path, ignore_errors=True)
        start = time.perf_counter()
        generated = generate("trial", n_samples=self.n_samples, seed=self.seed)
        normalizer = MinMaxNormalizer()
        normalized = normalizer.fit_transform(generated.dataset)
        prepare_s = time.perf_counter() - start
        model = DimImputer(GAINImputer(epochs=self.epochs), config=DimConfig(epochs=self.epochs))
        model.fit(normalized)
        self.registry = ModelRegistry(self.registry_path)
        self.key = self.registry.save(model, dataset=generated.dataset, normalizer=normalizer).key
        self.rows = generated.dataset.values
        self.server = ImputationServer(self.registry, ServeConfig()).start()
        warm = self.server.impute_rows(self.key, self.rows[0], timeout=60)
        if _check_response(self.rows[0], warm):
            raise RuntimeError("the warm-up request failed its check")
        return {"data.prepare_s": prepare_s}

    def _picks(self, count: int) -> np.ndarray:
        """Rows for the next ``count`` requests, drawn from the seed."""
        rng = np.random.default_rng([self.seed, self.draws])
        self.draws += 1
        return rng.integers(0, self.rows.shape[0], size=count)

    def _submit(self, server: ImputationServer, pick: int, done: np.ndarray, index: int):
        future = server.submit(self.key, self.rows[pick])
        future.add_done_callback(functools.partial(_stamp, done, index))
        return future

    @staticmethod
    def _responses(futures) -> list:
        # One wake-up when the last request completes: a thread waking on
        # every completion would contend with the dispatcher for the GIL.
        concurrent.futures.wait(futures, timeout=120)
        return [future.result(timeout=0) for future in futures]

    def _failures(self, picks: np.ndarray, responses) -> int:
        return sum(1 for pick, r in zip(picks, responses) if _check_response(self.rows[pick], r))

    def window(self, rate: float, seconds: float) -> dict:
        """Offer ``rate`` requests/s for ``seconds``; time each from when it was due."""
        count = max(2, int(round(rate * seconds)))
        picks = self._picks(count)
        done = np.zeros(count)
        lag = np.zeros(count)
        due = time.perf_counter() + 0.001 + np.arange(count) / rate
        futures = []
        for index in range(count):
            pause = due[index] - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            lag[index] = time.perf_counter() - due[index]
            futures.append(self._submit(self.server, picks[index], done, index))
        responses = self._responses(futures)
        latency_ms = 1000.0 * (done - due)
        coalesced = [response.coalesced for response in responses]
        return {
            "count": count,
            "failures": self._failures(picks, responses),
            "p50_ms": float(np.percentile(latency_ms, 50)),
            "p99_ms": float(np.percentile(latency_ms, 99)),
            "throughput": count / (done.max() - due[0]),
            "lag_ms": 1000.0 * lag,
            "queue_ms": 1000.0 * statistics.median(r.queue_seconds for r in responses),
            "service_ms": 1000.0 * statistics.median(r.service_seconds for r in responses),
            "coalesced": statistics.median(coalesced),
            "batches": round(sum(1.0 / c for c in coalesced)),
        }

    def drain(self, count: int) -> dict:
        """Start a fresh server on ``count`` queued requests; completions per second.

        The rate is taken from the first completed batch to the last, so the
        registry load the first batch pays is left out.
        """
        picks = self._picks(count)
        done = np.zeros(count)
        server = ImputationServer(self.registry, ServeConfig())
        futures = [self._submit(server, pick, done, i) for i, pick in enumerate(picks)]
        server.start()
        try:
            responses = self._responses(futures)
        finally:
            server.shutdown(drain=True, timeout=60)
        first_batch = responses[0].coalesced
        return {
            "count": count,
            "failures": self._failures(picks, responses),
            "throughput": (count - first_batch) / (done.max() - done.min()),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown(drain=True, timeout=60)
            self.server = None
        shutil.rmtree(self.registry_path, ignore_errors=True)


# (phase, offered rate, share of --seconds per window); three windows each,
# so at the default 20 s a window holds 1333 or 2000 requests and its p99
# has at least ten samples beyond it.
SERVE_PHASES = (("r400", 400.0, 1 / 6), ("r800", 800.0, 1 / 8))
DRAIN_REQUESTS = 20_000  # per drain
DRAINS = 5  # throughput is the median drain rate
SERVE_LADDER = (400.0, 800.0, 1600.0)
SERVE_P99_LIMIT_MS = 50.0


def _median_of(windows: List[dict], key: str) -> dict:
    values = [w[key] for w in windows]
    return {"value": statistics.median(values), "spread": quantile_spread(values),
            "n": sum(w["count"] for w in windows)}


def run_serve(args, workdir: Path) -> dict:
    result = {"attempted": 0, "failed": 0, "e2e": {}, "layers": {}}
    tracer = Tracer()
    setups: List[float] = []
    workload: Optional[Serve] = None
    drain_requests = 300 if args.quick else DRAIN_REQUESTS
    try:
        for _ in range(1 if args.trace else SETUPS):
            if workload is not None:
                workload.close()
            start = time.perf_counter()
            workload = Serve(args.seed, args.quick, workdir)
            if args.trace:
                setup_recorder = InMemoryRecorder()
                tracer.install()
                try:
                    with recording(setup_recorder):
                        setup_layers = workload.setup()
                finally:
                    tracer.uninstall()
            else:
                setup_layers = workload.setup()
            setups.append(time.perf_counter() - start)

        def tally(outcome: dict) -> dict:
            result["attempted"] += outcome["count"]
            result["failed"] += outcome["failures"]
            return outcome

        def run_window(rate: float, seconds: float) -> dict:
            return tally(workload.window(rate, seconds))

        start = time.perf_counter()
        run_window(400.0, min(0.5, args.seconds / 6))
        warmup_s = time.perf_counter() - start

        if not args.trace:
            phases = {
                phase: [run_window(rate, args.seconds * share) for _ in range(3)]
                for phase, rate, share in SERVE_PHASES
            }
            drains = [tally(workload.drain(drain_requests)) for _ in range(DRAINS)]
            lag_ms = np.concatenate([w["lag_ms"] for w in phases["r400"]])
            gen_lag = float(np.percentile(lag_ms, 99))
            if gen_lag > GEN_LAG_LIMIT_MS:
                result["invalid"] = (
                    f"load generator p99 lag {gen_lag:.2f} ms exceeds "
                    f"{GEN_LAG_LIMIT_MS} ms at 400 rps"
                )
            e2e = result["e2e"]
            e2e["setup_s"] = metric(statistics.median(setups), "s", len(setups), quantile_spread(setups))
            tput = _median_of(drains, "throughput")
            e2e["rows_per_s"] = metric(tput["value"], "rows/s", tput["n"], tput["spread"])
            for name, phase, key in (
                ("p50_ms", "r400", "p50_ms"),
                ("p99_ms", "r400", "p99_ms"),
                ("p99_ms.r800", "r800", "p99_ms"),
            ):
                summary = _median_of(phases[phase], key)
                e2e[name] = metric(summary["value"], "ms", summary["n"], summary["spread"])
            e2e["failed_frac"] = metric(result["failed"] / result["attempted"], "1", result["attempted"])
            e2e["peak_rss_mb"] = metric(peak_rss_mb(), "MB", 1)
            result["gen_lag_p99_ms"] = gen_lag
            return result

        reference = run_window(400.0, args.seconds / 6)
        recorders = []
        traced = {}
        wall = 0.0
        tracer.install()
        try:
            for rate in SERVE_LADDER:
                recorders.append(InMemoryRecorder())
                with recording(recorders[-1]):
                    start = time.perf_counter()
                    traced[rate] = run_window(rate, args.seconds / 6)
                    wall += time.perf_counter() - start
        finally:
            tracer.uninstall()
        counters: Dict[str, float] = {}
        for recorder in recorders:
            for name, value in recorder.metrics.snapshot()["counters"].items():
                counters[name] = counters.get(name, 0.0) + value
        layers = layer_metrics_from_counters(counters)
        layers.update(setup_layers)
        setup_counters = setup_recorder.metrics.snapshot()["counters"]
        layers["serve.registry_load_s"] = layer_metrics_from_counters(setup_counters)[
            "serve.registry_load_s"
        ]
        for rate, suffix in zip(SERVE_LADDER, ("", ".r800", ".r1600")):
            for key in ("queue_ms", "service_ms", "coalesced", "batches"):
                layers[f"serve.{key}{suffix}"] = traced[rate][key]
        sustained = [
            rate
            for rate in SERVE_LADDER
            if traced[rate]["p99_ms"] <= SERVE_P99_LIMIT_MS
            and traced[rate]["throughput"] >= 0.9 * rate
        ]
        layers["serve.max_rate_rps"] = max(sustained, default=0.0)
        attributed = counters.get("perf:attributed_s", 0.0)
        layers["bench.attributed_frac"] = attributed / wall
        layers["bench.unattributed_s"] = wall - attributed
        layers["bench.trace_overhead_frac"] = traced[400.0]["p50_ms"] / reference["p50_ms"] - 1.0
        layers["bench.warmup_s"] = warmup_s
        layers["bench.gen_lag_p99_ms"] = float(np.percentile(reference["lag_ms"], 99))
        result["layers"] = layers
        write_trace(args.workload, args.seed, recorders)
        return result
    finally:
        if workload is not None:
            workload.close()


# ----------------------------------------------------------------------
def write_trace(workload: str, seed: int, recorders: List[InMemoryRecorder]) -> None:
    """Spans of the traced section(s), written once at the end of the run."""
    spans = [
        {"t": event.t, **event.fields}
        for recorder in recorders
        for event in recorder.events
        if event.name == "perf.span"
    ]
    dropped = sum(recorder.dropped_events for recorder in recorders)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace_{workload}.json"
    path.write_text(
        json.dumps({"workload": workload, "seed": seed, "dropped_events": dropped, "spans": spans})
    )


RUNNERS: Dict[str, Callable] = {
    "scis": functools.partial(run_table, Scis),
    "otdirect": functools.partial(run_table, OtDirect),
    "sharded": functools.partial(run_table, Sharded),
    "serve": run_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as tmp:
        result = RUNNERS[args.workload](args, Path(tmp))
    if args.trace:
        result["layers"] = {
            name: {"value": float(result["layers"].get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    result.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        numpy=np.__version__,
        backend=get_backend().name,
        workers=pool_workers(),
    )
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
