"""Tests of the benchmark harness itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest perf/tests``
(tier-1's ``testpaths`` does not include them).  They use ``--quick`` sizes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))

import catalog  # noqa: E402
import compare  # noqa: E402
import tracer  # noqa: E402
from repro.bench.runner import prepare_case  # noqa: E402
from repro.core import SCIS, DimConfig, DimImputer, ScisConfig  # noqa: E402
from repro.data import MinMaxNormalizer, generate  # noqa: E402
from repro.models import GAINImputer, SinkhornImputer  # noqa: E402
from repro.obs import InMemoryRecorder, recording  # noqa: E402
from repro.parallel import ExecutionContext  # noqa: E402

QUICK_SHARDS = math.ceil(100_000 / 8192)


def run_benchmark(out: Path, *extra: str, cwd: Path = catalog.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), "--quick", "--out", str(out), *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "run.json"
    done = run_benchmark(out, "--traced")
    assert done.returncode == 0, done.stderr[-4000:]
    return json.loads(out.read_text()), done.stdout


def test_every_contract_metric_is_emitted_with_its_unit(traced_run):
    report, stdout = traced_run
    contract = catalog.load_contract()
    for workload in catalog.WORKLOADS:
        entry = report["workloads"][workload]
        for spec in contract["end_to_end"]:
            item = entry["e2e"][spec["name"]]
            assert item["unit"] == spec["unit"], (workload, spec["name"])
            assert item["value"] > 0 and item["n"] >= 1, (workload, spec["name"])
        for spec in contract["per_layer"]:
            assert entry["layers"][spec["name"]]["unit"] == spec["unit"], (workload, spec["name"])
        for name, spec in catalog.EXTRA_END_TO_END.items():
            if workload in spec["workloads"]:
                assert entry["e2e"][name]["unit"] == spec["unit"], (workload, name)
        assert set(entry["layers"]) == set(catalog.LAYER_UNITS)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert set(last["metrics"]) == {f"{w}/{n}" for w in catalog.WORKLOADS for n in names}
    assert report["guard"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_tracer_restores_every_patched_attribute():
    patched = [(owner, attr) for owner, attr, *_ in tracer.TARGETS] + [(ExecutionContext, "run")]
    originals = [owner.__dict__[attr] for owner, attr in patched]
    generated = generate("trial", n_samples=120, seed=0)
    dataset = MinMaxNormalizer().fit_transform(generated.dataset)
    recorder = InMemoryRecorder()
    layer_tracer = tracer.Tracer()
    layer_tracer.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(patched, originals))
        with recording(recorder):
            DimImputer(GAINImputer(epochs=1), DimConfig(epochs=1)).fit(dataset)
    finally:
        layer_tracer.uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(patched, originals))
    counters = recorder.metrics.snapshot()["counters"]
    assert counters["perf:dim.train:calls"] == 1
    assert counters["perf:ot.sinkhorn:calls"] > 0 and counters["perf:nn.forward:calls"] > 0


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs for two workers")
def test_worker_counters_are_absorbed(traced_run):
    report, _ = traced_run
    assert report["guard"]["pool_workers"] == 2
    sharded = report["workloads"]["sharded"]["layers"]
    assert sharded["data.shards.reads"]["value"] == QUICK_SHARDS
    assert sharded["parallel.task_s"]["value"] > 0
    assert sharded["nn.infer_rows"]["value"] > 0
    otdirect = report["workloads"]["otdirect"]["layers"]
    assert otdirect["ot.sinkhorn_sweeps"]["value"] > 0


def test_traced_runs_repeat_work_counters(traced_run, tmp_path):
    out = tmp_path / "again.json"
    done = run_benchmark(out, "--trace", "1")
    assert done.returncode == 0, done.stderr[-4000:]
    again = json.loads(out.read_text())
    first, _ = traced_run
    for workload in catalog.TABLE_WORKLOADS:
        for counter in catalog.DETERMINISTIC_COUNTERS:
            assert (
                first["workloads"][workload]["layers"][counter]["value"]
                == again["workloads"][workload]["layers"][counter]["value"]
            ), (workload, counter)
    assert not [line for line in compare.compare(first, again) if line.startswith("!")]


def test_quality_matches_a_direct_library_call(traced_run):
    report, _ = traced_run
    case = prepare_case("trial", n_samples=20_000, seed=0)
    dim = DimConfig(epochs=2, batch_size=64, sinkhorn_max_iter=50, use_adversarial=False)
    config = ScisConfig(initial_size=1000, error_bound=0.05, dim=dim, workers=1)
    result = SCIS(GAINImputer(epochs=2), config).fit_transform(case.train)
    scis = report["workloads"]["scis"]["e2e"]
    assert scis["rmse"]["value"] == case.holdout.rmse(result.imputed)
    assert scis["sample_rate"]["value"] == result.sample_rate

    case = prepare_case("trial", n_samples=256, seed=0)
    imputer = SinkhornImputer(epochs=2, batch_size=128, sinkhorn_max_iter=50, mlp_epochs=1)
    imputed = imputer.fit_transform(case.train)
    assert report["workloads"]["otdirect"]["e2e"]["rmse"]["value"] == case.holdout.rmse(imputed)


def test_compare_classifies_against_bounds():
    base = {"value": 100.0, "spread": 0.01}
    assert compare.classify(base, {"value": 105.0}, "lower", 0.1) == "unchanged"
    assert compare.classify(base, {"value": 120.0}, "lower", 0.1) == "regressed"
    assert compare.classify(base, {"value": 120.0}, "higher", 0.1) == "better"
    assert compare.classify(base, {"value": 120.0, "spread": 0.3}, "lower", 0.1) == "unresolved"
    assert compare.classify({"value": 0.0}, {"value": 0.01}, "lower", 0.0) == "regressed"
    assert compare.classify({"value": 0.002}, {"value": 0.05}, "lower", 0.25, 0.1) == "unchanged"


def test_compare_fails_on_a_regression_or_a_counter_mismatch(traced_run, tmp_path):
    report, _ = traced_run
    same = tmp_path / "same.json"
    same.write_text(json.dumps(report))
    assert compare.main([str(same), str(same)]) == 0

    slower = json.loads(json.dumps(report))
    slower["workloads"]["scis"]["e2e"]["rows_per_s"].update(value=1.0, spread=None)
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    assert compare.main([str(same), str(path)]) == 1

    drifted = json.loads(json.dumps(report))
    drifted["workloads"]["otdirect"]["layers"]["ot.sinkhorn_sweeps"]["value"] += 1
    path.write_text(json.dumps(drifted))
    assert compare.main([str(same), str(path)]) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(catalog.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "scis", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
