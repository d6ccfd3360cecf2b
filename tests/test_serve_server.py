"""ImputationServer: coalescing, pass-through, error isolation, JSONL loop."""

import io
import json

import numpy as np
import pytest

from repro.data import MinMaxNormalizer, generate, read_csv, write_csv
from repro.models import GAINImputer, MeanImputer
from repro.obs import recording, trace_to_dict
from repro.serve import (
    ImputationServer,
    ModelRegistry,
    ServeConfig,
    serve_jsonl,
)


@pytest.fixture
def served(tmp_path):
    """A registry with a GAIN and a mean entry, plus the raw dataset."""
    generated = generate("trial", n_samples=60, seed=0)
    normalizer = MinMaxNormalizer()
    normalized = normalizer.fit_transform(generated.dataset)
    registry = ModelRegistry(tmp_path / "registry")
    gain = GAINImputer(epochs=2, seed=0)
    gain.fit(normalized)
    gain_key = registry.save(
        gain, dataset=generated.dataset, normalizer=normalizer
    ).key
    mean_key = registry.save(
        MeanImputer().fit(normalized),
        dataset=generated.dataset,
        normalizer=normalizer,
    ).key
    return registry, generated.dataset, gain_key, mean_key


def _server(registry, **config_kwargs):
    config_kwargs.setdefault("batch_window_seconds", 0.002)
    return ImputationServer(registry, config=ServeConfig(**config_kwargs))


class TestServing:
    def test_single_row_passthrough_and_finite(self, served):
        registry, dataset, gain_key, _ = served
        server = _server(registry).start()
        try:
            row = dataset.values[0].copy()
            response = server.impute_rows(gain_key, row, timeout=60)
            assert response.ok
            mask = ~np.isnan(row)
            # Observed cells pass through bit-exactly; missing cells filled.
            np.testing.assert_array_equal(row[mask], response.values[0][mask])
            assert np.isfinite(response.values).all()
        finally:
            server.shutdown()

    def test_burst_coalesces_into_one_batch(self, served):
        registry, dataset, _, mean_key = served
        with recording() as rec:
            server = _server(registry)
            rows = [dataset.values[i].copy() for i in range(6)]
            # Enqueue before start: the dispatcher's first drain must
            # coalesce all six into a single model invocation.
            futures = [server.submit(mean_key, row) for row in rows]
            server.start()
            responses = [f.result(timeout=60) for f in futures]
            server.shutdown()
        assert all(r.ok for r in responses)
        assert all(r.coalesced == 6 for r in responses)
        trace = trace_to_dict(rec)
        batches = [e for e in trace["events"] if e["name"] == "serve.batch"]
        assert len(batches) == 1
        assert batches[0]["fields"]["n_requests"] == 6
        requests = [e for e in trace["events"] if e["name"] == "serve.request"]
        assert len(requests) == 6
        assert all(e["fields"]["coalesced"] == 6 for e in requests)
        assert trace["metrics"]["counters"]["serve.requests"] == 6
        assert trace["metrics"]["counters"]["serve.batches"] == 1
        assert "serve.queue_depth" in trace["metrics"]["gauges"]

    def test_batch_respects_max_batch_requests(self, served):
        registry, dataset, _, mean_key = served
        server = _server(registry, max_batch_requests=2)
        futures = [
            server.submit(mean_key, dataset.values[i].copy()) for i in range(5)
        ]
        server.start()
        responses = [f.result(timeout=60) for f in futures]
        server.shutdown()
        assert all(r.ok for r in responses)
        assert max(r.coalesced for r in responses) <= 2

    def test_bulk_csv(self, served, tmp_path):
        registry, dataset, gain_key, _ = served
        in_path = tmp_path / "in.csv"
        out_path = tmp_path / "out.csv"
        write_csv(dataset.take(list(range(10)), name="bulk"), in_path)
        server = _server(registry).start()
        try:
            response = server.impute_csv(gain_key, str(in_path), str(out_path))
        finally:
            server.shutdown()
        assert response.ok
        assert response.values.shape[0] == 10
        completed = read_csv(out_path)
        assert completed.missing_rate == 0.0
        raw = read_csv(in_path).values
        mask = ~np.isnan(raw)
        np.testing.assert_allclose(
            raw[mask], completed.values[mask], rtol=0, atol=1e-9
        )

    def test_unknown_key_fails_request_not_server(self, served):
        registry, dataset, gain_key, _ = served
        server = _server(registry).start()
        try:
            bad = server.impute_rows("nope", dataset.values[0].copy(), timeout=60)
            assert not bad.ok
            assert "nope" in bad.error
            good = server.impute_rows(gain_key, dataset.values[0].copy(), timeout=60)
            assert good.ok  # the server survived the bad request
        finally:
            server.shutdown()

    def test_width_mismatch_names_key(self, served):
        registry, _, gain_key, _ = served
        server = _server(registry).start()
        try:
            bad = server.impute_rows(gain_key, np.array([1.0, np.nan]), timeout=60)
        finally:
            server.shutdown()
        assert not bad.ok
        assert gain_key in bad.error
        assert "2" in bad.error

    def test_shutdown_drains_queued_requests(self, served):
        registry, dataset, _, mean_key = served
        server = _server(registry)
        futures = [
            server.submit(mean_key, dataset.values[i].copy()) for i in range(4)
        ]
        server.start()
        server.shutdown(drain=True)
        responses = [f.result(timeout=60) for f in futures]
        assert all(r.ok for r in responses)
        assert server.served_requests == 4

    def test_submit_after_shutdown_raises(self, served):
        registry, dataset, _, mean_key = served
        server = _server(registry).start()
        server.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            server.submit(mean_key, dataset.values[0].copy())

    def test_lru_eviction_emits_event(self, served):
        registry, dataset, gain_key, mean_key = served
        with recording() as rec:
            server = _server(registry, max_models=1).start()
            try:
                assert server.impute_rows(gain_key, dataset.values[0].copy(), timeout=60).ok
                assert server.impute_rows(mean_key, dataset.values[0].copy(), timeout=60).ok
                # gain was evicted; using it again transparently reloads.
                assert server.impute_rows(gain_key, dataset.values[1].copy(), timeout=60).ok
            finally:
                server.shutdown()
        trace = trace_to_dict(rec)
        evictions = [e for e in trace["events"] if e["name"] == "serve.evict"]
        assert len(evictions) >= 2
        assert evictions[0]["fields"]["key"] == gain_key

    def test_reload_picks_up_same_key_reregistration(self, served):
        registry, dataset, gain_key, _ = served
        row = dataset.values[np.isnan(dataset.values).any(axis=1)][0].copy()
        loads = []
        load = registry.load
        registry.load = lambda key: loads.append(key) or load(key)
        server = _server(registry).start()
        try:
            before = server.impute_rows(gain_key, row, timeout=60)
            # Same constructor config and schema but fewer training rows:
            # the same key now names different weights.
            normalizer = MinMaxNormalizer()
            normalized = normalizer.fit_transform(dataset)
            retrained = GAINImputer(epochs=2, seed=0).fit(normalized.take(list(range(30))))
            entry = registry.save(retrained, dataset=dataset, normalizer=normalizer)
            assert entry.key == gain_key
            stale = server.impute_rows(gain_key, row, timeout=60)
            server.reload()
            after = server.impute_rows(gain_key, row, timeout=60)
        finally:
            server.shutdown()
        assert loads == [gain_key, gain_key]  # first use, then after reload()
        assert before.ok and stale.ok and after.ok
        np.testing.assert_array_equal(stale.values, before.values)
        assert not np.array_equal(after.values, before.values)
        fresh = _server(ModelRegistry(registry.root)).start()
        try:
            expected = fresh.impute_rows(gain_key, row, timeout=60)
        finally:
            fresh.shutdown()
        np.testing.assert_array_equal(after.values, expected.values)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch_requests"):
            ServeConfig(max_batch_requests=0)
        with pytest.raises(ValueError, match="batch_window_seconds"):
            ServeConfig(batch_window_seconds=-1.0)


class TestJsonl:
    def _run(self, served, lines, tmp_path=None):
        registry, _, _, _ = served
        server = _server(registry)
        out = io.StringIO()
        stats = serve_jsonl(server, io.StringIO("".join(lines)), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        return stats, {r["id"]: r for r in responses}, server

    def test_full_protocol(self, served, tmp_path):
        registry, dataset, gain_key, _ = served
        in_path, out_path = tmp_path / "b.csv", tmp_path / "b_out.csv"
        write_csv(dataset.take([0, 1, 2], name="bulk"), in_path)
        row = [
            None if np.isnan(v) else float(v) for v in dataset.values[0]
        ]
        lines = [
            json.dumps({"op": "ping", "id": "p"}) + "\n",
            json.dumps({"op": "keys", "id": "k"}) + "\n",
            json.dumps({"op": "impute", "id": "i", "key": gain_key, "rows": [row]}) + "\n",
            json.dumps(
                {
                    "op": "impute_csv",
                    "id": "c",
                    "key": gain_key,
                    "input": str(in_path),
                    "output": str(out_path),
                }
            )
            + "\n",
            json.dumps({"op": "shutdown", "id": "s"}) + "\n",
        ]
        stats, by_id, server = self._run(served, lines)
        assert by_id["p"]["op"] == "pong"
        assert gain_key in by_id["k"]["keys"]
        assert by_id["i"]["ok"] and len(by_id["i"]["rows"]) == 1
        assert all(c is not None for c in by_id["i"]["rows"][0])
        assert by_id["c"]["ok"] and by_id["c"]["n_rows"] == 3
        assert out_path.exists()
        # The shutdown ack arrives last, after every response has drained.
        assert by_id["s"]["ok"]
        assert by_id["s"]["served_requests"] == server.served_requests
        assert stats["errors"] == 0

    def test_eof_is_graceful_shutdown(self, served):
        registry, dataset, gain_key, _ = served
        row = [None if np.isnan(v) else float(v) for v in dataset.values[0]]
        lines = [
            json.dumps({"op": "impute", "id": "i", "key": gain_key, "rows": [row]})
            + "\n"
        ]
        stats, by_id, _ = self._run(served, lines)
        assert by_id["i"]["ok"]  # response written even though no shutdown op
        assert stats["responses"] == 1

    def test_bad_requests_answered_not_fatal(self, served):
        registry, dataset, gain_key, _ = served
        row = [None if np.isnan(v) else float(v) for v in dataset.values[0]]
        lines = [
            "not json\n",
            json.dumps({"op": "wat", "id": "w"}) + "\n",
            json.dumps({"op": "impute", "id": "m"}) + "\n",  # missing key/rows
            json.dumps({"op": "impute", "id": "i", "key": gain_key, "rows": [row]})
            + "\n",
        ]
        stats, by_id, _ = self._run(served, lines)
        assert stats["errors"] == 3
        assert by_id["i"]["ok"]  # the valid request still served

    def test_null_cells_are_missing_and_filled(self, served):
        registry, dataset, gain_key, _ = served
        width = dataset.n_features
        row = [None] * width
        lines = [
            json.dumps({"op": "impute", "id": "n", "key": gain_key, "rows": [row]})
            + "\n"
        ]
        _, by_id, _ = self._run(served, lines)
        assert by_id["n"]["ok"]
        assert all(isinstance(c, float) for c in by_id["n"]["rows"][0])
