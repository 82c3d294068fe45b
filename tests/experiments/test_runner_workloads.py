"""Tests for the experiment runner, workload generation and reporting."""

import pytest

from repro import api
from repro.chaos import ChaosPlan
from repro.consensus.config import ConsensusConfig
from repro.consensus.mempool import Mempool
from repro.crypto.params import TOY_PARAMS
from repro.experiments import specs
from repro.experiments.report import format_rows, series
from repro.experiments.runner import build_deployment, summarise
from repro.experiments.workloads import ClientWorkload
from repro.scenarios.engine import attach_chaos
from repro.simnet.events import Simulator


class TestClientWorkload:
    def test_schedules_expected_number_of_requests(self):
        simulator = Simulator()
        mempool = Mempool()
        workload = ClientWorkload(rate=1000, payload_size=64, arrival="uniform")
        workload.attach(simulator, mempool, duration=1.0)
        simulator.run(until=1.0)
        assert mempool.submitted_count == pytest.approx(1000, abs=2)

    def test_poisson_arrivals_close_to_rate(self):
        simulator = Simulator()
        mempool = Mempool()
        ClientWorkload(rate=2000, seed=1).attach(simulator, mempool, duration=1.0)
        simulator.run(until=1.0)
        assert 1700 < mempool.submitted_count < 2300

    def test_zero_rate_schedules_nothing(self):
        simulator = Simulator()
        mempool = Mempool()
        ClientWorkload(rate=0).attach(simulator, mempool, 1.0)
        simulator.run(until=1.0)
        assert mempool.submitted_count == 0

    def test_requests_attributed_to_clients(self):
        simulator = Simulator()
        mempool = Mempool()
        ClientWorkload(rate=100, num_clients=4, arrival="uniform").attach(simulator, mempool, 0.5)
        simulator.run(until=0.5)
        batch = mempool.next_batch(100)
        assert {request.client_id for request in batch} == {0, 1, 2, 3}
        assert all(request.size_bytes == 64 for request in batch)



def _spec(aggregation, seed, duration, warmup, rate, committee_size=5, view_timeout=0.25):
    return specs.testbed_base(
        "runner", duration=duration, warmup=warmup, seed=seed, batch_size=10,
        view_timeout=view_timeout,
    ).with_(aggregation=aggregation, committee={"size": committee_size}, workload={"rate": rate})


class TestRunner:
    def test_build_deployment_wires_everything(self):
        config = ConsensusConfig(committee_size=5, aggregation="star")
        deployment = build_deployment(config)
        assert len(deployment.replicas) == 5
        assert deployment.network.process_ids == (0, 1, 2, 3, 4)
        assert deployment.mempool.metrics is deployment.metrics

    def test_bls_backend_selectable(self):
        config = ConsensusConfig(committee_size=4, aggregation="star", signature_scheme="bls")
        deployment = build_deployment(config)
        assert type(deployment.committee.scheme).__name__ == "BlsMultiSig"
        assert deployment.committee.scheme.params is TOY_PARAMS
        hashsig = build_deployment(config.with_(signature_scheme="hashsig"))
        assert hashsig.committee.scheme.params is None

    def test_run_returns_consistent_result(self):
        result = api.run(_spec("star", seed=1, duration=1.0, warmup=0.2, rate=500)).metrics
        assert result.committed_operations > 0
        assert result.throughput > 0
        assert result.successful_views <= result.total_views
        assert 0 <= result.cpu_utilisation_mean <= result.cpu_utilisation_max <= 1
        assert result.message_counters["messages_sent"] > 0

    def test_failure_plan_reduces_throughput(self):
        spec = _spec(
            "iniva", seed=2, duration=1.5, warmup=0.2, rate=1000, committee_size=7,
            view_timeout=0.1,
        )
        healthy = api.run(spec).metrics
        deployment = api.deploy(spec)
        attach_chaos(
            deployment.replicas,
            deployment.network,
            ChaosPlan(seed=0, crashes={1: 0.0, 3: 0.0}),
        )
        deployment.start()
        deployment.simulator.run(until=spec.duration)
        faulty = summarise(deployment, spec.duration)
        assert faulty.throughput < healthy.throughput
        assert faulty.failed_view_fraction >= healthy.failed_view_fraction

    def test_result_row_is_flat(self):
        result = api.run(_spec("star", seed=3, duration=0.8, warmup=0.1, rate=500)).metrics
        row = result.row()
        assert set(row) == {
            "throughput_ops_per_sec",
            "latency_mean_ms",
            "latency_p90_ms",
            "failed_views_pct",
            "avg_qc_size",
            "cpu_mean_pct",
            "cpu_max_pct",
        }


class TestReport:
    def test_format_rows_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_rows(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 2 + 2 + 1  # title + header + separator + 2 rows

    def test_format_empty(self):
        assert "(no data)" in format_rows([], title="empty")

    def test_series_grouping(self):
        rows = [
            {"scheme": "a", "x": 2, "y": 20},
            {"scheme": "a", "x": 1, "y": 10},
            {"scheme": "b", "x": 1, "y": 5},
        ]
        grouped = series(rows, key="scheme", x="x", y="y")
        assert grouped["a"] == [(1, 10), (2, 20)]
        assert grouped["b"] == [(1, 5)]


class TestExport:
    def test_rows_to_csv_roundtrip(self, tmp_path):
        from repro.experiments.report import rows_to_csv

        rows = [{"scheme": "Iniva", "x": 1, "y": 2.5}, {"scheme": "HotStuff", "x": 2, "y": 3.0}]
        path = tmp_path / "figure.csv"
        text = rows_to_csv(rows, path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0] == "scheme,x,y"
        assert len(lines) == 3

    def test_rows_to_csv_empty(self):
        from repro.experiments.report import rows_to_csv

        assert rows_to_csv([]) == ""

    def test_rows_to_json(self, tmp_path):
        import json

        from repro.experiments.report import rows_to_json

        rows = [{"scheme": "Iniva", "value": 0.01}]
        path = tmp_path / "figure.json"
        text = rows_to_json(rows, path)
        assert json.loads(text) == rows
        assert json.loads(path.read_text()) == rows
