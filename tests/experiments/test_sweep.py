"""Tests for the sweep pool and the figure grids built on it."""

from __future__ import annotations

import pytest

from repro import api
from repro.experiments.runner import default_sweep_workers, parallel_map
from repro.experiments.scalability import figure_3c


class TestRunSweep:
    def test_empty_sweep(self):
        assert api.sweep({"name": "empty-grid"}, []) == []

    def test_worker_count_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert default_sweep_workers() == 3
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        assert default_sweep_workers() == 1

    def test_bad_worker_count_env_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_MAX_WORKERS.*'abc'"):
            default_sweep_workers()
        with pytest.raises(ValueError, match="REPRO_MAX_WORKERS"):
            parallel_map(abs, [1, -2])


class TestFigure3cSweep:
    def test_rows_cover_the_grid(self):
        rows = figure_3c(
            replica_counts=[5],
            payload_sizes=(0,),
            batch_size=10,
            load=500.0,
            duration=0.5,
            warmup=0.1,
            max_workers=1,
        )
        assert len(rows) == 2  # HotStuff + Iniva
        assert {row["scheme"] for row in rows} == {"HotStuff", "Iniva"}
        for row in rows:
            assert row["replicas"] == 5
            assert "throughput_ops" in row and "latency_ms" in row
