"""Tests for the ``repro.api`` facade: run/sweep/figure/deploy + RunResult."""

from __future__ import annotations

import json

import pytest

import repro
from repro import api
from repro.results import RESULT_SCHEMA, RunResult
from repro.scenarios import load_preset, run_scenario
from repro.scenarios.spec import ScenarioSpec


SMALL_SPEC = {
    "name": "facade-small",
    "duration": 0.6,
    "warmup": 0.1,
    "committee": {"size": 7},
    "workload": {"rate": 1000.0},
}


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------
class TestPublicSurface:
    def test_curated_exports(self):
        assert repro.ScenarioSpec is ScenarioSpec
        assert repro.RunResult is RunResult
        assert callable(repro.run) and callable(repro.sweep)
        assert callable(repro.figure) and callable(repro.deploy)
        assert "partition-heal" in repro.list_presets()
        assert "fig3c" in repro.list_figures()
        assert repro.__version__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


# ---------------------------------------------------------------------------
# Spec resolution
# ---------------------------------------------------------------------------
class TestResolveSpec:
    def test_accepts_spec_preset_dict_and_file(self, tmp_path):
        spec = api.resolve_spec(SMALL_SPEC)
        assert spec.name == "facade-small"
        assert api.resolve_spec(spec) is spec
        assert api.resolve_spec("partition-heal") == load_preset("partition-heal")
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json())
        assert api.resolve_spec(str(path)) == spec
        assert api.resolve_spec(path) == spec

    def test_unknown_preset_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="unknown scenario preset"):
            api.resolve_spec("no-such-preset")

    def test_missing_spec_file_raises(self):
        with pytest.raises(FileNotFoundError, match="spec file not found"):
            api.resolve_spec("missing_campaign.json")


# ---------------------------------------------------------------------------
# run()
# ---------------------------------------------------------------------------
class TestRun:
    def test_run_is_deterministic_under_fixed_seed(self):
        first = api.run(SMALL_SPEC)
        second = api.run(SMALL_SPEC)
        assert first.rows() == second.rows()
        assert first.metrics == second.metrics

    def test_seed_override_changes_the_run(self):
        base = api.run(SMALL_SPEC)
        other = api.run(SMALL_SPEC, seed=99)
        assert other.seed == 99
        assert base.rows() != other.rows()

    def test_facade_matches_engine_shim_on_preset(self):
        # shim-vs-facade equivalence: the old run_scenario entry point and
        # the facade must agree bit for bit on a built-in preset.
        facade = api.run("partition-heal", quick=True)
        shim = run_scenario(load_preset("partition-heal"), quick=True)
        assert facade.rows() == shim.rows()
        assert facade.summary() == shim.summary()

    def test_quick_shrinks_the_spec(self):
        result = api.run("crash-storm", quick=True)
        assert result.spec.duration <= 3.0
        assert result.spec.committee.size <= 13


# ---------------------------------------------------------------------------
# RunResult JSON schema
# ---------------------------------------------------------------------------
class TestRunResultSchema:
    def test_json_round_trip(self):
        result = api.run("omission-cartel", quick=True)
        document = result.to_json()
        restored = RunResult.from_json(document)
        assert restored == result
        assert restored.rows() == result.rows()

    def test_document_shape(self):
        result = api.run(SMALL_SPEC)
        doc = json.loads(result.to_json())
        assert doc["schema"] == RESULT_SCHEMA
        assert doc["spec"]["name"] == "facade-small"
        assert doc["seed"] == result.seed
        assert "epochs" not in doc
        assert "latency" in doc["metrics"]
        assert doc["metrics"]["committed_blocks"] == result.metrics.committed_blocks
        assert doc["summary"]["committed_blocks"] > 0

    def test_wrong_schema_rejected(self):
        result = api.run(SMALL_SPEC)
        doc = result.to_dict()
        for version in (1, 999):
            doc["schema"] = f"repro.run-result/{version}"
            with pytest.raises(ValueError, match="unsupported result schema"):
                RunResult.from_dict(doc)

    def test_attackers_round_trip(self):
        result = api.run("omission-cartel", quick=True)
        assert len(result.attackers) == 4
        assert RunResult.from_json(result.to_json()).attackers == result.attackers


# ---------------------------------------------------------------------------
# sweep()
# ---------------------------------------------------------------------------
class TestSweep:
    def test_expand_grid_product_order_and_dotted_paths(self):
        cells = api.expand_grid({"aggregation": ["star", "iniva"], "workload.rate": [1, 2]})
        assert cells == [
            {"aggregation": "star", "workload": {"rate": 1}},
            {"aggregation": "star", "workload": {"rate": 2}},
            {"aggregation": "iniva", "workload": {"rate": 1}},
            {"aggregation": "iniva", "workload": {"rate": 2}},
        ]
        assert api.expand_grid(None) == [{}]
        assert api.expand_grid([{"seed": 5}]) == [{"seed": 5}]

    def test_expand_grid_scalars_are_single_values(self):
        # A bare string must not fan out per character, and scalar /
        # mapping values count as one cell each.
        assert api.expand_grid({"aggregation": "star"}) == [{"aggregation": "star"}]
        assert api.expand_grid({"seed": 5}) == [{"seed": 5}]
        assert api.expand_grid({"faults": {"crashes": 2}}) == [{"faults": {"crashes": 2}}]
        assert api.expand_grid({"aggregation": "star", "seed": [1, 2]}) == [
            {"aggregation": "star", "seed": 1},
            {"aggregation": "star", "seed": 2},
        ]

    def test_sweep_matches_individual_runs(self):
        grid = {"aggregation": ["star", "iniva"]}
        swept = api.sweep(SMALL_SPEC, grid, max_workers=1)
        direct = [
            api.run(api.resolve_spec(SMALL_SPEC).with_(aggregation=agg))
            for agg in ("star", "iniva")
        ]
        assert [r.rows() for r in swept] == [r.rows() for r in direct]
        assert [r.spec.aggregation for r in swept] == ["star", "iniva"]

    def test_parallel_matches_serial(self):
        grid = [{"seed": 1}, {"seed": 2}]
        serial = api.sweep(SMALL_SPEC, grid, max_workers=1)
        parallel = api.sweep(SMALL_SPEC, grid, max_workers=2)
        assert [r.rows() for r in serial] == [r.rows() for r in parallel]

    def test_sweep_quick_applies_shrink(self):
        runs = api.sweep("crash-storm", [{"seed": 3}], quick=True, max_workers=1)
        assert runs[0].spec.committee.size <= 13


# ---------------------------------------------------------------------------
# figure()
# ---------------------------------------------------------------------------
class TestFigure:
    def test_every_figure_has_a_quick_profile(self):
        assert set(api.QUICK_PROFILES) == set(api.FIGURES)

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError, match="unknown figure"):
            api.figure("fig99")

    def test_figure_matches_direct_call(self):
        from repro.experiments.scalability import figure_3c

        artifact = api.figure(
            "fig3c", seed=3, replica_counts=(5,), payload_sizes=(64,), batch_size=20,
            load=1500, duration=0.6, warmup=0.1, max_workers=1,
        )
        direct = figure_3c(
            seed=3, replica_counts=(5,), payload_sizes=(64,), batch_size=20,
            load=1500, duration=0.6, warmup=0.1, max_workers=1,
        )
        assert artifact.rows == direct
        assert artifact.name == "fig3c"
        assert artifact.series_key == "scheme"


# ---------------------------------------------------------------------------
# deploy()
# ---------------------------------------------------------------------------
class TestDeploy:
    def test_deploy_returns_wired_unstarted_deployment(self):
        deployment = api.deploy(SMALL_SPEC)
        assert len(deployment.replicas) == 7
        assert deployment.simulator.now == 0.0
        deployment.start()
        deployment.simulator.run(until=0.5)
        assert deployment.metrics.committed_blocks() > 0


# ---------------------------------------------------------------------------
# scheme params through the spec
# ---------------------------------------------------------------------------
class TestSchemeParams:
    def test_scheme_params_reach_the_config(self):
        spec = api.resolve_spec(SMALL_SPEC).with_(
            aggregation="gosig", scheme_params={"gossip_fanout": 3, "gossip_rounds": 8}
        )
        from repro.scenarios import compile_scenario

        compiled = compile_scenario(spec)
        assert compiled.config.gossip_fanout == 3
        assert compiled.config.gossip_rounds == 8

    def test_scheme_params_round_trip_and_merge(self):
        spec = api.resolve_spec(SMALL_SPEC).with_(scheme_params={"gossip_fanout": 3})
        merged = spec.with_(scheme_params={"gossip_rounds": 4})
        assert dict(merged.scheme_params) == {"gossip_fanout": 3, "gossip_rounds": 4}
        assert ScenarioSpec.from_json(merged.to_json()) == merged

    def test_unknown_and_reserved_scheme_params_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme param"):
            api.resolve_spec(SMALL_SPEC).with_(scheme_params={"warp_factor": 9})
        with pytest.raises(ValueError, match="dedicated spec field"):
            api.resolve_spec(SMALL_SPEC).with_(scheme_params={"seed": 1})


# ---------------------------------------------------------------------------
# CLI emits the RunResult schema
# ---------------------------------------------------------------------------
class TestCliJson:
    def test_scenario_json_is_a_run_result_document(self, capsys):
        from repro.cli import main

        assert main(["scenario", "partition-heal", "--quick", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == RESULT_SCHEMA
        restored = RunResult.from_dict(doc)
        assert restored.spec.name == "partition-heal"
        assert restored.summary()["committed_blocks"] > 0

    def test_run_json_is_a_run_result_document(self, capsys):
        from repro.cli import main

        code = main(
            ["run", "--quick", "--replicas", "7", "--batch", "10", "--load", "1000",
             "--duration", "0.8", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == RESULT_SCHEMA
        assert RunResult.from_dict(doc).metrics.committed_blocks > 0
