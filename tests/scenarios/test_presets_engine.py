"""Every built-in preset loads, compiles and runs deterministically."""

import pytest

from repro.cli import main
from repro.scenarios import (
    PRESETS,
    compile_scenario,
    load_preset,
    preset_names,
    run_scenario,
)
from repro.scenarios.engine import build_latency_model
from repro.scenarios.spec import ScenarioSpec, TopologySpec
from repro.simnet.latency import ConstantLatency, NormalLatency
from repro.simnet.topology import MatrixLatency, RackTopologyLatency, RegionMatrixLatency


class TestCatalogue:
    def test_at_least_eight_presets(self):
        assert len(PRESETS) >= 8

    def test_names_match_keys(self):
        for name in preset_names():
            assert PRESETS[name]["name"] == name

    @pytest.mark.parametrize("name", preset_names())
    def test_preset_loads_and_compiles(self, name):
        spec = load_preset(name)
        assert spec.name == name
        assert spec.description
        compiled = compile_scenario(spec.quick())
        assert compiled.config.committee_size == spec.quick().committee.size
        # Timers derived from the topology keep the protocol live: the
        # pacemaker must outlast the synchrony bound by a wide margin.
        assert compiled.config.view_timeout > 2 * compiled.config.delta

    def test_preset_round_trips_through_json(self):
        for name in preset_names():
            spec = load_preset(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown scenario preset"):
            load_preset("does-not-exist")


class TestLatencyModelBuilder:
    def test_kinds_map_to_models(self):
        assert isinstance(
            build_latency_model(TopologySpec(kind="constant"), 9), ConstantLatency
        )
        assert isinstance(build_latency_model(TopologySpec(kind="normal"), 9), NormalLatency)
        assert isinstance(
            build_latency_model(TopologySpec(kind="rack", regions=3), 9), RackTopologyLatency
        )
        assert isinstance(
            build_latency_model(TopologySpec(kind="wan", regions=5), 9), RegionMatrixLatency
        )
        matrix = tuple(tuple(0.01 if a != b else 0.0 for b in range(9)) for a in range(9))
        assert isinstance(
            build_latency_model(TopologySpec(kind="matrix", matrix=matrix), 9), MatrixLatency
        )

    def test_wan_needs_enough_regions(self):
        with pytest.raises(ValueError, match="built-in WAN matrix"):
            build_latency_model(TopologySpec(kind="wan", regions=9), 9)

    def test_matrix_must_cover_committee(self):
        matrix = ((0.0, 0.01), (0.01, 0.0))
        with pytest.raises(ValueError, match="cover every committee"):
            build_latency_model(TopologySpec(kind="matrix", matrix=matrix), 9)


class TestScenarioRuns:
    @pytest.mark.parametrize("name", preset_names())
    def test_preset_runs_quick(self, name):
        result = run_scenario(load_preset(name), quick=True)
        rows = result.rows()
        assert len(rows) == 1
        summary = result.summary()
        assert summary["committed_blocks"] > 0
        artifact = result.artifact()
        assert artifact.rows == rows
        assert name in artifact.title

    @pytest.mark.parametrize("name", ["partition-heal", "crash-restart", "omission-cartel"])
    def test_fixed_seed_is_deterministic(self, name):
        first = run_scenario(load_preset(name), quick=True)
        second = run_scenario(load_preset(name), quick=True)
        assert first.rows() == second.rows()
        # and the finalized-view metrics specifically:
        a, b = first.metrics, second.metrics
        assert a.total_views == b.total_views
        assert a.successful_views == b.successful_views
        assert a.committed_blocks == b.committed_blocks

    def test_seed_changes_the_run(self):
        base = load_preset("partition-heal")
        first = run_scenario(base, quick=True)
        second = run_scenario(base.with_(seed=99), quick=True)
        assert first.rows() != second.rows()

    def test_partition_preset_blocks_and_recovers(self):
        result = run_scenario(load_preset("partition-heal"), quick=True)
        summary = result.summary()
        # Messages were provably suppressed while the partition was up...
        assert summary["messages_blocked"] > 0
        # ...and the scenario still made progress (quorum side + heal).
        assert summary["committed_blocks"] > 0
        assert summary["failed_views_pct"] < 50.0

    def test_omission_cartel_triggers_second_chances(self):
        result = run_scenario(load_preset("omission-cartel"), quick=True)
        compiled = compile_scenario(load_preset("omission-cartel").quick())
        assert len(compiled.attacker_ids) == 4
        assert compiled.spec.attack.victim not in compiled.attacker_ids
        # The fallback path is what re-adds the censored votes.
        assert result.summary()["second_chance_votes"] > 0

    def test_bandwidth_crunch_is_slower_than_baseline(self):
        crunch = load_preset("bandwidth-crunch")
        unconstrained = crunch.with_(
            name="bandwidth-free",
            topology={"kind": "constant", "intra_delay": 0.0005,
                      "bandwidth_bytes_per_sec": None},
        )
        slow = run_scenario(crunch, quick=True).summary()
        fast = run_scenario(unconstrained, quick=True).summary()
        assert slow["throughput_ops"] < fast["throughput_ops"]


class TestScenarioCli:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "--list"]) == 0
        output = capsys.readouterr().out
        for name in preset_names():
            assert name in output

    def test_scenario_without_spec_fails(self, capsys):
        assert main(["scenario"]) == 2
        assert "preset" in capsys.readouterr().out

    def test_scenario_preset_quick_with_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main(["scenario", "partition-heal", "--quick", "--output-dir", str(out_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "partition-heal" in output
        assert (out_dir / "scenario-partition-heal.csv").exists()
        assert (out_dir / "scenario-partition-heal.json").exists()

    def test_scenario_from_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(
            '{"name": "file-campaign", "duration": 1.0, "warmup": 0.1,'
            ' "committee": {"size": 7}, "workload": {"rate": 1500}}'
        )
        assert main(["scenario", str(spec_path), "--quick", "--format", "json"]) == 0
        assert "file-campaign" in capsys.readouterr().out

    def test_scenario_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            main(["scenario", "no-such-preset"])

    def test_scenario_missing_spec_file_raises_cleanly(self):
        with pytest.raises(FileNotFoundError, match="spec file not found"):
            main(["scenario", "typo_campaign.json"])

    def test_preset_name_wins_over_local_file(self, tmp_path, monkeypatch, capsys):
        # A stray file/dir named like a preset must not shadow the catalogue.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "partition-heal").mkdir()
        assert main(["scenario", "partition-heal", "--quick"]) == 0
        assert "partition-heal" in capsys.readouterr().out
