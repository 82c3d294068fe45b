"""Tests for scenario specs: validation, round-tripping and YAML-lite."""

import re

import pytest

from repro import api
from repro.scenarios.spec import (
    AttackSpec,
    CommitteeSpec,
    FaultSpec,
    ResilienceSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    parse_yaml_lite,
)
from repro.simnet.failures import PartitionEvent


class TestComponentValidation:
    def test_committee(self):
        with pytest.raises(ValueError):
            CommitteeSpec(size=3)

    def test_topology(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="wormhole")
        with pytest.raises(ValueError):
            TopologySpec(kind="matrix")  # needs an explicit matrix
        with pytest.raises(ValueError):
            TopologySpec(loss_probability=1.5)
        spec = TopologySpec(kind="matrix", matrix=[[0, 0.1], [0.1, 0]])
        assert spec.matrix == ((0.0, 0.1), (0.1, 0.0))

    def test_wan_region_consistency(self):
        # regions defaulting to 1 would silently measure a rack, not a WAN.
        with pytest.raises(ValueError, match="at least two regions"):
            TopologySpec(kind="wan")
        with pytest.raises(ValueError, match="contradicts"):
            TopologySpec(kind="wan", regions=3, matrix=[[0, 0.1], [0.1, 0]])
        # An explicit matrix defines the region count.
        spec = TopologySpec(kind="wan", matrix=[[0, 0.1], [0.1, 0]])
        assert spec.regions == 2

    def test_attack(self):
        with pytest.raises(ValueError):
            AttackSpec(strategy="bribery")
        with pytest.raises(ValueError):
            AttackSpec(strategy="omission", attackers=0)

    def test_workload(self):
        with pytest.raises(ValueError):
            WorkloadSpec(rate=-1)

    def test_resilience(self):
        with pytest.raises(ValueError):
            ResilienceSpec(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            ResilienceSpec(phi_threshold=-1.0)
        with pytest.raises(ValueError):
            ResilienceSpec(detector_window=1)
        with pytest.raises(ValueError):
            ResilienceSpec(max_sync_blocks=0)
        with pytest.raises(ValueError):
            ResilienceSpec(quiesce_after=0.0)
        with pytest.raises(ValueError):
            ResilienceSpec(worker_restart_attempts=-1)
        assert ResilienceSpec(quiesce_after=None).quiesce_after is None

    def test_scenario_cross_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", aggregation="star",
                         attack=AttackSpec(strategy="omission", attackers=2))
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x",
                committee=CommitteeSpec(size=5),
                attack=AttackSpec(strategy="omission", attackers=1, victim=7),
            )
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x",
                committee=CommitteeSpec(size=5),
                faults=FaultSpec(partitions=(PartitionEvent(at=0.0, groups=((0, 9),)),)),
            )


class TestRoundTrips:
    def make_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            name="round-trip",
            description="demo",
            duration=2.0,
            committee=CommitteeSpec(size=9),
            topology=TopologySpec(kind="wan", regions=3,
                                  bandwidth_bytes_per_sec=1_000_000.0),
            faults=FaultSpec(
                crashes=1,
                crash_at=0.5,
                partitions=(PartitionEvent(at=1.0, groups=((0, 1, 2), (3, 4)),
                                           heal_at=1.5),),
            ),
            attack=AttackSpec(strategy="omission", attackers=2, victim=3),
            resilience=ResilienceSpec(
                heartbeat_interval=0.02,
                phi_threshold=5.0,
                catchup=False,
                quiesce_after=1.5,
            ),
        )

    def test_dict_round_trip(self):
        spec = self.make_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = self.make_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"name": "x", "colour": "red"})
        with pytest.raises(ValueError, match="unknown"):
            ScenarioSpec.from_dict({"name": "x", "topology": {"speed": 1}})
        with pytest.raises(ValueError, match="unknown partition keys"):
            ScenarioSpec.from_dict(
                {"name": "x", "faults": {"partitions": [{"at": 1.0, "groups": [[0, 1]],
                                                         "mend_at": 2.0}]}}
            )

    @pytest.mark.parametrize(
        "removed",
        ["batch_verification", "verification_offload", "wait_for_all_votes", "churn",
         "batch_deadline", "aggregation_timeout", "gossip_interval", "handel_level_delay",
         "handel_peers_per_level"],
    )
    def test_removed_knobs_rejected_by_name(self, removed):
        with pytest.raises(ValueError, match=f"unknown scenario keys.*{removed}"):
            ScenarioSpec.from_dict({"name": "x", removed: True})
        with pytest.raises(ValueError, match=f"unknown scheme param '{removed}'"):
            ScenarioSpec(name="x", scheme_params={removed: True})

    @pytest.mark.parametrize(
        "section, removed",
        [("committee", "validators"), ("committee", "stake_distribution"),
         ("workload", "jitter")],
    )
    def test_removed_component_fields_rejected_by_name(self, section, removed):
        with pytest.raises(ValueError, match=f"unknown .*{removed}"):
            ScenarioSpec.from_dict({"name": "x", section: {removed: True}})

    def test_file_round_trip(self, tmp_path):
        spec = self.make_spec()
        json_path = tmp_path / "spec.json"
        json_path.write_text(spec.to_json())
        assert ScenarioSpec.load(json_path) == spec

    def test_with_merges_nested_dicts(self):
        spec = self.make_spec()
        changed = spec.with_(aggregation="star", attack={"strategy": "none", "attackers": 0},
                             faults={"crashes": 3})
        assert changed.aggregation == "star"
        assert changed.faults.crashes == 3
        # Untouched nested fields survive the merge.
        assert changed.faults.partitions == spec.faults.partitions
        assert changed.committee == spec.committee


class TestQuick:
    def test_quick_shrinks_and_scales(self):
        spec = TestRoundTrips().make_spec().with_(
            duration=10.0,
            attack={"strategy": "none", "attackers": 0},
            topology={"kind": "normal", "regions": 1, "bandwidth_bytes_per_sec": None},
        )
        quick = spec.quick()
        assert quick.duration == 1.2
        factor = quick.duration / spec.duration
        event, = quick.faults.partitions
        original, = spec.faults.partitions
        assert event.at == pytest.approx(original.at * factor)
        assert event.heal_at == pytest.approx(original.heal_at * factor)
        assert quick.faults.crash_at == pytest.approx(spec.faults.crash_at * factor)
        assert quick.committee.size <= 13

    def test_quick_keeps_partition_pids_in_committee(self):
        spec = ScenarioSpec(
            name="big-partition",
            committee=CommitteeSpec(size=21),
            faults=FaultSpec(partitions=(
                PartitionEvent(at=1.0, groups=((0, 1), tuple(range(2, 16)))),
            )),
        )
        quick = spec.quick()
        assert quick.committee.size == 16

    def test_quick_clamps_crashes_to_fault_budget(self):
        spec = ScenarioSpec(name="storm", committee=CommitteeSpec(size=21),
                            faults=FaultSpec(crashes=6))
        quick = spec.quick()
        n = quick.committee.size
        assert quick.faults.crashes <= n - ((2 * n) // 3 + 1)

    def test_quick_lengthens_window_for_wan(self):
        wan = ScenarioSpec(name="wan", duration=6.0,
                           topology=TopologySpec(kind="wan", regions=3))
        assert wan.quick().duration == pytest.approx(3.0)
        rack = ScenarioSpec(name="rack", duration=6.0)
        assert rack.quick().duration == pytest.approx(1.2)


class TestYamlLite:
    def test_scalars_and_nesting(self):
        parsed = parse_yaml_lite(
            """
            # a comment
            name: demo  # trailing comment
            duration: 2.5
            seed: 7
            flag: true
            nothing: null
            topology:
              kind: wan
              regions: 3
            """
        )
        assert parsed == {
            "name": "demo",
            "duration": 2.5,
            "seed": 7,
            "flag": True,
            "nothing": None,
            "topology": {"kind": "wan", "regions": 3},
        }

    def test_inline_and_block_lists(self):
        parsed = parse_yaml_lite(
            """
            groups: [[0, 1], [2, 3]]
            mixed: [1, 2.5, hello, "quoted, text"]
            items:
              - 1
              - 2
            events:
              - at: 1.0
                heal_at: 2.0
                groups: [[0], [1]]
              - at: 3.0
            """
        )
        assert parsed["groups"] == [[0, 1], [2, 3]]
        assert parsed["mixed"] == [1, 2.5, "hello", "quoted, text"]
        assert parsed["items"] == [1, 2]
        assert parsed["events"] == [
            {"at": 1.0, "heal_at": 2.0, "groups": [[0], [1]]},
            {"at": 3.0},
        ]

    def test_apostrophes_do_not_swallow_comments(self):
        parsed = parse_yaml_lite(
            "desc: it's a run  # trailing comment\n"
            'quoted: "keep # this"  # drop this\n'
        )
        assert parsed == {"desc": "it's a run", "quoted": "keep # this"}

    def test_empty_and_errors(self):
        assert parse_yaml_lite("") == {}
        with pytest.raises(ValueError):
            parse_yaml_lite("- just\n- a\n- list")
        with pytest.raises(ValueError):
            parse_yaml_lite("key: [1, 2")
        with pytest.raises(ValueError):
            parse_yaml_lite("key without colon")

    def test_yaml_spec_matches_json_spec(self, tmp_path):
        yaml_text = """
        name: yaml-demo
        duration: 2.0
        committee:
          size: 9
        topology:
          kind: wan
          regions: 3
        faults:
          crashes: 1
          partitions:
            - at: 0.5
              heal_at: 1.0
              groups: [[0, 1, 2, 3, 4, 5], [6, 7, 8]]
        """
        path = tmp_path / "spec.yaml"
        path.write_text(yaml_text)
        spec = ScenarioSpec.load(path)
        assert spec.name == "yaml-demo"
        assert spec.committee.size == 9
        assert spec.faults.partitions[0].groups == ((0, 1, 2, 3, 4, 5), (6, 7, 8))
        # The YAML form and its JSON re-serialisation describe the same spec.
        assert ScenarioSpec.from_json(spec.to_json()) == spec


def _spec_document(path: str, value: float) -> dict:
    """A small valid spec document with ``value`` placed at dotted ``path``."""
    document = ScenarioSpec(
        name="finite", duration=1.0, committee=CommitteeSpec(size=4)
    ).to_dict()
    matrix = [[0.0 if i == j else 0.001 for j in range(4)] for i in range(4)]
    if path == "topology.matrix.1.2":
        matrix[1][2] = value
        document["topology"].update(kind="matrix", matrix=matrix)
    elif path.startswith("faults.partitions.0."):
        event = {"at": 0.2, "heal_at": 0.6, "groups": [[0, 1, 2], [3]]}
        if path.endswith(".at"):
            del event["heal_at"]
        event[path.rsplit(".", 1)[1]] = value
        document["faults"]["partitions"] = [event]
    else:
        *sections, key = path.split(".")
        target = document
        for section in sections:
            target = target[section]
        target[key] = value
    return document


class TestNonFiniteNumbers:
    """Range checks are comparisons, which NaN passes: a non-finite number
    anywhere in a spec is refused up front, naming its dotted field."""

    FIELDS = [
        "duration",
        "warmup",
        "delta",
        "view_timeout",
        "workload.rate",
        "topology.intra_delay",
        "topology.matrix.1.2",
        "faults.crash_at",
        "faults.partitions.0.at",
        "faults.partitions.0.heal_at",
    ]

    def test_finite_document_is_accepted(self):
        ScenarioSpec.from_dict(_spec_document("duration", 1.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("path", FIELDS)
    def test_non_finite_field_rejected(self, path, value):
        document = _spec_document(path, value)
        with pytest.raises(ValueError, match=re.escape(f"{path} must be a finite number")):
            ScenarioSpec.from_dict(document)

    def test_nan_in_a_json_spec_file_is_rejected_by_run(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"name": "nan-file", "duration": NaN, "committee": {"size": 4}}')
        with pytest.raises(ValueError, match="duration must be a finite number"):
            api.run(str(path))
