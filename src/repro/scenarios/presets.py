"""The built-in scenario catalogue.

Each preset is stored as the plain dictionary form of its spec, so
loading one exercises the same :meth:`ScenarioSpec.from_dict` path a user
spec file takes — the presets double as living documentation of the spec
format.  ``python -m repro scenario --list`` prints this catalogue.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios.spec import ScenarioSpec

__all__ = ["PRESETS", "load_preset", "preset_names"]


PRESETS: Dict[str, dict] = {
    "rack-baseline": {
        "name": "rack-baseline",
        "description": "the paper's testbed: one rack, sub-ms latency, no faults",
        "duration": 4.0,
        "committee": {"size": 21},
        "topology": {"kind": "normal", "intra_delay": 0.0005, "jitter": 0.2},
        "workload": {"rate": 4000.0, "payload_size": 64},
    },
    "wan-5-regions": {
        "name": "wan-5-regions",
        "description": "committee spread over five cloud regions with thin links",
        "duration": 6.0,
        "warmup": 1.0,
        "committee": {"size": 20},
        "topology": {
            "kind": "wan",
            "regions": 5,
            "intra_delay": 0.0005,
            "jitter": 0.1,
            "bandwidth_bytes_per_sec": 25_000_000.0,
        },
        "workload": {"rate": 1000.0, "payload_size": 64},
    },
    "lossy-wan": {
        "name": "lossy-wan",
        "description": "three regions, 3% message loss on every link",
        "duration": 5.0,
        "committee": {"size": 12},
        "topology": {"kind": "wan", "regions": 3, "loss_probability": 0.03},
        "workload": {"rate": 800.0},
    },
    "partition-heal": {
        "name": "partition-heal",
        "description": "two replicas cut off mid-run, links healed later",
        "duration": 4.5,
        "warmup": 0.4,
        "committee": {"size": 9},
        "topology": {"kind": "normal", "intra_delay": 0.0005},
        "faults": {
            "partitions": [
                {"at": 1.5, "heal_at": 3.0, "groups": [[0, 1, 2, 3, 4, 5, 6], [7, 8]]}
            ]
        },
        "workload": {"rate": 2000.0},
    },
    "omission-cartel": {
        "name": "omission-cartel",
        "description": "four corrupted aggregators censor one victim's votes",
        "duration": 4.0,
        "committee": {"size": 15},
        "attack": {"strategy": "omission", "attackers": 4, "victim": 2},
        "workload": {"rate": 2000.0},
    },
    "crash-storm": {
        "name": "crash-storm",
        "description": "a third of the committee crashes at once mid-run",
        "duration": 5.0,
        "view_timeout": 0.1,
        "committee": {"size": 21},
        "faults": {"crashes": 6, "crash_at": 2.0},
        "workload": {"rate": 2000.0},
    },
    "crash-restart": {
        "name": "crash-restart",
        "description": "one replica crashes, restarts and catches up via state sync",
        "duration": 4.0,
        "view_timeout": 0.15,
        "committee": {"size": 7},
        "faults": {"crashes": 1, "crash_at": 1.2, "restart_at": 2.4},
        "resilience": {"catchup": True, "heartbeat_interval": 0.05,
                       "phi_threshold": 6.0},
        "workload": {"rate": 2000.0},
    },
    "open-loop": {
        "name": "open-loop",
        "description": "open-loop client swarm with bounded admission (live runtime)",
        "duration": 4.0,
        "committee": {"size": 7},
        "topology": {"kind": "normal", "intra_delay": 0.0005},
        "workload": {
            "rate": 500.0,
            "payload_size": 64,
            "num_clients": 16,
            "arrival": "poisson",
            "max_pending": 20_000,
            "client_window": 2_000,
        },
    },
    "bandwidth-crunch": {
        "name": "bandwidth-crunch",
        "description": "fat blocks through 200 KB/s links; queuing dominates",
        "duration": 4.0,
        "batch_size": 200,
        "committee": {"size": 9},
        "topology": {
            "kind": "constant",
            "intra_delay": 0.0005,
            "bandwidth_bytes_per_sec": 200_000.0,
        },
        "workload": {"rate": 3000.0, "payload_size": 256},
    },
}


def preset_names() -> List[str]:
    return list(PRESETS)


def load_preset(name: str) -> ScenarioSpec:
    """The named built-in scenario as a fresh :class:`ScenarioSpec`."""
    try:
        data = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown scenario preset {name!r} (known: {known})") from None
    return ScenarioSpec.from_dict(data)
