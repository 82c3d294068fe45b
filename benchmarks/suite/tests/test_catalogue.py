"""``BENCHMARK.json``, the metric catalogue and the workload table agree,
and all of them stay inside the manifest's format limits."""

import json
import re

from conftest import ROOT

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_and_units_are_well_formed_and_unique():
    names = [row[0] for row in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for name, unit, *_ in END_TO_END + PER_LAYER:
        assert UNIT.match(unit), (name, unit)
    assert len(PER_LAYER) <= 128 and len(END_TO_END) <= 16


def test_manifest_lists_exactly_the_catalogue():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/suite"]
    assert MANIFEST["command"] == ["python3", "benchmarks/suite/run.py"]
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == list(PER_LAYER)


def test_manifest_is_inside_the_format_limits():
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    # The driver's whole budget: 4 + 22 runs per workload in 3420 s.
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * (MANIFEST["run_seconds"] + 12) <= 3420
