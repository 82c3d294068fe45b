"""Tests for the export helpers and the ``python -m repro`` CLI."""

from __future__ import annotations

import csv
import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.experiments.export import FigureArtifact, ascii_plot


SAMPLE_ROWS = [
    {"scheme": "HotStuff", "replicas": 21, "throughput_ops": 10_000.0},
    {"scheme": "HotStuff", "replicas": 41, "throughput_ops": 9_000.0},
    {"scheme": "Iniva", "replicas": 21, "throughput_ops": 7_000.0},
    {"scheme": "Iniva", "replicas": 41, "throughput_ops": 6_000.0},
]


# ---------------------------------------------------------------------------
# ascii_plot
# ---------------------------------------------------------------------------
def test_ascii_plot_renders_all_series():
    plot = ascii_plot(
        {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
        width=40,
        height=10,
        title="demo",
        x_label="x",
        y_label="y",
    )
    assert "demo" in plot
    assert "legend:" in plot
    assert "o a" in plot and "x b" in plot
    assert plot.count("\n") > 10


def test_ascii_plot_handles_empty_and_degenerate_input():
    assert "no data" in ascii_plot({}, title="empty")
    assert "no data" in ascii_plot({"a": []})
    # A single point (zero span) must not divide by zero.
    assert "legend:" in ascii_plot({"a": [(1.0, 2.0)]})


# ---------------------------------------------------------------------------
# FigureArtifact
# ---------------------------------------------------------------------------
def test_artifact_table_markdown_and_plot():
    artifact = FigureArtifact(
        name="demo",
        title="Demo figure",
        rows=list(SAMPLE_ROWS),
        series_key="scheme",
        x="replicas",
        y="throughput_ops",
    )
    table = artifact.to_table()
    assert "Demo figure" in table and "HotStuff" in table
    markdown = artifact.to_markdown()
    assert markdown.startswith("### Demo figure")
    assert "| scheme | replicas | throughput_ops |" in markdown
    plot = artifact.to_plot()
    assert "legend:" in plot and "Iniva" in plot


def test_artifact_without_plot_columns_falls_back_to_table():
    artifact = FigureArtifact(name="t", title="T", rows=list(SAMPLE_ROWS))
    assert artifact.to_plot() == artifact.to_table()


def test_artifact_write_creates_all_formats(tmp_path):
    artifact = FigureArtifact(
        name="demo",
        title="Demo figure",
        rows=list(SAMPLE_ROWS),
        series_key="scheme",
        x="replicas",
        y="throughput_ops",
    )
    paths = artifact.write(tmp_path / "out")
    assert set(paths) == {"csv", "json", "md", "txt"}
    for path in paths.values():
        assert path.exists()

    with paths["csv"].open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4
    assert rows[0]["scheme"] == "HotStuff"

    decoded = json.loads(paths["json"].read_text())
    assert decoded[2]["scheme"] == "Iniva"
    assert "legend:" in paths["txt"].read_text()


def test_markdown_with_no_rows():
    artifact = FigureArtifact(name="empty", title="Empty", rows=[])
    assert "(no data)" in artifact.to_markdown()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_parser_knows_every_experiment():
    parser = build_parser()
    for name in EXPERIMENTS:
        args = parser.parse_args([name, "--quick"])
        assert args.command == name
        assert args.quick
    args = parser.parse_args(["run", "--scheme", "gosig", "--replicas", "9"])
    assert args.scheme == "gosig"
    assert args.replicas == 9


def test_cli_without_command_prints_help_and_fails():
    assert main([]) == 2


def test_cli_list(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in output


def test_cli_table1_quick(capsys):
    assert main(["table1", "--quick", "--seed", "3"]) == 0
    output = capsys.readouterr().out
    assert "Iniva" in output and "Star" in output


def test_cli_table1_json_format(capsys):
    assert main(["table1", "--quick", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    # Figure commands emit the versioned figure document, mirroring the
    # RunResult document of run/scenario/live.
    assert document["schema"] == "repro.figure/1"
    assert document["name"] == "table1"
    assert any(row.get("scheme") == "Iniva" for row in document["rows"])


def test_cli_run_quick_and_artifacts(tmp_path, capsys):
    exit_code = main(
        [
            "run",
            "--quick",
            "--scheme",
            "iniva",
            "--replicas",
            "7",
            "--batch",
            "10",
            "--load",
            "1000",
            "--duration",
            "1.0",
            "--output-dir",
            str(tmp_path / "artifacts"),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "throughput_ops_per_sec" in output
    assert (tmp_path / "artifacts" / "run.csv").exists()
    assert (tmp_path / "artifacts" / "run.json").exists()


def test_cli_run_with_faults(capsys):
    exit_code = main(
        [
            "run",
            "--quick",
            "--scheme",
            "star",
            "--replicas",
            "7",
            "--batch",
            "10",
            "--load",
            "1000",
            "--faults",
            "1",
        ]
    )
    assert exit_code == 0
    assert "faults=1" in capsys.readouterr().out


def test_cli_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        main(["run", "--scheme", "smoke-signals"])


def test_cli_sweep_set_values_are_coerced():
    from repro.cli import _parse_sweep_grid

    grid = _parse_sweep_grid(["workload.rate=4,0.5,true,null,star", "aggregation= star ,iniva"])
    assert grid == {"workload.rate": [4, 0.5, True, None, "star"], "aggregation": ["star", "iniva"]}
    assert [type(value) for value in grid["workload.rate"]] == [int, float, bool, type(None), str]
    with pytest.raises(SystemExit, match="FIELD=V1"):
        _parse_sweep_grid(["aggregation"])
