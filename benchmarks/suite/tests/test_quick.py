"""End-to-end: the ``--quick`` profile exercises all five workloads, prints
exactly the catalogued metrics, and a broken check fails the command."""

import json
import subprocess
import sys
import time

from conftest import SUITE

import live_cells
import run
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS


def test_quick_suite_runs_every_workload_in_under_a_minute(tmp_path):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "suite", "--quick", "--seed", "5", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout
    assert elapsed < 60.0, f"quick suite took {elapsed:.1f} s"
    document = json.loads(out.read_text())
    assert document["comparable"] is False
    seen = {(r["workload"], r["trace"]) for r in document["runs"]}
    assert seen == {(name, trace) for name in WORKLOADS for trace in (0, 1)}
    for record in document["runs"]:
        catalogue = PER_LAYER if record["trace"] else END_TO_END
        assert list(record["metrics"]) == [row[0] for row in catalogue]
        assert record["correct"] and len(record["host"]["spin_ms"]) == 2
        if not record["trace"]:
            assert all(m["value"] > 0 for m in record["metrics"].values()), record["metrics"]
    by = {(r["workload"], r["trace"]): r["metrics"] for r in document["runs"]}
    # The codec is bypassed in one event loop and used by the client path.
    assert by[("committee-n50", 1)]["codec.encode.calls_per_block"]["value"] == 0
    assert by[("clients-n4-openloop", 1)]["codec.encode.calls_per_block"]["value"] > 0
    # Star's QCs stop at the quorum; Iniva's include (nearly) everyone alive.
    sim = by[("sim-n100-crash10", 1)]
    assert sim["baseline.star.qc_inclusion_pct"]["value"] < 80 < by[("sim-n100-crash10", 0)]["qc_inclusion_pct"]["value"]
    # compare reads what suite wrote; a document against itself is within bounds.
    same = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "compare", str(out), str(out)],
        stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert same.returncode == 0 and "within" in same.stdout and "identical" in same.stdout


def test_a_run_that_cannot_reach_its_target_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(live_cells, "RUN_CAP_SECONDS", 0.4)
    code = run.main(["--workload", "committee-n50", "--seed", "5", "--seconds", "2", "--trace", "0", "--quick"])
    printed = capsys.readouterr().out
    assert code == 1
    assert "check FAIL measured blocks reached the target" in printed
    assert json.loads(printed.splitlines()[-1])["correct"] is False
