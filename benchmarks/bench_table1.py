"""Table I — comparison of aggregation schemes (0-omission, inclusiveness,
incentive compatibility)."""

from benchmarks.conftest import run_once
from repro.analysis.model import table1


def test_table1(benchmark):
    def harness():
        return [row.as_dict() for row in table1(attacker_power=0.1, gosig_trials=600, seed=1)]

    rows = run_once(benchmark, harness, "Table I: scheme comparison (m = 0.1)")
    values = {row["scheme"]: row["0-omission value"] for row in rows}
    # Iniva must have the lowest omission probability of all schemes.
    assert min(values, key=values.get) == "Iniva"
