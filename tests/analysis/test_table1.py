"""Tests for Table I and its rows in :mod:`repro.analysis.model`."""

import pytest

from repro.analysis.model import (
    format_table1,
    iniva_omission,
    randomized_tree_omission,
    star_omission,
    table1,
)


class TestClosedForms:
    def test_star_is_m(self):
        assert star_omission(0.25) == 0.25

    def test_iniva_is_m_squared(self):
        assert iniva_omission(0.25) == pytest.approx(0.0625)

    def test_randomized_tree_repeats_every_round(self):
        single = randomized_tree_omission(0.2, rounds_controlled=1)
        many = randomized_tree_omission(0.2, rounds_controlled=10)
        assert single == pytest.approx(0.2)
        assert many > single

    def test_gosig_estimate_between_zero_and_one(self):
        gosig = next(row for row in table1(0.1, gosig_trials=200, seed=1) if "Gosig" in row.name)
        assert 0.0 <= gosig.zero_omission_value <= 1.0

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            star_omission(1.2)
        with pytest.raises(ValueError):
            iniva_omission(-0.2)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1(attacker_power=0.1, gosig_trials=200, seed=2)

    def test_contains_all_four_schemes(self, rows):
        names = [row.name for row in rows]
        assert names[0].startswith("Star")
        assert any("Randomized" in name for name in names)
        assert any("Gosig" in name for name in names)
        assert names[-1] == "Iniva"

    def test_iniva_row_matches_paper(self, rows):
        iniva = rows[-1]
        assert iniva.inclusive and iniva.incentive_compatible
        assert iniva.zero_omission == "m^2"
        assert iniva.zero_omission_value == pytest.approx(0.01)

    def test_gosig_not_inclusive_not_incentive_compatible(self, rows):
        gosig = next(row for row in rows if "Gosig" in row.name)
        assert not gosig.inclusive
        assert not gosig.incentive_compatible

    def test_iniva_has_lowest_omission_probability(self, rows):
        values = {row.name: row.zero_omission_value for row in rows}
        assert min(values, key=values.get) == "Iniva"

    def test_as_dict_and_formatting(self, rows):
        as_dict = rows[0].as_dict()
        assert "scheme" in as_dict and "inclusive" in as_dict
        rendered = format_table1(rows)
        assert "Iniva" in rendered and "Star protocol" in rendered
        assert len(rendered.splitlines()) == len(rows) + 2
