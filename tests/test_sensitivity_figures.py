"""Tests for the sensitivity sweeps and ASCII figure rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    SweepResult,
    bar_chart,
    sweep_interleaving,
    sweep_l1_size,
    sweep_seu_rate,
)


class TestBarCharts:
    def test_bar_chart_renders_all_labels(self):
        text = bar_chart("T", ["a", "bb"], [1.0, 2.0])
        assert "a" in text and "bb" in text and text.startswith("T")

    def test_baseline_shifts_origin(self):
        text = bar_chart("T", ["x", "y"], [1.0, 2.0], baseline=1.0, width=10)
        lines = text.splitlines()
        assert "#" not in lines[2]  # the baseline bar is empty
        assert "##########" in lines[3]

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            bar_chart("T", ["a"], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            bar_chart("T", [], [])


class TestSweeps:
    def test_interleaving_sweep_monotone(self):
        result = sweep_interleaving()
        ratios = result.column("vs degree 1")
        assert ratios == sorted(ratios)
        assert ratios[0] == pytest.approx(1.0)
        # Degree 8 reproduces the paper's +42%.
        by_degree = dict(zip(result.column("interleave degree"), ratios))
        assert by_degree[8] == pytest.approx(1.42, abs=0.03)

    def test_seu_sweep_scales_linearly_for_parity(self):
        result = sweep_seu_rate(fit_rates=(1e-4, 1e-3))
        parity = result.column("parity (years)")
        assert parity[0] / parity[1] == pytest.approx(10.0, rel=1e-6)

    def test_seu_sweep_preserves_ordering(self):
        result = sweep_seu_rate()
        for row in result.rows:
            _fit, parity, cppc, secded = row
            assert parity < cppc < secded

    def test_l1_size_sweep_shape(self):
        result = sweep_l1_size(sizes_kb=(16, 64), n_references=3000)
        miss = result.column("miss rate")
        assert miss[0] > miss[-1], "bigger L1 must miss less"
        for row in result.rows:
            assert 1.0 < row[3], "CPPC always costs something over parity"

    def test_sweep_result_rendering(self):
        result = sweep_interleaving()
        assert isinstance(result, SweepResult)
        text = result.to_text()
        assert "Sensitivity" in text
        with pytest.raises(ValueError):
            result.column("nope")
