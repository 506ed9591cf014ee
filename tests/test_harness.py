"""Tests for the experiment harness (one runner per paper table/figure)."""

import dataclasses
import json

import pytest

from repro.harness import (
    PAPER_TABLE2_L1,
    PAPER_TABLE2_L2,
    figure10,
    figure11,
    figure12,
    format_table,
    format_value,
    run_all_benchmarks,
    run_benchmark,
    run_benchmark_scalar,
    table2,
    table3,
)
from repro.memsim import PAPER_CONFIG, HierarchyConfig
from repro.tools import run_experiment


@pytest.fixture(scope="module")
def small_runs():
    """Shared small simulations for three representative benchmarks."""
    return run_all_benchmarks(
        n_references=4000, benchmarks=["gzip", "mcf", "eon"]
    )


class TestRunBenchmark:
    def test_shape(self):
        run = run_benchmark("gzip", n_references=1500)
        assert run.name == "gzip"
        assert len(run.events) == 1500
        assert run.l1.accesses == 1500
        assert run.units_per_block == 4
        assert run.engine == "batch" and run.fallback_reason is None

    def test_warmup_excluded_from_stats(self):
        run = run_benchmark("gzip", n_references=1000, warmup_fraction=0.5)
        assert run.l1.accesses == 1000  # only the measured window

    def test_deterministic(self):
        a = run_benchmark("vpr", n_references=800)
        b = run_benchmark("vpr", n_references=800)
        assert a.l1.snapshot() == b.l1.snapshot()

    def test_sequence_records_not_replayed_twice(self, monkeypatch):
        # Regression: a workload whose records() hands back a list (not
        # a generator) must not feed the warmup prefix into the measured
        # window a second time.
        from repro.harness import experiments

        real = experiments.make_workload

        def listy(name, seed=0):
            workload = real(name, seed=seed)
            records = workload.records

            def as_list(n):
                return list(records(n))

            workload.records = as_list
            return workload

        monkeypatch.setattr(experiments, "make_workload", listy)
        run = run_benchmark("gzip", n_references=600, warmup_fraction=0.5)
        reference = run_benchmark("gzip", n_references=600, warmup_fraction=0.5)
        assert run.l1.accesses == 600
        assert list(run.events) == list(reference.events)

    def test_fast_path_is_bit_identical(self):
        scalar = run_benchmark_scalar("gcc", n_references=900, warmup_fraction=0.25)
        fast = run_benchmark("gcc", n_references=900, warmup_fraction=0.25)
        assert fast.engine == "batch"
        assert list(fast.events) == list(scalar.events)
        assert fast.l1 == scalar.l1
        assert fast.l2 == scalar.l2
        assert fast.units_per_block == scalar.units_per_block

    def test_run_all_benchmarks_fast(self):
        names = ["gzip", "mcf"]
        scalar = [run_benchmark_scalar(name, n_references=700) for name in names]
        fast = run_all_benchmarks(n_references=700, benchmarks=names)
        assert [run.name for run in fast] == names
        for a, b in zip(scalar, fast):
            assert b.engine == "batch"
            assert a.name == b.name
            assert list(a.events) == list(b.events)
            assert a.l1 == b.l1 and a.l2 == b.l2

    def test_falls_back_to_scalar_for_unmodelled_l1(self):
        # The batch engine models 64-bit L1 units only; a 4-byte-unit L1
        # must take the scalar reference, not be mis-modelled as 64-bit.
        config = HierarchyConfig(
            l1d=dataclasses.replace(PAPER_CONFIG.l1d, unit_bytes=4),
            l2=PAPER_CONFIG.l2,
        )
        run = run_benchmark("gcc", n_references=3000, config=config)
        scalar = run_benchmark_scalar("gcc", n_references=3000, config=config)
        assert run.engine == "scalar"
        assert run.fallback_reason == "l1_unit_bytes"
        assert run.units_per_block == scalar.units_per_block == 8
        assert run.l1 == scalar.l1 and run.l2 == scalar.l2
        assert list(run.events) == list(scalar.events)


class TestPaperTablesEndToEnd:
    def test_default_cli_tables_equal_scalar_reference(self, tmp_path):
        # At 3750 references per benchmark the collector's own "auto"
        # cross-check does not run, so compare against the scalar path.
        names = ["gzip", "mcf"]
        tables, metrics = tmp_path / "tables", tmp_path / "metrics.json"
        rc = run_experiment.main(
            ["all", "--benchmarks", *names, "-n", "3000",
             "--mc-samples", "2000", "--output", str(tables),
             "--emit-metrics", str(metrics)]
        )
        assert rc == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["engine.batch"] == len(names)
        scalar_runs = [
            run_benchmark_scalar(name, n_references=3000) for name in names
        ]
        expected = run_experiment._tables_for("all", scalar_runs)
        expected["table3mc"] = run_experiment.table3mc_text(2000, 0)
        written = {p.stem: p.read_text() for p in tables.iterdir()}
        assert written == {name: text + "\n" for name, text in expected.items()}


class TestFigure10(object):
    def test_parity_baseline_normalises_to_one(self, small_runs):
        result = figure10(small_runs)
        for bench in result.per_benchmark:
            assert result.normalized("parity", bench) == pytest.approx(1.0)

    def test_overheads_ordered(self, small_runs):
        result = figure10(small_runs)
        for bench in result.per_benchmark:
            assert (
                result.normalized("cppc", bench)
                <= result.normalized("2d-parity", bench) + 1e-9
            )

    def test_cppc_overhead_small(self, small_runs):
        """The headline claim: CPPC's CPI overhead is well under 1%."""
        result = figure10(small_runs)
        assert result.average_overhead("cppc") < 0.01

    def test_to_text_renders(self, small_runs):
        text = figure10(small_runs).to_text()
        assert "Figure 10" in text and "gzip" in text and "average" in text

    def test_renderers_follow_fig10_schemes(self, small_runs):
        # Regression: to_text used to hard-code the scheme list; it must
        # track FIG10_SCHEMES instead.
        from repro.harness.experiments import FIG10_SCHEMES

        text = figure10(small_runs).to_text()
        for scheme in FIG10_SCHEMES:
            if scheme == "parity":
                continue  # the baseline is implicit in the rendering
            assert scheme in text


class TestFigures11And12:
    def test_l1_energy_ordering(self, small_runs):
        result = figure11(small_runs)
        assert 1.0 < result.average("cppc") < result.average("2d-parity")
        assert result.average("secded") == pytest.approx(1.42, abs=0.05)

    def test_l2_cppc_cheaper_than_l1_cppc(self, small_runs):
        """The paper's key observation: CPPC is relatively cheaper at L2
        (fewer read-before-writes per access)."""
        l1 = figure11(small_runs)
        l2 = figure12(small_runs)
        assert l2.average("cppc") < l1.average("cppc")

    def test_every_benchmark_present(self, small_runs):
        result = figure12(small_runs)
        assert set(result.per_benchmark) == {"gzip", "mcf", "eon"}

    def test_to_text_renders(self, small_runs):
        assert "Figure 12" in figure12(small_runs).to_text()


class TestTable2:
    def test_metrics_in_range(self, small_runs):
        result = table2(small_runs)
        for row in result.per_benchmark.values():
            assert 0 <= row["l1_dirty_fraction"] <= 1
            assert 0 <= row["l2_dirty_fraction"] <= 1
            assert row["l1_tavg_cycles"] >= 0

    def test_reliability_inputs_bridge(self, small_runs):
        result = table2(small_runs)
        inputs = result.reliability_inputs("L1")
        assert inputs.size_bits == 32 * 1024 * 8
        assert inputs.dirty_fraction == pytest.approx(
            result.average("l1_dirty_fraction")
        )

    def test_to_text_renders(self, small_runs):
        assert "Table 2" in table2(small_runs).to_text()


class TestTable3:
    def test_default_uses_paper_inputs(self):
        result = table3()
        assert result.mttf_years["one-dimensional parity"]["L1"] > 1e3
        assert result.mttf_years["cppc"]["L2"] > 1e15
        assert result.mttf_years["secded"]["L1"] > result.mttf_years["cppc"]["L1"]

    def test_paper_input_constants(self):
        assert PAPER_TABLE2_L1.dirty_fraction == 0.16
        assert PAPER_TABLE2_L2.tavg_cycles == 378997

    def test_to_text_renders(self):
        text = table3().to_text()
        assert "Table 3" in text and "aliasing" in text


class TestReporting:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(0.5) == "0.500"
        assert format_value(8.02e21) == "8.02e+21"
        assert format_value(float("inf")) == "inf"
        assert format_value("name") == "name"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]

    def test_format_table_with_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n=")


class TestScorecard:
    def test_scorecard_from_shared_runs(self, small_runs):
        from repro.harness import scorecard

        card = scorecard(small_runs)
        assert len(card.claims) >= 15
        assert card.pass_count >= len(card.claims) - 3
        # The analytical Table 3 claims are scale-independent: all pass.
        for claim in card.claims:
            if claim.section == "Table 3":
                assert claim.passed, claim.statement

    def test_scorecard_rendering(self, small_runs):
        from repro.harness import scorecard

        text = scorecard(small_runs).to_text()
        assert "scorecard" in text
        assert "PASS" in text
        assert "claims hold" in text
