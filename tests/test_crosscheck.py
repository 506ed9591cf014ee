"""Tests for the differential fuzzing subsystem (repro.crosscheck)."""

import dataclasses
import importlib
import json
import pathlib

import pytest

from repro.crosscheck import (
    MUTATIONS,
    SCENARIO_KINDS,
    FaultOp,
    Scenario,
    ScenarioGenerator,
    load_reproducer,
    reproducer_name,
    resolve_mutations,
    run_mutation_self_test,
    run_scenario,
    save_reproducer,
    shrink_scenario,
)
from repro.crosscheck import oracles
from repro.crosscheck.fuzz import fuzz
from repro.crosscheck.mutations import active
from repro.crosscheck.oracles import (
    Divergence,
    apply_fault,
    check_recovery,
    check_replay,
)
from repro.errors import ConfigurationError
from repro.memsim.mainmem import MainMemory
from repro.memsim.types import AccessType
from repro.workloads.trace import TraceRecord

from conftest import make_cppc_cache


def tiny_replay_scenario(seed=0, n=40):
    generator = ScenarioGenerator(seed, kind_weights={"replay": 1.0})
    scenario = generator.generate(0)
    return dataclasses.replace(scenario, records=scenario.records[:n])


class TestScenarioGrammar:
    def test_fault_op_validation(self):
        with pytest.raises(ConfigurationError):
            FaultOp(at=0, kind="gamma-ray")
        with pytest.raises(ConfigurationError):
            FaultOp(at=-1)
        with pytest.raises(ConfigurationError):
            FaultOp(at=0, kind="spatial", height=0)

    def test_scenario_kind_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(kind="nonsense")

    def test_generator_is_deterministic(self):
        a = ScenarioGenerator(42).generate(7)
        b = ScenarioGenerator(42).generate(7)
        assert a == b
        assert a.canonical_json() == b.canonical_json()

    def test_generator_indices_are_independent(self):
        generator = ScenarioGenerator(3)
        late = generator.generate(9)
        # Regenerating index 9 without generating 0..8 first gives the
        # same scenario — the property nightly repro instructions rely on.
        assert ScenarioGenerator(3).generate(9) == late

    def test_round_robin_cycles_every_kind(self):
        generator = ScenarioGenerator(0, round_robin=True)
        kinds = [generator.generate(i).kind for i in range(len(SCENARIO_KINDS))]
        assert sorted(kinds) == sorted(SCENARIO_KINDS)

    def test_kind_weights_restrict_sampling(self):
        generator = ScenarioGenerator(1, kind_weights={"doublefault": 1.0})
        assert all(generator.generate(i).kind == "doublefault" for i in range(5))

    def test_unknown_kind_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioGenerator(0, kind_weights={"bogus": 1.0})

    def test_json_round_trip(self):
        scenario = ScenarioGenerator(5, kind_weights={"recovery": 1.0}).generate(0)
        rebuilt = Scenario.from_json(json.loads(json.dumps(scenario.to_json())))
        assert rebuilt == scenario

    def test_json_round_trip_preserves_store_values(self):
        records = [
            TraceRecord(AccessType.STORE, 0x40, 8, 2, bytes(range(8))),
            TraceRecord(AccessType.LOAD, 0x40, 8, 0),
        ]
        scenario = Scenario(kind="replay", records=records)
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt.records == records

    def test_version_mismatch_rejected(self):
        data = Scenario(kind="replay").to_json()
        data["version"] = 999
        with pytest.raises(ConfigurationError):
            Scenario.from_json(data)

    def test_unknown_field_rejected_by_name(self):
        data = Scenario(kind="replay").to_json()
        data["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="warp_factor"):
            Scenario.from_json(data)
        data = Scenario(kind="recovery", faults=[FaultOp(at=3)]).to_json()
        data["faults"][0]["colour"] = "red"
        with pytest.raises(ConfigurationError, match="colour"):
            Scenario.from_json(data)


class TestFlipsParityCannotSee:
    """Two flips in one parity group of a dirty unit pass every check.

    The recovery oracle predicts that class instead of reporting it: the
    folded flips must stay in the unit's register pair, and the wrong
    data must reach memory.  (Seed 5's scenario 449, shrunk: one store,
    then a data bit and a check bit of the same group.)
    """

    def scenario(self):
        path = pathlib.Path(__file__).parent / "corpus"
        scenario, _recorded = load_reproducer(path / "repro-recovery-206b3e741fb5.json")
        return scenario

    def test_predicted_class_replays_clean(self):
        assert check_recovery(self.scenario()) == []

    def test_residue_is_still_checked(self, monkeypatch):
        monkeypatch.setattr(oracles._UnseenFlips, "residues", lambda self: {})
        problems = check_recovery(self.scenario())
        assert any("registers left residue 0x200000" in p for p in problems)

    def test_missing_corruption_is_reported(self, monkeypatch):
        monkeypatch.setattr(MainMemory, "first_mismatch", lambda self, image: None)
        (problem,) = check_recovery(self.scenario())
        assert "left no corruption" in problem


class TestApplyFault:
    def test_temporal_flips_one_bit(self):
        cache, _memory = make_cppc_cache()
        cache.store(0x100, b"\x00" * 8)
        before = [v for _l, v, _d in cache.iter_units()]
        flipped = apply_fault(cache, FaultOp(at=0, kind="temporal", bit=5))
        after = [v for _l, v, _d in cache.iter_units()]
        assert flipped == 1
        assert sum(a != b for a, b in zip(before, after)) == 1

    def test_check_fault_leaves_data_alone(self):
        cache, _memory = make_cppc_cache()
        cache.store(0x80, b"\xaa" * 8)
        before = [v for _l, v, _d in cache.iter_units()]
        flipped = apply_fault(cache, FaultOp(at=0, kind="check", bit=3))
        assert flipped == 1
        assert [v for _l, v, _d in cache.iter_units()] == before

    def test_empty_cache_is_a_noop(self):
        cache, _memory = make_cppc_cache()
        assert apply_fault(cache, FaultOp(at=0, kind="temporal")) == 0

    def test_spatial_extents_are_clamped(self):
        cache, _memory = make_cppc_cache()
        cache.store(0x0, b"\x11" * 8)
        # way/top_row far beyond the geometry must clamp, not raise.
        apply_fault(
            cache,
            FaultOp(
                at=0,
                kind="spatial",
                way=99,
                top_row=1000,
                left_col=300,
                height=4,
                width=4,
            ),
        )


class TestOracles:
    def test_replay_oracle_clean(self):
        assert check_replay(tiny_replay_scenario()) == []

    def test_recovery_oracle_clean_with_fault(self):
        generator = ScenarioGenerator(4, kind_weights={"recovery": 1.0})
        scenario = generator.generate(0)
        assert check_recovery(scenario) == []

    def test_timing_oracle_clean(self):
        from repro.crosscheck.oracles import check_timing

        generator = ScenarioGenerator(7, kind_weights={"timing": 1.0})
        for index in range(3):
            assert check_timing(generator.generate(index)) == []

    def test_timing_scenarios_carry_core_parameters(self):
        generator = ScenarioGenerator(3, kind_weights={"timing": 1.0})
        scenario = generator.generate(0)
        assert scenario.kind == "timing"
        assert scenario.issue_width >= 1
        assert scenario.store_buffer >= 1
        assert scenario.records

    def test_timing_fields_default_in_old_reproducers(self):
        # Reproducer files written before the timing kind existed lack
        # issue_width/store_buffer; from_json must fill the defaults.
        scenario = tiny_replay_scenario()
        payload = json.loads(json.dumps(scenario.to_json()))
        payload.pop("issue_width", None)
        payload.pop("store_buffer", None)
        restored = Scenario.from_json(payload)
        assert restored.issue_width == 4
        assert restored.store_buffer == 2

    def test_run_scenario_wraps_crash_as_divergence(self, monkeypatch):
        import repro.crosscheck.oracles as oracles

        def boom(scenario):
            raise RuntimeError("implementation died")

        monkeypatch.setitem(oracles.ORACLES, "replay", boom)
        divergences = run_scenario(Scenario(kind="replay"))
        assert len(divergences) == 1
        assert "implementation died" in divergences[0].details[0]


class TestShrinker:
    def test_requires_a_failing_start(self):
        with pytest.raises(ConfigurationError):
            shrink_scenario(Scenario(kind="replay"), lambda s: [])

    def test_shrinks_records_to_the_culprit(self):
        records = [
            TraceRecord(AccessType.STORE, 8 * i, 8, 0, bytes([i] * 8))
            for i in range(1, 40)
        ]
        scenario = Scenario(kind="replay", records=records)
        poison = records[17]

        def fails(candidate):
            if poison in candidate.records:
                return [Divergence("replay", "replay", ["poison present"])]
            return []

        shrunk = shrink_scenario(scenario, fails, max_seconds=10)
        assert shrunk.records == [poison]

    def test_shrinks_doublefault_samples(self):
        scenario = Scenario(kind="doublefault", samples=80)

        def fails(candidate):
            return [Divergence("doublefault", "doublefault", ["x"])]

        shrunk = shrink_scenario(scenario, fails, max_seconds=10)
        assert shrunk.samples == 8  # the field floor

    def test_reproducer_round_trip(self, tmp_path):
        scenario = tiny_replay_scenario(seed=9, n=3)
        divergence = Divergence("replay", "replay", ["detail"])
        path = save_reproducer(scenario, [divergence], tmp_path)
        assert path.name == reproducer_name(scenario)
        loaded, details = load_reproducer(path)
        assert loaded == scenario
        assert details[0]["details"] == ["detail"]
        # Same scenario -> same filename: rediscovery never duplicates.
        assert save_reproducer(scenario, [divergence], tmp_path) == path
        assert len(list(tmp_path.iterdir())) == 1


class TestMutations:
    def test_resolve_all(self):
        assert {m.name for m in resolve_mutations("all")} == set(MUTATIONS)

    def test_resolve_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_mutations("not-a-mutation")

    def test_active_restores_patches(self):
        from repro.cppc.shifting import RotationScheme

        original = RotationScheme.rotate_in
        with active(MUTATIONS["skip-byte-rotation"]):
            assert RotationScheme.rotate_in is not original
        assert RotationScheme.rotate_in is original

    def test_every_mutation_names_valid_kinds(self):
        for mutation in MUTATIONS.values():
            assert mutation.kinds
            assert set(mutation.kinds) <= set(SCENARIO_KINDS)

    def test_seeded_bug_is_detected(self):
        outcomes = run_mutation_self_test(
            resolve_mutations("skip-byte-rotation"), seed=0, time_budget=20
        )
        assert len(outcomes) == 1
        assert outcomes[0].detected
        assert outcomes[0].detail


class TestFuzzLoop:
    def test_clean_run_reports_counts(self):
        report = fuzz(
            seed=0,
            time_budget=30,
            max_scenarios=8,
            kind_weights={"replay": 1.0, "recovery": 1.0},
            round_robin=True,
        )
        assert report.clean
        assert report.scenarios_run == 8
        assert sum(report.by_kind.values()) == 8
        assert report.snapshot()["divergences"] == 0

    def test_divergence_is_recorded_and_saved(self, tmp_path, monkeypatch):
        # The package re-exports the fuzz() function, shadowing the
        # submodule attribute — resolve the module itself explicitly.
        fuzz_module = importlib.import_module("repro.crosscheck.fuzz")

        def always_diverges(scenario):
            return [Divergence(scenario.kind, scenario.kind, ["boom"])]

        monkeypatch.setattr(fuzz_module, "run_scenario", always_diverges)
        report = fuzz_module.fuzz(
            seed=1,
            time_budget=30,
            max_scenarios=1,
            corpus_dir=tmp_path,
            shrink=False,
        )
        assert not report.clean
        assert report.findings[0].reproducer is not None
        assert list(tmp_path.glob("repro-*.json"))


class TestRunFuzzCli:
    def test_clean_exit_ok(self, capsys):
        from repro.tools.run_fuzz import main

        argv = ["--time-budget", "30", "--max-scenarios", "4"]
        argv += ["--kinds", "replay,recovery", "--seed", "0"]
        code = main(argv)
        assert code == 0
        assert "no divergences" in capsys.readouterr().out

    def test_unknown_kind_is_fatal(self, capsys):
        from repro.tools.run_fuzz import main

        assert main(["--kinds", "bogus", "--max-scenarios", "1"]) == 1

    def test_divergence_exits_partial(self, tmp_path, monkeypatch, capsys):
        import repro.tools.run_fuzz as cli

        fuzz_module = importlib.import_module("repro.crosscheck.fuzz")

        def always_diverges(scenario):
            return [Divergence(scenario.kind, scenario.kind, ["boom"])]

        monkeypatch.setattr(fuzz_module, "run_scenario", always_diverges)
        out = tmp_path / "report.json"
        argv = ["--max-scenarios", "1", "--no-shrink"]
        argv += ["--corpus-dir", str(tmp_path / "corpus"), "--json", str(out)]
        code = cli.main(argv)
        assert code == 3
        assert json.loads(out.read_text())["divergences"] == 1

    def test_missed_mutation_exits_fatal(self, monkeypatch, capsys):
        import repro.tools.run_fuzz as cli
        from repro.crosscheck.fuzz import MutationOutcome

        def nothing_detected(mutations, **kwargs):
            return [
                MutationOutcome(
                    mutation=m.name,
                    description=m.description,
                    detected=False,
                    scenarios_run=1,
                    elapsed_seconds=0.1,
                )
                for m in mutations
            ]

        monkeypatch.setattr(cli, "run_mutation_self_test", nothing_detected)
        code = cli.main(["--mutate", "all", "--time-budget", "1"])
        assert code == 1
        assert "undetected" in capsys.readouterr().err

    def test_mutate_detected_exits_ok(self, capsys):
        from repro.tools.run_fuzz import main

        argv = ["--mutate", "skip-byte-rotation", "--time-budget", "20"]
        code = main(argv + ["--seed", "0"])
        assert code == 0
        assert "detected" in capsys.readouterr().out
