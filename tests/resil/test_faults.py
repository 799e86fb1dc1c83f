"""The fault DSL: parsing, deterministic occurrence counting, file
corruption helpers, and pool-job wrapping."""

import pytest

from repro.resil import faults
from repro.resil.faults import FaultRule, FaultSchedule
from repro.resil.retry import InjectedFault


class TestParsing:
    def test_single_occurrence(self):
        schedule = FaultSchedule.parse("task_fail:3")
        rule = schedule.rules["task_fail"]
        assert not rule.fires_at(2)
        assert rule.fires_at(3)
        assert not rule.fires_at(4)
        assert rule.bounded

    def test_comma_list_and_range(self):
        listed = FaultSchedule.parse("task_fail:1,4").rules["task_fail"]
        assert [listed.fires_at(n) for n in (1, 2, 3, 4)] == [
            True, False, False, True,
        ]
        ranged = FaultSchedule.parse("task_delay:2-4").rules["task_delay"]
        assert [ranged.fires_at(n) for n in (1, 2, 3, 4, 5)] == [
            False, True, True, True, False,
        ]

    def test_star_is_unbounded(self):
        rule = FaultSchedule.parse("stage_fail:*").rules["stage_fail"]
        assert rule.fires_at(1) and rule.fires_at(10 ** 6)
        assert not rule.bounded

    def test_param_and_multiple_rules(self):
        schedule = FaultSchedule.parse(
            "task_delay:1:0.25; cache_corrupt:2"
        )
        assert schedule.rules["task_delay"].param == 0.25
        assert schedule.rules["cache_corrupt"].param is None
        assert len(schedule.rules) == 2

    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSchedule.parse("meteor_strike:1")

    def test_rejects_malformed_and_duplicate_rules(self):
        with pytest.raises(ValueError, match="bad fault rule"):
            FaultSchedule.parse("task_fail")
        with pytest.raises(ValueError, match="duplicate"):
            FaultSchedule.parse("task_fail:1;task_fail:2")
        with pytest.raises(ValueError, match="no occurrences"):
            FaultRule("task_fail", "", None)


class TestCounting:
    def test_passes_counted_per_site(self):
        schedule = FaultSchedule.parse("task_fail:2")
        assert schedule.should_fire("task_fail") is None      # pass 1
        assert schedule.should_fire("task_fail") is not None  # pass 2
        assert schedule.should_fire("task_fail") is None      # pass 3
        # A site with no rule is not even counted.
        assert schedule.should_fire("worker_kill") is None
        snap = schedule.snapshot()
        assert snap["passes"] == {"task_fail": 3}
        assert snap["fired"] == {"task_fail": 1}
        assert snap["spec"] == "task_fail:2"

    def test_same_schedule_same_workload_fires_identically(self):
        spec = "task_fail:2,5;task_delay:3"
        runs = []
        for _ in range(2):
            schedule = FaultSchedule.parse(spec)
            runs.append([
                (schedule.should_fire("task_fail") is not None,
                 schedule.should_fire("task_delay") is not None)
                for _ in range(6)
            ])
        assert runs[0] == runs[1]
        assert [fired for fired, _ in runs[0]] == [
            False, True, False, False, True, False,
        ]


class TestModuleGlobals:
    def test_configure_and_maybe_fail(self, fault_spec):
        fault_spec("stage_fail:1")
        assert faults.active()
        with pytest.raises(InjectedFault) as excinfo:
            faults.maybe_fail("stage_fail", "stage.tree")
        assert excinfo.value.site == "stage_fail"
        faults.maybe_fail("stage_fail")  # pass 2: no fire
        assert faults.snapshot()["fired"] == {"stage_fail": 1}

    def test_disabled_is_free(self, fault_spec):
        faults.configure(None)
        assert not faults.active()
        assert faults.should_fire("task_fail") is None
        assert faults.snapshot() is None
        faults.maybe_fail("task_fail")  # no-op

    def test_schedule_parsed_from_env(self, fault_spec, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "task_fail:1")
        monkeypatch.setattr(faults, "_LOADED", False)
        monkeypatch.setattr(faults, "_ACTIVE", None)
        assert faults.active()
        assert faults.schedule().spec == "task_fail:1"

    def test_maybe_delay_sleeps_param(self, fault_spec, monkeypatch):
        fault_spec("task_delay:1:0.02")
        naps = []
        monkeypatch.setattr(faults.time, "sleep", naps.append)
        assert faults.maybe_delay() == 0.02
        assert naps == [0.02]
        assert faults.maybe_delay() == 0.0  # pass 2: no fire


class TestWrapJob:
    def test_identity_without_schedule(self, fault_spec):
        faults.configure(None)
        fn, args = faults.wrap_job(len, ("abc",))
        assert fn is len and args == ("abc",)

    def test_wrapped_job_raises_then_heals(self, fault_spec):
        fault_spec("task_fail:1")
        fn, args = faults.wrap_job(len, ("abc",))
        assert fn is faults._faulted_job
        with pytest.raises(InjectedFault):
            fn(*args)
        # The next submission is clean (decision is made at wrap time).
        fn, args = faults.wrap_job(len, ("abc",))
        assert fn is len
        assert fn(*args) == 3


class TestCorruptFile:
    def test_flip_and_truncate(self, tmp_path):
        victim = tmp_path / "payload.bin"
        victim.write_bytes(b"\x01\x02\x03\x04")
        assert faults.corrupt_file(victim)
        assert victim.read_bytes() == b"\x01\x02\x03\xfb"
        assert faults.corrupt_file(victim, mode="truncate")
        assert victim.read_bytes() == b"\x01\x02"

    def test_missing_or_empty_file(self, tmp_path):
        assert not faults.corrupt_file(tmp_path / "ghost.bin")
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert not faults.corrupt_file(empty)
