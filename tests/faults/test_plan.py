"""FaultPlan: seeded generation, queries, the report view."""

import json

import pytest

from repro.faults import chaos
from repro.faults.plan import PAYLOAD_KINDS, FaultKind, FaultPlan, FaultSpec
from repro.sched.multiprocess import MultiprocessRuntime


class TestGenerate:
    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(seed=7, num_subframes=20, num_workers=8)
        b = FaultPlan.generate(seed=7, num_subframes=20, num_workers=8)
        assert a == b
        assert a.specs == b.specs

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(seed=1, num_subframes=50, num_workers=8)
        b = FaultPlan.generate(seed=2, num_subframes=50, num_workers=8)
        assert a != b

    def test_faults_per_kind(self):
        plan = FaultPlan.generate(
            seed=0,
            num_subframes=10,
            num_workers=4,
            kinds=(FaultKind.CORE_CRASH, FaultKind.WORKER_DEATH),
            faults_per_kind=3,
        )
        assert len(plan) == 6
        kinds = [s.kind for s in plan.specs]
        assert kinds.count(FaultKind.CORE_CRASH) == 3
        assert kinds.count(FaultKind.WORKER_DEATH) == 3

    def test_targets_and_subframes_in_range(self):
        plan = FaultPlan.generate(seed=3, num_subframes=5, num_workers=2)
        for spec in plan.specs:
            assert 0 <= spec.subframe < 5
            assert 0 <= spec.target < 2

    def test_specs_sorted_by_subframe(self):
        plan = FaultPlan.generate(seed=9, num_subframes=100, num_workers=8)
        subframes = [s.subframe for s in plan.specs]
        assert subframes == sorted(subframes)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            FaultPlan.generate(seed=0, num_subframes=0, num_workers=4)
        with pytest.raises(ValueError):
            FaultPlan.generate(seed=0, num_subframes=4, num_workers=0)


class TestReportView:
    def test_to_dict_is_plain_json_data(self):
        """``repro chaos --json`` reports each scenario's plan this way; a
        plan is replayed by regenerating it from its seed, never read back."""
        plan = FaultPlan.generate(seed=0, num_subframes=4, num_workers=2)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload == {
            "seed": 0,
            "specs": [
                {"kind": s.kind.value, "subframe": s.subframe,
                 "target": s.target, "param": s.param, "seed": s.seed}
                for s in plan.specs
            ],
        }


class TestQueries:
    def test_for_subframe(self):
        specs = (
            FaultSpec(kind=FaultKind.CORE_CRASH, subframe=2, target=0),
            FaultSpec(kind=FaultKind.CORE_STALL, subframe=2, target=1),
            FaultSpec(kind=FaultKind.CORE_CRASH, subframe=5, target=0),
        )
        plan = FaultPlan(specs=specs)
        assert len(plan.for_subframe(2)) == 2
        assert len(plan.for_subframe(5)) == 1
        assert plan.for_subframe(0) == ()

    def test_of_kinds_partitions(self):
        plan = FaultPlan.generate(seed=0, num_subframes=10, num_workers=4)
        parts = [plan.of_kinds(frozenset({kind})) for kind in FaultKind]
        assert sum(len(part) for part in parts) == len(plan)
        for kind, part in zip(FaultKind, parts):
            assert part.seed == plan.seed
            assert all(s.kind is kind for s in part.specs)

    def test_kind_sets_cover_all_kinds(self):
        """Every kind has a taker: the simulator's and the threaded
        runtime's chaos groups, the pool's chaos kinds, and the payload
        corruption every functional backend applies."""
        grouped = {
            kind
            for groups in (chaos.SIM_GROUPS, chaos.THREADED_GROUPS)
            for _, kinds in groups
            for kind in kinds
        }
        taken = grouped | set(MultiprocessRuntime.chaos_kinds) | PAYLOAD_KINDS
        assert taken == set(FaultKind)
