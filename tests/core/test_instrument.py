"""Tests for work counters and phase timers."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.core.instrument import PhaseTimer, WorkCounter, null_counter

INT_FIELDS = [
    f.name for f in dataclasses.fields(WorkCounter)
    if f.type in ("int", "float")
]


class TestWorkCounter:
    def test_starts_at_zero(self):
        c = WorkCounter()
        assert c.total_ops() == 0
        assert c.points_processed == 0

    def test_merge_accumulates(self):
        a = WorkCounter(spatial_evals=5, madds=2, points_processed=1)
        b = WorkCounter(spatial_evals=3, temporal_evals=7, init_writes=11)
        a.merge(b)
        assert a.spatial_evals == 8
        assert a.temporal_evals == 7
        assert a.madds == 2
        assert a.init_writes == 11
        assert a.points_processed == 1

    def test_merge_returns_self(self):
        a = WorkCounter()
        assert a.merge(WorkCounter()) is a

    def test_total_ops_excludes_points_processed(self):
        c = WorkCounter(points_processed=100, madds=3)
        assert c.total_ops() == 3

    def test_flop_estimate_weights(self):
        c = WorkCounter(spatial_evals=2, temporal_evals=3, madds=4)
        assert c.flop_estimate(spatial_flops=10, temporal_flops=1) == 20 + 3 + 8

    def test_as_dict_round_trip(self):
        c = WorkCounter(spatial_evals=1, reduce_adds=9)
        d = c.as_dict()
        c2 = WorkCounter(**d)
        assert c2.as_dict() == d

    def test_copy_is_independent(self):
        c = WorkCounter(madds=1)
        c2 = c.copy()
        c2.madds += 5
        assert c.madds == 1

    def test_region_counters_merge_and_stay_bookkeeping(self):
        a = WorkCounter(tile_batches=2, shard_bbox_cells=100)
        a.merge(WorkCounter(tile_batches=3, shard_bbox_cells=50, madds=7))
        assert a.tile_batches == 5
        assert a.shard_bbox_cells == 150
        # Bookkeeping counters stay out of the op/flop aggregates.
        assert a.total_ops() == 7
        assert a.flop_estimate() == 14
        d = a.as_dict()
        assert d["tile_batches"] == 5 and d["shard_bbox_cells"] == 150

    def test_null_counter_drops_region_counters(self):
        from repro.core.instrument import null_counter

        n = null_counter()
        n.tile_batches += 3
        n.shard_bbox_cells += 99
        assert n.tile_batches == 0
        assert n.shard_bbox_cells == 0


class TestEveryField:
    """``merge``, ``as_dict`` and the null counter derive from the
    dataclass: a counter added as one field line is covered here (the
    scalar fields are ints but for the sampler's two float sums)."""

    def test_the_fields_are_the_ints_plus_dispatches(self):
        names = [f.name for f in dataclasses.fields(WorkCounter)]
        assert names == INT_FIELDS + ["backend_dispatches"]
        # Serialised in declaration order, and round-trips.
        c = WorkCounter(**{n: i + 1 for i, n in enumerate(INT_FIELDS)})
        assert list(c.as_dict()) == names
        assert WorkCounter(**c.as_dict()) == c

    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_int_field_is_merged_serialised_and_null_frozen(self, name):
        a = WorkCounter(**{name: 5})
        assert a.merge(WorkCounter(**{name: 3})) is a
        assert getattr(a, name) == 8
        assert a.as_dict()[name] == 8
        assert sum(a.as_dict()[n] for n in INT_FIELDS) == 8  # and no other
        n = null_counter()
        setattr(n, name, 7)
        assert getattr(n, name) == 0
        assert n.as_dict()[name] == 0


class TestNullCounter:
    def test_drops_all_writes(self):
        n = null_counter()
        n.spatial_evals += 100
        n.madds += 5
        assert n.spatial_evals == 0
        assert n.madds == 0
        assert n.total_ops() == 0

    def test_merge_is_noop(self):
        n = null_counter()
        n.merge(WorkCounter(madds=50))
        assert n.total_ops() == 0

    def test_shared_instance(self):
        assert null_counter() is null_counter()


class TestPhaseTimer:
    def test_records_elapsed(self):
        t = PhaseTimer()
        with t.phase("a"):
            time.sleep(0.01)
        assert t.seconds["a"] >= 0.009
        assert t.total == pytest.approx(t.seconds["a"])

    def test_phases_accumulate(self):
        t = PhaseTimer()
        for _ in range(3):
            with t.phase("x"):
                pass
        assert "x" in t.seconds
        assert t.seconds["x"] >= 0

    def test_multiple_phases(self):
        t = PhaseTimer()
        with t.phase("init"):
            pass
        with t.phase("compute"):
            pass
        assert set(t.seconds) == {"init", "compute"}

    def test_reentering_same_phase_rejected(self):
        t = PhaseTimer()
        with pytest.raises(RuntimeError, match="already open"):
            with t.phase("a"):
                with t.phase("a"):
                    pass

    def test_nested_distinct_phases_ok(self):
        t = PhaseTimer()
        with t.phase("outer"):
            with t.phase("inner"):
                time.sleep(0.005)
        assert t.seconds["outer"] >= t.seconds["inner"]

    def test_add_external_time(self):
        t = PhaseTimer()
        t.add("reduce", 1.5)
        t.add("reduce", 0.5)
        assert t.seconds["reduce"] == pytest.approx(2.0)

    def test_add_negative_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimer().add("x", -1.0)

    def test_fraction(self):
        t = PhaseTimer()
        t.add("a", 3.0)
        t.add("b", 1.0)
        assert t.fraction("a") == pytest.approx(0.75)
        assert t.fraction("missing") == 0.0

    def test_fraction_empty_timer(self):
        assert PhaseTimer().fraction("a") == 0.0

    def test_phase_closed_on_exception(self):
        t = PhaseTimer()
        with pytest.raises(RuntimeError, match="boom"):
            with t.phase("a"):
                raise RuntimeError("boom")
        assert "a" in t.seconds
        # Phase can be entered again after the exception.
        with t.phase("a"):
            pass
