"""Tests for round-robin striping and space reservations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reservation import ReservationTable
from repro.core.striping import (
    BenefactorView,
    RoundRobinStriping,
    StripeAllocation,
)
from repro.exceptions import NoBenefactorsAvailableError


def views(count=6, free=1000, online=True):
    return [
        BenefactorView(benefactor_id=f"b{i:02d}", free_space=free, online=online)
        for i in range(count)
    ]


class TestStripeAllocation:
    def test_round_robin_target_assignment(self):
        allocation = StripeAllocation(benefactors=["a", "b", "c"])
        assert [allocation.target_for(i) for i in range(6)] == ["a", "b", "c"] * 2

    def test_empty_allocation_raises(self):
        with pytest.raises(NoBenefactorsAvailableError):
            StripeAllocation(benefactors=[]).target_for(0)


class TestRoundRobinStriping:
    def test_selects_requested_width(self):
        policy = RoundRobinStriping()
        allocation = policy.select(views(6), stripe_width=4)
        assert allocation.width == 4
        assert len(set(allocation.benefactors)) == 4

    def test_successive_allocations_rotate(self):
        policy = RoundRobinStriping()
        first = policy.select(views(6), 3).benefactors
        second = policy.select(views(6), 3).benefactors
        assert first != second
        # Over two rounds the whole pool is touched.
        assert set(first) | set(second) == {f"b{i:02d}" for i in range(6)}

    def test_width_capped_by_pool_size(self):
        allocation = RoundRobinStriping().select(views(2), stripe_width=8)
        assert allocation.width == 2

    def test_exclusion(self):
        policy = RoundRobinStriping()
        allocation = policy.select(views(4), 4, exclude={"b00", "b01"})
        assert set(allocation.benefactors) == {"b02", "b03"}

    def test_offline_nodes_skipped(self):
        candidates = views(3) + views(3, online=False)
        allocation = RoundRobinStriping().select(candidates, 6)
        assert allocation.width == 3

    def test_space_filter(self):
        candidates = [
            BenefactorView("big", free_space=10_000),
            BenefactorView("small", free_space=10),
        ]
        allocation = RoundRobinStriping().select(candidates, 1, required_space=5_000)
        assert allocation.benefactors == ["big"]

    def test_no_candidates_raises(self):
        with pytest.raises(NoBenefactorsAvailableError):
            RoundRobinStriping().select([], 2)
        with pytest.raises(NoBenefactorsAvailableError):
            RoundRobinStriping().select(views(3, online=False), 2)

    @given(count=st.integers(min_value=1, max_value=12),
           width=st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_allocation_never_duplicates(self, count, width):
        allocation = RoundRobinStriping().select(views(count), width)
        assert len(set(allocation.benefactors)) == len(allocation.benefactors)
        assert allocation.width == min(count, width)


class TestReservations:
    def test_release_deletes_and_never_reuses_the_id(self):
        table = ReservationTable(default_lease=100.0)
        reservation = table.restore(table.next_id, "client", "ds-1", 1000,
                                    ["b0", "b1"], created_at=0.0)
        assert reservation.reservation_id == "rsv-1" and table.next_id == "rsv-2"
        assert table.release("rsv-1") is reservation
        assert len(table) == 0 and table.outstanding() == []
        assert table.next_id == "rsv-2"
        # The lease collector may have taken it first: nothing to release.
        assert table.release("rsv-1") is None

    def test_expiry_and_cleanup(self):
        table = ReservationTable(default_lease=50.0)
        table.restore("rsv-1", "client", "ds", 100, ["b0"], created_at=0.0)
        keep = table.restore("rsv-2", "client", "ds", 100, ["b0"], created_at=40.0)
        expired = table.collect_expired(now=60.0)
        assert [r.reservation_id for r in expired] == ["rsv-1"]
        assert table.outstanding() == [keep]
        assert len(table) == 1
