"""Oriented separations: construction, the partial order, enumeration."""

import gc
import weakref
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit import (
    GroundSetLimitError,
    Separation,
    SeparationFamily,
    efficient_masks,
    enumerate_k_efficient,
    leq,
    lt,
    make_separation,
    min_cardinality_system,
)
from tanglekit.separations import efficient_context, mask_elements

# k4's edge-boundary table has exactly these first sides at order <= 2,
# frozen from a full 64-entry table scan
K4_TWO_EFFICIENT = [0, 1, 2, 4, 8, 16, 31, 32, 47, 55, 59, 61, 62, 63]


class TestConstruction:
    def test_sides_partition_ground_set(self, c4):
        for m in range(16):
            s = make_separation(c4, m)
            assert s.first == m
            assert s.first | s.second == c4.full_mask
            assert s.first & s.second == 0
            assert s.order == c4.evaluate(m)

    def test_mask_out_of_range(self, min3):
        with pytest.raises(ValueError):
            make_separation(min3, -1)
        with pytest.raises(ValueError):
            make_separation(min3, 1 << 3)

    def test_first_elements(self, min3):
        assert make_separation(min3, 0b101).first_elements() == (0, 2)
        assert make_separation(min3, 0).first_elements() == ()

    def test_mask_elements_lists_set_bits_ascending(self):
        for m in range(1 << 10):
            assert mask_elements(m) == [e for e in range(10) if m >> e & 1]

    def test_repr_shows_first_side_and_order(self, min3):
        assert repr(make_separation(min3, 0b011)) == "Separation({0,1}, order=1)"


class TestReverse:
    def test_reverse_swaps_sides(self, min3):
        s = make_separation(min3, 0b001)
        r = s.reverse()
        assert (r.first, r.second) == (s.second, s.first)
        assert r.order == s.order

    def test_reverse_is_an_involution(self, c4):
        for m in range(16):
            s = make_separation(c4, m)
            assert s.reverse().reverse() == s


class TestPartialOrder:
    def test_leq_is_first_side_inclusion(self, min3):
        # on bipartitions the two defining clauses coincide, so the whole
        # relation collapses to subset order on first sides
        seps = [make_separation(min3, m) for m in range(8)]
        for s1, s2 in product(seps, repeat=2):
            assert leq(s1, s2) == (s1.first & ~s2.first == 0)

    def test_chain(self, min3):
        bottom = make_separation(min3, 0)
        mid = make_separation(min3, 0b001)
        top = make_separation(min3, 0b111)
        assert leq(bottom, mid) and leq(mid, top) and leq(bottom, top)
        assert not leq(top, mid) and not leq(mid, bottom)

    def test_lt_excludes_equality(self, min3):
        s = make_separation(min3, 0b011)
        assert not lt(s, s)
        assert lt(make_separation(min3, 0b001), s)

    def test_incomparable_pair(self, c4):
        s1 = make_separation(c4, 0b0011)
        s2 = make_separation(c4, 0b0101)
        assert not leq(s1, s2) and not leq(s2, s1)

    def test_reversal_flips_the_order(self, c4):
        for m1, m2 in product(range(16), repeat=2):
            s1, s2 = make_separation(c4, m1), make_separation(c4, m2)
            assert leq(s1, s2) == leq(s2.reverse(), s1.reverse())

    def test_cross_system_comparison_rejected(self, min3, p3):
        with pytest.raises(ValueError):
            leq(make_separation(min3, 1), make_separation(p3, 1))

    @given(m1=st.integers(0, 15), m2=st.integers(0, 15), m3=st.integers(0, 15))
    @settings(max_examples=200, deadline=None)
    def test_order_axioms(self, c4, m1, m2, m3):
        s1, s2, s3 = (make_separation(c4, m) for m in (m1, m2, m3))
        assert leq(s1, s1)
        if leq(s1, s2) and leq(s2, s1):
            assert s1 == s2
        if leq(s1, s2) and leq(s2, s3):
            assert leq(s1, s3)


class TestEnumeration:
    def test_min3_low_order(self, min3):
        seps = enumerate_k_efficient(min3, 0)
        assert [s.first for s in seps] == [0, 7]
        assert [s.order for s in seps] == [0, 0]

    def test_min3_all_orders(self, min3):
        assert [s.first for s in enumerate_k_efficient(min3, 1)] == list(range(8))

    def test_ascending_and_orientation_closed(self, c4, k4):
        for system, k in [(c4, 1), (c4, 2), (k4, 2), (k4, 3)]:
            seps = enumerate_k_efficient(system, k)
            masks = [s.first for s in seps]
            assert masks == sorted(masks)
            assert all(s.order <= k for s in seps)
            # f is symmetric, so orientations come in pairs
            assert {system.full_mask ^ m for m in masks} == set(masks)

    def test_against_table(self, k4):
        table = k4.table()
        want = [m for m in range(64) if table[m] <= 2]
        assert [s.first for s in enumerate_k_efficient(k4, 2)] == want
        assert want == K4_TWO_EFFICIENT

    def test_efficient_masks_agree(self, c4):
        for k in range(5):
            assert efficient_masks(c4, k) == [
                s.first for s in enumerate_k_efficient(c4, k)
            ]

    def test_negative_k_rejected(self, min3):
        # rejected before the cache is read, so nothing empty is cached and
        # the ground-set cap does not mask the bad k
        for system in (min_cardinality_system(3), min_cardinality_system(17)):
            for build in (efficient_context, efficient_masks, enumerate_k_efficient):
                for k in (-1, -2):
                    with pytest.raises(ValueError, match="non-negative"):
                        build(system, k)
            assert system._contexts == {}
        with pytest.raises(ValueError):
            enumerate_k_efficient(min3, -1)

    def test_context_is_cached_per_k_and_freed_with_its_system(self):
        system = min_cardinality_system(4)
        contexts = [efficient_context(system, k) for k in range(3)]
        assert all(efficient_context(system, k) is contexts[k] for k in range(3))
        assert contexts[0].masks == (0, 15)
        assert contexts[1].elements == (0, 1, 2, 3)
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_ground_set_cap(self):
        big = min_cardinality_system(17)
        with pytest.raises(GroundSetLimitError):
            enumerate_k_efficient(big, 1)
        with pytest.raises(GroundSetLimitError):
            efficient_masks(big, 1)


class TestFamily:
    def test_from_masks_sorts_members(self, min3):
        fam = SeparationFamily.from_masks(min3, 1, [6, 0, 3])
        assert fam.member_masks == (0, 3, 6)
        assert fam.k == 1
        assert len(fam) == 3

    def test_orders_are_recomputed(self, c4):
        fam = SeparationFamily.from_masks(c4, 2, [1, 3])
        assert [s.order for s in fam] == [c4.evaluate(1), c4.evaluate(3)]

    def test_duplicates_rejected(self, min3):
        with pytest.raises(ValueError):
            SeparationFamily.from_masks(min3, 0, [0, 7, 0])

    def test_membership_by_mask_or_separation(self, min3):
        fam = SeparationFamily.from_masks(min3, 1, [0, 5])
        assert 5 in fam
        assert make_separation(min3, 5) in fam
        assert 2 not in fam
        # a separation of another system is no member, even with a shared mask
        other = min_cardinality_system(3)
        assert make_separation(other, 5) not in fam
        assert make_separation(other, 5) not in fam.members

    def test_mask_set(self, min3):
        fam = SeparationFamily.from_masks(min3, 1, [4, 1])
        assert fam.mask_set() == frozenset({1, 4})

    def test_repr(self, min3):
        fam = SeparationFamily.from_masks(min3, 0, [0, 7])
        assert repr(fam) == "SeparationFamily(k=0, first_sides=[{},{0,1,2}])"

    def test_members_are_separations(self, p3):
        fam = SeparationFamily.from_masks(p3, 1, [1, 2])
        assert all(isinstance(s, Separation) for s in fam.members)
