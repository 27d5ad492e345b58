"""Relabelling invariance: renaming the ground set changes no result.

A permutation pi of {0..n-1} moves a system S to pi(S), whose value table
holds f(A) at pi(A).  Every family, pass/fail, width, count and hunt tally
of pi(S) must be pi of those of S; only a first witness may differ, as it is
the first in scan order, but pi of the old witness must still fail its
clause on pi(S).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit import (
    ORIENTATION_KINDS,
    AxiomResult,
    NamedCorpus,
    SeparationFamily,
    StructureKind,
    branch_width,
    check_structure,
    efficient_masks,
    enumerate_all,
    explicit_system,
    hunt,
    random_hyperedge_system,
    verify_theorem,
)
from tanglekit.structures import VARIANTS
from test_structures import witness_refails

PROFILE_KINDS = {
    StructureKind.PROFILE,
    StructureKind.NON_PRINCIPAL_PROFILE,
    StructureKind.LINEAR_PROFILE,
    StructureKind.NON_PRINCIPAL_LINEAR_PROFILE,
}


def relabel_mask(perm, mask):
    return sum(1 << perm[e] for e in range(len(perm)) if mask >> e & 1)


def relabel_masks(perm, masks):
    """pi of a family's masks, sorted as a family holds them."""
    return tuple(sorted(relabel_mask(perm, m) for m in masks))


def relabelled(system, perm):
    """pi(S) for any system with n <= 8, built from its permuted value table."""
    assert system.n <= 8 and sorted(perm) == list(range(system.n))
    table = system.to_explicit().table()
    values = [0] * len(table)
    for mask, value in enumerate(table):
        values[relabel_mask(perm, mask)] = int(value)
    return explicit_system(values, name=f"{system.name}-relabelled")


@st.composite
def relabellings(draw, max_n=6):
    """A seeded hyperedge system with n <= max_n and a permutation of its ground set."""
    n = draw(st.integers(2, max_n))
    edges, seed = draw(st.integers(1, n)), draw(st.integers(0, 999))
    return random_hyperedge_system(n, edges, min(3, n), seed), draw(st.permutations(range(n)))


def mask_sets(families, perm):
    return {relabel_masks(perm, f.member_masks) for f in families}


def refuted(verdict, perm):
    return {
        (c.claim, c.k, relabel_masks(perm, c.family.member_masks))
        for c in verdict.counterexamples
    }


def kind_variants():
    for kind in ORIENTATION_KINDS:
        for variant in VARIANTS if kind in PROFILE_KINDS else ("corrected",):
            yield kind, variant


class TestRelabellingInvariance:
    # the searches and hunts stop at n = 5: one n = 6 hunt takes longer than
    # the whole class
    @settings(max_examples=15, deadline=None)
    @given(relabellings(max_n=5))
    def test_enumerate_all_maps_families_through_pi(self, case):
        system, perm = case
        moved = relabelled(system, perm)
        for k in range(system.max_order() + 1):
            for kind, variant in kind_variants():
                before = enumerate_all(kind, system, k, variant=variant)
                after = enumerate_all(kind, moved, k, variant=variant)
                assert before.complete and after.complete
                assert mask_sets(after, range(system.n)) == mask_sets(before, perm), (kind, k)

    @settings(max_examples=15, deadline=None)
    @given(relabellings(), st.integers(0, 2**32))
    def test_check_structure_keeps_every_verdict(self, case, seed):
        system, perm = case
        moved = relabelled(system, perm)
        rng = random.Random(seed)
        for k in range(system.max_order() + 1):
            eff = efficient_masks(system, k)
            for _ in range(4):
                masks = [m for m in eff if rng.random() < 0.5]
                moved_masks = relabel_masks(perm, masks)
                fam = SeparationFamily.from_masks(system, k, masks)
                moved_fam = SeparationFamily.from_masks(moved, k, moved_masks)
                for kind in StructureKind:
                    for variant in VARIANTS:
                        before = check_structure(system, k, fam, kind, variant)
                        after = check_structure(moved, k, moved_fam, kind, variant)
                        assert [(r.axiom, r.passed) for r in after.results] == [
                            (r.axiom, r.passed) for r in before.results
                        ]
                        for r in before.failures():
                            witness = tuple(relabel_mask(perm, m) for m in r.witness)
                            element = None if r.element is None else perm[r.element]
                            moved_r = AxiomResult(r.axiom, False, witness, element)
                            assert witness_refails(moved, k, moved_masks, moved_r), r

    @settings(max_examples=15, deadline=None)
    @given(relabellings())
    def test_branch_width_is_unchanged(self, case):
        system, perm = case
        assert branch_width(relabelled(system, perm))[0] == branch_width(system)[0]

    @settings(max_examples=10, deadline=None)
    @given(relabellings(max_n=5))
    def test_theorem_counts_are_unchanged(self, case):
        system, perm = case
        moved = relabelled(system, perm)
        for k in range(system.max_order() + 1):
            for theorem in (11, 12, 15, 16):
                before = verify_theorem(theorem, system, k)
                after = verify_theorem(theorem, moved, k)
                assert (after.counts, after.passed) == (before.counts, before.passed)

    @settings(max_examples=15, deadline=None)
    @given(relabellings(max_n=5))
    def test_hunt_tallies_are_unchanged(self, case):
        system, perm = case
        moved = relabelled(system, perm)
        for problem in (9, 10):
            before = hunt(problem, NamedCorpus((system,)))
            after = hunt(problem, NamedCorpus((moved,)))
            assert after.structures_examined == before.structures_examined
            assert len(after.counterexamples) == len(before.counterexamples)
            assert refuted(after, range(system.n)) == refuted(before, perm)
