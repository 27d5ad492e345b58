"""Dual transform, exact branch-width, and the theorem verifiers."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import mask_of
from tanglekit import (
    GroundSetLimitError,
    SearchBudget,
    SearchBudgetError,
    SeparationFamily,
    branch_width,
    builtin_system,
    check_structure,
    dual_family,
    graph_cut_system,
    min_cardinality_system,
    random_hyperedge_system,
    standard_corpus,
    verify_branchwidth_duality,
    verify_theorem,
)
from tanglekit import duality
from tanglekit.duality import _cubic_trees

DOUBLE_FACTORIALS = {2: 1, 3: 1, 4: 3, 5: 15, 6: 105, 7: 945}


def _seeded_cut(n, seed):
    rng = random.Random(seed)
    edges = [(str(u), str(v)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    return graph_cut_system([str(v) for v in range(n)], edges, name=f"cut{n}-s{seed}")


def _witness_systems():
    """The standard corpus (which holds every builtin) and seeded graph-cut
    and hyperedge systems at n = 7 and 8, up to the tree enumeration cap."""
    systems = standard_corpus()
    for n in (7, 8):
        for seed in (0, 1):
            systems.append(_seeded_cut(n, seed))
            systems.append(random_hyperedge_system(n, n, 3, seed, name=f"hyper{n}-s{seed}"))
    return systems


class TestDualFamily:
    def test_reverses_every_member(self, min3):
        fam = SeparationFamily.from_masks(min3, 1, [0, 3, 5])
        assert dual_family(fam).member_masks == (2, 4, 7)

    def test_involution(self, c4):
        for masks in [[0], [1, 3, 7], list(range(16))]:
            fam = SeparationFamily.from_masks(c4, 4, masks)
            assert dual_family(dual_family(fam)).member_masks == fam.member_masks

    def test_preserves_k_and_orders(self, c4):
        fam = SeparationFamily.from_masks(c4, 2, [1, 3])
        dual = dual_family(fam)
        assert dual.k == 2
        assert sorted(s.order for s in dual) == sorted(s.order for s in fam)

    def test_tangle_dualizes_to_ultrafilter(self, min3):
        tangle = SeparationFamily.from_masks(min3, 0, [0])
        dual = dual_family(tangle)
        assert dual.member_masks == (7,)
        assert check_structure(min3, 0, dual, "ultrafilter").passed


class TestCubicTrees:
    @pytest.mark.parametrize("n", sorted(DOUBLE_FACTORIALS))
    def test_tree_count_is_odd_double_factorial(self, n):
        assert len(_cubic_trees(n)) == DOUBLE_FACTORIALS[n]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_no_tree_appears_twice(self, n):
        signatures = {frozenset(tree) for tree in _cubic_trees(n)}
        assert len(signatures) == DOUBLE_FACTORIALS[n]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_leaves_have_degree_one_and_internals_three(self, n):
        """Read through the clusters, each edge's leaf set away from leaf 0:
        2n - 3 distinct edges, leaf 0's edge holds every other leaf, each
        other leaf has its own edge, and every internal node below leaf 0
        splits its cluster into exactly two."""
        rest = (1 << n) - 2
        for tree in _cubic_trees(n):
            clusters = set(tree)
            assert len(tree) == len(clusters) == 2 * n - 3
            assert rest in clusters
            assert all(1 << e in clusters for e in range(1, n))
            for c in clusters:
                if c & (c - 1):
                    inside = [d for d in clusters if d & c == d != c]
                    top = [d for d in inside if not any(d & e == d != e for e in inside)]
                    assert len(top) == 2 and top[0] | top[1] == c
                    assert top[0] & top[1] == 0


class TestBranchWidth:
    @pytest.mark.parametrize(
        "name,width", [("min3", 1), ("p3", 1), ("c4", 2), ("k4", 3)]
    )
    def test_frozen_widths(self, name, width):
        assert branch_width(builtin_system(name))[0] == width

    @pytest.mark.parametrize("n,width", [(2, 1), (3, 1), (4, 2), (5, 2)])
    def test_min_cardinality_widths(self, n, width):
        assert branch_width(min_cardinality_system(n))[0] == width

    def test_matches_split_dp_oracle(self, min3, p3, c4, k4):
        for system in (min3, p3, c4, k4):
            want = oracle.branch_width_dp(
                lambda a, s=system: s.evaluate(mask_of(a)), system.n
            )
            assert branch_width(system)[0] == want

    def test_witness_is_verifiable(self, c4, k4):
        for system in (c4, k4):
            width, bd = branch_width(system)
            assert bd.width == width
            assert bd.recompute_width() == width
            assert len(bd.splits) == 2 * system.n - 3
            assert bd.splits == tuple(sorted(bd.splits))

    def test_witness_frozen_for_c4(self, c4):
        _, bd = branch_width(c4)
        assert bd.splits == (1, 2, 3, 4, 7)
        assert bd.nested() == [0, [1, [2, 3]]]

    def test_witnesses_match_the_pin(self):
        rows = []
        for system in _witness_systems():
            width, bd = branch_width(system)
            rows.append((system.describe(), width, bd.splits, bd.nested()))
        assert [width for _, width, _, _ in rows] == [
            1, 1, 2, 3, 1, 1, 2, 2, 3, 3, 3, 3, 3, 3, 4, 3, 3, 4,
            4, 4, 4, 5, 5, 4, 4, 4, 4, 3, 3, 5, 4, 5, 2, 4, 4, 4,
        ]
        assert rows[-4] == (
            "cut8-s0", 2, (1, 2, 4, 6, 8, 9, 16, 25, 32, 38, 64, 89, 127),
            [0, [[[[[[1, 2], 5], 7], 6], 4], 3]],
        )
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "4bb1020c5ff7daaf0b79be7b6588c9da0eb623203b0edcdfbeceb3bb59592bda"
        )

    def test_tie_break_is_least_splits_tuple(self, c4):
        width, bd = branch_width(c4)
        candidates = []
        for clusters in _cubic_trees(c4.n):
            if max(c4.evaluate(m) for m in clusters) == width:
                candidates.append(
                    tuple(sorted(min(m, c4.full_mask ^ m) for m in clusters))
                )
        assert bd.splits == min(candidates)

    def test_trees_are_enumerated_once_per_system(self, monkeypatch):
        system = random_hyperedge_system(5, 5, 3, seed=3)
        fresh = branch_width(random_hyperedge_system(5, 5, 3, seed=3))
        calls = []
        monkeypatch.setattr(
            duality, "_cubic_trees", lambda n: calls.append(n) or _cubic_trees(n)
        )
        verdicts = [
            verify_theorem(t, system, k)
            for k in range(system.max_order() + 1) for t in (15, 16)
        ]
        width, tree = branch_width(system)
        assert calls == [5]
        assert {v.bw for v in verdicts} == {width} == {fresh[0]}
        assert tree.splits == fresh[1].splits

    def test_deterministic(self, k4):
        assert branch_width(k4) == branch_width(k4)

    def test_single_element_ground_set(self):
        s = min_cardinality_system(1)
        width, bd = branch_width(s)
        assert (width, bd.splits) == (0, ())
        assert bd.nested() == [0]
        assert bd.recompute_width() == 0

    def test_two_element_ground_set(self, p3):
        width, bd = branch_width(p3)
        assert (width, bd.splits) == (1, (1,))
        assert bd.nested() == [0, 1]

    def test_ground_set_cap(self):
        with pytest.raises(GroundSetLimitError):
            branch_width(min_cardinality_system(9))

    @given(n=st.integers(2, 5), count=st.integers(0, 5), seed=st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_on_random_systems(self, n, count, seed):
        system = random_hyperedge_system(n, count, min(3, n), seed)
        want = oracle.branch_width_dp(
            lambda a: system.evaluate(mask_of(a)), n
        )
        assert branch_width(system)[0] == want


class TestVerifyTheorem:
    def test_bijection_on_the_smallest_system(self, min3):
        verdict = verify_theorem(11, min3, 0)
        assert verdict.passed
        assert verdict.counts == {"tangle": 1, "ultrafilter": 1}
        assert verdict.unmatched == ()
        assert verdict.bw is None
        assert (verdict.theorem, verdict.system, verdict.k) == (11, "min3", 0)

    def test_bijection_vacuous_when_both_sides_empty(self, min3):
        verdict = verify_theorem(11, min3, 1)
        assert verdict.passed
        assert verdict.counts == {"tangle": 0, "ultrafilter": 0}

    def test_bijection_holds_across_c4_orders(self, c4):
        for k in range(5):
            assert verify_theorem(11, c4, k).passed

    def test_linear_bijection_fails_honestly(self, min3):
        # both orientations of (emptyset, X) are linear tangles at k = 0,
        # but only one family survives the single-ultrafilter axioms
        verdict = verify_theorem(12, min3, 0)
        assert not verdict.passed
        assert verdict.counts == {"linear_tangle": 2, "single_ultrafilter": 1}
        assert [(kind, f.member_masks) for kind, f in verdict.unmatched] == [
            ("linear_tangle", (7,))
        ]

    def test_linear_bijection_vacuous_case(self, c4):
        verdict = verify_theorem(12, c4, 2)
        assert verdict.passed
        assert verdict.counts == {"linear_tangle": 0, "single_ultrafilter": 0}

    def test_existence_equivalence(self, min3):
        verdict = verify_theorem(15, min3, 0)
        assert verdict.passed
        assert verdict.counts == {
            "non_principal_profile": 1,
            "tangle": 1,
            "ultrafilter": 1,
            "non_principal_profile_literal": 0,
        }
        assert verdict.bw == 1
        assert verdict.existence() == {
            "non_principal_profile": True, "tangle": True, "ultrafilter": True,
        }

    def test_existence_equivalence_all_absent(self, min3):
        verdict = verify_theorem(15, min3, 1)
        assert verdict.passed
        assert set(verdict.existence().values()) == {False}

    def test_linear_existence_equivalence(self, min3):
        # no k-efficient element at k = 0, so literal and corrected coincide
        verdict = verify_theorem(16, min3, 0)
        assert verdict.passed
        assert verdict.counts == {
            "non_principal_linear_profile": 1,
            "linear_tangle": 2,
            "single_ultrafilter": 1,
            "non_principal_linear_profile_literal": 1,
        }

    def test_unknown_theorem(self, min3):
        with pytest.raises(ValueError):
            verify_theorem(13, min3, 0)

    def test_verdict_withheld_when_budget_runs_out(self, c4):
        with pytest.raises(SearchBudgetError):
            verify_theorem(11, c4, 4, SearchBudget(max_nodes=1))

    def test_ground_set_beyond_search_budget(self):
        with pytest.raises(SearchBudgetError):
            verify_theorem(11, min_cardinality_system(9), 1)

    def test_deterministic(self, min3):
        assert verify_theorem(12, min3, 0) == verify_theorem(12, min3, 0)


class TestBranchwidthDuality:
    def test_min3_report(self, min3):
        report = verify_branchwidth_duality(min3)
        assert (report.system, report.bw, report.max_tangle_order) == ("min3", 1, 1)
        assert report.per_k == ((0, True, True), (1, False, True))
        assert report.agrees and not report.degenerate

    def test_c4_report(self, c4):
        report = verify_branchwidth_duality(c4)
        assert (report.bw, report.max_tangle_order) == (2, 2)
        assert report.per_k == (
            (0, True, True), (1, True, True), (2, False, True),
            (3, False, True), (4, False, True),
        )
        assert report.agrees

    def test_small_ground_sets_are_flagged(self, p3):
        report = verify_branchwidth_duality(p3)
        assert report.degenerate
        assert report.agrees
        assert report.per_k == ((0, True, True), (1, False, True))

    def test_kmax_truncates_but_still_reports(self, c4):
        report = verify_branchwidth_duality(c4, kmax=1)
        assert report.per_k == ((0, True, True), (1, True, True))
        assert report.agrees

    def test_kmax_beyond_range_is_a_full_sweep(self, min3):
        assert verify_branchwidth_duality(min3, kmax=10) == verify_branchwidth_duality(
            min3
        )

    def test_ground_set_cap(self):
        with pytest.raises(GroundSetLimitError):
            verify_branchwidth_duality(min_cardinality_system(8))

    def test_agrees_on_k4_and_min_cardinality(self, k4):
        assert verify_branchwidth_duality(k4).agrees
        for n in range(2, 6):
            report = verify_branchwidth_duality(min_cardinality_system(n))
            assert report.agrees
            assert report.degenerate == (n <= 2)
