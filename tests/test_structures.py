"""Axiom predicates and composite structure checkers against naive oracles.

The heavy tests sweep every subset of the k-efficient masks (small systems)
or every orientation family (larger ones) and demand bit-for-bit agreement
with the frozenset predicates in oracle.py.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import mask_of, masks_of
from tanglekit import (
    ORIENTATION_KINDS,
    AxiomId,
    ConnectivitySystem,
    FilterBaseError,
    GroundSetLimitError,
    SeparationFamily,
    StructureKind,
    axiom_ids,
    builtin_system,
    check_axiom,
    check_filter_base_generates,
    check_structure,
    efficient_masks,
    enumerate_all,
    explicit_system,
    min_cardinality_system,
    random_hyperedge_system,
    to_document,
)

A = AxiomId
PROFILE_KINDS = {
    StructureKind.PROFILE,
    StructureKind.NON_PRINCIPAL_PROFILE,
    StructureKind.LINEAR_PROFILE,
    StructureKind.NON_PRINCIPAL_LINEAR_PROFILE,
}


def set_fn(system):
    """The system's set function over frozensets, as oracle.py expects."""

    def f(a):
        return system.evaluate(mask_of(a))

    return f


def as_sets(masks, n):
    return frozenset(frozenset(i for i in range(n) if m >> i & 1) for m in masks)


def oracle_pass(kind, f, n, k, fam_sets, variant):
    pred = oracle.PREDICATES[kind.value]
    if kind in PROFILE_KINDS:
        return pred(f, n, k, fam_sets, literal=(variant == "literal"))
    return pred(f, n, k, fam_sets)


def family(system, k, masks):
    return SeparationFamily.from_masks(system, k, masks)


class TestAxiomLists:
    def test_every_kind_starts_with_the_order_bound(self):
        for kind in StructureKind:
            assert axiom_ids(kind)[0] is A.P0

    def test_frozen_lists(self):
        assert axiom_ids(StructureKind.TANGLE) == (A.P0, A.T1, A.T2, A.T3)
        assert axiom_ids("linear_tangle") == (A.P0, A.T1, A.T2, A.LT3)
        assert axiom_ids("ultrafilter") == (A.P0, A.F1, A.F2, A.F3, A.F4, A.F5)
        assert axiom_ids("single_ultrafilter") == (A.P0, A.F1, A.F2, A.F3, A.F4, A.SF5)
        assert axiom_ids("weak_ultrafilter") == (A.P0, A.F1, A.F2, A.F3, A.F4, A.WF5)
        assert axiom_ids("filter_base") == (A.P0, A.FB1, A.FB2)

    def test_variant_resolution(self):
        assert axiom_ids("profile") == (A.P0, A.P1, A.P2, A.P3A_CORRECTED, A.P3B)
        assert axiom_ids("profile", "literal")[3] is A.P3A_LITERAL
        assert axiom_ids("non_principal_profile")[-1] is A.P4
        assert axiom_ids("linear_profile") == (A.P0, A.P1, A.P2, A.SP3_CORRECTED)
        assert axiom_ids("linear_profile", "literal")[-1] is A.SP3_LITERAL
        assert axiom_ids("non_principal_linear_profile") == (
            A.P0, A.P1, A.P2, A.SP3_CORRECTED, A.P4,
        )

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            axiom_ids("profile", "fixed")
        with pytest.raises(ValueError):
            axiom_ids("lattice")


class TestSingleAxioms:
    def test_triple_union_covers_ground_set(self, min3):
        # {0} | {1} | {2} = X; the three singleton members are the witness
        res = check_axiom(min3, 1, family(min3, 1, [0, 1, 2, 4]), A.T3)
        assert not res.passed
        assert res.witness == (1, 2, 4)

    def test_empty_side_member_violates_f2(self, min3):
        res = check_axiom(min3, 1, family(min3, 1, [0, 3]), A.F2)
        assert not res.passed
        assert list(res.witness) == [0]

    def test_orientation_pass_and_fail(self, min3):
        assert check_axiom(min3, 0, family(min3, 0, [0]), A.T1).passed
        res = check_axiom(min3, 0, family(min3, 0, []), A.T1)
        assert not res.passed and res.witness[0] == 0

    def test_orientation_reads_f_at_the_lower_side_only(self):
        # f({1,2}) = 0 but f({0}) = 1: at k = 0 the separation ({1,2}, {0})
        # has order <= k only from one side.  T1 reads f at the lower side
        # {0} of each pair, so the family of (X, emptyset) alone passes
        values = (0, 1, 1, 1, 1, 1, 0, 0)
        skewed = ConnectivitySystem(3, "explicit", values=values)
        assert check_axiom(skewed, 0, family(skewed, 0, [7]), A.T1).passed
        assert not check_axiom(skewed, 0, family(skewed, 0, []), A.T1).passed

    def test_missing_efficient_singleton(self, min3):
        res = check_axiom(min3, 1, family(min3, 1, [0, 1, 2]), A.T2)
        assert not res.passed
        assert (res.witness[0], res.element) == (4, 2)

    def test_member_above_order_bound(self, min3):
        res = check_axiom(min3, 0, family(min3, 0, [1]), A.P0)
        assert not res.passed and res.witness[0] == 1

    def test_superset_closure_gap(self, min3):
        res = check_axiom(min3, 1, family(min3, 1, [1]), A.F4)
        assert not res.passed
        assert list(res.witness) == [1, 3]

    def test_meet_closure_gap(self, min3):
        res = check_axiom(min3, 1, family(min3, 1, [3, 5]), A.F5)
        assert not res.passed
        assert list(res.witness) == [3, 5, 1]

    def test_empty_triple_intersection(self, min3):
        res = check_axiom(min3, 1, family(min3, 1, [3, 5, 6, 7]), A.F6)
        assert not res.passed
        assert list(res.witness) == [3, 5, 6]

    def test_disjoint_members_break_wf5(self, min3):
        res = check_axiom(min3, 1, family(min3, 1, [1, 2]), A.WF5)
        assert not res.passed
        assert list(res.witness) == [1, 2]
        # but the same pair is fine when their meet cannot have order <= k
        assert check_axiom(min3, 1, family(min3, 1, [3, 5, 6, 7]), A.WF5).passed

    def test_wf5_needs_the_empty_side_orientable(self):
        # f is 1 everywhere: at k = 0, (emptyset, X) is no separation of
        # order <= k, so disjoint members are allowed
        lifted = explicit_system([1, 1, 1, 1])
        assert check_axiom(lifted, 0, family(lifted, 0, [1, 2]), A.WF5).passed
        res = check_axiom(lifted, 1, family(lifted, 1, [1, 2]), A.WF5)
        assert list(res.witness) == [1, 2]

    def test_deletion_closure_gap(self, min3):
        res = check_axiom(min3, 1, family(min3, 1, [3]), A.SF5)
        assert not res.passed
        assert (list(res.witness), res.element) == ([3, 2], 0)

    def test_consistency(self, min3):
        # a member whose reverse sits below another member
        res = check_axiom(min3, 1, family(min3, 1, [1, 6]), A.CONSISTENT)
        assert not res.passed
        assert list(res.witness) == [1, 6]
        # (X, emptyset) is below its own reverse, so it is self-inconsistent
        assert not check_axiom(min3, 0, family(min3, 0, [7]), A.CONSISTENT).passed
        assert check_axiom(min3, 1, family(min3, 1, [1, 3]), A.CONSISTENT).passed

    def test_literal_meet_exclusion_refutes_any_member(self, min3):
        # instantiating both quantified members as the same A makes the
        # excluded separation A itself
        res = check_axiom(min3, 1, family(min3, 1, [3]), A.P3A_LITERAL)
        assert not res.passed
        assert list(res.witness) == [3, 3, 3]
        assert check_axiom(min3, 1, family(min3, 1, []), A.P3A_LITERAL).passed

    def test_corrected_meet_exclusion(self, min3):
        assert check_axiom(min3, 1, family(min3, 1, [3]), A.P3A_CORRECTED).passed
        res = check_axiom(min3, 1, family(min3, 1, [3, 4]), A.P3A_CORRECTED)
        # with A1 = A2 = {0,1}, the excluded side is {2}, which is a member
        assert not res.passed
        assert list(res.witness) == [3, 3, 4]

    def test_literal_deletion_exclusion(self, min3):
        # e outside A leaves A unchanged, so A excludes itself
        res = check_axiom(min3, 1, family(min3, 1, [2]), A.SP3_LITERAL)
        assert not res.passed
        assert (list(res.witness), res.element) == ([2, 2], 0)
        # every element lies inside X, so (X, emptyset) alone survives
        assert check_axiom(min3, 1, family(min3, 1, [7]), A.SP3_LITERAL).passed

    def test_corrected_deletion_exclusion(self, min3):
        res = check_axiom(min3, 1, family(min3, 1, [2, 4]), A.SP3_CORRECTED)
        # member {1}, element 0: the excluded side is {2}, also a member
        assert not res.passed
        assert (list(res.witness), res.element) == ([2, 4], 0)
        assert check_axiom(min3, 1, family(min3, 1, [2, 6]), A.SP3_CORRECTED).passed

    def test_filter_base_axioms(self, min3):
        assert not check_axiom(min3, 1, family(min3, 1, []), A.FB1).passed
        res = check_axiom(min3, 1, family(min3, 1, [1, 2]), A.FB2)
        assert not res.passed
        assert list(res.witness) == [1, 2]
        assert check_axiom(min3, 1, family(min3, 1, [1, 3]), A.FB2).passed

    def test_axiom_accepts_string_id(self, min3):
        assert check_axiom(min3, 0, family(min3, 0, [0]), "T1").passed

    def test_input_validation(self, min3):
        other = min_cardinality_system(3)
        with pytest.raises(ValueError):
            check_axiom(min3, 0, family(other, 0, [0]), A.T1)
        with pytest.raises(ValueError):
            check_axiom(min3, -1, family(min3, 0, [0]), A.T1)

    def test_enumeration_cap_only_where_needed(self):
        big = min_cardinality_system(17)
        fam = family(big, 1, [0])
        # F2 inspects members only; T1 must enumerate and hits the cap
        assert not check_axiom(big, 1, fam, A.F2).passed
        with pytest.raises(GroundSetLimitError):
            check_axiom(big, 1, fam, A.T1)

    def test_order_bound_beyond_the_enumeration_cap(self):
        # past the cap P0 reads f member by member instead of the table
        big = min_cardinality_system(17)
        res = check_axiom(big, 1, family(big, 1, [0, 1, 3, 6, big.full_mask]), A.P0)
        assert not res.passed
        assert list(res.witness) == [3]
        assert check_axiom(big, 1, family(big, 1, [0, 1, 1 << 16]), A.P0).passed

    def test_past_the_cap_the_context_raises_before_a_closure(self, monkeypatch):
        # P2, F4 and the filter-base closure read the context before they
        # shift-and-OR, so no per-n closure table is built for a size they refuse
        from tanglekit import structures

        sizes = []
        containing = structures._containing

        def counted(n):
            sizes.append(n)
            return containing(n)

        monkeypatch.setattr(structures, "_containing", counted)
        big = min_cardinality_system(17)
        for ax in (A.P2, A.F4):
            with pytest.raises(GroundSetLimitError):
                check_axiom(big, 1, family(big, 1, [1, big.full_mask ^ 1]), ax)
        with pytest.raises(GroundSetLimitError):
            check_filter_base_generates(big, 1, family(big, 1, [0]))
        assert sizes == []


class TestCheckStructure:
    def test_minimal_tangle(self, min3):
        report = check_structure(min3, 0, family(min3, 0, [0]), StructureKind.TANGLE)
        assert report.passed
        assert [r.axiom for r in report.results] == [A.P0, A.T1, A.T2, A.T3, A.T4]
        assert report.failures() == ()

    def test_minimal_ultrafilter(self, min3):
        report = check_structure(min3, 0, family(min3, 0, [7]), "ultrafilter")
        assert report.passed
        assert report.results[-1].axiom is A.F6
        assert report.result(A.F6).passed

    def test_no_tangle_at_k1_on_min3(self, min3):
        # singleton forcing meets the triple-union bound head on: all 16
        # orientation choices fail
        f = set_fn(min3)
        for fam_sets in oracle.orientation_families(f, 3, 1):
            masks = sorted(mask_of(a) for a in fam_sets)
            report = check_structure(min3, 1, family(min3, 1, masks), "tangle")
            assert not report.passed

    def test_diagnostic_entry_never_gates(self, min3):
        # the weak ultrafilter at k=1 has an empty triple intersection, so
        # its F6 entry fails while the report still passes
        report = check_structure(
            min3, 1, family(min3, 1, [3, 5, 6, 7]), "weak_ultrafilter"
        )
        assert report.passed
        assert not report.result(A.F6).passed
        assert [r.axiom for r in report.failures()] == [A.F6]

    def test_profile_variants_disagree_on_the_trivial_family(self, min3):
        fam = family(min3, 0, [0])
        assert check_structure(min3, 0, fam, "profile").passed
        literal = check_structure(min3, 0, fam, "profile", "literal")
        assert not literal.passed
        assert not literal.result(A.P3A_LITERAL).passed

    def test_report_carries_context(self, min3):
        report = check_structure(min3, 1, family(min3, 1, [7]), "profile", "literal")
        assert (report.kind, report.k, report.variant) == (
            StructureKind.PROFILE, 1, "literal",
        )
        with pytest.raises(KeyError):
            report.result(A.F5)

    def test_filter_base_kind(self, min3):
        assert check_structure(min3, 1, family(min3, 1, [1, 3]), "filter_base").passed
        report = check_structure(min3, 1, family(min3, 1, []), "filter_base")
        assert not report.passed and not report.result(A.FB1).passed


    def test_interleaved_checks_match_fresh_systems(self):
        # one system serves every (kind, k) below through its cached
        # contexts; each report must equal the report on a new system
        def build():
            return random_hyperedge_system(5, 5, 3, seed=11)

        shared = build()
        families = [
            fam.member_masks
            for k in (1, 2)
            for kind in ("tangle", "weak_ultrafilter", "profile")
            for fam in enumerate_all(kind, shared, k)
        ] + [(), (0,), (1, 3, 7), tuple(range(32))]
        assert len(families) > 10
        for masks in families:
            for k in (2, 0, 3, 1):
                for kind in StructureKind:
                    got = check_structure(shared, k, family(shared, k, masks), kind)
                    fresh = build()
                    want = check_structure(fresh, k, family(fresh, k, masks), kind)
                    assert to_document(got) == to_document(want)


class TestOracleSweeps:
    @pytest.mark.parametrize(
        "sysname,k", [("min3", 0), ("min3", 1), ("p3", 0), ("p3", 1)]
    )
    def test_every_subset_matches_oracle(self, request, sysname, k):
        system = request.getfixturevalue(sysname)
        f, n = set_fn(system), system.n
        eff = efficient_masks(system, k)
        for bits in range(1 << len(eff)):
            masks = [eff[i] for i in range(len(eff)) if bits >> i & 1]
            fam = family(system, k, masks)
            fam_sets = as_sets(masks, n)
            for kind in ORIENTATION_KINDS:
                for variant in ("literal", "corrected"):
                    got = check_structure(system, k, fam, kind, variant).passed
                    want = oracle_pass(kind, f, n, k, fam_sets, variant)
                    assert got == want, (sysname, k, masks, kind.value, variant)

    @pytest.mark.parametrize(
        "sysname,k", [("c4", 1), ("c4", 2), ("min_card4", 1)]
    )
    def test_orientation_families_match_oracle(self, request, sysname, k):
        system = (
            min_cardinality_system(4)
            if sysname == "min_card4"
            else request.getfixturevalue(sysname)
        )
        f, n = set_fn(system), system.n
        for kind in ORIENTATION_KINDS:
            want = {
                masks_of(fam) for fam in oracle.enumerate_structures(kind.value, f, n, k)
            }
            got = set()
            for fam_sets in oracle.orientation_families(f, n, k):
                masks = masks_of(fam_sets)
                if check_structure(system, k, family(system, k, masks), kind).passed:
                    got.add(masks)
            assert got == want, (sysname, k, kind.value)

    @pytest.mark.parametrize(
        "sysname,k",
        [("min3", 0), ("min3", 1), ("p3", 0), ("p3", 1), ("c4", 1), ("c4", 2)],
    )
    def test_derived_facts_about_passing_families(self, request, sysname, k):
        system = request.getfixturevalue(sysname)
        f, n = set_fn(system), system.n
        for fam_sets in oracle.orientation_families(f, n, k):
            masks = masks_of(fam_sets)
            fam = family(system, k, masks)
            tangle = check_structure(system, k, fam, "tangle")
            if tangle.passed:
                # the all-empty corner is forced in, and the profile axioms
                # follow without further search
                assert 0 in masks
                assert tangle.result(A.T4).passed
                for ax in (A.P2, A.P3A_CORRECTED, A.P3B, A.P4):
                    assert check_axiom(system, k, fam, ax).passed
            uf = check_structure(system, k, fam, "ultrafilter")
            if uf.passed:
                assert uf.result(A.F6).passed
                assert check_structure(system, k, fam, "weak_ultrafilter").passed

    @pytest.mark.parametrize("sysname,k", [("min3", 1), ("p3", 1)])
    def test_exactly_one_orientation_in_passing_families(self, request, sysname, k):
        system = request.getfixturevalue(sysname)
        eff = efficient_masks(system, k)
        pairs = [(m, system.full_mask ^ m) for m in eff if m <= system.full_mask ^ m]
        for bits in range(1 << len(eff)):
            masks = {eff[i] for i in range(len(eff)) if bits >> i & 1}
            fam = family(system, k, masks)
            for kind in ("tangle", "ultrafilter"):
                if check_structure(system, k, fam, kind).passed:
                    assert all((a in masks) != (b in masks) for a, b in pairs)


def witness_refails(system, k, masks, res):
    """Re-evaluate the failed clause on the reported witness instance."""
    ms, full = set(masks), system.full_mask
    w = list(res.witness)
    e = res.element
    ax = res.axiom
    if ax is A.P0:
        return system.evaluate(w[0]) > k
    if ax in (A.T1, A.F1, A.P1):
        return system.evaluate(w[0]) <= k and w[0] not in ms and full ^ w[0] not in ms
    if ax in (A.T2, A.P4):
        return w[0] == 1 << e and system.evaluate(w[0]) <= k and w[0] not in ms
    if ax is A.T3:
        return all(m in ms for m in w) and w[0] | w[1] | w[2] == full
    if ax is A.LT3:
        return (
            all(m in ms for m in w)
            and system.evaluate(1 << e) <= k
            and w[0] | w[1] | 1 << e == full
        )
    if ax is A.T4:
        return w[0] == 0 and system.evaluate(0) <= k and 0 not in ms
    if ax is A.F2:
        return w[0] == 0 and 0 in ms
    if ax is A.F3:
        return w[0] == 1 << e and system.evaluate(w[0]) <= k and w[0] in ms
    if ax is A.F4:
        return (
            w[0] in ms
            and w[0] & ~w[1] == 0
            and system.evaluate(w[1]) <= k
            and w[1] not in ms
        )
    if ax is A.F5:
        return (
            w[0] in ms
            and w[1] in ms
            and w[2] == w[0] & w[1]
            and system.evaluate(w[2]) <= k
            and w[2] not in ms
        )
    if ax is A.F6:
        return all(m in ms for m in w) and w[0] & w[1] & w[2] == 0
    if ax is A.SF5:
        return (
            w[0] in ms
            and w[1] == w[0] & ~(1 << e)
            and system.evaluate(1 << e) <= k
            and system.evaluate(w[1]) <= k
            and w[1] not in ms
        )
    if ax is A.WF5:
        return all(m in ms for m in w) and w[0] & w[1] == 0 and system.evaluate(0) <= k
    if ax is A.CONSISTENT:
        return w[0] in ms and w[1] in ms and (full ^ w[1]) & ~w[0] == 0
    if ax is A.P2:
        return (
            w[0] in ms
            and w[1] & ~w[0] == 0
            and system.evaluate(w[1]) <= k
            and w[1] not in ms
        )
    if ax is A.P3A_LITERAL:
        return w[0] in ms and w[1] in ms and w[2] == w[0] & w[1] and w[2] in ms
    if ax is A.P3A_CORRECTED:
        return w[0] in ms and w[1] in ms and w[2] == full ^ (w[0] | w[1]) and w[2] in ms
    if ax is A.P3B:
        return (
            w[0] in ms
            and w[1] in ms
            and w[2] == w[0] | w[1]
            and system.evaluate(w[2]) <= k
            and w[2] not in ms
        )
    if ax is A.SP3_LITERAL:
        return (
            w[0] in ms
            and system.evaluate(1 << e) <= k
            and w[1] == w[0] & ~(1 << e)
            and w[1] in ms
        )
    if ax is A.SP3_CORRECTED:
        return (
            w[0] in ms
            and system.evaluate(1 << e) <= k
            and w[1] == full ^ (w[0] | 1 << e)
            and w[1] in ms
        )
    if ax is A.FB1:
        return not ms
    if ax is A.FB2:
        meet = w[0] & w[1]
        return (
            w[0] in ms
            and w[1] in ms
            and not any(m & ~meet == 0 and system.evaluate(m) <= k for m in ms)
        )
    raise AssertionError(f"unhandled axiom {ax}")


class TestWitnessSoundness:
    @pytest.mark.parametrize("sysname,k", [("min3", 1), ("p3", 1)])
    def test_every_failure_witness_refails_its_clause(self, request, sysname, k):
        system = request.getfixturevalue(sysname)
        eff = efficient_masks(system, k)
        for bits in range(1 << len(eff)):
            masks = [eff[i] for i in range(len(eff)) if bits >> i & 1]
            fam = family(system, k, masks)
            for ax in A:
                res = check_axiom(system, k, fam, ax)
                if not res.passed:
                    assert witness_refails(system, k, masks, res), (masks, ax)

    def test_order_bound_witnesses_at_low_k(self, min3):
        for mask in range(1, 7):
            res = check_axiom(min3, 0, family(min3, 0, [mask]), A.P0)
            assert not res.passed and witness_refails(min3, 0, [mask], res)


def pinned_families(system, k):
    """Every subset of the k-efficient masks up to 8 of them, else 120 seeded ones."""
    masks = efficient_masks(system, k)
    if len(masks) <= 8:
        for size in range(len(masks) + 1):
            yield from itertools.combinations(masks, size)
        return
    rng = random.Random(f"{system.name}-{k}")
    for _ in range(120):
        yield tuple(m for m in masks if rng.random() < 0.5)


class TestPinnedResults:
    def test_every_axiom_result_matches_the_pin(self):
        """Verdicts, first witnesses and elements of every axiom, frozen.

        The digest covers 25,400 checks: every AxiomId on the families of
        ``pinned_families`` over min3, p3, c4 and k4 at every k.  Any change
        to a clause, its scan order or its witness changes the digest.
        """
        digest = hashlib.sha256()
        checks = 0
        for name in ("min3", "p3", "c4", "k4"):
            system = builtin_system(name)
            for k in range(system.max_order() + 1):
                for masks in pinned_families(system, k):
                    fam = family(system, k, masks)
                    for ax in A:
                        res = check_axiom(system, k, fam, ax)
                        entry = (res.axiom.value, res.passed, res.witness, res.element)
                        digest.update(repr(entry).encode())
                        checks += 1
        assert checks == 25_400
        assert digest.hexdigest() == (
            "b3f509372ad07360d601febb84c7d45c9665f0a5f7436d45e8635ac17b54505d"
        )


class TestFilterBaseClosure:
    def test_everything_sits_above_the_empty_side(self, min3):
        closed = check_filter_base_generates(min3, 1, family(min3, 1, [0]))
        assert closed.member_masks == tuple(range(8))

    def test_closure_at_order_zero(self, min3):
        closed = check_filter_base_generates(min3, 0, family(min3, 0, [0]))
        assert closed.member_masks == (0, 7)

    def test_empty_base_rejected(self, min3):
        with pytest.raises(FilterBaseError) as err:
            check_filter_base_generates(min3, 1, family(min3, 1, []))
        assert err.value.result.axiom is A.FB1

    def test_base_without_common_lower_member_rejected(self, min3):
        with pytest.raises(FilterBaseError) as err:
            check_filter_base_generates(min3, 1, family(min3, 1, [1, 2]))
        assert err.value.result.axiom is A.FB2
        assert list(err.value.result.witness) == [1, 2]

    @pytest.mark.parametrize("sysname,k", [("min3", 1), ("c4", 2), ("c4", 4)])
    def test_closure_matches_oracle(self, request, sysname, k):
        system = request.getfixturevalue(sysname)
        f, n = set_fn(system), system.n
        for base_masks in [[system.full_mask], [1], [1, 3], [3, 5, 7]]:
            base = family(system, k, base_masks)
            try:
                closed = check_filter_base_generates(system, k, base)
            except FilterBaseError:
                continue
            want = oracle.filter_base_closure(f, n, k, as_sets(base_masks, n))
            assert sorted(closed.member_masks) == sorted(mask_of(a) for a in want)
            assert set(base_masks) <= set(closed.member_masks)
            assert check_axiom(system, k, closed, A.F4).passed

    def test_closure_satisfies_upward_closure_by_construction(self, k4):
        closed = check_filter_base_generates(k4, 3, family(k4, 3, [k4.full_mask]))
        assert closed.member_masks == (63,)


class TestRandomStructureProperties:
    @given(
        n=st.integers(2, 4),
        count=st.integers(1, 5),
        seed=st.integers(0, 500),
        k=st.integers(0, 2),
        bits=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_tangle_and_ultrafilter_consequences(self, n, count, seed, k, bits):
        system = random_hyperedge_system(n, count, 2, seed)
        eff = efficient_masks(system, k)
        masks = [eff[i] for i in range(len(eff)) if bits >> i & 1]
        fam = SeparationFamily.from_masks(system, k, masks)
        report = check_structure(system, k, fam, "tangle")
        if report.passed:
            assert report.result(A.T4).passed
            assert check_axiom(system, k, fam, A.P3A_CORRECTED).passed
        if check_structure(system, k, fam, "ultrafilter").passed:
            assert check_axiom(system, k, fam, A.F6).passed
            assert check_structure(system, k, fam, "weak_ultrafilter").passed


# the axioms the bitset kernel decides, and the kinds whose reports carry them
KERNEL_AXIOMS = (A.P0, A.T1, A.F1, A.P1, A.P2, A.F4, A.WF5)
KERNEL_KINDS = {
    StructureKind.TANGLE: (A.P0, A.T1),
    StructureKind.WEAK_ULTRAFILTER: (A.P0, A.F1, A.F4, A.WF5),
    StructureKind.PROFILE: (A.P0, A.P1, A.P2),
}


def _entry(res):
    return (res.axiom.value, res.passed, res.witness, res.element)


def random_family_masks(system, k, rng):
    """Members drawn three ways, so that every axiom both passes and fails.

    Either any masks at all (orders above k included), or one random side of
    every k-efficient separation, or the k-efficient sets above a few random
    seeds; the last two are then perturbed by a few random masks.
    """
    full = system.full_mask
    eff = efficient_masks(system, k)
    mode = rng.randrange(3)
    if mode == 0:
        density = rng.random()
        return [m for m in range(full + 1) if rng.random() < density]
    if mode == 1:
        masks = {rng.choice((m, full ^ m)) for m in eff}
    else:
        seeds = rng.sample(eff, min(len(eff), rng.randint(1, 3)))
        masks = {c for c in eff if any(s & ~c == 0 for s in seeds)}
    for _ in range(rng.randrange(3)):
        masks ^= {rng.randrange(full + 1)}
    return sorted(masks)


class TestKernelMatchesScans:
    @given(
        n=st.integers(1, 7),
        source=st.sampled_from(("min_cardinality", "hyperedge", "lifted", "any_table")),
        seed=st.integers(0, 10_000),
        k_offset=st.integers(-1, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_verdicts_witnesses_and_elements(self, n, source, seed, k_offset):
        """The kernel agrees with the scans of ``oracle.scan_reference``.

        ``lifted`` adds one to a hyperedge f, so that f(emptyset) may exceed
        k; ``any_table`` is an unverified table, neither symmetric nor
        submodular, as the scans never assumed either.
        """
        rng = random.Random(seed)
        if source == "any_table":
            values = tuple(rng.randint(0, n) for _ in range(1 << n))
            system = ConnectivitySystem(n, "explicit", values=values)
        elif source != "min_cardinality" and n > 1:
            system = random_hyperedge_system(n, n, min(3, n), seed)
            if source == "lifted":
                system = explicit_system([v + 1 for v in system.table().tolist()])
        else:
            system = min_cardinality_system(n)
        k = max(0, rng.randint(0, system.max_order()) + k_offset)
        masks = random_family_masks(system, k, rng)
        fam = family(system, k, masks)
        want = {
            ax: oracle.scan_reference(ax.value, system.evaluate, n, k, masks)
            for ax in KERNEL_AXIOMS
        }
        for ax in KERNEL_AXIOMS:
            assert _entry(check_axiom(system, k, fam, ax)) == want[ax], ax
        for kind, axioms in KERNEL_KINDS.items():
            report = check_structure(system, k, fam, kind)
            for ax in axioms:
                assert _entry(report.result(ax)) == want[ax], (kind, ax)


class TestKernelReadsNoScalarOrder:
    """The kernel reads orders from the table, not through ``evaluate``."""

    @staticmethod
    def passing_cases():
        # each system is built twice: once to find the families, and once
        # fresh, with no table yet, for the checks themselves
        def hyper():
            return random_hyperedge_system(6, 6, 3, 160)

        def card16():
            return min_cardinality_system(16)

        def first(kind):
            return enumerate_all(kind, found, 3).families[0].member_masks

        found = hyper()
        yield hyper, 3, first("weak_ultrafilter"), (A.P0, A.F1, A.F4, A.WF5)
        yield hyper, 3, first("profile"), (A.P0, A.T1, A.P1, A.P2, A.P3B)
        yield hyper, 3, first("ultrafilter"), (A.F5,)
        yield hyper, 3, first("single_ultrafilter"), (A.SF5,)
        yield card16, 0, [0xFFFF], (A.P0, A.F1, A.F4, A.WF5)
        yield card16, 0, [0], (A.P0, A.T1, A.P1, A.P2)
        # at k = 1 the meet of X - e and X - e' (the join of {e} and {e'}) has
        # order 2, so these checks look orders up for non-members
        full = 0xFFFF
        yield card16, 1, [full] + [full ^ 1 << e for e in range(16)], (A.F5, A.SF5)
        yield card16, 1, [0] + [1 << e for e in range(16)], (A.P3B,)

    def test_passing_families_make_no_scalar_evaluate_call(self, monkeypatch):
        calls = []
        evaluate = ConnectivitySystem.evaluate

        def counted(system, mask):
            calls.append(mask)
            return evaluate(system, mask)

        monkeypatch.setattr(ConnectivitySystem, "evaluate", counted)
        for build, k, masks, axioms in self.passing_cases():
            for ax in axioms:
                system = build()
                fam = family(system, k, masks)
                calls.clear()
                assert check_axiom(system, k, fam, ax).passed, (system.name, ax)
                # WF5 reads f at the empty side once; the rest read the table
                assert len(calls) <= (1 if ax is A.WF5 else 0), (system.name, ax, calls)
