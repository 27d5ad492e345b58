"""Orientation search against full-sweep oracles, plus the hunters."""

import hashlib

import pytest

import oracle
from conftest import mask_of, masks_of
from tanglekit import (
    HUNT_BUDGET,
    HUNT_FOUND,
    HUNT_NONE_FOUND,
    ORIENTATION_KINDS,
    STATUS_BUDGET,
    STATUS_COMPLETE,
    AxiomId,
    HuntCorpus,
    NamedCorpus,
    SearchBudget,
    SearchBudgetError,
    SeparationFamily,
    StructureKind,
    builtin_system,
    check_axiom,
    check_structure,
    dual_family,
    enumerate_all,
    find_one,
    hunt,
    io,
    min_cardinality_system,
    random_hyperedge_system,
    standard_corpus,
)

PROFILE_KINDS = {
    StructureKind.PROFILE,
    StructureKind.NON_PRINCIPAL_PROFILE,
    StructureKind.LINEAR_PROFILE,
    StructureKind.NON_PRINCIPAL_LINEAR_PROFILE,
}

# systems small enough for the 2^m orientation sweep, with their k ranges
SWEEP_GRID = [
    ("min3", (0, 1)),
    ("p3", (0, 1)),
    ("c4", (0, 1, 2, 3, 4)),
    ("min_card4", (0, 1, 2)),
    ("min_card5", (0, 1)),
]


def get_system(name):
    if name.startswith("min_card"):
        return min_cardinality_system(int(name.removeprefix("min_card")))
    return builtin_system(name)


def set_fn(system):
    def f(a):
        return system.evaluate(mask_of(a))

    return f


def oracle_enumerate(system, kind, k, variant="corrected"):
    """Unpruned sweep over orientation families with the naive predicates."""
    f, n = set_fn(system), system.n
    pred = oracle.PREDICATES[kind.value]
    out = []
    for fam in oracle.orientation_families(f, n, k):
        if kind in PROFILE_KINDS:
            ok = pred(f, n, k, fam, literal=(variant == "literal"))
        else:
            ok = pred(f, n, k, fam)
        if ok:
            out.append(masks_of(fam))
    return sorted(out)


class TestEnumerateAll:
    @pytest.mark.parametrize("name,ks", SWEEP_GRID)
    def test_matches_oracle_sweep(self, name, ks):
        system = get_system(name)
        for k in ks:
            for kind in StructureKind:
                if kind is StructureKind.FILTER_BASE:
                    continue
                variants = ("corrected", "literal") if kind in PROFILE_KINDS else (
                    "corrected",
                )
                for variant in variants:
                    result = enumerate_all(kind, system, k, variant=variant)
                    assert result.complete and result.status == STATUS_COMPLETE
                    got = [f.member_masks for f in result]
                    assert got == oracle_enumerate(system, kind, k, variant), (
                        name, k, kind.value, variant,
                    )

    @pytest.mark.parametrize("name,ks", SWEEP_GRID)
    def test_pruning_changes_nothing(self, name, ks):
        system = get_system(name)
        for k in ks:
            for kind in ORIENTATION_KINDS:
                variants = ("corrected", "literal") if kind in PROFILE_KINDS else (
                    "corrected",
                )
                for variant in variants:
                    pruned = enumerate_all(kind, system, k, variant=variant)
                    swept = enumerate_all(
                        kind, system, k, variant=variant, prune=False
                    )
                    assert [f.member_masks for f in pruned] == [
                        f.member_masks for f in swept
                    ], (name, k, kind.value, variant)
                    assert pruned.complete and swept.complete

    def test_corpus_families_match_the_pin(self):
        """Families of every kind, variant and k on the whole corpus, frozen.

        The oracle sweeps stop at n = 5 and skip the hyperedge systems;
        this pin covers all 133 corpus points, n = 6 included.
        """
        families = [
            [f.member_masks for f in enumerate_all(kind, system, k, variant=variant)]
            for system in standard_corpus()
            for k in range(system.max_order() + 1)
            for kind in ORIENTATION_KINDS
            for variant in (
                ("corrected", "literal") if kind in PROFILE_KINDS else ("corrected",)
            )
        ]
        assert len(families) == 1_729 and sum(map(len, families)) == 24_587
        assert hashlib.sha256(repr(families).encode()).hexdigest() == (
            "6ecd8d845b71829d661977e37804ade1d943640d64d7e8196a11c5348307ff27"
        )

    def test_node_counts_match_the_pin(self, c4, k4):
        """Nodes of every kind and variant on c4 and k4 at every k, frozen.

        Node counts follow the order of every forced, closure and conflict
        rule, so a pruning rule that is dropped, added or reordered shows
        here even when the families stay the same.
        """
        nodes = [
            enumerate_all(kind, system, k, variant=variant).nodes
            for system in (c4, k4)
            for k in range(system.max_order() + 1)
            for kind in ORIENTATION_KINDS
            for variant in ("literal", "corrected")
        ]
        assert len(nodes) == 180 and sum(nodes) == 16_632
        assert hashlib.sha256(repr(nodes).encode()).hexdigest() == (
            "9d477666a97e7bb1142a0f3fbb40dffe4bedead1df75ba125753ac7ea06073a5"
        )

    def test_leaves_record_each_orientation_under_its_slot(self, monkeypatch, c4, k4):
        """Forced, closure and branch orientations all land on the slot of
        their separation, so no separation is recorded twice or branched on
        after it is forced."""
        from tanglekit import search

        leaves = []

        class Recorded(search._Walk):
            def __init__(self, *args):
                super().__init__(*args)
                leaf = self.leaf

                def recorded(masks):
                    leaves.append(set(self.assignment) == set(self.slots))
                    leaf(masks)

                self.leaf = recorded

        monkeypatch.setattr(search, "_Walk", Recorded)
        hyper6 = next(s for s in standard_corpus() if s.n == 6)
        for system in (c4, k4, hyper6):
            for k in range(system.max_order() + 1):
                for kind in ORIENTATION_KINDS:
                    for variant in ("literal", "corrected"):
                        enumerate_all(kind, system, k, variant=variant)
        assert len(leaves) > 100 and all(leaves)

    def test_frozen_counts_on_min3(self, min3):
        at_k0 = {
            kind: len(enumerate_all(kind, min3, 0))
            for kind in StructureKind
            if kind is not StructureKind.FILTER_BASE
        }
        assert at_k0 == {
            StructureKind.TANGLE: 1,
            StructureKind.LINEAR_TANGLE: 2,
            StructureKind.ULTRAFILTER: 1,
            StructureKind.SINGLE_ULTRAFILTER: 1,
            StructureKind.WEAK_ULTRAFILTER: 1,
            StructureKind.PROFILE: 1,
            StructureKind.NON_PRINCIPAL_PROFILE: 1,
            StructureKind.LINEAR_PROFILE: 1,
            StructureKind.NON_PRINCIPAL_LINEAR_PROFILE: 1,
        }
        # at k = 1 singleton forcing kills every kind with a singleton or
        # triple axiom; profiles have neither, and three of them survive
        for kind in at_k0:
            want = {
                StructureKind.WEAK_ULTRAFILTER: 1,
                StructureKind.PROFILE: 3,
            }.get(kind, 0)
            assert len(enumerate_all(kind, min3, 1)) == want, kind

    def test_the_weak_ultrafilter_everyone_talks_about(self, min3):
        result = enumerate_all("weak_ultrafilter", min3, 1)
        assert [f.member_masks for f in result] == [(3, 5, 6, 7)]

    def test_every_emitted_family_passes_the_checker(self, c4, k4):
        for system, k in [(c4, 2), (c4, 4), (k4, 2)]:
            for kind in ("tangle", "weak_ultrafilter", "profile"):
                for fam in enumerate_all(kind, system, k):
                    assert check_structure(system, k, fam, kind).passed

    def test_reports_belong_to_their_families(self, c4, k4):
        seen = 0
        for system, k in [(c4, 2), (c4, 4), (k4, 2)]:
            for kind in ("tangle", "weak_ultrafilter", "profile"):
                result = enumerate_all(kind, system, k)
                assert len(result.reports) == len(result.families)
                for fam, report in zip(result.families, result.reports):
                    assert report == check_structure(system, k, fam, kind)
                    seen += 1
        assert seen > 10

    def test_emitted_families_orient_each_separation_once(self, c4):
        from tanglekit import efficient_masks

        for k in range(5):
            pairs = [
                (m, c4.full_mask ^ m)
                for m in efficient_masks(c4, k)
                if m <= c4.full_mask ^ m
            ]
            for kind in ("tangle", "ultrafilter", "linear_profile"):
                for fam in enumerate_all(kind, c4, k):
                    masks = fam.mask_set()
                    assert all((a in masks) != (b in masks) for a, b in pairs)

    def test_search_space_is_orientation_families_only(self, min3):
        # both orientations of (emptyset, X) together do satisfy the linear
        # profile axioms at k = 0, but such a family picks two sides of one
        # separation and is deliberately outside the enumeration contract
        both = SeparationFamily.from_masks(min3, 0, [0, 7])
        assert check_structure(min3, 0, both, "linear_profile").passed
        found = [f.member_masks for f in enumerate_all("linear_profile", min3, 0)]
        assert (0, 7) not in found
        assert found == [(0,)]

    def test_limit_stops_early_but_stays_complete(self, c4):
        capped = enumerate_all("weak_ultrafilter", c4, 2, limit=2)
        assert len(capped) == 2 and capped.complete
        roomy = enumerate_all("weak_ultrafilter", c4, 2, limit=100)
        assert len(roomy) == 4 and roomy.complete

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_is_rejected(self, c4, limit):
        # a limit that admits no family would report success unexamined
        with pytest.raises(ValueError):
            enumerate_all("tangle", c4, 1, limit=limit)

    def test_node_budget_flags_incomplete(self, c4):
        result = enumerate_all("tangle", c4, 4, SearchBudget(max_nodes=1))
        assert not result.complete
        assert result.status == STATUS_BUDGET

    def test_time_budget_flags_incomplete(self):
        system = min_cardinality_system(6)
        result = enumerate_all(
            "weak_ultrafilter", system, 2, SearchBudget(max_seconds=0.0)
        )
        assert not result.complete and result.status == STATUS_BUDGET
        full = enumerate_all("weak_ultrafilter", system, 2)
        assert full.complete and len(full) == 192

    def test_structural_budget_checks(self):
        # the ground-set budget is checked before the value table is built,
        # so it also wins over the enumeration cap at 17 <= n <= 24
        system = min_cardinality_system(9)
        with pytest.raises(SearchBudgetError):
            enumerate_all("tangle", system, 1)
        assert system._table is None
        with pytest.raises(SearchBudgetError):
            enumerate_all("tangle", min_cardinality_system(17), 1)
        with pytest.raises(SearchBudgetError):
            enumerate_all(
                "tangle", min_cardinality_system(5), 2, SearchBudget(max_unordered=8)
            )

    def test_rejected_inputs(self, min3):
        with pytest.raises(ValueError):
            enumerate_all("filter_base", min3, 0)
        with pytest.raises(ValueError):
            enumerate_all("tangle", min3, -1)
        with pytest.raises(ValueError):
            enumerate_all("monoid", min3, 0)


class TestRestrictionLemma:
    def test_restricting_a_family_to_order_k_gives_a_family_at_k(self):
        """Each axiom is "order <= k implies member" or a ban on members, so a
        family at k + 1 cut down to its members of order <= k is one at k.

        Every orientation kind and variant on the whole corpus (the builtins,
        min_card2 to min_card5 and the hyperedge systems), at every k below
        the maximum order.
        """
        checked = 0
        for system in standard_corpus():
            top = system.max_order()
            for kind in ORIENTATION_KINDS:
                for variant in (
                    ("corrected", "literal") if kind in PROFILE_KINDS else ("corrected",)
                ):
                    levels = [
                        {f.member_masks for f in enumerate_all(kind, system, k, variant=variant)}
                        for k in range(top + 1)
                    ]
                    for k in range(top):
                        for masks in levels[k + 1]:
                            restricted = tuple(m for m in masks if system.evaluate(m) <= k)
                            assert restricted in levels[k], (
                                system.name, kind.value, variant, k, masks,
                            )
                            checked += 1
        assert checked == 24_257  # the pinned corpus families at k >= 1


class TestProblemTenLemma:
    def test_duals_of_tangles_and_weak_ultrafilters(self):
        """For symmetric f at every k, the dual of a tangle is a weak
        ultrafilter, and the dual of a weak ultrafilter is a tangle iff the
        weak ultrafilter passes F6: problem 10 is problem 9 read through
        reversal.  And the problem-9 lemma: a weak ultrafilter passes F6 iff
        it is an ultrafilter, and one that fails F6 fails F5.  120 seeded
        hyperedge systems with 2 <= n <= 5."""
        counts = {"tangles": 0, "ultrafilters": 0, True: 0, False: 0}
        for seed in range(120):
            n = 2 + seed % 4
            system = random_hyperedge_system(n, 1 + seed % 7, min(3, n), seed)
            for k in range(system.max_order() + 1):
                for fam in enumerate_all(StructureKind.TANGLE, system, k).families:
                    dual = dual_family(fam)
                    assert check_structure(system, k, dual, "weak_ultrafilter").passed
                    counts["tangles"] += 1
                ultras = {
                    fam.member_masks
                    for fam in enumerate_all(StructureKind.ULTRAFILTER, system, k).families
                }
                counts["ultrafilters"] += len(ultras)
                wufs = enumerate_all(StructureKind.WEAK_ULTRAFILTER, system, k)
                for fam, report in zip(wufs.families, wufs.reports):
                    f6 = report.result(AxiomId.F6).passed
                    dual = dual_family(fam)
                    assert check_structure(system, k, dual, "tangle").passed == f6
                    assert (fam.member_masks in ultras) == f6
                    if not f6:
                        assert not check_axiom(system, k, fam, AxiomId.F5).passed
                    counts[f6] += 1
        # both sides of each iff are met, and the F6 passers pair off with the
        # tangles and are all the ultrafilters
        assert counts == {"tangles": 441, "ultrafilters": 441, True: 441, False: 3672}


class TestFindOne:
    def test_finds_the_minimal_tangle(self, min3):
        fam = find_one("tangle", min3, 0)
        assert fam is not None and fam.member_masks == (0,)

    def test_none_is_definitive(self, min3):
        assert find_one("tangle", min3, 1) is None

    def test_budget_cut_raises_rather_than_guessing(self, c4):
        with pytest.raises(SearchBudgetError):
            find_one("tangle", c4, 4, SearchBudget(max_nodes=1))

    def test_tangle_spectrum_of_k4(self, k4):
        # branch-width is 3, so tangles exist exactly below it
        for k in range(5):
            assert (find_one("tangle", k4, k) is not None) == (k < 3)


class TestCorpora:
    def test_hunt_corpus_systems_are_seeded_and_named(self):
        corpus = HuntCorpus(sizes=(3, 4), base_seed=7)
        systems = corpus.systems()
        assert [s.name for s in systems] == ["hunt-n3-s7", "hunt-n4-s8"]
        again = corpus.systems()
        assert [list(s.table()) for s in systems] == [
            list(s.table()) for s in again
        ]
        assert corpus.describe() == {"sizes": [3, 4], "base_seed": 7, "kmax": None}

    def test_named_corpus(self, min3, p3):
        corpus = NamedCorpus((min3, p3), kmax=1)
        assert corpus.systems() == [min3, p3]
        assert corpus.describe() == {"named": ["min3", "p3"], "kmax": 1}


class TestHunt:
    def test_problem_nine_finds_the_min3_refutation(self, min3):
        verdict = hunt(9, NamedCorpus((min3,)))
        assert verdict.problem == 9
        assert verdict.status == HUNT_FOUND
        assert (verdict.systems_examined, verdict.structures_examined) == (1, 2)
        (ce,) = verdict.counterexamples
        assert ce.claim == "weak_ultrafilter_triple_intersection"
        assert (ce.k, ce.failing_axiom) == (1, AxiomId.F6)
        assert ce.family.member_masks == (3, 5, 6, 7)
        assert ce.witness == (3, 5, 6)

    def test_problem_nine_counterexample_refails_offline(self, min3):
        (ce,) = hunt(9, NamedCorpus((min3,))).counterexamples
        report = check_structure(ce.system, ce.k, ce.family, "ultrafilter")
        assert not report.result(AxiomId.F6).passed
        # and the family genuinely is a weak ultrafilter, not checker noise
        assert check_structure(ce.system, ce.k, ce.family, "weak_ultrafilter").passed

    def test_problem_nine_decides_f6_once_per_weak_ultrafilter(self, monkeypatch):
        # the hunt reads F6 off the leaf re-check's report instead of
        # deciding it a second time
        from tanglekit import structures

        calls = []
        check_f6 = structures._CHECKS[AxiomId.F6]

        def counted(ctx):
            calls.append(AxiomId.F6)
            return check_f6(ctx)

        monkeypatch.setitem(structures._CHECKS, AxiomId.F6, counted)
        verdict = hunt(9, HuntCorpus(sizes=(3, 3, 4), base_seed=21))
        assert verdict.structures_examined > 0 and verdict.counterexamples
        assert calls == [AxiomId.F6] * verdict.structures_examined

    def test_problem_nine_clean_corpus(self, p3):
        verdict = hunt(9, NamedCorpus((p3,)))
        assert verdict.status == HUNT_NONE_FOUND
        assert verdict.counterexamples == ()
        assert verdict.structures_examined == 1

    def test_problem_ten_finds_the_unmatched_weak_ultrafilter(self, min3):
        verdict = hunt(10, NamedCorpus((min3,)))
        assert verdict.status == HUNT_FOUND
        assert verdict.structures_examined == 3
        (ce,) = verdict.counterexamples
        assert ce.claim == "weak_ultrafilter_dual_not_tangle"
        assert ce.family.member_masks == (3, 5, 6, 7)
        assert (ce.k, ce.failing_axiom) == (1, AxiomId.T3)
        assert ce.witness == (1, 2, 4)

    def test_problem_ten_counterexample_refails_offline(self, min3):
        (ce,) = hunt(10, NamedCorpus((min3,))).counterexamples
        dual_masks = sorted(ce.system.full_mask ^ m for m in ce.family.member_masks)
        dual = SeparationFamily.from_masks(ce.system, ce.k, dual_masks)
        assert not check_structure(ce.system, ce.k, dual, "tangle").passed

    def test_kmax_stops_the_sweep_before_the_refutation(self, min3):
        verdict = hunt(9, NamedCorpus((min3,), kmax=0))
        assert verdict.status == HUNT_NONE_FOUND
        assert verdict.structures_examined == 1

    def test_empty_corpus(self):
        # a hunt that examined nothing would report no counterexample found
        for corpus in (NamedCorpus(()), HuntCorpus(sizes=(), base_seed=0)):
            for problem in (9, 10):
                with pytest.raises(ValueError, match="no systems"):
                    hunt(problem, corpus)

    def test_budget_exhaustion_is_flagged(self, min3):
        verdict = hunt(9, NamedCorpus((min3,)), SearchBudget(max_nodes=1))
        assert verdict.status == HUNT_BUDGET
        assert verdict.counterexamples == ()

    def test_seeded_corpus_hunts_are_repeatable(self):
        corpus = HuntCorpus(sizes=(3, 3, 4), base_seed=21, kmax=2)

        def project(verdict):
            return (
                verdict.status,
                verdict.systems_examined,
                verdict.structures_examined,
                [
                    (c.k, c.claim, c.family.member_masks, c.failing_axiom)
                    for c in verdict.counterexamples
                ],
            )

        assert project(hunt(9, corpus)) == project(hunt(9, corpus))
        assert project(hunt(10, corpus)) == project(hunt(10, corpus))

    # the SHA-256 of io.dumps of each hunt on SHARING_CORPUS, which sharing
    # equal tuples must leave as it is: 285 counterexamples, 201 distinct
    # families, 93 and 22 distinct witnesses
    SHARING_CORPUS = HuntCorpus(sizes=(4, 4, 5, 5), base_seed=3)
    SHARING_PINS = {
        9: "71ba60aa330b3c8754f56864d4a0d695a57ea05d5ef0724faffc6f8f4fe675ae",
        10: "9dcc911e1ac6750f08620e6a7fd0e519d22687834ffce11e9576975c275f57ea",
    }

    @pytest.mark.parametrize("problem", [9, 10])
    def test_equal_families_and_witnesses_share_a_tuple(self, problem):
        verdict = hunt(problem, self.SHARING_CORPUS)
        ces = verdict.counterexamples
        for values in ([c.family.member_masks for c in ces], [c.witness for c in ces]):
            assert len({id(v) for v in values}) == len(set(values)) < len(values)
        text = io.dumps(verdict)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHARING_PINS[problem]

    def test_two_hunts_share_no_tuple(self):
        first, second = (hunt(9, self.SHARING_CORPUS) for _ in range(2))

        def tuples(verdict):
            return {id(t) for c in verdict.counterexamples
                    for t in (c.family.member_masks, c.witness) if t}

        assert not tuples(first) & tuples(second)

    def test_unknown_problem(self, min3):
        with pytest.raises(ValueError):
            hunt(8, NamedCorpus((min3,)))

    def test_verdict_records_the_corpus(self, min3):
        corpus = NamedCorpus((min3,), kmax=1)
        assert hunt(9, corpus).corpus == corpus.describe()
