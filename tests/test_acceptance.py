"""Acceptance suite: ten desk-scale criteria over the fixed evaluation corpus.

Each test prints one `criterion NN: PASS|FAIL` line (uncaptured, so it shows
up in piped output) and then asserts.  Criterion 2 checks theorem 12 (linear
tangles and single ultrafilters biject under the dual transform) at every
point and pins where it breaks.  At a k where no singleton {e} has
f({e}) <= k, T2 and LT3 range over no element, so both orientations of
(emptyset, X) are linear tangles, while F2 forbids the empty side in a single
ultrafilter; the linear tangle {(X, emptyset)} therefore has no dual partner.
The criterion asserts the bijection wherever an efficient singleton exists,
and exactly this one-sided failure at the 35 points where none does.
"""

import hashlib
import itertools
import json
import time

import pytest

from tanglekit import (
    AxiomId,
    FunctionAxiomError,
    NamedCorpus,
    SeparationFamily,
    StructureKind,
    branch_width,
    build_system,
    builtin_system,
    check_axiom,
    check_structure,
    dual_family,
    efficient_masks,
    enumerate_all,
    enumerate_k_efficient,
    explicit_system,
    hunt,
    load_document,
    min_cardinality_system,
    save,
    standard_corpus,
    system_descriptor,
    verify_branchwidth_duality,
    verify_theorem,
)
from tanglekit.separations import mask_elements

# sum of (max_order + 1) over the 28 corpus systems
TOTAL_POINTS = 133


def announce(capsys, number, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\ncriterion {number:>2}: {status} — {detail}")


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="session")
def points(corpus):
    pts = [
        (i, k)
        for i, system in enumerate(corpus)
        for k in range(system.max_order() + 1)
    ]
    assert len(pts) == TOTAL_POINTS
    return pts


@pytest.fixture(scope="session")
def families(corpus):
    """Memoized exhaustive enumeration, shared by the per-family criteria."""
    cache = {}

    def get(i, kind, k):
        key = (i, kind, k)
        if key not in cache:
            cache[key] = enumerate_all(StructureKind(kind), corpus[i], k).families
        return cache[key]

    return get


def test_criterion_01_tangle_ultrafilter_bijection(corpus, points, capsys):
    start = time.monotonic()
    failed = [
        (corpus[i].name, k)
        for i, k in points
        if not verify_theorem(11, corpus[i], k).passed
    ]
    elapsed = time.monotonic() - start
    ok = not failed and elapsed < 60
    announce(capsys, 1, ok,
             f"dual bijection at all {len(points)} (system, k) points "
             f"in {elapsed:.1f}s")
    assert not failed, f"bijection broken at {failed}"
    assert elapsed < 60


def test_criterion_02_linear_tangle_single_ultrafilter(corpus, points, capsys):
    """Theorem 12 at all 133 points, with its known gap pinned exactly.

    Where some singleton {e} has f({e}) <= k, the bijection must hold.
    Where none does, it must fail in one precise way.  There T2 and LT3
    range over no element, so nothing prefers (emptyset, X) to its reverse;
    on the corpus it is the only separation of order <= k at such points,
    and both {(emptyset, X)} and {(X, emptyset)} are linear tangles.  F2
    forbids the empty side as a single-ultrafilter member, so only the dual
    of the first exists and the linear tangle {(X, emptyset)} is left
    without a partner: counts 2 vs 1, and the one unmatched family is a
    linear tangle whose member is the full side.  The independent checkers
    in tests/oracle.py apply the same axioms.  The README reports this gap
    at 35 of the 133 points; the count is asserted so that the finding
    cannot vanish unnoticed.
    """
    start = time.monotonic()
    broken = []
    unexplained = []
    gap_points = 0
    for i, k in points:
        system = corpus[i]
        verdict = verify_theorem(12, system, k)
        has_singleton = any(
            system.evaluate(1 << e) <= k for e in range(system.n)
        )
        if has_singleton:
            if not verdict.passed:
                broken.append((system.name, k))
            continue
        gap_points += 1
        explained = (
            not verdict.passed
            and verdict.counts == {"linear_tangle": 2, "single_ultrafilter": 1}
            and all(
                kind == "linear_tangle" and system.full_mask in fam.member_masks
                for kind, fam in verdict.unmatched
            )
        )
        if not explained:
            unexplained.append((system.name, k))
    elapsed = time.monotonic() - start
    ok = (not broken and not unexplained and gap_points == 35
          and elapsed < 60)
    announce(capsys, 2, ok,
             f"bijection holds at all {len(points) - gap_points} points with "
             f"an efficient singleton; the full-side linear tangle is "
             f"unmatched at all {gap_points} without, in {elapsed:.1f}s")
    assert elapsed < 60
    assert not broken, (
        f"linear tangles and single ultrafilters do not biject at "
        f"{len(broken)} points with an efficient singleton, e.g. {broken[:5]}"
    )
    assert not unexplained, (
        f"theorem 12 does not fail as derived at {len(unexplained)} points "
        f"without an efficient singleton, e.g. {unexplained[:5]}"
    )
    assert gap_points == 35


def test_criterion_03_every_tangle_contains_empty_side(
        corpus, points, families, capsys):
    violations = [
        (corpus[i].name, k)
        for i, k in points
        for fam in families(i, "tangle", k)
        if 0 not in fam.member_masks
    ]
    announce(capsys, 3, not violations,
             "every enumerated tangle contains the empty first side")
    assert not violations


def test_criterion_04_ultrafilter_triple_intersections(
        corpus, points, families, capsys):
    violations = []
    for i, k in points:
        for fam in families(i, "ultrafilter", k):
            for a, b, c in itertools.combinations_with_replacement(
                    fam.member_masks, 3):
                if a & b & c == 0:
                    violations.append((corpus[i].name, k, (a, b, c)))
    announce(capsys, 4, not violations,
             "nonempty triple intersections in every enumerated ultrafilter")
    assert not violations


def test_criterion_05_ultrafilters_are_weak_ultrafilters(
        corpus, points, families, capsys):
    checker_failures = []
    inclusion_failures = []
    for i, k in points:
        ultra = families(i, "ultrafilter", k)
        weak = {fam.member_masks for fam in families(i, "weak_ultrafilter", k)}
        for fam in ultra:
            if not check_structure(
                    corpus[i], k, fam, StructureKind.WEAK_ULTRAFILTER).passed:
                checker_failures.append((corpus[i].name, k))
            if fam.member_masks not in weak:
                inclusion_failures.append((corpus[i].name, k))
    ok = not checker_failures and not inclusion_failures
    announce(capsys, 5, ok,
             "ultrafilters pass the weak checker and the enumerated "
             "inclusion holds per (system, k)")
    assert not checker_failures
    assert not inclusion_failures


def test_criterion_06_existence_triples_agree(
        corpus, points, capsys, tmp_path_factory):
    failed = []
    disagreements = []
    for theorem in (15, 16):
        profile_kind = ("non_principal_profile" if theorem == 15
                        else "non_principal_linear_profile")
        for i, k in points:
            verdict = verify_theorem(theorem, corpus[i], k)
            if not verdict.passed:
                failed.append((theorem, corpus[i].name, k))
            corrected = verdict.counts[profile_kind]
            literal = verdict.counts[f"{profile_kind}_literal"]
            if (literal > 0) != (corrected > 0):
                disagreements.append({
                    "theorem": theorem, "system": corpus[i].name, "k": k,
                    "literal": literal, "corrected": corrected,
                })
    report = tmp_path_factory.mktemp("reports") / "literal_disagreements.json"
    report.write_text(json.dumps(disagreements, indent=2) + "\n")
    announce(capsys, 6, not failed,
             f"corrected-variant existence agrees everywhere; literal "
             f"variant diverges at {len(disagreements)} points "
             f"(report: {report})")
    assert not failed
    assert disagreements, "the literal variant was expected to diverge"


def test_criterion_07_branchwidth_duality(corpus, capsys):
    start = time.monotonic()
    widths = {name: branch_width(builtin_system(name))[0]
              for name in ("p3", "c4", "k4")}
    disagreements = []
    for system in corpus:
        report = verify_branchwidth_duality(system)
        if not report.agrees or report.max_tangle_order != report.bw:
            disagreements.append(system.name)
    elapsed = time.monotonic() - start
    ok = (widths == {"p3": 1, "c4": 2, "k4": 3}
          and not disagreements and elapsed < 300)
    announce(capsys, 7, ok,
             f"widths {widths}, max tangle order matches branch-width on "
             f"all {len(corpus)} systems in {elapsed:.1f}s")
    assert widths == {"p3": 1, "c4": 2, "k4": 3}
    assert not disagreements
    assert elapsed < 300


def test_criterion_08_exactly_one_orientation(
        corpus, points, families, capsys):
    violations = []
    for i, k in points:
        system = corpus[i]
        full = system.full_mask
        pairs = [m for m in efficient_masks(system, k) if m < full ^ m]
        for kind in ("tangle", "ultrafilter"):
            for fam in families(i, kind, k):
                members = set(fam.member_masks)
                for m in pairs:
                    if (m in members) + (full ^ m in members) != 1:
                        violations.append((system.name, k, kind, m))
    announce(capsys, 8, not violations,
             "each efficient separation is oriented exactly once per family")
    assert not violations


def test_criterion_09_hunters(corpus, points, families, capsys, tmp_path_factory):
    out = tmp_path_factory.mktemp("hunts")
    texts = {}
    verdicts = {}
    for problem in (9, 10):
        for attempt in ("a", "b"):
            verdict = hunt(problem, NamedCorpus(standard_corpus()))
            path = out / f"problem{problem}-{attempt}.json"
            save(verdict, path)
            texts[(problem, attempt)] = path.read_bytes()
            verdicts[problem] = load_document(path)

    identical = all(
        texts[(p, "a")] == texts[(p, "b")] for p in (9, 10)
    )
    # and the same as when every (system, k) walked on its own (problem 9's
    # is the benchmark's pinned verdict)
    pinned = {
        9: "ecc3b4f521c5a719ee744713ee296efac79958e3530a816d4c14e3f8d3141342",
        10: "51f00344006c9d0d1299d121522c7279efc1b4cf218f314d04f079c9b0c7036f",
    }
    identical &= all(hashlib.sha256(texts[(p, "a")]).hexdigest() == pinned[p] for p in (9, 10))
    complete = all(
        verdicts[p]["status"] != "budget_exhausted" for p in (9, 10)
    )

    # the premise: each family is of the kind its claim names
    premise = {
        "weak_ultrafilter_triple_intersection": StructureKind.WEAK_ULTRAFILTER,
        "weak_ultrafilter_dual_not_tangle": StructureKind.WEAK_ULTRAFILTER,
        "tangle_dual_not_weak_ultrafilter": StructureKind.TANGLE,
    }
    recheck_failures = []
    premise_failures = []
    witness_failures = []
    for problem in (9, 10):
        for ce in verdicts[problem]["counterexamples"]:
            system = build_system(ce["system"])
            masks = [sum(1 << e for e in side) for side in ce["sides"]]
            fam = SeparationFamily.from_masks(system, ce["k"], masks)
            if not check_structure(system, ce["k"], fam, premise[ce["claim"]]).passed:
                premise_failures.append((problem, ce["claim"], ce["k"]))
            if ce["claim"] == "weak_ultrafilter_triple_intersection":
                checked, kind = fam, StructureKind.ULTRAFILTER
                witness = tuple(sum(1 << e for e in side) for side in ce["witness"])
                if witness != check_axiom(system, ce["k"], fam, AxiomId.F6).witness:
                    witness_failures.append((ce["k"], witness))
            else:
                dual = dual_family(fam)
                kind = (StructureKind.TANGLE
                        if ce["claim"] == "weak_ultrafilter_dual_not_tangle"
                        else StructureKind.WEAK_ULTRAFILTER)
                checked = dual
            report = check_structure(system, ce["k"], checked, kind)
            failing = report.result(AxiomId(ce["failing_axiom"]))
            if report.passed or failing.passed:
                recheck_failures.append((problem, ce["claim"], ce["k"]))

    # corpus systems can share a descriptor (min3 and min_card3), so compare
    # families as multisets of (descriptor, k, sides)
    found_families = {
        p: sorted((json.dumps(ce["system"], sort_keys=True), ce["k"],
                   tuple(map(tuple, ce["sides"])))
                  for ce in verdicts[p]["counterexamples"])
        for p in (9, 10)
    }
    # the problem-9 lemma (see ``hunt``): hunt 9 reports exactly the weak
    # ultrafilters that are not ultrafilters, as criterion 5 enumerates them
    weak_not_ultra = []
    for i, k in points:
        descriptor = json.dumps(system_descriptor(corpus[i]), sort_keys=True)
        ultra = {fam.member_masks for fam in families(i, "ultrafilter", k)}
        weak_not_ultra += [
            (descriptor, k, tuple(map(tuple, map(mask_elements, fam.member_masks))))
            for fam in families(i, "weak_ultrafilter", k)
            if fam.member_masks not in ultra
        ]
    problem_nine_lemma = found_families[9] == sorted(weak_not_ultra)
    # the problem-10 lemma: hunt 10 reports exactly hunt 9's families, each as
    # a weak ultrafilter whose dual fails T3
    problem_ten_lemma = found_families[9] == found_families[10] and all(
        (ce["claim"], ce["failing_axiom"]) == ("weak_ultrafilter_dual_not_tangle", "T3")
        for ce in verdicts[10]["counterexamples"]
    )

    found = {p: len(verdicts[p]["counterexamples"]) for p in (9, 10)}
    ok = (identical and complete and not recheck_failures and not premise_failures
          and not witness_failures and problem_nine_lemma and problem_ten_lemma)
    announce(capsys, 9, ok,
             f"both hunts completed with byte-identical verdict files; "
             f"counterexamples found {found}, each of the kind its claim "
             f"names and re-failing the checkers; problem 9's are the weak "
             f"ultrafilters that are not ultrafilters")
    assert complete
    assert identical
    assert not recheck_failures
    assert not premise_failures, f"families not of their claimed kind: {premise_failures[:5]}"
    assert not witness_failures, f"witnesses other than F6's: {witness_failures[:5]}"
    assert found[9] > 0 and problem_nine_lemma and problem_ten_lemma


def test_criterion_10_plumbing(tmp_path, capsys):
    planted = [0, 1, 1, 9, 9, 1, 1, 0]
    try:
        explicit_system(planted)
        witness_ok = False
    except FunctionAxiomError as exc:
        witness_ok = exc.witness == (1, 2)

    min3 = builtin_system("min3")
    objects = [
        builtin_system("c4"),
        SeparationFamily.from_masks(min3, 1, [3, 5, 6, 7]),
        check_structure(min3, 0, SeparationFamily.from_masks(min3, 0, [0]),
                        "tangle"),
        verify_theorem(15, min3, 0),
        hunt(9, NamedCorpus((min3,))),
        verify_branchwidth_duality(min3),
        branch_width(builtin_system("c4"))[1],
    ]
    idempotent = True
    for index, obj in enumerate(objects):
        first = tmp_path / f"{index}-first.json"
        second = tmp_path / f"{index}-second.json"
        save(obj, first)
        save(load_document(first), second)
        if first.read_bytes() != second.read_bytes():
            idempotent = False

    start = time.monotonic()
    efficient = enumerate_k_efficient(min_cardinality_system(16), 2)
    elapsed = time.monotonic() - start

    ok = witness_ok and idempotent and len(efficient) == 274 and elapsed < 1
    announce(capsys, 10, ok,
             f"planted violation rejected with witness (1, 2); io save/load "
             f"idempotent on all document shapes; n=16 k=2 efficiency sweep "
             f"gave {len(efficient)} separations in {elapsed * 1000:.1f}ms")
    assert witness_ok
    assert idempotent
    assert len(efficient) == 274
    assert elapsed < 1
