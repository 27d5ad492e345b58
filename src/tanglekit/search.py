"""Exhaustive structure search plus the counterexample hunters.

Every kind searched here has the exactly-one-orientation property: a passing
family picks exactly one side of each unordered separation of order <= k.
The search therefore walks assignments of one orientation per unordered
separation, pruning with per-kind rules that are sound in one direction
only: a pruned branch provably contains no passing family, while every
leaf the walk yields is re-verified by the independent axiom checkers
before it is emitted.  ``prune=False`` runs the same walk with no rule on,
which sweeps all 2^m assignments and must produce the same result set;
tests rely on that equivalence.

Filter bases are not searched (they need not orient anything).

The hunters target two open questions: whether weak ultrafilters always
have nonempty triple intersections of first sides (problem 9), and whether
weak ultrafilters are exactly the complement-duals of tangles (problem 10).
A hunt verdict records coverage and counterexamples; finding one is a
reportable outcome, not an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .connectivity import ConnectivitySystem, check_int
from .corpus import random_hyperedge_system
from .exceptions import SearchBudgetError
from .separations import EfficientContext, SeparationFamily, efficient_context
from .structures import (
    ORIENTATION_KINDS,
    AxiomId,
    StructureKind,
    StructureReport,
    axiom_ids,
    check_structure,
)

STATUS_COMPLETE = "complete"
STATUS_BUDGET = "budget_exhausted"

HUNT_NONE_FOUND = "no_counterexample_found"
HUNT_FOUND = "counterexample_found"
HUNT_BUDGET = "budget_exhausted"
PROBLEMS = (9, 10)  # the open questions ``hunt`` targets


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits a search refuses to exceed.

    The ground-set and separation-count limits are structural and raise
    before any work happens; the node and wall-clock caps cut a running
    search, which then reports partial results flagged as incomplete.
    """

    max_ground_set: int = 8
    max_unordered: int = 64
    max_nodes: int | None = 2_000_000
    max_seconds: float | None = None

    def __post_init__(self):
        check_int(self.max_ground_set, "max_ground_set")
        check_int(self.max_unordered, "max_unordered")
        if self.max_nodes is not None:
            check_int(self.max_nodes, "max_nodes")
        seconds = self.max_seconds
        if seconds is not None and (
            isinstance(seconds, bool) or not isinstance(seconds, (int, float)) or not seconds >= 0
        ):  # ``not >=`` refuses NaN too
            raise ValueError(f"max_seconds must be a non-negative number or None, got {seconds!r}")


@dataclass(frozen=True)
class SearchResult:
    """The families found, and in the same order the re-check report of each."""

    families: tuple[SeparationFamily, ...]
    complete: bool
    nodes: int
    reports: tuple[StructureReport, ...]

    @property
    def status(self) -> str:
        return STATUS_COMPLETE if self.complete else STATUS_BUDGET

    def __len__(self):
        return len(self.families)

    def __iter__(self):
        return iter(self.families)


class _Cut(Exception):
    """Internal signal: node or time budget hit mid-search."""


def _flip(on, clause, reversed_reading, full):
    """0 if ``clause`` is on, the full mask if its reversed reading is, else None."""
    return 0 if clause in on else full if reversed_reading in on else None


class _Rules:
    """Sound pruning rules, each switched on by the axiom that justifies it.

    ``forced`` lists, as masks, the orientations implied by the axioms
    alone, ``closure`` those implied by one newly chosen side, and
    ``conflict`` recognises assignments no extension can repair.  A rule
    keyed by a clause and the rule keyed by its reading through reversal
    share one body: ``flip`` is 0 or the full mask, XORed into the masks
    the rule reads.  F2 needs no rule of its own: F4's closure forces the
    orientation of (emptyset, X) that F2 asks for, and it puts X - m into
    the family, so a side m disjoint from a member clashes on its slot.
    The rules restate the clauses instead of calling the checkers, so the
    leaf re-check stays independent; completeness comes from that
    re-check, so a missing rule costs time, never results.
    """

    def __init__(self, context: EfficientContext, n: int, axioms):
        on = set(axioms)
        full = self.full = (1 << n) - 1
        self.eff_set = context.mask_set
        self.eff_bits = [1 << e for e in context.elements]
        self.singles_in = AxiomId.T2 in on or AxiomId.P4 in on
        self.singles_out = AxiomId.F3 in on
        # flip: 0 reads a clause on the members, the full mask on their reversals;
        # LT3 ranges over k-efficient elements, so without one it implies nothing
        if AxiomId.T3 in on or AxiomId.P2 in on or (AxiomId.LT3 in on and self.eff_bits):
            self.below = 0
        else:
            self.below = full if AxiomId.F4 in on else None
        if self.below is not None:
            self.eff_read = [b ^ self.below for b in context.masks]
        self.pair = _flip(on, AxiomId.P3B, AxiomId.F5, full)
        self.shrink = AxiomId.SF5 in on
        self.cover = AxiomId.T3 in on
        self.line = AxiomId.LT3 in on
        self.pair_ban = _flip(on, AxiomId.P3A_LITERAL, AxiomId.P3A_CORRECTED, full)
        self.element_ban = _flip(on, AxiomId.SP3_LITERAL, AxiomId.SP3_CORRECTED, full)

    def forced(self) -> list[int]:
        """The orientations single-member axioms require, as masks."""
        out = []
        if 0 in self.eff_set and self.below is not None:
            # the other orientation would pull in its own reversal through
            # the closure below (T3, LT3, P2; F4 reversed, which is also F2)
            out.append(self.below)
        if self.singles_in:
            out += self.eff_bits  # T2 / P4
        elif self.singles_out:
            out += [self.full ^ bit for bit in self.eff_bits]  # F3
        return out

    def closure(self, m: int, chosen) -> list[int]:
        out = []
        flip = self.below
        if flip is not None:
            # T3 / LT3 / P2: efficient sets below a member are members, since
            # the other orientation would give a covering triple (m, B, B);
            # read through reversal, F4 puts efficient sets above a member
            outside = ~(m ^ flip)
            out.extend(b ^ flip for b in self.eff_read if b & outside == 0)
        flip = self.pair
        if flip is not None:
            read = m ^ flip
            for x in chosen:
                join = (read | (x ^ flip)) ^ flip
                if join in self.eff_set:
                    out.append(join)  # P3b, and F5 through reversal
        if self.shrink:
            for bit in self.eff_bits:
                shrunk = m & ~bit
                if shrunk in self.eff_set:
                    out.append(shrunk)  # SF5
        return out

    def conflict(self, m: int, chosen) -> bool:
        full = self.full
        both = [m, *chosen]
        if self.cover:
            for i, x in enumerate(both):
                mx = m | x
                if any(mx | y == full for y in both[i:]):
                    return True  # T3
        if self.line:
            for x in both:
                rest = full ^ (m | x)
                if (rest == 0 and self.eff_bits) or rest in self.eff_bits:
                    return True  # LT3
        # the no-membership clauses: scan the patterns they forbid
        flip = self.pair_ban
        if flip is not None:
            members = set(both)
            for i, x in enumerate(both):
                for y in both[i:]:
                    if (x ^ flip) & (y ^ flip) in members:
                        return True  # P3a
        flip = self.element_ban
        if flip is not None:
            members = set(both)
            for a in both:
                for bit in self.eff_bits:
                    if (a ^ flip) & ~bit in members:
                        return True  # SP3
        return False


class _Walk:
    """Every orientation of the separations in ``context`` that the rules of
    ``axioms`` leave; iterating the walk yields each as its masks, a sorted
    tuple, and a node or time cap raises ``_Cut`` out of the iteration.

    The walk reads f only through the context, so its leaves and its node
    count are a function of n, the axioms and the separations of order <= k.
    A walk iterated to its end keeps its leaves, and iterating it again
    replays them.
    """

    def __init__(self, context: EfficientContext, n: int, axioms, budget: SearchBudget):
        self.rules = _Rules(context, n, axioms)
        full = self.rules.full
        self.slots = [m for m in context.masks if m <= full ^ m]
        if len(self.slots) > budget.max_unordered:
            raise SearchBudgetError(
                f"{len(self.slots)} unordered separations exceed budget "
                f"max_unordered={budget.max_unordered}"
            )
        self.budget = budget
        # canonical mask -> chosen orientation; the values are the family
        self.assignment: dict[int, int] = {}
        self.nodes = 0
        seconds = budget.max_seconds
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.leaves: list[tuple[int, ...]] | None = None  # once the walk has ended

    def __iter__(self):
        if self.leaves is not None:
            yield from self.leaves
            return
        leaves = []
        if all(self._assign(mask, []) for mask in self.rules.forced()):
            for masks in self._descend(0):
                leaves.append(masks)
                yield masks
        self.leaves = leaves

    def _tick(self):
        self.nodes += 1
        cap = self.budget.max_nodes
        if cap is not None and self.nodes > cap:
            raise _Cut
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _Cut

    def _assign(self, mask, trail) -> bool:
        """Orient one slot, then drain this choice's closure; False on clash."""
        chosen = self.assignment.values()
        full = self.rules.full
        queue = [mask]
        while queue:
            mask = queue.pop()
            canon = min(mask, full ^ mask)
            prior = self.assignment.get(canon)
            if prior is not None:
                if prior != mask:
                    return False
                continue
            self._tick()
            if self.rules.conflict(mask, chosen):
                return False
            self.assignment[canon] = mask
            trail.append(canon)
            queue += self.rules.closure(mask, chosen)
        return True

    def _descend(self, idx):
        while idx < len(self.slots) and self.slots[idx] in self.assignment:
            idx += 1
        if idx == len(self.slots):
            yield tuple(sorted(self.assignment.values()))
            return
        canon = self.slots[idx]
        for mask in (canon, self.rules.full ^ canon):
            trail = []
            if self._assign(mask, trail):
                yield from self._descend(idx + 1)
            for slot in trail:
                del self.assignment[slot]


def enumerate_all(
    kind: StructureKind,
    system: ConnectivitySystem,
    k: int,
    budget: SearchBudget | None = None,
    *,
    variant: str = "corrected",
    prune: bool = True,
    limit: int | None = None,
) -> SearchResult:
    """All families of the kind, via orientation backtracking.

    The result is duplicate-free and sorted by member masks.  It is the
    complete list exactly when ``status`` is ``complete``; a node or time
    cap yields the families found so far, flagged incomplete.  ``limit``
    stops early but still reports complete when the cap was reached.
    """
    return _enumerate(kind, system, k, budget, variant, prune, limit)


def _enumerate(
    kind, system, k, budget=None, variant="corrected", prune=True, limit=None, walks=None
) -> SearchResult:
    """``enumerate_all``; ``walks``, a dict or None, keeps each walk that ran to
    its end under its key (axioms, n, the context's bits), and a walk kept
    there is replayed, not walked again.  Every leaf, walked or replayed, is
    re-checked on this system."""
    kind = StructureKind(kind)
    if kind not in ORIENTATION_KINDS:
        raise ValueError(f"{kind.value} is not searchable by orientation")
    check_int(k, "k")
    if limit is not None:
        check_int(limit, "limit", 1)
    budget = budget or SearchBudget()
    _check_ground_set(system, budget)
    axioms = axiom_ids(kind, variant) if prune else ()
    context = efficient_context(system, k)
    key = axioms, system.n, context.bits
    walks = {} if walks is None else walks
    walk = walks.get(key) or _Walk(context, system.n, axioms, budget)
    found: list[tuple[SeparationFamily, StructureReport]] = []
    complete = True
    try:
        for masks in walk:  # sorted, distinct and in range, as the walk makes them
            family = SeparationFamily(system, k, masks)
            report = check_structure(system, k, family, kind, variant)
            if report.passed:
                found.append((family, report))
                if len(found) == limit:
                    break
    except _Cut:
        complete = False
    if walk.leaves is not None:
        walks[key] = walk
    found.sort(key=lambda pair: pair[0].member_masks)
    families, reports = zip(*found) if found else ((), ())
    return SearchResult(families, complete, walk.nodes, reports)


def _check_ground_set(system, budget):
    """Refuse a system too large for ``budget`` before its value table is built."""
    if system.n > budget.max_ground_set:
        raise SearchBudgetError(
            f"ground set of {system.n} exceeds budget "
            f"max_ground_set={budget.max_ground_set}"
        )


def find_one(
    kind: StructureKind,
    system: ConnectivitySystem,
    k: int,
    budget: SearchBudget | None = None,
    *,
    variant: str = "corrected",
) -> SeparationFamily | None:
    """First family in canonical search order, or None.

    None is definitive: if the budget runs out before the search either
    finds a family or completes, this raises instead of guessing.
    """
    result = enumerate_all(kind, system, k, budget, variant=variant, limit=1)
    if result.families:
        return result.families[0]
    if not result.complete:
        raise SearchBudgetError(
            f"budget exhausted after {result.nodes} nodes with no "
            f"{StructureKind(kind).value} found; absence not established"
        )
    return None


def unmatched_duals(side, other) -> list[SeparationFamily]:
    """The families of ``side``, in order, whose dual is not in ``other``."""
    partners = {f.member_masks for f in other}
    return [f for f in side if f.dual_masks() not in partners]


# ---------------------------------------------------------------------------
# counterexample hunters


@dataclass(frozen=True)
class HuntCorpus:
    """Seed-deterministic corpus description for a hunt.

    ``sizes[i]`` is the ground-set size of the i-th system, generated with
    seed ``base_seed + i``, n hyperedges and arity capped at min(3, n).
    ``kmax`` bounds the k sweep; each system is still capped at its own
    maximum order.
    """

    sizes: tuple[int, ...]
    base_seed: int
    kmax: int | None = None

    def __post_init__(self):
        for n in self.sizes:  # a hyperedge needs two elements
            check_int(n, "ground-set size", 2)
        check_int(self.base_seed, "base_seed")

    def systems(self) -> list[ConnectivitySystem]:
        return [
            random_hyperedge_system(
                n, n, min(3, n), self.base_seed + i, name=f"hunt-n{n}-s{self.base_seed + i}"
            )
            for i, n in enumerate(self.sizes)
        ]

    def describe(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "base_seed": self.base_seed,
            "kmax": self.kmax,
        }


@dataclass(frozen=True)
class NamedCorpus:
    """A hunt corpus of pre-built systems (kmax as in HuntCorpus)."""

    members: tuple[ConnectivitySystem, ...]
    kmax: int | None = None

    def systems(self) -> list[ConnectivitySystem]:
        return list(self.members)

    def describe(self) -> dict:
        return {
            "named": [s.name for s in self.members],
            "kmax": self.kmax,
        }


@dataclass(frozen=True)
class Counterexample:
    """One refutation, with enough context to re-run the checkers offline;
    ``witness`` holds first-side masks, as ``AxiomResult.witness`` does."""

    system: ConnectivitySystem
    k: int
    claim: str
    family: SeparationFamily
    failing_axiom: AxiomId
    witness: tuple[int, ...] = ()


@dataclass(frozen=True)
class HuntVerdict:
    problem: int
    corpus: dict
    systems_examined: int
    structures_examined: int
    counterexamples: tuple[Counterexample, ...] = field(default=())
    status: str = HUNT_NONE_FOUND


def hunt(problem: int, corpus, budget: SearchBudget | None = None) -> HuntVerdict:
    """Sweep a corpus for counterexamples to one of the open questions.

    Problem 9: does every weak ultrafilter have pairwise-bounded member
    triples with nonempty first-side intersection (the F6 property proved
    for full ultrafilters)?  Problem 10: is the complement-dual of every
    weak ultrafilter a tangle and vice versa, as it is for ultrafilters?
    For symmetric f, problem 9 asks whether every weak ultrafilter is an
    ultrafilter, since a weak ultrafilter is one iff it passes F6; and
    problem 10 is problem 9 read through reversal: every tangle's dual is a
    weak ultrafilter, and a weak ultrafilter's dual is a tangle iff it
    passes F6, else it fails at T3 (proofs: README, hunts).  A corpus with
    no systems is refused, since a hunt over nothing shows nothing.

    Identical corpus and budget give an identical verdict, unless a
    ``max_seconds`` cap stops a search: on another machine it may stop at
    another node.  Equal witnesses in a verdict are one tuple, and so are
    equal member-mask tuples when f is symmetric, as every builder makes it.
    A search walks once per key of axioms, n and separations of order <= k
    in a call: a later (system, k) with the same key re-checks the finished
    walk's leaves on its own system, and the node count and wall-clock caps
    apply to the walk, so such a re-check does not count against them.  The
    first search a cap stops ends the sweep; a system larger than the
    budget's ground set is refused before its value table is built.
    """
    if check_int(problem, "problem") not in PROBLEMS:
        raise ValueError(f"problem must be {' or '.join(map(str, PROBLEMS))}")
    kmax = corpus.kmax
    if kmax is not None:
        check_int(kmax, "kmax")
    budget = budget or SearchBudget()
    systems = corpus.systems()
    if not systems:
        raise ValueError("the corpus holds no systems")
    counterexamples = []
    shared = {}  # a witness -> its one tuple in this verdict
    walks = {}  # the walks of this call, by key: see ``_enumerate``
    systems_examined = structures_examined = 0

    def found(fam, claim, axiom, witness):
        counterexamples.append(Counterexample(
            system, k, claim, fam, axiom,
            shared.setdefault(witness, witness),
        ))

    def searched(kind):
        """Every family of ``kind`` at (system, k); ``_Cut`` if a cap stops it."""
        nonlocal structures_examined
        result = _enumerate(kind, system, k, budget, walks=walks)
        if not result.complete:
            raise _Cut
        structures_examined += len(result)
        return result

    try:
        for system in systems:
            systems_examined += 1
            _check_ground_set(system, budget)  # before max_order() builds the table
            top = system.max_order()
            if kmax is not None:
                top = min(top, kmax)
            for k in range(top + 1):
                wufs = searched(StructureKind.WEAK_ULTRAFILTER)
                if problem == 9:
                    # the leaf re-check already decided F6, its diagnostic entry
                    for fam, report in zip(wufs.families, wufs.reports):
                        f6 = report.result(AxiomId.F6)
                        if not f6.passed:
                            found(fam, "weak_ultrafilter_triple_intersection",
                                  AxiomId.F6, f6.witness)
                    continue
                tangles = searched(StructureKind.TANGLE)
                for side, other, dual_kind, claim in (
                    (wufs, tangles, StructureKind.TANGLE,
                     "weak_ultrafilter_dual_not_tangle"),
                    (tangles, wufs, StructureKind.WEAK_ULTRAFILTER,
                     "tangle_dual_not_weak_ultrafilter"),
                ):
                    for fam in unmatched_duals(side, other):
                        dual = SeparationFamily(system, k, fam.dual_masks())
                        report = check_structure(system, k, dual, dual_kind)
                        fail = report.failures()[0]
                        found(fam, claim, fail.axiom, fail.witness)
        status = HUNT_FOUND if counterexamples else HUNT_NONE_FOUND
    except _Cut:
        status = HUNT_BUDGET
    return HuntVerdict(problem, corpus.describe(), systems_examined, structures_examined,
                       tuple(counterexamples), status)
