"""Exhaustive structure search plus the counterexample hunters.

Every kind searched here has the exactly-one-orientation property: a passing
family picks exactly one side of each unordered separation of order <= k.
The search therefore walks assignments of one orientation per unordered
separation, pruning with per-kind rules that are sound in one direction
only: a pruned branch provably contains no passing family, while every
surviving leaf is re-verified by the independent axiom checkers before it
is emitted.  Running with ``prune=False`` sweeps all 2^m assignments and
must produce the same result set; tests rely on that equivalence.

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

from .connectivity import ConnectivitySystem
from .corpus import random_hyperedge_system
from .exceptions import SearchBudgetError
from .separations import SeparationFamily, efficient_context
from .structures import (
    ORIENTATION_KINDS,
    AxiomId,
    StructureKind,
    check_axiom,
    check_structure,
)

STATUS_COMPLETE = "complete"
STATUS_BUDGET = "budget_exhausted"

HUNT_NONE_FOUND = "no_counterexample_found"
HUNT_FOUND = "counterexample_found"
HUNT_BUDGET = "budget_exhausted"


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


@dataclass(frozen=True)
class SearchResult:
    families: tuple[SeparationFamily, ...]
    complete: bool
    nodes: int
    status: str

    def __len__(self):
        return len(self.families)

    def __iter__(self):
        return iter(self.families)


class _Cut(Exception):
    """Internal signal: node or time budget hit mid-search."""


class _Rules:
    """Sound pruning rules for one (kind, variant) pair.

    ``forced`` pre-assigns orientations implied by the axioms alone,
    ``closure`` lists orientations implied by one newly chosen side, and
    ``conflict`` recognises assignments no extension can repair.  Soundness
    arguments live next to each rule; completeness comes from the leaf
    re-check, so a missing rule costs time, never results.
    """

    def __init__(self, system: ConnectivitySystem, k: int, kind: StructureKind,
                 variant: str):
        self.kind = kind
        self.variant = variant
        self.full = system.full_mask
        context = efficient_context(system, k)
        self.eff = context.masks
        self.eff_set = context.mask_set
        self.eff_bits = [1 << e for e in context.elements]
        t = (StructureKind.TANGLE, StructureKind.LINEAR_TANGLE)
        u = (
            StructureKind.ULTRAFILTER,
            StructureKind.SINGLE_ULTRAFILTER,
            StructureKind.WEAK_ULTRAFILTER,
        )
        self.tangle_side = kind in t
        self.filter_side = kind in u
        self.profile_side = not self.tangle_side and not self.filter_side
        self.linear = kind in (
            StructureKind.LINEAR_TANGLE,
            StructureKind.LINEAR_PROFILE,
            StructureKind.NON_PRINCIPAL_LINEAR_PROFILE,
        )

    def forced(self) -> dict[int, int]:
        """canonical mask -> required orientation, from single-member axioms."""
        out = {}
        if 0 in self.eff_set:
            if self.filter_side:
                out[0] = self.full  # F2
            elif self.kind is StructureKind.LINEAR_TANGLE and not self.eff_bits:
                pass  # no efficient element, so LT3 cannot refute (X, emptyset)
            else:
                out[0] = 0  # T3 on (X,X,X); P2+P3a refute the big side
        singles_in = self.tangle_side or self.kind in (
            StructureKind.NON_PRINCIPAL_PROFILE,
            StructureKind.NON_PRINCIPAL_LINEAR_PROFILE,
        )
        for bit in self.eff_bits:
            if singles_in:
                out[bit] = bit  # T2 / P4
            elif self.filter_side:
                out[bit] = self.full ^ bit  # F3
        return out

    def closure(self, m: int, chosen: set[int]) -> list[int]:
        out = []
        if self.tangle_side:
            if self.kind is StructureKind.TANGLE or self.eff_bits:
                # subsets of a member are members: the complement choice
                # would give a triple (m, B, B) covering X (T3/LT3)
                out.extend(b for b in self.eff if b & ~m == 0)
        elif self.filter_side:
            out.extend(c for c in self.eff if m & ~c == 0)  # F4
            if self.kind is StructureKind.ULTRAFILTER:
                for x in chosen:
                    meet = m & x
                    if meet in self.eff_set:
                        out.append(meet)  # F5
            elif self.kind is StructureKind.SINGLE_ULTRAFILTER:
                for bit in self.eff_bits:
                    shrunk = m & ~bit
                    if shrunk in self.eff_set:
                        out.append(shrunk)  # SF5
        else:
            out.extend(b for b in self.eff if b & ~m == 0)  # P2
            if not self.linear:
                for x in chosen:
                    join = m | x
                    if join in self.eff_set:
                        out.append(join)  # P3b
        return out

    def conflict(self, m: int, chosen: set[int]) -> bool:
        full = self.full
        if self.filter_side:
            if m == 0:
                return True
            # two members with disjoint first sides violate F4 either way
            return any(m & x == 0 for x in chosen)
        both = [m, *chosen]
        if self.kind is StructureKind.TANGLE:
            for i, x in enumerate(both):
                mx = m | x
                if any(mx | y == full for y in both[i:]):
                    return True
            return False
        if self.kind is StructureKind.LINEAR_TANGLE:
            for x in both:
                rest = full ^ (m | x)
                if rest == 0:
                    if self.eff_bits:
                        return True
                elif rest in self.eff_bits:
                    return True
            return False
        # profile kinds: scan the patterns the no-membership clauses forbid
        members = set(both)
        if self.linear:
            for a in both:
                for bit in self.eff_bits:
                    if self.variant == "corrected":
                        banned = full ^ (a | bit)
                    else:
                        banned = a & ~bit
                    if banned in members:
                        return True
            return False
        for i, x in enumerate(both):
            for y in both[i:]:
                if self.variant == "corrected":
                    banned = full ^ (x | y)
                else:
                    banned = x & y
                if banned in members:
                    return True
        return False


class _Searcher:
    def __init__(self, system, k, kind, variant, budget, prune, limit):
        self.system = system
        self.k = k
        self.kind = kind
        self.variant = variant
        self.prune = prune
        self.limit = limit
        self.budget = budget
        if system.n > budget.max_ground_set:
            raise SearchBudgetError(
                f"ground set of {system.n} exceeds budget "
                f"max_ground_set={budget.max_ground_set}"
            )
        self.rules = _Rules(system, k, kind, variant)
        full = system.full_mask
        self.slots = [m for m in self.rules.eff if m <= full ^ m]
        if len(self.slots) > budget.max_unordered:
            raise SearchBudgetError(
                f"{len(self.slots)} unordered separations exceed budget "
                f"max_unordered={budget.max_unordered}"
            )
        self.assignment: dict[int, int] = {}
        self.chosen: set[int] = set()
        self.nodes = 0
        self.found: list[SeparationFamily] = []
        self.deadline = (
            time.monotonic() + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )

    def _tick(self):
        self.nodes += 1
        cap = self.budget.max_nodes
        if cap is not None and self.nodes > cap:
            raise _Cut
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _Cut

    def _canon(self, m):
        comp = self.system.full_mask ^ m
        return m if m <= comp else comp

    def _assign(self, canon, mask, trail) -> bool:
        """Bind one slot, then drain this choice's closure; False on clash."""
        queue = [(canon, mask)]
        while queue:
            canon, mask = queue.pop()
            prior = self.assignment.get(canon)
            if prior is not None:
                if prior != mask:
                    return False
                continue
            self._tick()
            if self.rules.conflict(mask, self.chosen):
                self.assignment[canon] = mask  # recorded so undo is uniform
                trail.append(canon)
                return False
            self.assignment[canon] = mask
            self.chosen.add(mask)
            trail.append(canon)
            for forced in self.rules.closure(mask, self.chosen):
                queue.append((self._canon(forced), forced))
        return True

    def _undo(self, trail):
        for canon in trail:
            mask = self.assignment.pop(canon)
            self.chosen.discard(mask)

    def _emit_if_valid(self):
        family = SeparationFamily.from_masks(
            self.system, self.k, sorted(self.chosen)
        )
        report = check_structure(
            self.system, self.k, family, self.kind, self.variant
        )
        if report.passed:
            self.found.append(family)
            if self.limit is not None and len(self.found) >= self.limit:
                raise _Cut

    def _walk(self, idx):
        while idx < len(self.slots) and self.slots[idx] in self.assignment:
            idx += 1
        if idx == len(self.slots):
            self._emit_if_valid()
            return
        canon = self.slots[idx]
        for mask in (canon, self.system.full_mask ^ canon):
            trail = []
            if self.prune:
                ok = self._assign(canon, mask, trail)
            else:
                self._tick()
                self.assignment[canon] = mask
                self.chosen.add(mask)
                trail.append(canon)
                ok = True
            if ok:
                self._walk(idx + 1)
            self._undo(trail)

    def run(self) -> SearchResult:
        complete = True
        try:
            trail = []
            ok = True
            if self.prune:
                for canon, mask in sorted(self.rules.forced().items()):
                    if not self._assign(canon, mask, trail):
                        ok = False
                        break
            if ok:
                self._walk(0)
        except _Cut:
            complete = self.limit is not None and len(self.found) >= self.limit
        families = tuple(sorted(self.found, key=lambda f: f.member_masks))
        status = STATUS_COMPLETE if complete else STATUS_BUDGET
        return SearchResult(families, complete, self.nodes, status)


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
    kind = StructureKind(kind)
    if kind not in ORIENTATION_KINDS:
        raise ValueError(f"{kind.value} is not searchable by orientation")
    if k < 0:
        raise ValueError("k must be non-negative")
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    budget = budget or SearchBudget()
    return _Searcher(system, k, kind, variant, budget, prune, limit).run()


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
    """One refutation, with enough context to re-run the checkers offline."""

    system: ConnectivitySystem
    k: int
    claim: str
    family: SeparationFamily
    failing_axiom: AxiomId
    witness: tuple = ()


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

    Identical corpus and budget give an identical verdict.
    """
    if problem not in (9, 10):
        raise ValueError("problem must be 9 or 10")
    kmax = corpus.kmax
    if kmax is not None and kmax < 0:
        raise ValueError("kmax must be non-negative")
    budget = budget or SearchBudget()
    systems = corpus.systems()
    counterexamples = []
    systems_examined = 0
    structures_examined = 0
    cut = False

    for system in systems:
        if cut:
            break
        systems_examined += 1
        top = system.max_order()
        if kmax is not None:
            top = min(top, kmax)
        for k in range(top + 1):
            wufs = enumerate_all(
                StructureKind.WEAK_ULTRAFILTER, system, k, budget
            )
            if not wufs.complete:
                cut = True
                break
            structures_examined += len(wufs)
            if problem == 9:
                for fam in wufs:
                    f6 = check_axiom(system, k, fam, AxiomId.F6)
                    if not f6.passed:
                        counterexamples.append(Counterexample(
                            system, k, "weak_ultrafilter_triple_intersection",
                            fam, AxiomId.F6, f6.witness,
                        ))
                continue
            tangles = enumerate_all(StructureKind.TANGLE, system, k, budget)
            if not tangles.complete:
                cut = True
                break
            structures_examined += len(tangles)
            for side, other, dual_kind, claim in (
                (wufs, tangles, StructureKind.TANGLE,
                 "weak_ultrafilter_dual_not_tangle"),
                (tangles, wufs, StructureKind.WEAK_ULTRAFILTER,
                 "tangle_dual_not_weak_ultrafilter"),
            ):
                partners = {f.member_masks for f in other}
                for fam in side:
                    dual_masks = fam.dual_masks()
                    if dual_masks not in partners:
                        dual = SeparationFamily.from_masks(system, k, dual_masks)
                        report = check_structure(system, k, dual, dual_kind)
                        fail = report.failures()[0]
                        counterexamples.append(Counterexample(
                            system, k, claim, fam, fail.axiom, fail.witness,
                        ))

    if cut:
        status = HUNT_BUDGET
    elif counterexamples:
        status = HUNT_FOUND
    else:
        status = HUNT_NONE_FOUND
    return HuntVerdict(
        problem,
        corpus.describe(),
        systems_examined,
        structures_examined,
        tuple(counterexamples),
        status,
    )
