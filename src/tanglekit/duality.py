"""Dual transform, exact branch-width, and the equivalence verifiers.

The dual of a family reverses every member: (A, B) becomes (B, A).  Tangle
kinds collect small sides, ultrafilter kinds collect big sides, and the
theorems verified here say the dual transform translates one axiom system
into the other.  Verification is exhaustive: enumerate both sides, apply
the transform, compare sets.

Branch-width is computed by brute force over all unrooted cubic trees with
one leaf per ground-set element ((2n-5)!! trees, 10395 at the n = 8 limit).
A tree is held as its edges' clusters, each the leaf set on the side of its
edge away from leaf 0, and built by inserting one leaf at a time into an
edge, so each tree shape appears exactly once and no node ids are needed.
A decomposition is its sorted canonical splits.  The value doubles as an
independent oracle: the largest k admitting a tangle should sit exactly one
below the branch-width.
"""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import ConnectivitySystem, check_int
from .exceptions import GroundSetLimitError, SearchBudgetError
from .separations import SeparationFamily
from .search import SearchBudget, enumerate_all, find_one, unmatched_duals
from .structures import StructureKind

TREE_ENUMERATION_LIMIT = 8
DUALITY_CHECK_LIMIT = 7


def dual_family(family: SeparationFamily) -> SeparationFamily:
    """Reverse every member.  An involution; orders and k are unchanged."""
    return SeparationFamily(family.system, family.k, family.dual_masks())


@dataclass(frozen=True)
class BranchDecomposition:
    """Unrooted tree with ground-set elements as leaves, internal degree 3.

    The tree is held as its splits: one canonical mask per edge, the smaller
    of the two leaf sets the edge separates, sorted.  The splits identify
    the tree uniquely, each displays the separation it names, and their
    tuple is the tie-break key during optimisation.  With n = 1 the tree is
    the lone leaf 0 and has no split.
    """

    system: ConnectivitySystem
    width: int
    splits: tuple[int, ...]

    def recompute_width(self) -> int:
        """The max order displayed at a split, f(emptyset) with none (verification)."""
        evaluate = self.system.evaluate
        return max(map(evaluate, self.splits), default=evaluate(0))

    def nested(self):
        """Canonical nested-list form: leaf 0 first, subtrees by min leaf."""
        if not self.splits:
            return [0]
        full = self.system.full_mask
        # each split as its cluster: the leaf set away from leaf 0
        clusters = [s ^ full if s & 1 else s for s in self.splits]

        def encode(cluster):
            if cluster & (cluster - 1) == 0:
                return cluster.bit_length() - 1
            # the largest cluster strictly inside is one half, the rest the other
            half = max((c for c in clusters if c & cluster == c != cluster), key=int.bit_count)
            parts = sorted((half, cluster ^ half), key=lambda c: c & -c)
            return [encode(part) for part in parts]

        return [0, encode(full ^ 1)]


def _cubic_trees(n):
    """Every unrooted tree with leaves 0..n-1 and internal degree 3, once.

    A tree is the list of its edges' clusters, the leaf set on the side of
    each edge away from leaf 0.  Leaf m is inserted on each edge of each
    tree on m leaves: on the edge with cluster e, the clusters holding e
    (e itself and every edge on the way to leaf 0) gain m, and the lower
    half of the subdivided edge (e) and the new leaf's edge ({m}) are
    appended.  Distinct insertion points give distinct trees, so no
    deduplication is needed.
    """
    trees = [[0b10]] if n >= 2 else [[]]
    for leaf in range(2, n):
        bit = 1 << leaf
        trees = [
            [c | bit if c & e == e else c for c in tree] + [e, bit]
            for tree in trees for e in tree
        ]
    return trees


def branch_width(system: ConnectivitySystem) -> tuple[int, BranchDecomposition]:
    """Minimum width over all branch decompositions, with a witness.

    Ties are broken by the lexicographically least sorted-splits tuple, so
    the witness is deterministic.  Degenerate ground sets (n <= 2) have a
    single decomposition; its width is f of the single displayed side, or
    f(emptyset) when there is no edge at all.  The trees are enumerated once
    per system: the optimum is cached on the system and freed with it.
    """
    n = system.n
    if n > TREE_ENUMERATION_LIMIT:
        raise GroundSetLimitError("branch_width", n, TREE_ENUMERATION_LIMIT)
    if system._branch_width is None:
        f = system.table().tolist()
        full = system.full_mask
        # f is symmetric, so f at a cluster is the order its edge displays
        system._branch_width = min(
            (max((f[c] for c in tree), default=f[0]),
             tuple(sorted(min(c, full ^ c) for c in tree)))
            for tree in _cubic_trees(n)
        )
    width, splits = system._branch_width
    return width, BranchDecomposition(system, width, splits)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of one theorem check on one (system, k).

    For the bijection theorems (11, 12) ``counts`` holds both enumeration
    sizes and ``unmatched`` lists every family whose dual is missing from
    the far side; pass means none.  For the existence theorems (15, 16)
    ``counts`` holds all three corrected-variant enumeration sizes plus the
    literal-variant count of the profile kind, and pass means the three
    corrected existence bits agree.  ``bw`` is filled for 15/16 on systems
    small enough for the decomposition oracle, as independent context.
    """

    theorem: int
    system: str
    k: int
    passed: bool
    counts: dict[str, int]
    unmatched: tuple[tuple[str, SeparationFamily], ...]
    bw: int | None

    def existence(self) -> dict[str, bool]:
        return {
            kind: count > 0
            for kind, count in self.counts.items()
            if not kind.endswith("_literal")
        }


_BIJECTION_SIDES = {
    11: (StructureKind.TANGLE, StructureKind.ULTRAFILTER),
    12: (StructureKind.LINEAR_TANGLE, StructureKind.SINGLE_ULTRAFILTER),
}

_EXISTENCE_KINDS = {
    15: (
        StructureKind.NON_PRINCIPAL_PROFILE,
        StructureKind.TANGLE,
        StructureKind.ULTRAFILTER,
    ),
    16: (
        StructureKind.NON_PRINCIPAL_LINEAR_PROFILE,
        StructureKind.LINEAR_TANGLE,
        StructureKind.SINGLE_ULTRAFILTER,
    ),
}
THEOREMS = (*_BIJECTION_SIDES, *_EXISTENCE_KINDS)


def _enumerate_or_raise(kind, system, k, budget, variant="corrected"):
    result = enumerate_all(kind, system, k, budget, variant=variant)
    if not result.complete:
        raise SearchBudgetError(
            f"enumeration of {kind.value} incomplete after {result.nodes} "
            "nodes; verdict withheld"
        )
    return result


def verify_theorem(
    theorem: int,
    system: ConnectivitySystem,
    k: int,
    budget: SearchBudget | None = None,
) -> EquivalenceVerdict:
    """Exhaustively check one of the four translation theorems at one k.

    11: tangles and ultrafilters correspond bijectively under the dual
    transform.  12: the same for linear tangles and single ultrafilters.
    15: a non-principal profile exists iff a tangle exists iff an
    ultrafilter exists.  16: the linear analogue of 15.
    """
    if check_int(theorem, "theorem") not in THEOREMS:
        raise ValueError(f"theorem must be one of {', '.join(map(str, THEOREMS))}")
    budget = budget or SearchBudget()
    if theorem in _BIJECTION_SIDES:
        left_kind, right_kind = _BIJECTION_SIDES[theorem]
        left = _enumerate_or_raise(left_kind, system, k, budget)
        right = _enumerate_or_raise(right_kind, system, k, budget)
        unmatched = [
            (left_kind.value, f) for f in unmatched_duals(left, right)
        ] + [(right_kind.value, f) for f in unmatched_duals(right, left)]
        counts = {left_kind.value: len(left), right_kind.value: len(right)}
        return EquivalenceVerdict(
            theorem, system.describe(), k,
            not unmatched, counts, tuple(unmatched), None,
        )
    kinds = _EXISTENCE_KINDS[theorem]
    counts = {
        kind.value: len(_enumerate_or_raise(kind, system, k, budget))
        for kind in kinds
    }
    profile_kind = kinds[0]
    counts[profile_kind.value + "_literal"] = len(
        _enumerate_or_raise(profile_kind, system, k, budget, "literal")
    )
    bits = {counts[kind.value] > 0 for kind in kinds}
    bw = None
    if system.n <= TREE_ENUMERATION_LIMIT:
        bw = branch_width(system)[0]
    return EquivalenceVerdict(
        theorem, system.describe(), k, len(bits) == 1, counts, (), bw,
    )


@dataclass(frozen=True)
class DualityReport:
    """Branch-width against the tangle spectrum of one system.

    ``per_k`` records, for each k up to the maximum order, whether a tangle
    exists and whether that matches the oracle prediction (a tangle exists
    exactly when k < bw).  ``max_tangle_order`` is one above the largest
    admitting k, 0 when no tangle exists at all.  ``degenerate`` flags
    ground sets of size <= 2, where no convention for the correspondence
    is established; such systems are reported, never asserted against.
    """

    system: str
    bw: int
    max_tangle_order: int
    per_k: tuple[tuple[int, bool, bool], ...]
    agrees: bool
    degenerate: bool


def verify_branchwidth_duality(
    system: ConnectivitySystem,
    budget: SearchBudget | None = None,
    kmax: int | None = None,
) -> DualityReport:
    """Compare exhaustive tangle search against the branch-width oracle.

    ``kmax`` truncates the sweep; a truncated run can still report per-k
    disagreements but only asserts max tangle order = bw when the sweep
    covered the full order range.
    """
    n = system.n
    if n > DUALITY_CHECK_LIMIT:
        raise GroundSetLimitError(
            "verify_branchwidth_duality", n, DUALITY_CHECK_LIMIT
        )
    if kmax is not None:
        check_int(kmax, "kmax")
    budget = budget or SearchBudget()
    bw = branch_width(system)[0]
    top = system.max_order()
    truncated = kmax is not None and kmax < top
    if kmax is not None:
        top = min(top, kmax)
    per_k = []
    max_tangle_order = 0
    for k in range(top + 1):
        exists = find_one(StructureKind.TANGLE, system, k, budget) is not None
        if exists:
            max_tangle_order = k + 1
        per_k.append((k, exists, exists == (k < bw)))
    agrees = all(m for _, _, m in per_k) and (
        truncated or max_tangle_order == bw
    )
    return DualityReport(
        system.describe(), bw, max_tangle_order, tuple(per_k), agrees, n <= 2
    )
