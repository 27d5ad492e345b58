"""Dual transform, exact branch-width, and the equivalence verifiers.

The dual of a family reverses every member: (A, B) becomes (B, A).  Tangle
kinds collect small sides, ultrafilter kinds collect big sides, and the
theorems verified here say the dual transform translates one axiom system
into the other.  Verification is exhaustive: enumerate both sides, apply
the transform, compare sets.

Branch-width is computed by brute force over all unrooted cubic trees with
one leaf per ground-set element, built by leaf insertion so each tree shape
appears exactly once ((2n-5)!! trees, 10395 at the n = 8 limit).  The value
doubles as an independent oracle: the largest k admitting a tangle should
sit exactly one below the branch-width.
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
    return SeparationFamily.from_masks(family.system, family.k, family.dual_masks())


@dataclass(frozen=True)
class BranchDecomposition:
    """Unrooted tree with ground-set elements as leaves, internal degree 3.

    Nodes below ``system.n`` are leaves labeled by their element; larger
    ids are internal.  Each edge displays the separation whose first side
    is the leaf set of the component holding the edge's first endpoint.
    ``splits`` holds one canonical mask per edge, sorted; it identifies the
    tree uniquely and is the tie-break key during optimisation.
    """

    system: ConnectivitySystem
    edges: tuple[tuple[int, int], ...]
    width: int
    splits: tuple[int, ...]

    def recompute_width(self) -> int:
        """Walk the edges and take the max displayed order (verification)."""
        if not self.edges:
            return self.system.evaluate(0)
        return max(
            self.system.evaluate(_leaf_side(self.edges, u, v, self.system.n))
            for u, v in self.edges
        )

    def nested(self):
        """Canonical nested-list form: leaf 0 first, subtrees by min leaf."""
        n = self.system.n
        if n == 1:
            return [0]
        adjacency = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)

        def encode(node, parent):
            if node < n:
                return node
            parts = [encode(x, node) for x in adjacency[node] if x != parent]
            parts.sort(key=_min_leaf)
            return parts

        return [0, encode(adjacency[0][0], 0)]


def _min_leaf(encoded):
    while isinstance(encoded, list):
        encoded = encoded[0]
    return encoded


def _leaf_side(edges, u, v, n):
    """Mask of leaves reachable from u when edge (u, v) is removed."""
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    mask = 0
    stack = [u]
    seen = {u, v}
    while stack:
        node = stack.pop()
        if node < n:
            mask |= 1 << node
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return mask


def _cubic_trees(n):
    """Every unrooted tree with leaves 0..n-1 and internal degree 3, once.

    Leaf m is attached by subdividing each edge of each tree on m leaves;
    distinct insertion points give distinct trees, so no deduplication is
    needed.  Internal ids start at n.
    """
    trees = [[(0, 1)]] if n >= 2 else [[]]
    for leaf in range(2, n):
        grown = []
        internal = n + (leaf - 2)
        for tree in trees:
            for i, (u, v) in enumerate(tree):
                patched = tree[:i] + tree[i + 1:]
                grown.append(
                    patched + [(u, internal), (internal, v), (internal, leaf)]
                )
        trees = grown
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
        best = None
        for edges in _cubic_trees(n):
            if edges:
                displayed = [
                    _leaf_side(edges, u, v, n) for u, v in edges
                ]
                width = max(system.evaluate(m) for m in displayed)
                splits = tuple(sorted(
                    min(m, system.full_mask ^ m) for m in displayed
                ))
            else:
                width = system.evaluate(0)
                splits = ()
            key = (width, splits)
            if best is None or key < best[0]:
                best = (key, tuple(tuple(e) for e in edges))
        (width, splits), edges = best
        system._branch_width = (width, edges, splits)
    width, edges, splits = system._branch_width
    return width, BranchDecomposition(system, edges, width, splits)


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
