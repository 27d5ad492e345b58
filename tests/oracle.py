"""Naive reference implementations used to freeze expected test values.

Everything in this module is deliberately simple-minded: subsets are
frozensets, every quantifier is a direct loop, and structure search is a
full sweep over all orientation assignments with no pruning.  Nothing here
imports the package under test.  Unit tests compare tanglekit against these
on instances small enough for the 2^(number of unordered separations) sweep.
"""

import random
from itertools import combinations, product


# ---------------------------------------------------------------------------
# set functions


def min_cardinality_fn(n):
    ground = frozenset(range(n))

    def f(a):
        return min(len(a), len(ground - a))

    return f


def split_count_fn(units):
    """f(A) = number of `units` (frozensets) meeting both A and its complement."""

    def f(a):
        return sum(1 for u in units if (u & a) and (u - a))

    return f


def graph_edge_boundary_fn(edges):
    """Ground set = edge indices of `edges` (pairs of vertex names).

    f(A) counts vertices incident to an edge in A and an edge outside A.
    """
    vertices = sorted({v for e in edges for v in e})
    incident = [
        frozenset(i for i, e in enumerate(edges) if v in e) for v in vertices
    ]
    return split_count_fn(incident)


def graph_cut_fn(vertex_count, edges):
    """Ground set = vertices 0..vertex_count-1; f(A) = crossing edge count."""
    units = [frozenset(e) for e in edges]
    return split_count_fn(units)


def _verify_reference(mode, f, n, pairs_checked, pairs):
    """The four checks over `pairs` (a, b), one pair at a time.

    `f` takes a subset mask.  Returns (mode, pairs_checked, checks) with one
    (name, passed, witness) per check, the witness being the first failing
    pair: (a,) for symmetry and the empty-set floor, (a, b) for the pair
    inequalities.
    """
    names = ("symmetry", "submodularity", "empty_set_minimum", "posimodularity")
    f_empty = f(0)
    full = (1 << n) - 1
    witnesses = {name: None for name in names}
    for a, b in pairs:
        fa, fb = f(a), f(b)
        if witnesses["symmetry"] is None and fa != f(a ^ full):
            witnesses["symmetry"] = (a,)
        if witnesses["empty_set_minimum"] is None and fa < f_empty:
            witnesses["empty_set_minimum"] = (a,)
        if witnesses["submodularity"] is None and fa + fb < f(a & b) + f(a | b):
            witnesses["submodularity"] = (a, b)
        if witnesses["posimodularity"] is None and fa + fb < f(a & ~b) + f(b & ~a):
            witnesses["posimodularity"] = (a, b)
    checks = tuple(
        (name, witnesses[name] is None, witnesses[name] or ()) for name in names
    )
    return (mode, pairs_checked, checks)


def verify_sampled_reference(f, n, samples, seed):
    """Sampled verification: `samples` seeded draws of a then b."""
    rng = random.Random(seed)
    size = 1 << n
    pairs = ((rng.randrange(size), rng.randrange(size)) for _ in range(samples))
    return _verify_reference("sampled", f, n, samples, pairs)


def verify_exhaustive_reference(f, n):
    """Exhaustive verification: every pair, a-major (all b for a = 0 first)."""
    size = 1 << n
    pairs = ((a, b) for a in range(size) for b in range(size))
    return _verify_reference("exhaustive", f, n, size * size, pairs)


# ---------------------------------------------------------------------------
# separations as frozensets (first sides); the ground set is implicit


def subsets(n):
    ground = list(range(n))
    for r in range(n + 1):
        for c in combinations(ground, r):
            yield frozenset(c)


def efficient_sides(f, n, k):
    return [a for a in subsets(n) if f(a) <= k]


def unordered_pairs(f, n, k):
    """Unordered k-efficient separations, one (A, complement) pair each."""
    ground = frozenset(range(n))
    seen = set()
    pairs = []
    for a in efficient_sides(f, n, k):
        key = frozenset((a, ground - a))
        if key not in seen:
            seen.add(key)
            pairs.append((a, ground - a))
    return pairs


def orientation_families(f, n, k):
    """Every family that picks exactly one side from each unordered pair."""
    pairs = unordered_pairs(f, n, k)
    for choice in product(*[(a, b) for a, b in pairs]):
        yield frozenset(choice)


# ---------------------------------------------------------------------------
# axiom predicates; `fam` is a set of first sides, complements are implicit


def _ok_orders(f, fam, k):
    return all(f(a) <= k for a in fam)


def _oriented(f, n, k, fam):
    ground = frozenset(range(n))
    for a in efficient_sides(f, n, k):
        if a not in fam and (ground - a) not in fam:
            return False
    return True


def is_tangle(f, n, k, fam):
    ground = frozenset(range(n))
    if not (_ok_orders(f, fam, k) and _oriented(f, n, k, fam)):
        return False
    for e in range(n):
        if f(frozenset([e])) <= k and frozenset([e]) not in fam:
            return False
    for a1, a2, a3 in product(fam, repeat=3):
        if a1 | a2 | a3 == ground:
            return False
    return True


def is_linear_tangle(f, n, k, fam):
    ground = frozenset(range(n))
    if not (_ok_orders(f, fam, k) and _oriented(f, n, k, fam)):
        return False
    for e in range(n):
        if f(frozenset([e])) <= k and frozenset([e]) not in fam:
            return False
    for a1, a2 in product(fam, repeat=2):
        for e in range(n):
            if f(frozenset([e])) <= k and a1 | a2 | frozenset([e]) == ground:
                return False
    return True


def _f1_f4(f, n, k, fam):
    ground = frozenset(range(n))
    if not (_ok_orders(f, fam, k) and _oriented(f, n, k, fam)):
        return False
    if frozenset() in fam:
        return False
    for e in range(n):
        if f(frozenset([e])) <= k and frozenset([e]) in fam:
            return False
    for a1 in fam:
        for a2 in subsets(n):
            if a1 <= a2 and f(a2) <= k and a2 not in fam:
                return False
    return True


def is_ultrafilter(f, n, k, fam):
    if not _f1_f4(f, n, k, fam):
        return False
    for a1, a2 in product(fam, repeat=2):
        if f(a1 & a2) <= k and (a1 & a2) not in fam:
            return False
    return True


def is_single_ultrafilter(f, n, k, fam):
    if not _f1_f4(f, n, k, fam):
        return False
    for a1 in fam:
        for e in range(n):
            sing = frozenset([e])
            if f(sing) <= k and f(a1 - sing) <= k and (a1 - sing) not in fam:
                return False
    return True


def is_weak_ultrafilter(f, n, k, fam):
    if not _f1_f4(f, n, k, fam):
        return False
    for a1, a2 in product(fam, repeat=2):
        if f(a1 & a2) <= k and not (a1 & a2):
            return False
    return True


def f6_holds(fam):
    return all(a1 & a2 & a3 for a1, a2, a3 in product(fam, repeat=3))


def is_profile(f, n, k, fam, literal=False):
    ground = frozenset(range(n))
    if not (_ok_orders(f, fam, k) and _oriented(f, n, k, fam)):
        return False
    for a2 in fam:
        for a1 in subsets(n):
            if a1 <= a2 and f(a1) <= k and a1 not in fam:
                return False
    for a1, a2 in product(fam, repeat=2):
        if literal:
            if (a1 & a2) in fam:
                return False
        else:
            if (ground - (a1 | a2)) in fam:
                return False
        if f(a1 | a2) <= k and (a1 | a2) not in fam:
            return False
    return True


def is_nonprincipal_profile(f, n, k, fam, literal=False):
    if not is_profile(f, n, k, fam, literal):
        return False
    return all(
        frozenset([e]) in fam for e in range(n) if f(frozenset([e])) <= k
    )


def is_linear_profile(f, n, k, fam, literal=False):
    ground = frozenset(range(n))
    if not (_ok_orders(f, fam, k) and _oriented(f, n, k, fam)):
        return False
    for a2 in fam:
        for a1 in subsets(n):
            if a1 <= a2 and f(a1) <= k and a1 not in fam:
                return False
    for a1 in fam:
        for e in range(n):
            if f(frozenset([e])) > k:
                continue
            sing = frozenset([e])
            if literal:
                if (a1 - sing) in fam:
                    return False
            else:
                if (ground - (a1 | sing)) in fam:
                    return False
    return True


def is_nonprincipal_linear_profile(f, n, k, fam, literal=False):
    if not is_linear_profile(f, n, k, fam, literal):
        return False
    return all(
        frozenset([e]) in fam for e in range(n) if f(frozenset([e])) <= k
    )


PREDICATES = {
    "tangle": is_tangle,
    "linear_tangle": is_linear_tangle,
    "ultrafilter": is_ultrafilter,
    "single_ultrafilter": is_single_ultrafilter,
    "weak_ultrafilter": is_weak_ultrafilter,
    "profile": is_profile,
    "non_principal_profile": is_nonprincipal_profile,
    "linear_profile": is_linear_profile,
    "non_principal_linear_profile": is_nonprincipal_linear_profile,
}


def enumerate_structures(kind, f, n, k):
    """All orientation families passing the naive predicate, as a sorted list."""
    pred = PREDICATES[kind]
    found = [fam for fam in orientation_families(f, n, k) if pred(f, n, k, fam)]
    return sorted(found, key=lambda fam: sorted(sorted(a) for a in fam))


def dual(fam, n):
    ground = frozenset(range(n))
    return frozenset(ground - a for a in fam)


# ---------------------------------------------------------------------------
# branch-width by subset-split dynamic programming (no tree enumeration)


def branch_width_dp(f, n):
    """Min over recursive bipartition trees of the max displayed order.

    Rooting an unrooted cubic tree at an edge turns it into a nested binary
    bipartition of X whose displayed sides are exactly the clusters created
    by the splits, so the DP below ranges over the same decompositions as
    tree enumeration does.
    """
    if n == 0:
        raise ValueError("empty ground set")
    ground = frozenset(range(n))
    if n == 1:
        return f(frozenset())
    cache = {}

    def cost(s):
        if len(s) == 1:
            return 0
        if s in cache:
            return cache[s]
        elems = sorted(s)
        rest = elems[1:]
        best = None
        # fix elems[0] on the left to halve the bipartition sweep
        for r in range(len(rest) + 1):
            for picked in combinations(rest, r):
                left = frozenset([elems[0], *picked])
                right = s - left
                if not right:
                    continue
                width = max(f(left), f(right), cost(left), cost(right))
                if best is None or width < best:
                    best = width
        cache[s] = best
        return best

    return cost(ground)


def filter_base_closure(f, n, k, base):
    """Upward closure of `base` among k-efficient sides."""
    return sorted(
        (a for a in efficient_sides(f, n, k) if any(b <= a for b in base)),
        key=lambda a: sorted(a),
    )


# ---------------------------------------------------------------------------
# scan-order references: the per-member and per-pair scans that decided P0,
# T1/F1/P1, P2/F4 and WF5 before the bitset kernel, kept verbatim.  Each
# returns (axiom, passed, witness first sides, element), so a test can
# compare first witnesses as well as verdicts.


class AxiomId:
    """The axiom names the scans below refer to, as plain strings."""

    P0, WF5 = "P0", "WF5"


class _System:
    def __init__(self, f, n):
        self.evaluate = f
        self.full_mask = (1 << n) - 1


class _Efficient:
    def __init__(self, f, n, k):
        self.masks = tuple(m for m in range(1 << n) if f(m) <= k)


class ScanCtx:
    """What the scans read: members ascending, their set, f, k and X."""

    def __init__(self, f, n, k, masks):
        self.system = _System(f, n)
        self.k = k
        self.masks = tuple(sorted(masks))
        self.mask_set = frozenset(self.masks)
        self.full = (1 << n) - 1
        self.eff = _Efficient(f, n, k)


def _ok(axiom):
    return (axiom, True, (), None)


def _fail(axiom, ctx, masks, element=None):
    return (axiom, False, tuple(masks), element)


def _check_p0(ctx):
    for m in ctx.masks:
        if ctx.system.evaluate(m) > ctx.k:
            return _fail(AxiomId.P0, ctx, (m,))
    return _ok(AxiomId.P0)


def _check_orientation(axiom, ctx):
    # T1 / F1 / P1: every separation of order <= k has an oriented member
    for m in ctx.eff.masks:
        comp = ctx.full ^ m
        if m > comp:
            continue
        if m not in ctx.mask_set and comp not in ctx.mask_set:
            return _fail(axiom, ctx, (m,))
    return _ok(axiom)


def _check_below(axiom, ctx, flip):
    # P2: k-efficient sets below a member are members; F4 reads it through
    # reversal, so k-efficient sets above a member are members
    eff = [c ^ flip for c in ctx.eff.masks]
    for a in ctx.masks:
        outside = ~(a ^ flip)
        for b in eff:
            if b & outside == 0 and b ^ flip not in ctx.mask_set:
                return _fail(axiom, ctx, (a, b ^ flip))
    return _ok(axiom)


def _check_wf5(ctx):
    ms = ctx.masks
    for i, a1 in enumerate(ms):
        for j in range(i, len(ms)):
            meet = a1 & ms[j]
            if meet == 0 and ctx.system.evaluate(0) <= ctx.k:
                return _fail(AxiomId.WF5, ctx, (a1, ms[j]))
    return _ok(AxiomId.WF5)


def scan_reference(axiom, f, n, k, masks):
    """The scan's result for one axiom name; ``f`` maps a mask to its order."""
    ctx = ScanCtx(f, n, k, masks)
    if axiom == "P0":
        return _check_p0(ctx)
    if axiom in ("T1", "F1", "P1"):
        return _check_orientation(axiom, ctx)
    if axiom in ("P2", "F4"):
        return _check_below(axiom, ctx, 0 if axiom == "P2" else ctx.full)
    if axiom == "WF5":
        return _check_wf5(ctx)
    raise ValueError(f"no scan reference for {axiom}")
