"""Witness-producing axiom predicates and the composite structure checkers.

Ten families of separations are recognised, each defined by a list of
axioms over a declared order bound k:

==============================  =============================================
kind                            axioms (P0, the order <= k membership bound,
                                is checked for every kind)
==============================  =============================================
tangle                          T1 T2 T3
linear_tangle                   T1 T2 LT3
ultrafilter                     F1 F2 F3 F4 F5
single_ultrafilter              F1 F2 F3 F4 SF5
weak_ultrafilter                F1 F2 F3 F4 WF5
profile                         P1 P2 P3a P3b
non_principal_profile           profile + P4
linear_profile                  P1 P2 SP3
non_principal_linear_profile    linear_profile + P4
filter_base                     FB1 FB2
==============================  =============================================

P3a and SP3 exist in two readings selected by ``variant``.  Taken literally,
P3a forbids (A1 cap A2, B1 cup B2) from membership, which already refutes any
non-empty family through the instantiation A1 = A2; the corrected reading
forbids (B1 cap B2, A1 cup A2) instead.  SP3 is analogous (the literal form
is refuted by the forced member (emptyset, X) whenever a k-efficient element
exists).  Both readings are kept; ``corrected`` is the default.

``_CHECKS`` holds one entry per axiom.  A check returns None when its
clause holds and otherwise its first failure, a pair (witness masks,
element); ``_run``, the one reader of ``_CHECKS``, turns that into an
``AxiomResult``.  A clause with two readings is entered as
``partial(check, reading)``: T2/P4 against F3 (``inside``), and the five
clauses that reversing every member, (A, B) -> (B, A), reads a second time
(``reverse``).  Reversal turns small sides into big ones, so a reversed
reading XORs ``flip``, the full mask, into the masks it scans and back out
of the witness, or swaps up- and down-closure:

=============  ==========================  ===============================
clause         read through reversal       shared check
=============  ==========================  ===============================
T3             F6                          no member triple covers X
P2             F4                          efficient sets below a member
P3b            F5                          joins of order <= k are members
P3a_literal    P3a_corrected               meets of members are no members
SP3_literal    SP3_corrected               a member less e is no member
=============  ==========================  ===============================

P0, T1/F1/P1, P2/F4 and WF5 are decided on bitsets over the subset
lattice: bit m of an int stands for mask m.  The family is M, bit m set iff
m is a member, and the context's ``bits`` holds the masks of order <= k.
Closure takes one shift-and-OR step per element e: the masks without e,
shifted up by 2**e, land on the same masks with e added (up), and back
(down).  Reversal, m -> X ^ m, swaps those two halves for every e.  Then P0
fails on M & ~bits, T1 on bits & ~(M | rev M) among the masks without the
top element (m < X ^ m), P2 on down(M) & bits & ~M, F4 on up(M) & bits & ~M,
and WF5 on M & down(rev M).  A scan in canonical order stops at the least
failing mask, the lowest set bit of the failing set, so each witness is the
one such a scan reports; a pair's second mask is the lowest bit of the
failing set among the masks below (P2) or above (F4) its first.  P3b/F5,
SF5 and FB2 keep their scans but read f(m) <= k from the context as well.

Tangle-side reports carry a T4 entry and ultrafilter-side reports an F6
entry.  These are informational: both properties are consequences of the
axioms rather than axioms themselves, so they never affect the overall pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, lru_cache, partial
from itertools import combinations_with_replacement

from .connectivity import ENUMERATION_LIMIT, ConnectivitySystem, check_int
from .exceptions import FilterBaseError
from .separations import EfficientContext, SeparationFamily, efficient_context

VARIANTS = ("literal", "corrected")


class AxiomId(str, Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    LT3 = "LT3"
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"
    F5 = "F5"
    F6 = "F6"
    SF5 = "SF5"
    WF5 = "WF5"
    CONSISTENT = "CONSISTENT"
    P0 = "P0"
    P1 = "P1"
    P2 = "P2"
    P3A_LITERAL = "P3a_literal"
    P3A_CORRECTED = "P3a_corrected"
    P3B = "P3b"
    P4 = "P4"
    SP3_LITERAL = "SP3_literal"
    SP3_CORRECTED = "SP3_corrected"
    FB1 = "FB1"
    FB2 = "FB2"


class StructureKind(str, Enum):
    TANGLE = "tangle"
    LINEAR_TANGLE = "linear_tangle"
    ULTRAFILTER = "ultrafilter"
    SINGLE_ULTRAFILTER = "single_ultrafilter"
    WEAK_ULTRAFILTER = "weak_ultrafilter"
    PROFILE = "profile"
    NON_PRINCIPAL_PROFILE = "non_principal_profile"
    LINEAR_PROFILE = "linear_profile"
    NON_PRINCIPAL_LINEAR_PROFILE = "non_principal_linear_profile"
    FILTER_BASE = "filter_base"


# kinds that orient separations and can be enumerated by orientation search
ORIENTATION_KINDS = tuple(k for k in StructureKind if k is not StructureKind.FILTER_BASE)

# each kind's clauses as the module docstring lists them; P3a and SP3 name
# the slot that ``variant`` fills
_KIND_AXIOMS = {
    StructureKind.TANGLE: "T1 T2 T3",
    StructureKind.LINEAR_TANGLE: "T1 T2 LT3",
    StructureKind.ULTRAFILTER: "F1 F2 F3 F4 F5",
    StructureKind.SINGLE_ULTRAFILTER: "F1 F2 F3 F4 SF5",
    StructureKind.WEAK_ULTRAFILTER: "F1 F2 F3 F4 WF5",
    StructureKind.PROFILE: "P1 P2 P3a P3b",
    StructureKind.NON_PRINCIPAL_PROFILE: "P1 P2 P3a P3b P4",
    StructureKind.LINEAR_PROFILE: "P1 P2 SP3",
    StructureKind.NON_PRINCIPAL_LINEAR_PROFILE: "P1 P2 SP3 P4",
    StructureKind.FILTER_BASE: "FB1 FB2",
}

_DIAGNOSTICS = {
    StructureKind.TANGLE: (AxiomId.T4,),
    StructureKind.LINEAR_TANGLE: (AxiomId.T4,),
    StructureKind.ULTRAFILTER: (AxiomId.F6,),
    StructureKind.SINGLE_ULTRAFILTER: (AxiomId.F6,),
    StructureKind.WEAK_ULTRAFILTER: (AxiomId.F6,),
}


def axiom_ids(kind: StructureKind, variant: str = "corrected") -> tuple[AxiomId, ...]:
    """The concrete axiom list checked for a kind, P0 first."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    return _resolve(StructureKind(kind), variant)


@cache
def _resolve(kind, variant):
    # every search and every check resolves its list, so resolve each pair once
    return tuple(
        AxiomId(f"{a}_{variant}" if a in ("P3a", "SP3") else a)
        for a in ("P0", *_KIND_AXIOMS[kind].split())
    )


@dataclass(frozen=True)
class AxiomResult:
    """One axiom's verdict; ``witness`` holds the first-side masks of the
    first failing instance in scan order (``make_separation`` builds each)."""

    axiom: AxiomId
    passed: bool
    witness: tuple[int, ...] = ()
    element: int | None = None

    def __repr__(self):
        state = "pass" if self.passed else f"FAIL witness={list(self.witness)}"
        return f"AxiomResult({self.axiom.value}: {state})"


@dataclass(frozen=True)
class StructureReport:
    kind: StructureKind
    k: int
    variant: str
    results: tuple[AxiomResult, ...]
    passed: bool

    def result(self, axiom: AxiomId) -> AxiomResult:
        for r in self.results:
            if r.axiom is axiom:
                return r
        raise KeyError(axiom)

    def failures(self) -> tuple[AxiomResult, ...]:
        return tuple(r for r in self.results if not r.passed)


# ---------------------------------------------------------------------------
# bitsets over the subset lattice: bit m stands for mask m (module docstring)


@lru_cache(maxsize=4)  # 48 MB at n = 24, so only a few sizes are kept
def _containing(n: int) -> tuple[tuple[int, int], ...]:
    """Per element e, (2**e, the bitset of the masks that contain e)."""
    out = []
    for e in range(n):
        block = ((1 << (1 << e)) - 1) << (1 << e)
        for d in range(e + 1, n):
            block |= block << (1 << d)
        out.append((1 << e, block))
    return tuple(out)


def _up(bits: int, n: int) -> int:
    """Every mask above a mask of ``bits``: m without e lifts to m | e."""
    for step, block in _containing(n):
        bits |= (bits & ~block) << step
    return bits


def _down(bits: int, n: int) -> int:
    """Every mask below a mask of ``bits``: m with e drops to m less e."""
    for step, block in _containing(n):
        bits |= (bits & block) >> step
    return bits


def _reverse(bits: int, n: int) -> int:
    """Bit m moves to bit X ^ m, one element's halves swapped at a time."""
    for step, block in _containing(n):
        bits = (bits & block) >> step | (bits & ~block) << step
    return bits


def _lowest(bits: int) -> int:
    """The least mask of a non-empty bitset: the first hit of an ascending scan."""
    return (bits & -bits).bit_length() - 1


class _Ctx:
    """Shared per-check state: member masks plus the system's context at k."""

    def __init__(self, system: ConnectivitySystem, k: int, family: SeparationFamily):
        self.system = system
        self.k = k
        self.masks = family.member_masks
        self.mask_set = family.mask_set()
        self.n = system.n
        self.full = system.full_mask

    @cached_property
    def bits(self) -> int:
        # bit m set iff mask m is a member; members are distinct, so + is |
        return sum(1 << m for m in self.masks)

    @cached_property
    def reversed_bits(self) -> int:
        return _reverse(self.bits, self.n)

    @cached_property
    def eff(self) -> EfficientContext:
        # read on use only: axioms over the members alone work beyond the n cap
        return efficient_context(self.system, self.k)

    def within(self, mask: int) -> bool:
        """f(mask) <= k: looked up in the context up to the cap, read beyond it."""
        if self.n <= ENUMERATION_LIMIT:
            return mask in self.eff.mask_set
        return self.system.evaluate(mask) <= self.k


@cache  # results are frozen, so one passing result per axiom is shared
def _ok(axiom):
    return AxiomResult(axiom, True)


def _run(axiom, ctx):
    """The axiom's result: its check returns None or its first failure."""
    failure = _CHECKS[axiom](ctx)
    if failure is None:
        return _ok(axiom)
    masks, element = failure
    return AxiomResult(axiom, False, masks, element)


# ---------------------------------------------------------------------------
# individual axiom checks; each is the literal clause, and its first failure
# is the first hit of a scan in canonical order


def _check_p0(ctx):
    # beyond the enumeration cap there is no table, so f is read per member
    if ctx.n <= ENUMERATION_LIMIT:
        high = ctx.bits & ~ctx.eff.bits
        first = _lowest(high) if high else None
    else:
        first = next((m for m in ctx.masks if ctx.system.evaluate(m) > ctx.k), None)
    return None if first is None else ((first,), None)


def _check_orientation(ctx):
    # T1 / F1 / P1: every separation of order <= k has an oriented member.
    # m ranges over the masks without the top element, those with m < X ^ m;
    # f is read at m alone, as f need not be symmetric
    lower = (1 << (1 << ctx.n - 1)) - 1
    unoriented = ctx.eff.bits & lower & ~(ctx.bits | ctx.reversed_bits)
    return ((_lowest(unoriented),), None) if unoriented else None


def _check_singletons(inside, ctx):
    # T2 / P4: ({e}, X minus {e}) is a member for each k-efficient e; F3: none is
    for e in ctx.eff.elements:
        if ((1 << e) in ctx.mask_set) is not inside:
            return (1 << e,), e
    return None


def _check_lt3(ctx):
    ms = ctx.masks
    singles = [(e, 1 << e) for e in ctx.eff.elements]
    for i, a1 in enumerate(ms):
        for j in range(i, len(ms)):
            a12 = a1 | ms[j]
            for e, bit in singles:
                if a12 | bit == ctx.full:
                    return (a1, ms[j]), e
    return None


def _check_t4(ctx):
    # diagnostic: (emptyset, X) is a member whenever it is orientable at all
    if ctx.system.evaluate(0) <= ctx.k and 0 not in ctx.mask_set:
        return (0,), None
    return None


def _check_f2(ctx):
    return ((0,), None) if 0 in ctx.mask_set else None


def _check_sf5(ctx):
    for a in ctx.masks:
        for e in ctx.eff.elements:
            shrunk = a & ~(1 << e)
            if shrunk not in ctx.mask_set and ctx.within(shrunk):
                return (a, shrunk), e
    return None


def _check_wf5(ctx):
    # if (emptyset, X) has order <= k, no two members (or one, twice) are
    # disjoint: a misses b iff a lies below X ^ b
    apart = ctx.system.evaluate(0) <= ctx.k and ctx.bits & _down(ctx.reversed_bits, ctx.n)
    if not apart:
        return None
    a = _lowest(apart)  # every member a misses is in ``apart`` too, so above a
    return (a, _lowest(ctx.bits & _down(1 << (ctx.full ^ a), ctx.n))), None


def _check_consistent(ctx):
    # (C, D) <= (A, B) in P implies (D, C) not in P; scan member pairs (A,B),(D,C)
    for a in ctx.masks:
        for d in ctx.masks:
            if (ctx.full ^ d) & ~a == 0:
                return (a, d), None
    return None


# ---------------------------------------------------------------------------
# clauses read a second time through reversal: ``reverse`` selects the
# reversed reading, whose ``flip`` is the full mask (see the module docstring)


def _check_cover(reverse, ctx):
    # T3: no member triple covers X; F6 reads it through reversal
    flip = ctx.full if reverse else 0
    full = ctx.full
    ms = [m ^ flip for m in ctx.masks]
    for i, a1 in enumerate(ms):
        for j in range(i, len(ms)):
            a12 = a1 | ms[j]
            for l in range(j, len(ms)):
                if a12 | ms[l] == full:
                    return (a1 ^ flip, ms[j] ^ flip, ms[l] ^ flip), None
    return None


def _check_below(reverse, ctx):
    # P2: k-efficient sets below a member are members; F4 reads it through
    # reversal, so k-efficient sets above a member are members
    below, above = (_up, _down) if reverse else (_down, _up)
    # the context first: past the cap it raises before a closure is built
    missing = ctx.eff.bits & below(ctx.bits, ctx.n) & ~ctx.bits
    if not missing:
        return None
    a = _lowest(ctx.bits & above(missing, ctx.n))
    return (a, _lowest(missing & below(1 << a, ctx.n))), None


def _check_join(reverse, ctx):
    # P3b: the join of two members is a member if its order is <= k; F5 reads
    # it through reversal, so the meet is
    flip = ctx.full if reverse else 0
    ms = [m ^ flip for m in ctx.masks]
    for i, a1 in enumerate(ms):
        for j in range(i, len(ms)):
            join = (a1 | ms[j]) ^ flip
            if join not in ctx.mask_set and ctx.within(join):
                return (a1 ^ flip, ms[j] ^ flip, join), None
    return None


def _check_meet_ban(reverse, ctx):
    # P3a: the meet of two members is no member; the corrected reading bans
    # the meet of their reversals
    flip = ctx.full if reverse else 0
    ms = [m ^ flip for m in ctx.masks]
    for a1 in ms:
        for a2 in ms:
            banned = a1 & a2
            if banned in ctx.mask_set:
                return (a1 ^ flip, a2 ^ flip, banned), None
    return None


def _check_deletion_ban(reverse, ctx):
    # SP3: a member less one k-efficient element is no member; the corrected
    # reading bans the reversal less that element
    flip = ctx.full if reverse else 0
    for a in ctx.masks:
        for e in ctx.eff.elements:
            banned = (a ^ flip) & ~(1 << e)
            if banned in ctx.mask_set:
                return (a, banned), e
    return None


def _check_fb1(ctx):
    return None if ctx.masks else ((), None)


def _check_fb2(ctx):
    for a1, a2 in combinations_with_replacement(ctx.masks, 2):
        meet = a1 & a2
        if not any(a3 & ~meet == 0 and ctx.within(a3) for a3 in ctx.masks):
            return (a1, a2), None
    return None


_CHECKS = {
    AxiomId.P0: _check_p0,
    AxiomId.T1: _check_orientation,
    AxiomId.F1: _check_orientation,
    AxiomId.P1: _check_orientation,
    AxiomId.T2: partial(_check_singletons, True),
    AxiomId.P4: partial(_check_singletons, True),
    AxiomId.F3: partial(_check_singletons, False),
    AxiomId.T3: partial(_check_cover, False),
    AxiomId.F6: partial(_check_cover, True),
    AxiomId.P2: partial(_check_below, False),
    AxiomId.F4: partial(_check_below, True),
    AxiomId.P3B: partial(_check_join, False),
    AxiomId.F5: partial(_check_join, True),
    AxiomId.P3A_LITERAL: partial(_check_meet_ban, False),
    AxiomId.P3A_CORRECTED: partial(_check_meet_ban, True),
    AxiomId.SP3_LITERAL: partial(_check_deletion_ban, False),
    AxiomId.SP3_CORRECTED: partial(_check_deletion_ban, True),
    AxiomId.T4: _check_t4,
    AxiomId.LT3: _check_lt3,
    AxiomId.F2: _check_f2,
    AxiomId.SF5: _check_sf5,
    AxiomId.WF5: _check_wf5,
    AxiomId.CONSISTENT: _check_consistent,
    AxiomId.FB1: _check_fb1,
    AxiomId.FB2: _check_fb2,
}


def _validate(system, k, family):
    if family.system is not system:
        raise ValueError("family belongs to a different system")
    check_int(k, "k")


def check_axiom(
    system: ConnectivitySystem, k: int, family: SeparationFamily, axiom: AxiomId
) -> AxiomResult:
    """Evaluate one axiom clause literally, reporting the first failing witness.

    Witnesses follow the canonical scan order: members ascending by first-side
    mask, elements ascending, enumerated separations ascending.  A member
    whose order exceeds k is a P0 failure, never an exception.
    """
    _validate(system, k, family)
    return _run(AxiomId(axiom), _Ctx(system, k, family))


def check_structure(
    system: ConnectivitySystem,
    k: int,
    family: SeparationFamily,
    kind: StructureKind,
    variant: str = "corrected",
) -> StructureReport:
    """Run every axiom of the kind plus the order bound P0.

    Axioms that read the k-efficient separations or elements need n <= 16.
    Informational entries (T4 on tangle kinds, F6 on ultrafilter kinds) are
    appended to the report but never affect the overall pass.
    """
    _validate(system, k, family)
    kind = StructureKind(kind)
    ctx = _Ctx(system, k, family)
    results = [_run(a, ctx) for a in axiom_ids(kind, variant)]
    passed = all(r.passed for r in results)
    results += [_run(a, ctx) for a in _DIAGNOSTICS.get(kind, ())]
    return StructureReport(kind, k, variant, tuple(results), passed)


def check_filter_base_generates(
    system: ConnectivitySystem, k: int, base: SeparationFamily
) -> SeparationFamily:
    """Upward closure of a filter base among separations of order <= k.

    The base must pass FB1 and FB2; the closure contains every k-efficient
    separation lying above some base member, so it satisfies F4 by
    construction.
    """
    _validate(system, k, base)
    ctx = _Ctx(system, k, base)
    for axiom in (AxiomId.FB1, AxiomId.FB2):
        result = _run(axiom, ctx)
        if not result.passed:
            raise FilterBaseError(f"family is not a filter base: {axiom.value} fails", result)
    efficient = ctx.eff.masks  # past the cap this raises before the closure
    above = _up(ctx.bits, system.n)
    closure = [c for c in efficient if above >> c & 1]
    return SeparationFamily.from_masks(system, k, closure)
