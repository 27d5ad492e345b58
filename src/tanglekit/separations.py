"""Oriented separations of the ground set and their partial order.

A separation is an ordered bipartition (A, X \\ A); its order is f(A).  Both
empty-sided separations (emptyset, X) and (X, emptyset) are admitted, since
the structure axioms quantify over them.  The canonical ordering used by
every set-valued output in the toolkit is ascending by the bitmask of the
first side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectivity import ENUMERATION_LIMIT, ConnectivitySystem, check_int
from .exceptions import GroundSetLimitError


def mask_elements(mask: int) -> list[int]:
    """The elements of the subset encoded by ``mask``, ascending."""
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


@dataclass(frozen=True)
class Separation:
    """An oriented separation (first, second) with its cached order."""

    system: ConnectivitySystem
    first: int
    second: int
    order: int

    def reverse(self) -> "Separation":
        return Separation(self.system, self.second, self.first, self.order)

    def first_elements(self) -> tuple[int, ...]:
        return tuple(mask_elements(self.first))

    def __repr__(self):
        side = "{" + ",".join(map(str, mask_elements(self.first))) + "}"
        return f"Separation({side}, order={self.order})"


def make_separation(system: ConnectivitySystem, first: int) -> Separation:
    """Build (A, X \\ A) from the mask of side A, caching f(A).

    ``system.evaluate`` runs first, so a mask that is no int or has bits
    outside the ground set is a ValueError.
    """
    order = system.evaluate(first)
    return Separation(system, first, system.full_mask ^ first, order)


def _require_same_system(s1: Separation, s2: Separation) -> None:
    if s1.system is not s2.system:
        raise ValueError("separations belong to different systems")


def leq(s1: Separation, s2: Separation) -> bool:
    """(A, B) <= (C, D) iff A is a subset of C and B a superset of D.

    For bipartitions of one ground set the two clauses coincide; both are
    evaluated anyway so the predicate reads like its definition.
    """
    _require_same_system(s1, s2)
    return (s1.first & ~s2.first) == 0 and (s2.second & ~s1.second) == 0


def lt(s1: Separation, s2: Separation) -> bool:
    return leq(s1, s2) and s1.first != s2.first


@dataclass(frozen=True)
class EfficientContext:
    """What the axiom checkers and the pruning rules read about one (system, k).

    ``masks`` holds the first sides of all separations of order <= k,
    ascending, ``mask_set`` the same masks as a set, ``bits`` the same masks
    as one int over 2**n bits (bit m set iff f(m) <= k), and ``elements``
    the k-efficient elements e (those with f({e}) <= k), ascending.
    """

    masks: tuple[int, ...]
    mask_set: frozenset[int]
    bits: int
    elements: tuple[int, ...]


def efficient_context(system: ConnectivitySystem, k: int) -> EfficientContext:
    """The context at bound k, built on first use and cached on the system.

    The cache is an attribute of the system, so it is freed with the system.
    Needs an integer k >= 0 and n <= ENUMERATION_LIMIT.
    """
    check_int(k, "k")
    context = system._contexts.get(k)
    if context is None:
        if system.n > ENUMERATION_LIMIT:
            raise GroundSetLimitError("separation enumeration", system.n, ENUMERATION_LIMIT)
        efficient = system.table() <= k
        masks = tuple(np.flatnonzero(efficient).tolist())
        packed = np.packbits(efficient, bitorder="little").tobytes()
        elements = np.flatnonzero(efficient[1 << np.arange(system.n)]).tolist()
        context = EfficientContext(
            masks, frozenset(masks), int.from_bytes(packed, "little"), tuple(elements)
        )
        system._contexts[k] = context
    return context


def efficient_masks(system: ConnectivitySystem, k: int) -> list[int]:
    """First-side masks of all k-efficient separations, ascending."""
    return list(efficient_context(system, k).masks)


def enumerate_k_efficient(system: ConnectivitySystem, k: int) -> list[Separation]:
    """All oriented separations of order <= k, ascending by first-side mask.

    Both orientations of every unordered separation appear.
    """
    return [make_separation(system, m) for m in efficient_masks(system, k)]


@dataclass(frozen=True)
class SeparationFamily:
    """A duplicate-free set of oriented separations declared against a bound k.

    Members are kept as first-side masks in canonical order; ``members``
    builds the ``Separation`` objects when read.  The order <= k claim is
    *not* enforced here: structure checks report violations as axiom
    failures.
    """

    system: ConnectivitySystem
    k: int
    member_masks: tuple[int, ...]

    @classmethod
    def from_masks(cls, system: ConnectivitySystem, k: int, masks) -> "SeparationFamily":
        check_int(k, "k")
        masks = list(masks)
        for m in masks:
            if type(m) is not int:  # 1.0 and True are no masks; -1 reaches the range check
                check_int(m, "mask")
        if len(set(masks)) != len(masks):
            raise ValueError("duplicate members in separation family")
        masks.sort()
        full = system.full_mask
        if masks and (masks[0] < 0 or masks[-1] > full):
            raise system._out_of_range(next(m for m in masks if m < 0 or m > full))
        return cls(system, k, tuple(masks))

    @property
    def members(self) -> tuple[Separation, ...]:
        return tuple(make_separation(self.system, m) for m in self.member_masks)

    def mask_set(self) -> frozenset[int]:
        return frozenset(self.member_masks)

    def dual_masks(self) -> tuple[int, ...]:
        """Member masks of the dual family: every member reversed, ascending."""
        full = self.system.full_mask
        return tuple(sorted(full ^ m for m in self.member_masks))

    def __len__(self):
        return len(self.member_masks)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item) -> bool:
        if isinstance(item, Separation):
            if item.system is not self.system:
                return False
            item = item.first
        return item in self.member_masks

    def __repr__(self):
        sides = ",".join(
            "{" + ",".join(map(str, mask_elements(m))) + "}" for m in self.member_masks
        )
        return f"SeparationFamily(k={self.k}, first_sides=[{sides}])"
