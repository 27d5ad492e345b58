"""Built-in example systems and the seeded random generator behind the hunts."""

from __future__ import annotations

import random

from .connectivity import (
    ConnectivitySystem,
    check_int,
    graph_boundary_system,
    hyperedge_system,
    min_cardinality_system,
)


def min3() -> ConnectivitySystem:
    return min_cardinality_system(3, name="min3")


def p3() -> ConnectivitySystem:
    """Edge boundary of the path a-b-c; ground set is its two edges."""
    return graph_boundary_system(("a", "b", "c"), (("a", "b"), ("b", "c")), name="p3")


def c4() -> ConnectivitySystem:
    """Edge boundary of the 4-cycle; ground set is its four edges."""
    return graph_boundary_system(
        ("v1", "v2", "v3", "v4"),
        (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1")),
        name="c4",
    )


def k4() -> ConnectivitySystem:
    """Edge boundary of the complete graph on 4 vertices; six edges."""
    vertices = ("v1", "v2", "v3", "v4")
    edges = tuple(
        (vertices[i], vertices[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    return graph_boundary_system(vertices, edges, name="k4")


BUILTIN_SYSTEMS = {"min3": min3, "p3": p3, "c4": c4, "k4": k4}


def builtin_system(name: str) -> ConnectivitySystem:
    try:
        return BUILTIN_SYSTEMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown builtin system {name!r}; choose from {sorted(BUILTIN_SYSTEMS)}"
        ) from None


def random_hyperedge_system(
    n: int,
    hyperedge_count: int,
    max_arity: int,
    seed: int,
    *,
    name: str | None = None,
) -> ConnectivitySystem:
    """Seeded random hyperedge-boundary system; identical seed, identical system.

    Each hyperedge draws an arity uniformly from 2..max_arity and then that
    many distinct elements of {0..n-1}.  The result is symmetric submodular by
    construction, so no rejection sampling is needed.
    """
    check_int(n, "n", 1)
    check_int(hyperedge_count, "hyperedge count")
    check_int(max_arity, "max arity", 2)
    check_int(seed, "seed")
    if hyperedge_count > 0 and max_arity > n:
        raise ValueError(f"max arity {max_arity} exceeds ground set size {n}")
    rng = random.Random(seed)
    hyperedges = []
    for _ in range(hyperedge_count):
        arity = rng.randint(2, max_arity)
        hyperedges.append(tuple(sorted(rng.sample(range(n), arity))))
    if name is None:
        name = f"hyper(n={n},m={hyperedge_count},a={max_arity},seed={seed})"
    return hyperedge_system(n, hyperedges, name=name)


def standard_corpus() -> list[ConnectivitySystem]:
    """The fixed evaluation corpus: the four named systems, min_cardinality
    sizes 2..5, and twenty seeded hyperedge systems with n up to 6."""
    systems = [min3(), p3(), c4(), k4()]
    systems += [
        min_cardinality_system(n, name=f"min_card{n}") for n in range(2, 6)
    ]
    for n in (3, 4, 5, 6):
        for j in range(5):
            seed = 100 + 10 * n + j
            systems.append(
                random_hyperedge_system(
                    n, n, min(3, n), seed, name=f"hyper{n}-s{seed}"
                )
            )
    return systems
