"""Integer parameters are type-strict at every entry point, as the loader is.

A float or a bool that compares equal to an integer would otherwise run and
save a document that ``load_document`` rejects (11.0 is no theorem 11).
"""

import numpy as np
import pytest

from tanglekit import (
    AxiomId,
    HuntCorpus,
    NamedCorpus,
    SeparationFamily,
    check_axiom,
    check_filter_base_generates,
    check_structure,
    enumerate_all,
    explicit_system,
    hunt,
    hyperedge_system,
    make_separation,
    random_hyperedge_system,
    verify_axioms,
    verify_branchwidth_duality,
    verify_theorem,
)
from tanglekit.separations import efficient_context

BAD = (True, 1.0, 1.5, -1)


def _family(c4):
    return SeparationFamily.from_masks(c4, 1, [0])


# entry point name -> call taking (c4, bad value)
ENTRY_POINTS = {
    "efficient_context k": lambda c4, v: efficient_context(c4, v),
    "evaluate mask": lambda c4, v: c4.evaluate(v),
    "evaluate_many mask": lambda c4, v: c4.evaluate_many(np.array([v])),
    "make_separation mask": lambda c4, v: make_separation(c4, v),
    "from_masks k": lambda c4, v: SeparationFamily.from_masks(c4, v, [0]),
    "from_masks mask": lambda c4, v: SeparationFamily.from_masks(c4, 1, [v]),
    "explicit_system entry": lambda c4, v: explicit_system([v, v]),
    "hyperedge_system element": lambda c4, v: hyperedge_system(3, [(0, v)]),
    "check_structure k": lambda c4, v: check_structure(c4, v, _family(c4), "tangle"),
    "check_axiom k": lambda c4, v: check_axiom(c4, v, _family(c4), AxiomId.T1),
    "check_filter_base_generates k": lambda c4, v: check_filter_base_generates(
        c4, v, _family(c4)
    ),
    "enumerate_all k": lambda c4, v: enumerate_all("tangle", c4, v),
    "enumerate_all limit": lambda c4, v: enumerate_all("tangle", c4, 1, limit=v),
    "hunt kmax": lambda c4, v: hunt(9, NamedCorpus((c4,), kmax=v)),
    "verify_branchwidth_duality kmax": lambda c4, v: verify_branchwidth_duality(
        c4, kmax=v
    ),
    "verify_theorem theorem": lambda c4, v: verify_theorem(v, c4, 1),
    "hunt problem": lambda c4, v: hunt(v, NamedCorpus((c4,))),
    "random_hyperedge_system n": lambda c4, v: random_hyperedge_system(v, 0, 2, 0),
    "random_hyperedge_system count": lambda c4, v: random_hyperedge_system(3, v, 2, 0),
    "random_hyperedge_system arity": lambda c4, v: random_hyperedge_system(3, 1, v, 0),
    # a seed is >= 0 as well: random.Random(-s) draws what random.Random(s) draws
    "random_hyperedge_system seed": lambda c4, v: random_hyperedge_system(3, 1, 2, v),
    "verify_axioms sampled seed": lambda c4, v: verify_axioms(c4, "sampled", samples=5, seed=v),
    "HuntCorpus base_seed": lambda c4, v: HuntCorpus(sizes=(3,), base_seed=v),
}


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_integers_and_values_below_the_domain_are_rejected(c4, entry, value):
    with pytest.raises(ValueError):
        ENTRY_POINTS[entry](c4, value)


@pytest.mark.parametrize("call", [
    lambda c4: enumerate_all("tangle", c4, 1, limit=0),
    lambda c4: verify_theorem(11.0, c4, 1),
    lambda c4: hunt(9.0, NamedCorpus((c4,))),
], ids=["limit 0", "theorem 11.0", "problem 9.0"])
def test_limit_zero_and_float_theorems_and_problems_are_rejected(c4, call):
    with pytest.raises(ValueError):
        call(c4)

