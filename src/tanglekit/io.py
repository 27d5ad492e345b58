"""Canonical JSON for every document the toolkit reads or writes.

All documents are JSON objects with ``"version": 1`` first and keys in a
fixed order per shape; the entries nested in a document carry no version:

====================  ======================================================
shape                 key order
====================  ======================================================
system                version, kind, then the kind's fields: explicit ->
                      n, values; min_cardinality -> n; graph_cut and
                      graph_boundary -> vertices, edges;
                      hyperedge_boundary -> n, hyperedges
family                version, k, sides
structure report      version, kind, k, variant, axioms, pass
  axiom entry         id, pass, witness, element
equivalence verdict   version, theorem, system, k, pass, counts,
                      unmatched, bw
  unmatched entry     kind, sides
hunt verdict          version, problem, corpus, systems_examined,
                      structures_examined, counterexamples, status
  counterexample      system (a system without version), k, claim, sides,
                      failing_axiom, witness
duality report        version, system, bw, max_tangle_order, per_k,
                      agrees, degenerate
  per-k entry         k, tangle_exists, matches
branch-width report   version, system, width, tree
====================  ======================================================

Sides and witnesses are sorted element lists; families list sides in
ascending mask order.  Serialization is indent-2 UTF-8 with a trailing
newline, so ``save(load(path))`` reproduces the file byte for byte.
Ingest is strict: unknown fields, duplicate keys, bad versions, wrong
types, out-of-range elements and duplicate sides are all rejected.
Declared values that can be recomputed (orders, the k bound's sign) are
verified rather than believed.
"""

from __future__ import annotations

import json
from pathlib import Path

from .connectivity import (
    SYSTEM_FIELDS, SYSTEM_KINDS, ConnectivitySystem, build_system, system_descriptor,
)
from .duality import BranchDecomposition, DualityReport, EquivalenceVerdict
from .exceptions import SchemaError
from .search import HUNT_BUDGET, HUNT_FOUND, HUNT_NONE_FOUND, HuntVerdict
from .separations import SeparationFamily, mask_elements
from .structures import AxiomId, StructureKind, StructureReport

_AXIOM_VALUES = tuple(a.value for a in AxiomId)
_KIND_VALUES = tuple(k.value for k in StructureKind)


def _reject_duplicate_keys(pairs):
    doc = dict(pairs)
    if len(doc) != len(pairs):
        keys = [k for k, _ in pairs]
        dup = sorted(k for k in doc if keys.count(k) > 1)
        raise SchemaError(f"duplicate JSON keys: {dup}")
    return doc


def _parse(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    return doc


def _need(doc, shape, keys, versioned):
    allowed = {"version", *keys} if versioned else set(keys)
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise SchemaError(f"{shape}: unknown fields {unknown}")
    missing = sorted(allowed - set(doc))
    if missing:
        raise SchemaError(f"{shape}: missing fields {missing}")
    if versioned and (type(doc["version"]) is not int or doc["version"] != 1):
        raise SchemaError(f"{shape}: unsupported version {doc['version']!r}")


# ---------------------------------------------------------------------------
# field checks: each takes (value, where), raises SchemaError naming ``where``
# and returns the canonical value


def _int(value, where, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where} must be >= {minimum}")
    return value


def _nat(value, where):
    return _int(value, where, 0)


def _instance_of(cls, noun):
    def check(value, where):
        if not isinstance(value, cls):
            raise SchemaError(f"{where} must be {noun}")
        return value
    return check


_bool = _instance_of(bool, "a boolean")
_str = _instance_of(str, "a string")
_list = _instance_of(list, "an array")
_obj = _instance_of(dict, "an object")


def _one_of(*values, base=_str):
    """Check for an enum field; ``base`` keeps it type-strict (11.0 is no 11)."""
    def check(value, where):
        if base(value, where) not in values:
            raise SchemaError(f"unknown {where} {value!r}")
        return value
    return check


def _optional(check):
    return lambda value, where: None if value is None else check(value, where)


def _array_of(check):
    return lambda value, where: [
        check(v, f"{where}[{i}]") for i, v in enumerate(_list(value, where))
    ]


def _side(value, where):
    """A side: non-negative integer elements in strictly ascending order.

    One pass accepts a valid side; the element-wise message is built only
    for a side that fails it.
    """
    if isinstance(value, list):
        last = -1
        for e in value:
            if type(e) is not int or e <= last:
                break
            last = e
        else:
            return list(value)
    for i, e in enumerate(_list(value, where)):
        _int(e, f"{where}[{i}]", minimum=0)
    if len(set(value)) != len(value):
        raise SchemaError(f"{where} repeats an element")
    raise SchemaError(f"{where} must be sorted ascending")


_sides = _array_of(_side)


def _family_sides(value, where):
    sides = _sides(value, where)
    if len({tuple(s) for s in sides}) != len(sides):
        raise SchemaError(f"{where} contains a duplicate")
    return sides


def _pair(value, where):
    if len(_list(value, where)) != 2:
        raise SchemaError(f"{where} must be a pair")
    return [_str(value[0], f"{where}[0]"), _str(value[1], f"{where}[1]")]


def _counts(value, where):
    return {
        _str(k, f"{where} key"): _nat(v, f"{where}[{k}]")
        for k, v in _obj(value, where).items()
    }


def _tree(value, where):
    if isinstance(value, list):
        return [_tree(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an element index or array")
    return _nat(value, where)


# ---------------------------------------------------------------------------
# one ordered {key: check} table per shape, and the walker that applies it


def _walk(doc, fields, where, nested=False):
    """Check ``doc`` against ``fields`` and return it in key order.

    A document carries ``"version": 1`` first and names its fields by key; a
    nested entry is unversioned and ``where`` is its path.
    """
    if nested:
        _obj(doc, where)
    _need(doc, where, fields, not nested)
    out = {} if nested else {"version": 1}
    for key, check in fields.items():
        out[key] = check(doc[key], f"{where}.{key}" if nested else key)
    return out


def _entries(fields):
    return _array_of(lambda value, where: _walk(value, fields, where, nested=True))


_SYSTEM_CHECKS = {
    "kind": _str,
    "n": lambda value, where: _int(value, where, 1),
    "values": _array_of(_nat),
    "vertices": _array_of(_str),
    "edges": _array_of(_pair),
    "hyperedges": _sides,
}
_SYSTEM_SHAPES = {
    kind: {key: _SYSTEM_CHECKS[key] for key in ("kind", *fields)}
    for kind, fields in SYSTEM_FIELDS.items()
}


def _system(doc, where="system", nested=False):
    kind = _obj(doc, where).get("kind")
    if kind not in SYSTEM_KINDS:
        raise SchemaError(f"{where}: unknown kind {kind!r}")
    out = _walk(doc, _SYSTEM_SHAPES[kind], where if nested else f"system[{kind}]", nested)
    if kind == "explicit":
        size, n = len(out["values"]), out["n"]
        # bit lengths first: a huge declared n must not build 1 << n
        if size.bit_length() != n + 1 or size != 1 << n:
            raise SchemaError(f"explicit values has length {size}, expected 2**{n}")
    return out


_AXIOM_ENTRY = {
    "id": _one_of(*_AXIOM_VALUES), "pass": _bool, "witness": _sides,
    "element": _optional(_nat),
}
_UNMATCHED_ENTRY = {"kind": _one_of(*_KIND_VALUES), "sides": _sides}
_COUNTEREXAMPLE = {
    "system": lambda value, where: _system(value, where, nested=True), "k": _nat,
    "claim": _str, "sides": _sides, "failing_axiom": _one_of(*_AXIOM_VALUES),
    "witness": _sides,
}
_PER_K_ENTRY = {"k": _nat, "tangle_exists": _bool, "matches": _bool}

# identifying key -> (shape, fields), tried in this order; a document with
# none of these keys but a "kind" is a system
_SHAPES = {
    "axioms": ("structure report", {
        "kind": _one_of(*_KIND_VALUES), "k": _nat,
        "variant": _one_of("literal", "corrected"),
        "axioms": _entries(_AXIOM_ENTRY), "pass": _bool,
    }),
    "theorem": ("equivalence verdict", {
        "theorem": _one_of(11, 12, 15, 16, base=_int), "system": _str,
        "k": _nat, "pass": _bool, "counts": _counts,
        "unmatched": _entries(_UNMATCHED_ENTRY), "bw": _optional(_nat),
    }),
    "problem": ("hunt verdict", {
        "problem": _one_of(9, 10, base=_int), "corpus": _obj,
        "systems_examined": _nat, "structures_examined": _nat,
        "counterexamples": _entries(_COUNTEREXAMPLE),
        "status": _one_of(HUNT_NONE_FOUND, HUNT_FOUND, HUNT_BUDGET),
    }),
    "per_k": ("duality report", {
        "system": _str, "bw": _nat, "max_tangle_order": _nat,
        "per_k": _entries(_PER_K_ENTRY), "agrees": _bool, "degenerate": _bool,
    }),
    "tree": ("branch-width report", {"system": _str, "width": _nat, "tree": _tree}),
    "sides": ("family", {"k": _nat, "sides": _family_sides}),
}


def _canon_document(doc):
    for key, (shape, fields) in _SHAPES.items():
        if key in doc:
            return _walk(doc, fields, shape)
    if "kind" in doc:
        return _system(doc)
    raise SchemaError("document shape not recognised")


# ---------------------------------------------------------------------------
# object -> document


def _side_lists(masks):
    return [mask_elements(m) for m in masks]


def to_document(obj) -> dict:
    """Canonical JSON-shaped dict for any toolkit object or parsed dict."""
    if isinstance(obj, dict):
        return _canon_document(obj)
    if isinstance(obj, ConnectivitySystem):
        return {"version": 1, **system_descriptor(obj)}
    if isinstance(obj, SeparationFamily):
        return {"version": 1, "k": obj.k, "sides": _side_lists(obj.member_masks)}
    if isinstance(obj, StructureReport):
        return {
            "version": 1,
            "kind": obj.kind.value,
            "k": obj.k,
            "variant": obj.variant,
            "axioms": [
                {
                    "id": r.axiom.value,
                    "pass": r.passed,
                    "witness": _side_lists(s.first for s in r.witness),
                    "element": r.element,
                }
                for r in obj.results
            ],
            "pass": obj.passed,
        }
    if isinstance(obj, EquivalenceVerdict):
        return {
            "version": 1,
            "theorem": obj.theorem,
            "system": obj.system,
            "k": obj.k,
            "pass": obj.passed,
            "counts": dict(obj.counts),
            "unmatched": [
                {"kind": kind, "sides": _side_lists(f.member_masks)}
                for kind, f in obj.unmatched
            ],
            "bw": obj.bw,
        }
    if isinstance(obj, HuntVerdict):
        return {
            "version": 1,
            "problem": obj.problem,
            "corpus": obj.corpus,
            "systems_examined": obj.systems_examined,
            "structures_examined": obj.structures_examined,
            "counterexamples": [
                {
                    "system": system_descriptor(c.system),
                    "k": c.k,
                    "claim": c.claim,
                    "sides": _side_lists(c.family.member_masks),
                    "failing_axiom": c.failing_axiom.value,
                    "witness": _side_lists(s.first for s in c.witness),
                }
                for c in obj.counterexamples
            ],
            "status": obj.status,
        }
    if isinstance(obj, DualityReport):
        return {
            "version": 1,
            "system": obj.system,
            "bw": obj.bw,
            "max_tangle_order": obj.max_tangle_order,
            "per_k": [
                {"k": k, "tangle_exists": exists, "matches": matches}
                for k, exists, matches in obj.per_k
            ],
            "agrees": obj.agrees,
            "degenerate": obj.degenerate,
        }
    if isinstance(obj, BranchDecomposition):
        return {
            "version": 1,
            "system": obj.system.describe(),
            "width": obj.width,
            "tree": obj.nested(),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical text of one object, or of a list of objects as a JSON array."""
    doc = [to_document(o) for o in obj] if isinstance(obj, list) else to_document(obj)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def save(document, path) -> None:
    """Write the canonical serialization (validating dicts on the way out).

    ``document`` is one toolkit object or parsed dict, or a list of them.
    """
    Path(path).write_text(dumps(document), encoding="utf-8")


def load_document(path) -> dict:
    """Parse, validate and canonicalize any toolkit JSON document."""
    return _canon_document(_parse(path))


def load_system(path) -> ConnectivitySystem:
    """Build a system from a file; explicit tables get full verification."""
    doc = _parse(path)
    payload = _canon_document(doc)
    if payload.get("kind") not in SYSTEM_KINDS:
        raise SchemaError(f"{path} does not hold a system document")
    payload.pop("version")
    try:
        return build_system(payload, name=Path(path).stem)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_family(path, system: ConnectivitySystem) -> SeparationFamily:
    """Read a family against a known system; orders are recomputed."""
    payload = _canon_document(_parse(path))
    if "sides" not in payload or "kind" in payload:
        raise SchemaError(f"{path} does not hold a family document")
    masks = []
    for i, side in enumerate(payload["sides"]):
        mask = 0
        for e in side:
            if e >= system.n:
                raise SchemaError(
                    f"sides[{i}]: element {e} out of range for n={system.n}"
                )
            mask |= 1 << e
        masks.append(mask)
    try:
        return SeparationFamily.from_masks(system, payload["k"], masks)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
