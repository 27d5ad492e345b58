"""Canonical JSON for every document the toolkit reads or writes.

All documents are JSON objects with ``"version": 1`` first and keys in a
fixed order per shape:

====================  ======================================================
shape                 key order
====================  ======================================================
system                version, kind, then the kind's fields: explicit ->
                      n, values; min_cardinality -> n; graph_cut and
                      graph_boundary -> vertices, edges;
                      hyperedge_boundary -> n, hyperedges
family                version, k, sides
structure report      version, kind, k, variant, axioms, pass
                      (axiom entry: id, pass, witness, element)
equivalence verdict   version, theorem, system, k, pass, counts,
                      unmatched, bw
hunt verdict          version, problem, corpus, systems_examined,
                      structures_examined, counterexamples, status
duality report        version, system, bw, max_tangle_order, per_k,
                      agrees, degenerate
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
from .search import HuntVerdict
from .separations import SeparationFamily
from .structures import AxiomId, StructureKind, StructureReport

_AXIOM_VALUES = {a.value for a in AxiomId}
_KIND_VALUES = {k.value for k in StructureKind}
_HUNT_STATUSES = {
    "no_counterexample_found", "counterexample_found", "budget_exhausted",
}


def _reject_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        dup = sorted(k for k in set(keys) if keys.count(k) > 1)
        raise SchemaError(f"duplicate JSON keys: {dup}")
    return dict(pairs)


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


def _need(doc, shape, *keys):
    allowed = {"version", *keys}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise SchemaError(f"{shape}: unknown fields {unknown}")
    missing = sorted(allowed - set(doc))
    if missing:
        raise SchemaError(f"{shape}: missing fields {missing}")
    version = doc["version"]
    if isinstance(version, bool) or version != 1:
        raise SchemaError(f"{shape}: unsupported version {version!r}")


def _int(value, where, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where} must be >= {minimum}")
    return value


def _bool(value, where):
    if not isinstance(value, bool):
        raise SchemaError(f"{where} must be a boolean")
    return value


def _str(value, where):
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string")
    return value


def _list(value, where):
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be an array")
    return value


def _obj(value, where):
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    return value


def _side(value, where):
    out = [_int(e, f"{where}[{i}]", minimum=0) for i, e in enumerate(_list(value, where))]
    if len(set(out)) != len(out):
        raise SchemaError(f"{where} repeats an element")
    if out != sorted(out):
        raise SchemaError(f"{where} must be sorted ascending")
    return out


def _sides(value, where):
    return [_side(s, f"{where}[{i}]") for i, s in enumerate(_list(value, where))]


# ---------------------------------------------------------------------------
# per-shape canonicalizers: validate a parsed dict, return it in key order


def _canon_system(doc):
    kind = doc.get("kind")
    if kind not in SYSTEM_KINDS:
        raise SchemaError(f"system: unknown kind {kind!r}")
    fields = SYSTEM_FIELDS[kind]
    _need(doc, f"system[{kind}]", "kind", *fields)
    out = {"version": 1, "kind": kind}
    if "n" in fields:
        out["n"] = _int(doc["n"], "n", minimum=1)
    if kind == "explicit":
        values = [_int(v, f"values[{i}]", 0) for i, v in enumerate(_list(doc["values"], "values"))]
        if len(values) != 1 << out["n"]:
            raise SchemaError(
                f"explicit values has length {len(values)}, expected {1 << out['n']}"
            )
        out["values"] = values
    elif kind in ("graph_cut", "graph_boundary"):
        out["vertices"] = [
            _str(v, f"vertices[{i}]") for i, v in enumerate(_list(doc["vertices"], "vertices"))
        ]
        edges = []
        for i, e in enumerate(_list(doc["edges"], "edges")):
            e = _list(e, f"edges[{i}]")
            if len(e) != 2:
                raise SchemaError(f"edges[{i}] must be a pair")
            edges.append([_str(e[0], f"edges[{i}][0]"), _str(e[1], f"edges[{i}][1]")])
        out["edges"] = edges
    elif kind == "hyperedge_boundary":
        out["hyperedges"] = _sides(doc["hyperedges"], "hyperedges")
    return out


def _canon_family(doc):
    _need(doc, "family", "k", "sides")
    sides = _sides(doc["sides"], "sides")
    if len({tuple(s) for s in sides}) != len(sides):
        raise SchemaError("sides contains a duplicate")
    return {"version": 1, "k": _int(doc["k"], "k", minimum=0), "sides": sides}


def _canon_axiom_entry(entry, where):
    _need({"version": 1, **_obj(entry, where)}, where, "id", "pass", "witness", "element")
    if entry.get("id") not in _AXIOM_VALUES:
        raise SchemaError(f"{where}: unknown axiom id {entry.get('id')!r}")
    element = entry["element"]
    if element is not None:
        element = _int(element, f"{where}.element", minimum=0)
    return {
        "id": entry["id"],
        "pass": _bool(entry["pass"], f"{where}.pass"),
        "witness": _sides(entry["witness"], f"{where}.witness"),
        "element": element,
    }


def _canon_report(doc):
    _need(doc, "structure report", "kind", "k", "variant", "axioms", "pass")
    if doc["kind"] not in _KIND_VALUES:
        raise SchemaError(f"structure report: unknown kind {doc['kind']!r}")
    if doc["variant"] not in ("literal", "corrected"):
        raise SchemaError(f"structure report: unknown variant {doc['variant']!r}")
    axioms = [
        _canon_axiom_entry(e, f"axioms[{i}]")
        for i, e in enumerate(_list(doc["axioms"], "axioms"))
    ]
    return {
        "version": 1,
        "kind": doc["kind"],
        "k": _int(doc["k"], "k", minimum=0),
        "variant": doc["variant"],
        "axioms": axioms,
        "pass": _bool(doc["pass"], "pass"),
    }


def _canon_verdict(doc):
    _need(doc, "equivalence verdict", "theorem", "system", "k", "pass",
          "counts", "unmatched", "bw")
    theorem = _int(doc["theorem"], "theorem")
    if theorem not in (11, 12, 15, 16):
        raise SchemaError(f"equivalence verdict: unknown theorem {theorem}")
    counts = doc["counts"]
    if not isinstance(counts, dict):
        raise SchemaError("counts must be an object")
    counts = {
        _str(k, "counts key"): _int(v, f"counts[{k}]", minimum=0)
        for k, v in counts.items()
    }
    unmatched = []
    for i, entry in enumerate(_list(doc["unmatched"], "unmatched")):
        _need({"version": 1, **_obj(entry, f"unmatched[{i}]")}, f"unmatched[{i}]",
              "kind", "sides")
        if entry["kind"] not in _KIND_VALUES:
            raise SchemaError(f"unmatched[{i}]: unknown kind {entry['kind']!r}")
        unmatched.append({
            "kind": entry["kind"],
            "sides": _sides(entry["sides"], f"unmatched[{i}].sides"),
        })
    bw = doc["bw"]
    if bw is not None:
        bw = _int(bw, "bw", minimum=0)
    return {
        "version": 1,
        "theorem": theorem,
        "system": _str(doc["system"], "system"),
        "k": _int(doc["k"], "k", minimum=0),
        "pass": _bool(doc["pass"], "pass"),
        "counts": counts,
        "unmatched": unmatched,
        "bw": bw,
    }


def _canon_counterexample(entry, where):
    _need({"version": 1, **_obj(entry, where)}, where, "system", "k", "claim",
          "sides", "failing_axiom", "witness")
    if entry["failing_axiom"] not in _AXIOM_VALUES:
        raise SchemaError(f"{where}: unknown axiom {entry['failing_axiom']!r}")
    inner = _obj(entry["system"], f"{where}.system")
    if "version" in inner:
        raise SchemaError(f"{where}.system must not nest a version field")
    system = _canon_system({"version": 1, **inner})
    system.pop("version")
    return {
        "system": system,
        "k": _int(entry["k"], f"{where}.k", minimum=0),
        "claim": _str(entry["claim"], f"{where}.claim"),
        "sides": _sides(entry["sides"], f"{where}.sides"),
        "failing_axiom": entry["failing_axiom"],
        "witness": _sides(entry["witness"], f"{where}.witness"),
    }


def _canon_hunt(doc):
    _need(doc, "hunt verdict", "problem", "corpus", "systems_examined",
          "structures_examined", "counterexamples", "status")
    problem = _int(doc["problem"], "problem")
    if problem not in (9, 10):
        raise SchemaError(f"hunt verdict: unknown problem {problem}")
    if doc["status"] not in _HUNT_STATUSES:
        raise SchemaError(f"hunt verdict: unknown status {doc['status']!r}")
    if not isinstance(doc["corpus"], dict):
        raise SchemaError("corpus must be an object")
    counterexamples = [
        _canon_counterexample(e, f"counterexamples[{i}]")
        for i, e in enumerate(_list(doc["counterexamples"], "counterexamples"))
    ]
    return {
        "version": 1,
        "problem": problem,
        "corpus": doc["corpus"],
        "systems_examined": _int(doc["systems_examined"], "systems_examined", 0),
        "structures_examined": _int(doc["structures_examined"], "structures_examined", 0),
        "counterexamples": counterexamples,
        "status": doc["status"],
    }


def _canon_duality(doc):
    _need(doc, "duality report", "system", "bw", "max_tangle_order", "per_k",
          "agrees", "degenerate")
    per_k = []
    for i, entry in enumerate(_list(doc["per_k"], "per_k")):
        _need({"version": 1, **_obj(entry, f"per_k[{i}]")}, f"per_k[{i}]",
              "k", "tangle_exists", "matches")
        per_k.append({
            "k": _int(entry["k"], f"per_k[{i}].k", minimum=0),
            "tangle_exists": _bool(entry["tangle_exists"], f"per_k[{i}].tangle_exists"),
            "matches": _bool(entry["matches"], f"per_k[{i}].matches"),
        })
    return {
        "version": 1,
        "system": _str(doc["system"], "system"),
        "bw": _int(doc["bw"], "bw", minimum=0),
        "max_tangle_order": _int(doc["max_tangle_order"], "max_tangle_order", 0),
        "per_k": per_k,
        "agrees": _bool(doc["agrees"], "agrees"),
        "degenerate": _bool(doc["degenerate"], "degenerate"),
    }


def _nested_tree(value, where):
    if isinstance(value, bool):
        raise SchemaError(f"{where} must be an element index or array")
    if isinstance(value, int):
        if value < 0:
            raise SchemaError(f"{where} must be >= 0")
        return value
    if isinstance(value, list):
        return [_nested_tree(v, f"{where}[{i}]") for i, v in enumerate(value)]
    raise SchemaError(f"{where} must be an element index or array")


def _canon_branchwidth(doc):
    _need(doc, "branch-width report", "system", "width", "tree")
    return {
        "version": 1,
        "system": _str(doc["system"], "system"),
        "width": _int(doc["width"], "width", minimum=0),
        "tree": _nested_tree(doc["tree"], "tree"),
    }


def _canon_document(doc):
    if "axioms" in doc:
        return _canon_report(doc)
    if "theorem" in doc:
        return _canon_verdict(doc)
    if "problem" in doc:
        return _canon_hunt(doc)
    if "per_k" in doc:
        return _canon_duality(doc)
    if "tree" in doc:
        return _canon_branchwidth(doc)
    if "sides" in doc:
        return _canon_family(doc)
    if "kind" in doc:
        return _canon_system(doc)
    raise SchemaError("document shape not recognised")


# ---------------------------------------------------------------------------
# object -> document


def _side_list(separation):
    return list(separation.first_elements())


def _family_sides(family):
    return [_side_list(s) for s in family.members]


def to_document(obj) -> dict:
    """Canonical JSON-shaped dict for any toolkit object or parsed dict."""
    if isinstance(obj, dict):
        return _canon_document(obj)
    if isinstance(obj, ConnectivitySystem):
        return {"version": 1, **system_descriptor(obj)}
    if isinstance(obj, SeparationFamily):
        return {"version": 1, "k": obj.k, "sides": _family_sides(obj)}
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
                    "witness": [_side_list(s) for s in r.witness],
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
                {"kind": kind, "sides": _family_sides(f)}
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
                    "sides": _family_sides(c.family),
                    "failing_axiom": c.failing_axiom.value,
                    "witness": [_side_list(s) for s in c.witness],
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
