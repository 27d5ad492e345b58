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

Sides and witnesses are sorted element lists; families list sides in ascending
mask order.  Serialization is indent-2 UTF-8 with a trailing newline, so
``save(load(path))`` reproduces the file byte for byte.  One emitter,
byte-equal to ``json.dumps(doc, indent=2, ensure_ascii=False)``, writes it
into a string for ``dumps`` and into the file for ``save`` entry by entry.
The schema checks, which refuse a string UTF-8 cannot encode (an object's
names and vertex labels included), and a trial encoding of the free-form hunt
corpus, which ``to_document`` runs too, come before the file is opened, so a
save they reject leaves the target as it was; a full disk leaves the entries
written so far.  The loader reads the file in chunks of 2**16 characters and
decodes the top-level object member by member with the stdlib scanner, and an
array of entries item by item, making each entry canonical as soon as it is
decoded, so a load never holds the whole text.  A malformed file is read a
second time, whole, from the same open file, for the offset of its first byte
that is not UTF-8, else for the message, line, column and char ``json.loads``
gives (or its refusal of an integer of too many digits); a malformed pipe,
which cannot be read again, gets "cannot read".  Ingest is strict: unknown
fields, duplicate keys, bad versions, wrong types, out-of-range elements and
duplicate sides are rejected, and recomputable values (orders, the k bound's
sign) verified, not believed.  A counterexample's system is built, once per
distinct descriptor in a call (and in a load checked once per distinct JSON
text), a failed check raising a ``SchemaError``, and its sides and witness
checked against that system's n.

Every call builds its document in one context, whose memo keeps one list per
distinct side, parsed, a caller's or from a mask, and one dict per distinct
counterexample system; of a parsed or a caller's document also one list per
distinct witness and one string per distinct claim, and an enumerated field
becomes the toolkit's own constant.  A file or document nested past the
recursion limit is a ``SchemaError``, "nested too deeply".  A loaded document,
validated in place, shares these: treat it as read-only or take
``to_document(doc)``, a copy of the document it builds, every list and dict
new.  ``save`` and ``dumps`` share a dict's equal sides and never change it.
"""

from __future__ import annotations

import copy
import json
import re
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path

from .connectivity import (
    SYSTEM_FIELDS, SYSTEM_KINDS, ConnectivitySystem, build_system, system_descriptor,
)
from .duality import THEOREMS, BranchDecomposition, DualityReport, EquivalenceVerdict
from .exceptions import FunctionAxiomError, SchemaError
from .search import HUNT_BUDGET, HUNT_FOUND, HUNT_NONE_FOUND, PROBLEMS, HuntVerdict
from .separations import SeparationFamily, mask_elements
from .structures import VARIANTS, AxiomId, StructureKind, StructureReport

_AXIOM_VALUES = tuple(a.value for a in AxiomId)
_KIND_VALUES = tuple(k.value for k in StructureKind)


class _Sides(dict):
    """A side's tuple or mask -> the side's one list; a missing mask is listed."""

    def __missing__(self, mask):
        elements = mask_elements(mask)
        self[mask] = elements = self.setdefault(tuple(elements), elements)
        return elements


class _Memo:
    """One build's memo, a table per shared value: ``sides``; ``witnesses``, a
    witness's side tuples -> its one list; ``strings``, a claim -> its one
    string; ``systems``, a descriptor's JSON text or a system -> (its one dict,
    its n).  ``parsed`` is true in a load, whose values have JSON's types only."""

    def __init__(self, parsed):
        self.parsed = parsed
        self.sides, self.witnesses, self.strings, self.systems = _Sides(), {}, {}, {}


_MEMO = ContextVar("tanglekit.io build memo")  # set only within a build


def _reject_duplicate_keys(pairs):
    doc = dict(pairs)
    if len(doc) != len(pairs):
        keys = [k for k, _ in pairs]
        dup = sorted(k for k in doc if keys.count(k) > 1)
        raise SchemaError(f"duplicate JSON keys: {dup}")
    return doc


@contextmanager
def _building(where="document", parsed=False):
    """Build a document no caller holds in a fresh memo; nesting past the
    recursion limit is a ``SchemaError`` naming ``where``."""
    token = _MEMO.set(_Memo(parsed))
    try:
        yield
    except RecursionError as exc:  # in the scanner, a branch-width tree or the emitter
        raise SchemaError(f"{where}: nested too deeply") from exc
    finally:
        _MEMO.reset(token)


# characters read at a time: a load's transient is 0.5 MB at 2**16, 0.2 MB at
# 2**12 and 5 MB at 2**20 (tracemalloc, corpus problem-9 verdict)
_CHUNK = 1 << 16
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's whitespace, as ``json`` skips it
_SCAN = json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys).scan_once


class _Reader:
    """One JSON document read from a text file a chunk at a time; ``text[at:]``
    is the text not yet consumed, which a refill carries over."""

    def __init__(self, path, file):
        self.path, self.file = path, file
        self.text, self.at, self.eof = "", 0, False

    def more(self) -> bool:
        """Append the next chunk, at least as long as the text held (so a long
        value is decoded a bounded number of times); False at the end."""
        if self.eof:
            return False
        try:
            chunk = self.file.read(max(_CHUNK, len(self.text) - self.at))
        except UnicodeDecodeError:
            self.fail()
        self.eof = not chunk
        self.text, self.at = self.text[self.at:] + chunk, 0
        return True

    def char(self) -> str:
        """Skip whitespace; the next character, or "" at the end of the file."""
        while True:
            text = self.text
            self.at = at = _WHITESPACE.match(text, self.at).end()
            if at < len(text):
                return text[at]
            if not self.more():
                return ""

    def value(self):
        """Decode the value at ``at``; on failure raise ``fail()``."""
        while True:
            text = self.text
            try:
                value, end = _SCAN(text, self.at)
            except (StopIteration, ValueError):  # a JSONDecodeError, or too many digits
                if self.more():
                    continue
                self.fail()
            if end < len(text) or not self.more():  # a number may go on
                self.at = end
                return value

    def fail(self):
        """Raise what ``json.loads`` raises for the whole file, read again from
        its first byte; a pipe cannot seek, so it gets an ``OSError``."""
        buffer = self.file.buffer
        buffer.seek(0)
        try:
            text = buffer.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"{self.path} is not valid UTF-8: {exc.reason} at byte {exc.start}"
            ) from exc
        try:
            json.loads(text.replace("\r\n", "\n").replace("\r", "\n"),
                       object_pairs_hook=_reject_duplicate_keys)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{self.path} is not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer of more digits than int() converts
            raise SchemaError(f"{self.path}: {exc}") from exc
        raise SchemaError(f"{self.path}: top-level value must be an object")

    def members(self, close):
        """Step from the bracket at ``at`` to past its ``close``: yield the first
        character of each member or item, with ``at`` on it."""
        self.at += 1
        if (c := self.char()) != close:
            yield c
            while (c := self.char()) == ",":
                self.at += 1
                yield self.char()
            if c != close:
                self.fail()
        self.at += 1

    def document(self):
        """The top-level object and the keys of its canonical entry arrays."""
        if self.char() != "{":
            self.fail()
        pairs, done = [], []
        for c in self.members("}"):
            if c != '"':
                self.fail()
            key = self.value()
            if self.char() != ":":
                self.fail()
            self.at += 1
            if self.char() == "[" and key in _ENTRIES:
                value, canonical = self.entries(_ENTRIES[key])
                if canonical:
                    done.append(key)
            else:
                value = self.value()
            pairs.append((key, value))
        if self.char():
            self.fail()
        return _reject_duplicate_keys(pairs), done

    def entries(self, check):
        """An array made canonical item by item, and whether all of it was.

        From the first item ``check`` rejects on, items stay as parsed, for
        the document's check to report in its own order.
        """
        items, canonical = [], True
        for _ in self.members("]"):
            item = self.value()
            if canonical:
                try:
                    item = check(item, None)
                except SchemaError:
                    canonical = False
            items.append(item)
        return items, canonical


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
# and returns the canonical value.  ``where`` is None while an array's items
# are checked on the fast path; a failure there is checked again with paths


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
_list = _instance_of(list, "an array")
_obj = _instance_of(dict, "an object")


def _str(value, where):
    """A string the UTF-8 file can hold: a lone surrogate, which a ``\\udc80``
    escape or a surrogate-escaped file name gives, cannot be written."""
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SchemaError(f"{where} is not encodable as UTF-8: {exc.reason}") from exc
    return value


def _one_of(*values, base=_str):
    """Check for an enum field, giving its constant; ``base`` keeps it
    type-strict (11.0 is no 11)."""
    constants = dict(zip(values, values))

    def check(value, where):
        constant = constants.get(base(value, where))
        if constant is None:
            raise SchemaError(f"unknown {where} {value!r}")
        return constant
    return check


def _optional(check):
    return lambda value, where: None if value is None else check(value, where)


def _array_of(check):
    """Check every item without its path; if one fails, check again with paths
    (checks are pure), so the first failure names its item.  An array checked
    without a path of its own leaves that to the array around it."""
    def run(value, where):
        items = _list(value, where)
        try:
            return [check(v, None) for v in items]
        except SchemaError:
            if where is None:
                raise
            return [check(v, f"{where}[{i}]") for i, v in enumerate(items)]
    return run


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
            return _MEMO.get().sides.setdefault(tuple(value), value)
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


def _witness(value, where):
    """A witness: sides in any order, repeats allowed.  Equal witnesses are one
    list, keyed by their tuple of side tuples."""
    sides = _sides(value, where)
    return _MEMO.get().witnesses.setdefault(tuple(map(tuple, sides)), sides)


def _shared_str(value, where):
    """A free-form string; equal ones are one string."""
    value = _str(value, where)
    return _MEMO.get().strings.setdefault(value, value)


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
        path = key if not nested else None if where is None else f"{where}.{key}"
        out[key] = check(doc[key], path)
    return out


def _entry(fields):
    return lambda value, where: _walk(value, fields, where, nested=True)


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
    "id": _one_of(*_AXIOM_VALUES), "pass": _bool, "witness": _witness,
    "element": _optional(_nat),
}
_UNMATCHED_ENTRY = {"kind": _one_of(*_KIND_VALUES), "sides": _family_sides}


def _built(descriptor, where):
    """The n of the system ``build_system`` makes of ``descriptor``; a failed
    check, the explicit table's included, is a ``SchemaError``."""
    try:
        return build_system(descriptor).n
    except (ValueError, FunctionAxiomError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _counterexample_system(value, where):
    """A counterexample's system and its n, built once per distinct descriptor
    in a call; equal descriptors are one dict (the checks refuse 1.0 and true
    for 1, so equal means identical).  A load checks a descriptor once per JSON
    text, which tells 1.0, true and 1 apart and keeps the key order; of a
    caller's value the text would not tell a tuple from a list."""
    memo, text = _MEMO.get(), None
    if memo.parsed:
        try:
            text = json.dumps(value)
        except RecursionError:  # nested past any descriptor: the check refuses it
            pass
    if text not in memo.systems:
        out = _system(value, where, nested=True)
        text = json.dumps(out)
        if text not in memo.systems:
            memo.systems[text] = out, _built(out, where)
    return memo.systems[text]


def _descriptor(system, where):
    """A system object's descriptor, checked once per object, and shared as a
    counterexample's is (the object is built already)."""
    systems = _MEMO.get().systems
    if system not in systems:
        out = _system(system_descriptor(system), where, nested=True)
        systems[system] = systems.setdefault(json.dumps(out), (out, system.n))
    return systems[system][0]


_LAST = itemgetter(-1)


def _in_range(sides, n, where):
    """Refuse the first element >= n of ``sides``, each a checked side."""
    # a side ascends, so its last element is its largest
    if max(map(_LAST, filter(None, sides)), default=-1) >= n:
        i, e = next((i, e) for i, side in enumerate(sides) for e in side if e >= n)
        raise SchemaError(f"{where}[{i}]: element {e} out of range for n={n}")


def _counterexample(value, where):
    """A counterexample whose sides and witness are subsets of its system's
    ground set; its sides repeat none."""
    out = _walk(value, _COUNTEREXAMPLE, where, nested=True)
    out["system"], n = out["system"]  # the system's check gives its n too
    _in_range(out["sides"], n, f"{where}.sides")
    _in_range(out["witness"], n, f"{where}.witness")
    return out


_COUNTEREXAMPLE = {
    "system": _counterexample_system, "k": _nat,
    "claim": _shared_str, "sides": _family_sides, "failing_axiom": _one_of(*_AXIOM_VALUES),
    "witness": _witness,
}
_PER_K_ENTRY = {"k": _nat, "tangle_exists": _bool, "matches": _bool}
# each array of entries by its key, which no other shape uses; the reader
# checks its items one by one as it decodes them
_ENTRIES = {
    "axioms": _entry(_AXIOM_ENTRY), "unmatched": _entry(_UNMATCHED_ENTRY),
    "counterexamples": _counterexample, "per_k": _entry(_PER_K_ENTRY),
}


# identifying key -> (shape, fields), tried in this order; a document with
# none of these keys but a "kind" is a system
_SHAPES = {
    "axioms": ("structure report", {
        "kind": _one_of(*_KIND_VALUES), "k": _nat,
        "variant": _one_of(*VARIANTS),
        "axioms": _array_of(_ENTRIES["axioms"]), "pass": _bool,
    }),
    "theorem": ("equivalence verdict", {
        "theorem": _one_of(*THEOREMS, base=_int), "system": _str,
        "k": _nat, "pass": _bool, "counts": _counts,
        "unmatched": _array_of(_ENTRIES["unmatched"]), "bw": _optional(_nat),
    }),
    "problem": ("hunt verdict", {
        "problem": _one_of(*PROBLEMS, base=_int), "corpus": _obj,  # the emitter checks it
        "systems_examined": _nat, "structures_examined": _nat,
        "counterexamples": _array_of(_ENTRIES["counterexamples"]),
        "status": _one_of(HUNT_NONE_FOUND, HUNT_FOUND, HUNT_BUDGET),
    }),
    "per_k": ("duality report", {
        "system": _str, "bw": _nat, "max_tangle_order": _nat,
        "per_k": _array_of(_ENTRIES["per_k"]), "agrees": _bool, "degenerate": _bool,
    }),
    "tree": ("branch-width report", {"system": _str, "width": _nat, "tree": _tree}),
    "sides": ("family", {"k": _nat, "sides": _family_sides}),
}


def _kept(value, where):
    return value


def _canon_document(doc, done=()):
    """The canonical document; the arrays named in ``done`` are taken as they
    are, since the reader made each of their items canonical."""
    for key, (shape, fields) in _SHAPES.items():
        if key in doc:
            fields = {k: _kept if k in done else check for k, check in fields.items()}
            return _walk(doc, fields, shape)
    if "kind" in doc:
        return _system(doc)
    raise SchemaError("document shape not recognised")


# ---------------------------------------------------------------------------
# object -> document


def _listed(masks):
    sides = _MEMO.get().sides  # the one list of each side, listed on first use
    return [sides[m] for m in masks]


def _fill(fields, *values):
    """An entry: the keys of its check table, in that order, with ``values``."""
    return dict(zip(fields, values, strict=True))


def _document(shape_key, *values):
    return {"version": 1, **_fill(_SHAPES[shape_key][1], *values)}


def _built_document(obj) -> dict:
    """The canonical document of a toolkit object or parsed dict, in the key
    order the reader walks; an object's names and labels are checked too."""
    if isinstance(obj, dict):
        return _canon_document(obj)
    if isinstance(obj, ConnectivitySystem):
        return {"version": 1, **_descriptor(obj, "system")}
    if isinstance(obj, SeparationFamily):
        return _document("sides", obj.k, _listed(obj.member_masks))
    if isinstance(obj, StructureReport):
        axioms = [
            _fill(_AXIOM_ENTRY, r.axiom.value, r.passed, _listed(r.witness), r.element)
            for r in obj.results
        ]
        return _document("axioms", obj.kind.value, obj.k, obj.variant, axioms, obj.passed)
    if isinstance(obj, EquivalenceVerdict):
        unmatched = [
            _fill(_UNMATCHED_ENTRY, kind, _listed(f.member_masks))
            for kind, f in obj.unmatched
        ]
        return _document("theorem", obj.theorem, _str(obj.system, "system"), obj.k,
                         obj.passed, dict(obj.counts), unmatched, obj.bw)
    if isinstance(obj, HuntVerdict):
        counterexamples = [
            _fill(_COUNTEREXAMPLE, _descriptor(c.system, f"counterexamples[{i}].system"),
                  c.k, c.claim, _listed(c.family.member_masks), c.failing_axiom.value,
                  _listed(c.witness))
            for i, c in enumerate(obj.counterexamples)
        ]
        return _document("problem", obj.problem, _obj(obj.corpus, "corpus"),
                         obj.systems_examined, obj.structures_examined,
                         counterexamples, obj.status)
    if isinstance(obj, DualityReport):
        per_k = [_fill(_PER_K_ENTRY, *row) for row in obj.per_k]
        return _document("per_k", _str(obj.system, "system"), obj.bw,
                         obj.max_tangle_order, per_k, obj.agrees, obj.degenerate)
    if isinstance(obj, BranchDecomposition):
        return _document("tree", _str(obj.system.describe(), "system"), obj.width, obj.nested())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_INTS = frozenset({int})  # exact ints: True and 1.0 equal 1 but print otherwise
_ATOMS = frozenset({str, int, bool, type(None)})


def _copied(value):
    """A built document copied as a tree: every list and dict new, and a value
    of a type JSON has no atom for deep-copied (a corpus may hold one)."""
    if type(value) is list:
        return [v if type(v) in _ATOMS else _copied(v) for v in value]
    if type(value) is dict:
        return {k: v if type(v) in _ATOMS else _copied(v) for k, v in value.items()}
    return copy.deepcopy(value)


def _encodable(doc):
    """``doc``, a document or a list, after a trial UTF-8 encoding of each (untyped) corpus."""
    for d in doc if isinstance(doc, list) else (doc,):
        if "corpus" in d:
            _emitter()(d["corpus"], "\n").encode()
    return doc


def to_document(obj) -> dict:
    """Canonical JSON-shaped dict of a toolkit object or parsed dict, checked as
    ``save`` checks it and copied for the caller to edit."""
    with _building():
        return _copied(_encodable(_built_document(obj)))


def _emitter(shared=frozenset()):
    """``emit(value, nl)``: the text ``json.dumps(value, indent=2,
    ensure_ascii=False)`` gives ``value`` nested at newline-and-indent ``nl``.

    Each list of exact ints is rendered once per indent, since sides repeat,
    and kept in a memo whose keys hold nothing but exact ints; so is each
    dict whose id is in ``shared``, the counterexample descriptors a build
    shares, which repeat too.
    """
    memo = defaultdict(dict)  # indent -> {tuple of ints, or a shared dict's id: its text}

    def ints(key, nl):
        if key:
            inner = nl + "  "
            text = "[" + inner + ("," + inner).join(map(int.__repr__, key)) + nl + "]"
        else:
            text = "[]"
        memo[nl][key] = text
        return text

    def emit(value, nl):
        kind = type(value)
        if kind is str:
            return encode_basestring(value)
        if kind is list:
            if not value:
                return "[]"
            kinds = {*map(type, value)}
            if kinds <= _INTS:
                key = tuple(value)
                return memo[nl].get(key) or ints(key, nl)
            inner = nl + "  "
            if kinds == {list} and {*map(type, chain.from_iterable(value))} <= _INTS:
                texts = memo[inner]  # sides, witnesses, hyperedges
                items = [texts.get(key) or ints(key, inner) for key in map(tuple, value)]
            else:
                items = [emit(v, inner) for v in value]
            return "[" + inner + ("," + inner).join(items) + nl + "]"
        if kind is dict:
            if not value:
                return "{}"
            key = id(value)
            if key in shared:  # a descriptor, whose keys are str
                return memo[nl].get(key) or memo[nl].setdefault(key, members(value, nl))
            try:
                return members(value, nl)
            except TypeError:  # a key that is no str, which json.dumps converts
                pass
        if kind is int:
            return int.__repr__(value)
        if value is None or value is True or value is False:
            return "null" if value is None else "true" if value else "false"
        # a tuple, a subclass, a float; other types raise as json.dumps does
        return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", nl)

    def members(value, nl):
        inner = nl + "  "
        items = [encode_basestring(k) + ": " + emit(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"

    return emit


def _write(doc, write) -> None:
    """Pass ``json.dumps(doc, indent=2, ensure_ascii=False)`` to ``write``.

    A document goes field by field and an array of documents or entries item
    by item; any other value, such as one entry, is one string of the
    emitter, whose memo serves the whole call.
    """
    emit = _emitter({id(d) for d, _ in _MEMO.get(_Memo(False)).systems.values()})

    def walk(head, value, nl, document):  # writes ``head``, then ``value``
        inner = nl + "  "
        if value and type(value) is list and type(value[0]) is dict:
            head += "["
            for item in value:
                walk(head + inner, item, inner, document)
                head = ","
            write(nl + "]")
        elif document and value and type(value) is dict:
            head += "{"
            for key, item in value.items():
                walk(head + inner + encode_basestring(key) + ": ", item, inner, False)
                head = ","
            write(nl + "}")
        else:
            write(head + emit(value, nl))

    walk("", doc, "\n", True)
    del walk  # it refers to itself: free it now, not at the next GC pass


def _documents(obj):
    """The document or list of them that ``dumps`` and ``save`` build."""
    return [_built_document(o) for o in obj] if isinstance(obj, list) else _built_document(obj)


def dumps(obj) -> str:
    """Canonical text of one object, or of a list of objects as a JSON array."""
    with _building():
        pieces = []
        _write(_documents(obj), pieces.append)
        return "".join(pieces) + "\n"


def save(document, path) -> None:
    """Write the canonical text of one toolkit object or parsed dict, or a list
    of them, to the file as it is emitted.  The schema checks, and a corpus
    JSON or UTF-8 cannot hold, raise before the file is opened, leaving the
    target as it was; an error while writing leaves the part written so far."""
    with _building():
        doc = _encodable(_documents(document))
        with Path(path).open("w", encoding="utf-8") as file:
            _write(doc, file.write)
            file.write("\n")


def load_document(path) -> dict:
    """Parse, validate and canonicalize any toolkit JSON document."""
    with _building(path, parsed=True):
        try:
            with open(path, encoding="utf-8") as file:
                doc, done = _Reader(path, file).document()
            return _canon_document(doc, done)
        except OSError as exc:
            raise SchemaError(f"cannot read {path}: {exc}") from exc


def load_system(path) -> ConnectivitySystem:
    """Build a system from a file; explicit tables get full verification."""
    payload = load_document(path)
    if payload.get("kind") not in SYSTEM_KINDS:
        raise SchemaError(f"{path} does not hold a system document")
    payload.pop("version")
    try:
        return build_system(payload, name=Path(path).stem)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_family(path, system: ConnectivitySystem) -> SeparationFamily:
    """Read a family against a known system; orders are recomputed."""
    payload = load_document(path)
    if "sides" not in payload or "kind" in payload:
        raise SchemaError(f"{path} does not hold a family document")
    _in_range(payload["sides"], system.n, "sides")
    masks = [sum(1 << e for e in side) for side in payload["sides"]]
    try:
        return SeparationFamily.from_masks(system, payload["k"], masks)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
