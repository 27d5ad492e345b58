"""Connectivity systems: a finite ground set with a symmetric submodular function.

The ground set is always {0, ..., n-1} and subsets are n-bit masks (bit i set
iff element i is in the subset).  Five constructions are supported:

- ``explicit``            a full table of 2**n function values
- ``graph_cut``           ground set = graph vertices, f(A) = crossing edges
- ``graph_boundary``      ground set = graph edges, f(A) = shared vertices
- ``hyperedge_boundary``  ground set = hypergraph vertices, f(A) = split hyperedges
- ``min_cardinality``     f(A) = min(|A|, n - |A|)

The three boundary kinds are symmetric submodular by construction (each is a
sum of indicator cuts); explicit tables are verified before they are accepted.
f is computed in one place, ``evaluate_many``; ``evaluate`` reads the value
table, built by it on first read up to n = 16, and beyond sends its one mask.
Systems are immutable after construction apart from the ``verified`` flag and
internal caches (the value table, the per-k contexts of ``separations`` and
the result of ``duality.branch_width``), so they are safe to share between
readers, and ``build_system`` shares them: while a system it built is alive,
an identical descriptor and name return that system and its caches.
"""

from __future__ import annotations

import functools
import json
import random
import weakref
from dataclasses import dataclass

import numpy as np

from .exceptions import FunctionAxiomError, GroundSetLimitError

# 2**n table entries; beyond this nothing in the toolkit is tractable anyway
EXPLICIT_TABLE_LIMIT = 24
# enumerating all 2**n separations, or building the table for one f, is cheap
ENUMERATION_LIMIT = 16
# exhaustive verification walks all 4**n subset pairs
EXHAUSTIVE_VERIFY_LIMIT = 12
# cheap seeded spot check applied when structured kinds are built
BUILD_SPOT_CHECK_PAIRS = 128
# sampled verification evaluates its pairs, and evaluate_many its masks,
# this many at a time; exhaustive verification reads twice as many pairs
# a block
SAMPLE_CHUNK = 4096

# descriptor fields of each kind besides "kind", in document order
SYSTEM_FIELDS = {
    "explicit": ("n", "values"),
    "graph_cut": ("vertices", "edges"),
    "graph_boundary": ("vertices", "edges"),
    "hyperedge_boundary": ("n", "hyperedges"),
    "min_cardinality": ("n",),
}
SYSTEM_KINDS = tuple(SYSTEM_FIELDS)

CHECK_SYMMETRY = "symmetry"
CHECK_SUBMODULARITY = "submodularity"
CHECK_EMPTY_SET_MINIMUM = "empty_set_minimum"
CHECK_POSIMODULARITY = "posimodularity"
CHECK_NAMES = (
    CHECK_SYMMETRY,
    CHECK_SUBMODULARITY,
    CHECK_EMPTY_SET_MINIMUM,
    CHECK_POSIMODULARITY,
)


def check_int(value, name: str, minimum: int = 0) -> int:
    """``value`` if it is an int at or above ``minimum``; as in the loader, an
    integer parameter is never a float or a bool (1.0 and True are no 1)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        bound = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return value


class ConnectivitySystem:
    """A pair of ground set {0..n-1} and symmetric submodular function."""

    def __init__(
        self,
        n: int,
        kind: str,
        *,
        name: str | None = None,
        values: tuple[int, ...] | None = None,
        vertices: tuple[str, ...] | None = None,
        edges: tuple[tuple[str, str], ...] | None = None,
        hyperedges: tuple[tuple[int, ...], ...] | None = None,
        cross_masks: tuple[int, ...] | None = None,
    ):
        self.n = n
        self.kind = kind
        self.name = name
        self.values = values
        self.vertices = vertices
        self.edges = edges
        self.hyperedges = hyperedges
        self.verified = False
        # a boundary kind's crossing units as a column: f counts those A splits
        self._units = np.array(cross_masks or (), dtype=np.int64)[:, None]
        self._table: np.ndarray | None = None
        self._contexts: dict = {}  # k -> separations.EfficientContext
        self._branch_width = None  # duality.branch_width's (width, splits)
        if kind == "explicit":
            self._table = np.asarray(values, dtype=np.int64)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def _out_of_range(self, mask: int) -> ValueError:
        return ValueError(
            f"mask {mask:#x} has bits outside the ground set of size {self.n}"
        )

    def evaluate(self, mask: int) -> int:
        """Return f(A) for the subset encoded by ``mask``, read from the table."""
        if type(mask) is not int:  # 1.0 and True are no masks; -1 reaches the range check
            check_int(mask, "mask")
        if mask < 0 or mask > self.full_mask:
            raise self._out_of_range(mask)
        table = self._table
        if table is None:
            if self.n > ENUMERATION_LIMIT:
                return int(self.evaluate_many(np.array([mask]))[0])
            table = self.table()
        return int(table[mask])

    def evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        """f at every mask of an integer array, as an int64 array of its shape.

        Reads the cached table when there is one and never builds it, so it
        serves spot checks at any supported n.
        """
        masks = np.asarray(masks)
        if masks.dtype.kind not in "iu":  # a cast would read 1.5 as mask 1
            raise ValueError(f"masks must be an integer array, got dtype {masks.dtype}")
        masks = masks.astype(np.int64, copy=False)
        bad = (masks < 0) | (masks > self.full_mask)
        if bad.any():
            raise self._out_of_range(int(masks[bad][0]))
        if self._table is not None:
            return self._table[masks]
        if self.kind == "min_cardinality":
            counts = np.bitwise_count(masks).astype(np.int64)
            return np.minimum(counts, self.n - counts)
        # boundary kinds: every crossing unit against a row of masks at once,
        # SAMPLE_CHUNK masks a row, so a table build holds one row's crossings
        flat = masks.ravel()
        total = np.empty(flat.shape, dtype=np.int64)
        units = self._units
        for start in range(0, flat.size, SAMPLE_CHUNK):
            hit = flat[start:start + SAMPLE_CHUNK] & units
            crossed = hit != 0
            crossed &= hit != units
            crossed.sum(axis=0, out=total[start:start + SAMPLE_CHUNK])
        return total.reshape(masks.shape)

    def table(self) -> np.ndarray:
        """The full value table, built lazily and cached.  Needs n <= 24."""
        if self._table is None:
            if self.n > EXPLICIT_TABLE_LIMIT:
                raise GroundSetLimitError("value table", self.n, EXPLICIT_TABLE_LIMIT)
            self._table = self.evaluate_many(np.arange(1 << self.n, dtype=np.int64))
        return self._table

    def max_order(self) -> int:
        return int(self.table().max())

    def labels(self) -> tuple[str, ...]:
        """Human-readable element names, in ground-set order."""
        if self.kind == "graph_cut":
            return self.vertices
        if self.kind == "graph_boundary":
            return tuple(f"{u}-{v}" for u, v in self.edges)
        return tuple(f"e{i}" for i in range(self.n))

    def describe(self) -> str:
        if self.name:
            return self.name
        return f"{self.kind}(n={self.n})"

    def to_explicit(self) -> ConnectivitySystem:
        """Export to an explicit table with pointwise-equal evaluate."""
        values = tuple(int(v) for v in self.table())
        return explicit_system(values, name=self.name)

    def __repr__(self):
        return f"ConnectivitySystem({self.describe()!r}, kind={self.kind!r})"


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    witness: tuple[int, ...]  # the offending masks, empty on pass


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    pairs_checked: int
    checks: tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> VerificationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _verify(mode: str, pairs_checked: int, chunks) -> VerificationReport:
    """The four inequalities over ``chunks`` ``(a, b, values)``: int arrays a
    and b that broadcast together, and f at a, b, a^X, a&b, a|b, a&~b, b&~a
    and the empty set.  Each witness is the check's first failing pair in C
    order of the broadcast: (a,) for symmetry and the floor, else (a, b)."""
    witnesses = dict.fromkeys(CHECK_NAMES)  # name -> first offending masks
    for a, b, values in chunks:
        fa, fb, f_comp, f_meet, f_join, f_ab, f_ba, f_empty = values
        both = fa + fb
        for name, bad, sides in (
            (CHECK_SYMMETRY, fa != f_comp, (a,)),
            (CHECK_EMPTY_SET_MINIMUM, fa < f_empty, (a,)),
            (CHECK_SUBMODULARITY, both < f_meet + f_join, (a, b)),
            (CHECK_POSIMODULARITY, both < f_ab + f_ba, (a, b)),
        ):
            if witnesses[name] is None and bad.any():
                at = np.unravel_index(int(np.argmax(bad)), bad.shape)
                witnesses[name] = tuple(int(np.broadcast_to(m, bad.shape)[at]) for m in sides)
        if all(w is not None for w in witnesses.values()):
            break
    checks = (VerificationCheck(n, w is None, w or ()) for n, w in witnesses.items())
    return VerificationReport(mode, pairs_checked, tuple(checks))


def _every_pair(system: ConnectivitySystem):
    """Every pair (a, b) a-major, read off the value table in blocks of
    rows of a (a column) against every b (a row)."""
    t = system.table()
    size = t.size
    full = size - 1
    b = np.arange(size, dtype=np.int64)
    # 2 * SAMPLE_CHUNK pairs a block: each pair array stays at 64 KiB, under
    # glibc's 128 KiB mmap threshold, past which every block faults in pages
    rows = max(1, 2 * SAMPLE_CHUNK // size)
    for start in range(0, size, rows):
        a = b[start:start + rows, None]
        yield a, b, (t[a], t, t[a ^ full], t.take(a & b), t.take(a | b),
                     t.take(a & ~b), t.take(b & ~a), t[0])


def _draw_chunks(n: int, samples: int, seed: int):
    """The seeded pairs (a, b) of sampled verification, in chunks.

    Each chunk stacks the rows a, b, a^full, a&b, a|b, a&~b and b&~a, one
    column per pair, so one ``evaluate_many`` call serves every check.
    """
    rng = random.Random(seed)
    size = 1 << n
    full = size - 1
    for start in range(0, samples, SAMPLE_CHUNK):
        count = min(SAMPLE_CHUNK, samples - start)
        a, b = np.array(
            [rng.randrange(size) for _ in range(2 * count)], dtype=np.int64
        ).reshape(count, 2).T
        chunk = np.stack([a, b, a ^ full, a & b, a | b, a & ~b, b & ~a])
        chunk.flags.writeable = False
        yield chunk


@functools.lru_cache(maxsize=32)
def _one_chunk_draw(n: int, samples: int, seed: int) -> tuple[np.ndarray, ...]:
    # the build spot check draws the same few pairs for every system of size n
    return tuple(_draw_chunks(n, samples, seed))


def _sampled_pairs(system: ConnectivitySystem, samples: int, seed: int):
    draw = _one_chunk_draw if samples <= SAMPLE_CHUNK else _draw_chunks
    for chunk in draw(system.n, samples, seed):
        # one call per chunk: the appended last mask is the empty set
        values = system.evaluate_many(np.append(chunk, 0))
        yield chunk[0], chunk[1], (*values[:-1].reshape(chunk.shape), values[-1])


def verify_axioms(
    system: ConnectivitySystem,
    mode: str = "exhaustive",
    *,
    samples: int = 20000,
    seed: int = 0,
) -> VerificationReport:
    """Check symmetry, submodularity and the two implied inequalities.

    ``exhaustive`` walks every subset pair a-major and is limited to n <= 12;
    it sets the system's ``verified`` flag on a full pass.  ``sampled`` draws
    ``samples`` >= 1 seeded random pairs and works at any supported size.
    The witness of each check is its first failing pair in that order.
    Failures are report content with witness masks, never exceptions.
    """
    if mode == "exhaustive":
        if system.n > EXHAUSTIVE_VERIFY_LIMIT:
            raise GroundSetLimitError(
                "exhaustive verification", system.n, EXHAUSTIVE_VERIFY_LIMIT
            )
        report = _verify(mode, 4 ** system.n, _every_pair(system))
        if report.passed:
            system.verified = True
        return report
    if mode == "sampled":
        # a run that draws no pair would report a pass having examined nothing
        check_int(samples, "samples", 1)
        return _verify(mode, samples, _sampled_pairs(system, samples, seed))
    raise ValueError(f"unknown verification mode {mode!r}")


# ---------------------------------------------------------------------------
# builders


def _check_n(n, kind: str) -> int:
    if check_int(n, f"{kind}: ground set size", 1) > EXPLICIT_TABLE_LIMIT:
        raise ValueError(
            f"{kind}: ground set size {n} outside supported range "
            f"1..{EXPLICIT_TABLE_LIMIT}"
        )
    return n


def _require_passed(report: VerificationReport, message: str) -> None:
    """Raise FunctionAxiomError for the first failed check of ``report``, its
    ``name`` and ``witness`` formatted into ``message``."""
    for c in report.checks:
        if not c.passed:
            raise FunctionAxiomError(message.format(name=c.name, witness=c.witness), c.witness)


def _spot_check(system: ConnectivitySystem) -> None:
    # structured kinds are submodular by construction; this catches builder bugs
    _require_passed(
        verify_axioms(system, "sampled", samples=BUILD_SPOT_CHECK_PAIRS),
        f"{system.kind} construction violated {{name}} (witness masks {{witness}})",
    )


def explicit_system(values, *, name: str | None = None) -> ConnectivitySystem:
    """Build from a full table; the table must survive verification."""
    values = tuple(values)
    size = len(values)
    n = size.bit_length() - 1
    if size < 2 or size != 1 << n:
        raise ValueError(f"explicit table length {size} is not a power of two >= 2")
    _check_n(n, "explicit")
    for i, v in enumerate(values):
        check_int(v, f"explicit table entry {i}")
    system = ConnectivitySystem(n, "explicit", name=name, values=values)
    # beyond the exhaustive limit 4**n pairs are out of reach; documented fallback
    mode = "exhaustive" if n <= EXHAUSTIVE_VERIFY_LIMIT else "sampled"
    _require_passed(
        verify_axioms(system, mode, samples=65536),
        "explicit table rejected: {name} fails at witness masks {witness}",
    )
    return system


def min_cardinality_system(n: int, *, name: str | None = None) -> ConnectivitySystem:
    _check_n(n, "min_cardinality")
    return ConnectivitySystem(n, "min_cardinality", name=name)


def _check_graph(vertices, edges):
    vertices = tuple(str(v) for v in vertices)
    if not vertices:
        raise ValueError("graph needs at least one vertex")
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertex names")
    index = {v: i for i, v in enumerate(vertices)}
    cleaned = []
    for e in edges:
        pair = tuple(str(v) for v in e)
        if len(pair) != 2:
            raise ValueError(f"edge {e!r} is not a pair")
        u, v = pair
        if u not in index or v not in index:
            raise ValueError(f"edge {e!r} references an unknown vertex")
        if u == v:
            raise ValueError(f"self-loop {e!r} is not allowed")
        cleaned.append(pair)
    return vertices, tuple(cleaned), index


def graph_cut_system(vertices, edges, *, name: str | None = None) -> ConnectivitySystem:
    """Ground set = vertices; f(A) = number of edges leaving A."""
    vertices, edges, index = _check_graph(vertices, edges)
    n = _check_n(len(vertices), "graph_cut")
    masks = tuple((1 << index[u]) | (1 << index[v]) for u, v in edges)
    system = ConnectivitySystem(
        n, "graph_cut", name=name, vertices=vertices, edges=edges, cross_masks=masks
    )
    _spot_check(system)
    return system


def graph_boundary_system(vertices, edges, *, name: str | None = None) -> ConnectivitySystem:
    """Ground set = edges, in the given order; f(A) counts vertices incident
    to an edge in A and an edge outside A."""
    vertices, edges, _ = _check_graph(vertices, edges)
    n = _check_n(len(edges), "graph_boundary")
    masks = []
    for v in vertices:
        m = 0
        for i, e in enumerate(edges):
            if v in e:
                m |= 1 << i
        masks.append(m)
    system = ConnectivitySystem(
        n,
        "graph_boundary",
        name=name,
        vertices=vertices,
        edges=edges,
        cross_masks=tuple(masks),
    )
    _spot_check(system)
    return system


def hyperedge_system(n: int, hyperedges, *, name: str | None = None) -> ConnectivitySystem:
    """Ground set = {0..n-1}; f(A) counts hyperedges meeting A and its complement."""
    _check_n(n, "hyperedge_boundary")
    cleaned = []
    masks = []
    for h in hyperedges:
        members = tuple(h)
        seen = set()
        m = 0
        for v in members:
            if check_int(v, f"hyperedge {h!r} element") >= n:
                raise ValueError(f"hyperedge {h!r} has element {v!r} outside 0..{n - 1}")
            if v in seen:
                raise ValueError(f"hyperedge {h!r} repeats element {v}")
            seen.add(v)
            m |= 1 << v
        cleaned.append(tuple(sorted(members)))  # a set, kept sorted as documents hold it
        masks.append(m)
    system = ConnectivitySystem(
        n,
        "hyperedge_boundary",
        name=name,
        hyperedges=tuple(cleaned),
        cross_masks=tuple(masks),
    )
    _spot_check(system)
    return system


def _build(descriptor, name):
    if not isinstance(descriptor, dict):
        raise ValueError("system descriptor must be a mapping")
    kind = descriptor.get("kind")
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    fields = {"kind", *SYSTEM_FIELDS[kind]}
    extra = set(descriptor) - fields
    if extra:
        raise ValueError(f"{kind} descriptor has unknown fields: {sorted(extra)}")
    missing = fields - set(descriptor)
    if missing:
        raise ValueError(f"{kind} descriptor is missing fields: {sorted(missing)}")
    arrays = (list, tuple)
    for field in SYSTEM_FIELDS[kind]:
        value = descriptor[field]
        if field != "n" and not isinstance(value, arrays):
            raise ValueError(f"{kind} {field} must be a list")
        if field in ("edges", "hyperedges") and not all(isinstance(v, arrays) for v in value):
            raise ValueError(f"{kind} {field} must be a list of lists")
    if kind == "explicit":
        n = _check_n(descriptor["n"], kind)
        values = descriptor["values"]
        if len(values) != 1 << n:
            raise ValueError(
                f"explicit values must be a list of length {1 << n} for n={n}"
            )
        return explicit_system(values, name=name)
    # each of these builders takes its kind's fields in SYSTEM_FIELDS order
    build = {"graph_cut": graph_cut_system, "graph_boundary": graph_boundary_system,
             "hyperedge_boundary": hyperedge_system, "min_cardinality": min_cardinality_system}
    return build[kind](*(descriptor[f] for f in SYSTEM_FIELDS[kind]), name=name)


# (name, descriptor JSON text) -> the live system build_system made from it
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def build_system(descriptor: dict, *, name: str | None = None) -> ConnectivitySystem:
    """Instantiate a system from a descriptor shaped like the on-disk payload.

    While a system built here lives, the same name and descriptor JSON text
    return it: it passed its checks for exactly that text, which tells 1, 1.0
    and true apart.  A new text is built and checked, then shared once it
    passes; a descriptor ``json.dumps`` cannot encode is built unshared.
    """
    try:
        key = (name, json.dumps(descriptor))
        system = _LIVE.get(key)
    except (TypeError, ValueError, RecursionError):  # not JSON, or name unhashable
        key = system = None
    if system is None:
        system = _build(descriptor, name)
        if key is not None:
            _LIVE[key] = system
    return system


def system_descriptor(system: ConnectivitySystem) -> dict:
    """The JSON-shaped payload that rebuilds this system via build_system."""
    out = {"kind": system.kind}
    for field in SYSTEM_FIELDS[system.kind]:
        value = getattr(system, field)  # attributes carry the field names
        if isinstance(value, tuple):  # a list, as JSON holds it; edges too
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[field] = value
    return out
