"""In-memory spans for the traced benchmark run, and the per-layer metrics.

The program has no spans of its own, so the traced run records them from
the outside: it rebinds the public names one tanglekit module calls in
another (``search`` calling ``check_structure``, ``duality`` calling
``branch_width``, ...) to wrappers that record a span, and restores the
originals afterwards.  The benchmark's own calls into the API record spans
through ``Tracer.call``.  A span is ``[name, start, end, parent, pass_id,
note]``; ``parent`` indexes the enclosing span (-1 at top level) and
``note`` holds what a metric needs from the call (nodes, kind, bytes...).
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import defaultdict
from time import perf_counter


def _note_enumerate(args, kwargs, result):
    return result.nodes, len(result.families)


def _note_check(args, kwargs, result):
    kind = args[3] if len(args) > 3 else kwargs["kind"]
    return getattr(kind, "value", kind), result.passed


def _note_branch_width(args, kwargs, result):
    system = args[0]
    return system.n, (system.kind, system.n, system.describe())


def _note_saved(args, kwargs, result):
    return os.path.getsize(args[1])


def _note_loaded(args, kwargs, result):
    return os.path.getsize(args[0])


NOTES = {
    "search.enumerate_all": _note_enumerate,
    "structures.check_structure": _note_check,
    "duality.branch_width": _note_branch_width,
    "io.save": _note_saved,
    "io.load_document": _note_loaded,
}

# (module, name as that module sees it, span name)
REBINDS = (
    ("tanglekit.search", "check_structure", "structures.check_structure"),
    ("tanglekit.search", "efficient_masks", "separations.efficient_masks"),
    ("tanglekit.search", "enumerate_all", "search.enumerate_all"),
    ("tanglekit.structures", "efficient_masks", "separations.efficient_masks"),
    ("tanglekit.duality", "enumerate_all", "search.enumerate_all"),
    ("tanglekit.duality", "find_one", "search.find_one"),
    ("tanglekit.duality", "branch_width", "duality.branch_width"),
    ("tanglekit.cli", "branch_width", "duality.branch_width"),
    ("tanglekit.cli", "verify_branchwidth_duality", "duality.verify_branchwidth_duality"),
    ("tanglekit.cli", "verify_theorem", "duality.verify_theorem"),
    ("tanglekit.cli", "enumerate_all", "search.enumerate_all"),
    ("tanglekit.cli", "run_hunt", "search.hunt"),
    ("tanglekit.cli", "check_structure", "structures.check_structure"),
    ("tanglekit.io", "build_system", "connectivity.build_system"),
    ("tanglekit.io", "save", "io.save"),
    ("tanglekit.io", "load_document", "io.load_document"),
)


class Tracer:
    """Span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = "setup"
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else -1,
                  self.pass_id, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record[2] = perf_counter()
        note = NOTES.get(name)
        if note is not None:
            record[5] = note(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def untraced_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Rebound:
    """Context manager: rebinds the cross-module names, restores them on exit.

    ``missing`` lists names this version of the package no longer has;
    ``restored`` is True once every original is back in place.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.restored = False

    def __enter__(self):
        try:
            self._rebind()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _rebind(self):
        tracer = self.tracer
        for module_name, attr, span in REBINDS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._set(module, attr, tracer.wrap(span, getattr(module, attr)))

        connectivity = importlib.import_module("tanglekit.connectivity")
        system_cls = connectivity.ConnectivitySystem
        table = system_cls.__dict__["table"]

        def traced_table(system):
            # only a cold call builds the table; warm calls are cache reads
            if getattr(system, "_table", True) is None:
                return tracer.call("connectivity.table_build", table, system)
            return table(system)

        self._set(system_cls, "table", traced_table)

        separations = importlib.import_module("tanglekit.separations")
        family_cls = separations.SeparationFamily
        from_masks = family_cls.__dict__["from_masks"].__func__
        self._set(family_cls, "from_masks", classmethod(
            lambda cls, *args: tracer.call("separations.from_masks", from_masks, cls, *args)
        ))

    def _set(self, owner, attr, value):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.restored = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            is original
            for owner, attr, original in self.saved
        )
        return False


def _self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_metrics(spans, traced_walls, untraced_walls) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, plus a detail table per span name.

    Counts are per traced pass; ``*_us`` are mean self times per call;
    ``*_share`` are self (``cli.share``: inclusive) time over traced pass
    wall time.  Set-up spans count only towards corpus and table metrics.
    """
    self_t = _self_times(spans)
    passes = len(traced_walls)
    wall = sum(traced_walls)
    by_name = defaultdict(list)  # span name -> span indices
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def in_pass(name):
        return [i for i in by_name.get(name, ()) if spans[i][4] != "setup"]

    def noted(name):  # calls that returned, so their note is filled
        return [i for i in in_pass(name) if spans[i][5] is not None]

    def self_sum(name):
        return sum(self_t[i] for i in in_pass(name))

    def mean_us(indices):
        return 1e6 * sum(self_t[i] for i in indices) / len(indices) if indices else 0.0

    def per_pass(count):
        return count / passes

    checks = noted("structures.check_structure")
    by_kind = defaultdict(list)
    for i in checks:
        by_kind[spans[i][5][0]].append(i)
    enum_ids = set(noted("search.enumerate_all"))
    leaves = [i for i in checks if spans[i][3] in enum_ids]
    nodes = sum(spans[i][5][0] for i in enum_ids)
    enum_self = self_sum("search.enumerate_all")
    widths = noted("duality.branch_width")
    saves, loads = noted("io.save"), noted("io.load_document")
    cli_ids = [i for name in by_name if name.startswith("cli.") for i in in_pass(name)]

    def mb_per_s(indices):
        seconds = sum(spans[i][2] - spans[i][1] for i in indices)
        return sum(spans[i][5] for i in indices) / 1e6 / seconds if seconds else 0.0

    metrics = {
        "corpus.build_s": statistics.median(
            spans[i][2] - spans[i][1] for i in by_name["corpus.build"]),
        "connectivity.table_build_us": mean_us(by_name["connectivity.table_build"]),
        "connectivity.table_builds": per_pass(len(in_pass("connectivity.table_build"))),
        "connectivity.build_system_calls": per_pass(len(in_pass("connectivity.build_system"))),
        "connectivity.build_system_share": self_sum("connectivity.build_system") / wall,
        "separations.efficient_masks_us": mean_us(in_pass("separations.efficient_masks")),
        "separations.efficient_masks_calls": per_pass(len(in_pass("separations.efficient_masks"))),
        "separations.from_masks_us": mean_us(in_pass("separations.from_masks")),
        "separations.from_masks_calls": per_pass(len(in_pass("separations.from_masks"))),
        "structures.check_us": mean_us(checks),
        "structures.check_us.ultrafilter": mean_us(by_kind["ultrafilter"]),
        "structures.self_s": per_pass(self_sum("structures.check_structure")),
        "search.nodes": per_pass(nodes),
        "search.leaves": per_pass(len(leaves)),
        "search.leaf_accept_ratio": (
            sum(spans[i][5][1] for i in leaves) / len(leaves) if leaves else 0.0),
        "search.enumerate_self_s": per_pass(enum_self),
        "search.nodes_per_s": nodes / enum_self if enum_self else 0.0,
        "search.hunt_self_share": self_sum("search.hunt") / wall,
        "duality.branch_width_calls": per_pass(len(widths)),
        "duality.branch_width_repeat_ratio": (
            per_pass(len(widths)) / len({spans[i][5][1] for i in widths}) if widths else 0.0),
        "duality.branch_width_share": self_sum("duality.branch_width") / wall,
        "duality.verify_self_share": (
            self_sum("duality.verify_theorem")
            + self_sum("duality.verify_branchwidth_duality")) / wall,
        "io.save_mb_per_s": mb_per_s(saves),
        "io.load_mb_per_s": mb_per_s(loads),
        "io.verdict_mb": max((spans[i][5] for i in saves), default=0) / 1e6,
        "io.docs_saved": per_pass(len(saves)),
        "cli.calls": per_pass(len(cli_ids)),
        "cli.share": sum(spans[i][2] - spans[i][1] for i in cli_ids) / wall,
        "trace.overhead_ratio": (
            statistics.median(traced_walls) / statistics.median(untraced_walls)),
    }
    for kind in ("weak_ultrafilter", "ultrafilter", "tangle"):
        metrics[f"structures.check_calls.{kind}"] = per_pass(len(by_kind[kind]))

    # finer figures for the result file; these have no calls on some workloads
    detail = {
        name: {
            "calls_per_pass": per_pass(len(in_pass(name))),
            "self_s_per_pass": per_pass(self_sum(name)),
            "mean_self_us": mean_us(in_pass(name)),
        }
        for name in sorted(by_name)
    }
    by_n = defaultdict(list)
    for i in widths:
        by_n[spans[i][5][0]].append(i)
    for n, indices in sorted(by_n.items()):
        detail[f"duality.branch_width_us.n{n}"] = mean_us(indices)
    for kind, indices in sorted(by_kind.items()):
        detail[f"structures.check_us.{kind}"] = mean_us(indices)
    for name in sorted(by_name):
        if name.startswith("cli."):
            calls = in_pass(name)
            detail[f"cli.call_ms.{name[4:]}"] = 1e3 * sum(
                spans[i][2] - spans[i][1] for i in calls) / len(calls)
    return metrics, detail
