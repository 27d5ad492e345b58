"""The two benchmark workloads, their set-up and their correctness gate.

Every workload runs in this process on the public tanglekit API.  A pass is
one complete unit of user work; the runner repeats passes for the run
length.  Each API call goes through ``ctx.call(span_name, fn, *args)``,
which records a span in the traced run and is a plain call otherwise.

Inputs come from the seed.  At ``DEFAULT_SEED`` the corpus is exactly
``standard_corpus()``; at any other seed its twenty hyperedge members are
relabelled by seeded permutations of their ground sets.  Relabelling gives
isomorphic systems, so every seed does the same amount of work and the
pinned counts below hold at every seed; only the verdict's SHA-256 is
pinned at ``DEFAULT_SEED`` alone.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from click.testing import CliRunner

DEFAULT_SEED = 0
SETUP_REPS = 30

# Outputs of the seed code.  Relabelling keeps every count, so all but the
# SHA-256 hold at every seed.  Theorem 12 failing at 35 points is the
# documented criterion-2 finding, expected output and not a failure.
PINS = {
    "hunt_status": "counterexample_found",
    "hunt_structures": 23393,
    "hunt_counterexamples": 23300,
    "hunt_sha256": "ecc3b4f521c5a719ee744713ee296efac79958e3530a816d4c14e3f8d3141342",
    "theorem_points": 133,
    "theorem12_failures": 35,
    "duality_systems": 28,
    "widths": {"p3": 1, "c4": 2, "k4": 3},
}

HUNT_STATUSES = ("no_counterexample_found", "counterexample_found")


class Gate:
    """Counts operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok


@dataclass
class Ctx:
    workload: str
    tk: object
    cli: object
    systems: list
    seed: int
    gate: Gate
    call: object
    work: Path
    saved: list = field(default_factory=list)  # (object, file name, sha256)
    digest: object = None


def _fresh_import():
    """Import the package and its CLI, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "tanglekit" or m.startswith("tanglekit.")]:
        del sys.modules[name]
    tk = importlib.import_module("tanglekit")
    return tk, importlib.import_module("tanglekit.cli")


def relabel(tk, system, seed):
    """An isomorphic copy of a hyperedge system: element v becomes perm[v].

    The permutation is drawn from ``seed``; the name is kept.
    """
    perm = list(range(system.n))
    random.Random(seed).shuffle(perm)
    hyperedges = [tuple(sorted(perm[v] for v in h)) for h in system.hyperedges]
    return tk.hyperedge_system(system.n, hyperedges, name=system.name)


def relabelled_corpus(tk, seed):
    """standard_corpus() with its hyperedge members relabelled from ``seed``.

    The member at corpus index i uses permutation seed 1000 * seed + i.  The
    eight named and min-cardinality systems are symmetric or run through the
    CLI by name, so they stay as they are.
    """
    systems = tk.standard_corpus()
    for i, system in enumerate(systems):
        if system.kind == "hyperedge_boundary":
            systems[i] = relabel(tk, system, 1000 * seed + i)
    return systems


def corpus_for(tk, seed):
    return tk.standard_corpus() if seed == DEFAULT_SEED else relabelled_corpus(tk, seed)


def setup(seed, call):
    """Import, build the inputs and their value tables; median of SETUP_REPS.

    The first repetition also pays for importing numpy and click; later ones
    re-import only tanglekit, so the median is the program's own set-up.
    """
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        tk, cli = _fresh_import()
        systems = call("corpus.build", corpus_for, tk, seed)
        for system in systems:
            call("connectivity.table_build", system.table)
        times.append(perf_counter() - start)
    return tk, cli, systems, statistics.median(times)


def _save(ctx, obj, name):
    """Save one document; returns its path, its bytes and the save's seconds."""
    path = ctx.work / name
    start = perf_counter()
    ctx.call("io.save", ctx.tk.save, obj, path)
    seconds = perf_counter() - start
    data = path.read_bytes()
    ctx.digest.update(data)
    ctx.saved.append((obj, name, hashlib.sha256(data).hexdigest()))
    return path, data, seconds


def _roundtrip(ctx, obj, name):
    """Save as its own document, load it back strictly, compare."""
    path, _, _ = _save(ctx, obj, name)
    loaded = ctx.call("io.load_document", ctx.tk.load_document, path)
    ctx.gate.check(loaded == ctx.tk.to_document(obj), f"round trip of {name}")


# ---------------------------------------------------------------------------
# hunt-roundtrip


def hunt_pass(ctx) -> dict:
    """`tanglekit hunt --problem 9 --json` on the corpus, then re-verification."""
    tk, gate, call = ctx.tk, ctx.gate, ctx.call
    t0 = perf_counter()
    verdict = call("search.hunt", tk.hunt, 9, tk.NamedCorpus(tuple(ctx.systems)))
    t1 = perf_counter()
    path, data, save_s = _save(ctx, verdict, "verdict.json")
    t2 = perf_counter()
    doc = call("io.load_document", tk.load_document, path)
    ultrafilter = tk.StructureKind.ULTRAFILTER
    for i, ce in enumerate(doc["counterexamples"]):
        system = call("connectivity.build_system", tk.build_system, ce["system"])
        masks = [sum(1 << e for e in side) for side in ce["sides"]]
        family = tk.SeparationFamily.from_masks(system, ce["k"], masks)
        report = call("structures.check_structure", tk.check_structure,
                      system, ce["k"], family, ultrafilter)
        failing = report.result(tk.AxiomId(ce["failing_axiom"]))
        gate.check(
            ce["claim"] == "weak_ultrafilter_triple_intersection"
            and not report.passed and not failing.passed,
            f"counterexample {i} re-checks",
        )
    t3 = perf_counter()

    gate.check(verdict.status in HUNT_STATUSES, f"hunt status {verdict.status}")
    gate.check(verdict.structures_examined > 0, "hunt examined structures")
    gate.check(
        len(doc["counterexamples"]) == len(verdict.counterexamples)
        and doc["structures_examined"] == verdict.structures_examined,
        "loaded verdict matches the hunt",
    )
    gate.check(verdict.status == PINS["hunt_status"], "pinned hunt status")
    gate.check(verdict.structures_examined == PINS["hunt_structures"],
               f"pinned structures ({verdict.structures_examined})")
    gate.check(len(verdict.counterexamples) == PINS["hunt_counterexamples"],
               f"pinned counterexamples ({len(verdict.counterexamples)})")
    if ctx.seed == DEFAULT_SEED:
        gate.check(hashlib.sha256(data).hexdigest() == PINS["hunt_sha256"],
                   "pinned verdict SHA-256")
    return {
        "hunt_s": t1 - t0,
        "hunt_to_file_s": t1 - t0 + save_s,
        "verdict_recheck_s": t3 - t2,
        "structures": verdict.structures_examined,
    }


# ---------------------------------------------------------------------------
# theorem-sweep


class _Cli:
    """In-process `tanglekit` invocations through tanglekit.cli.main."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.runner = CliRunner()
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, expect, *args):
        """Run one subcommand; ``expect`` is the exit code or a function of the result."""
        ctx = self.ctx
        start = perf_counter()
        result = ctx.call(f"cli.{args[0]}", self.runner.invoke, ctx.cli.main, list(args))
        self.seconds += perf_counter() - start
        self.calls += 1
        clean = result.exception is None or isinstance(result.exception, SystemExit)
        wanted = expect(result) if callable(expect) else expect
        ctx.gate.check(clean and result.exit_code == wanted,
                       f"tanglekit {' '.join(args)} exited {result.exit_code}, wanted {wanted}")


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def theorem_pass(ctx) -> dict:
    """Theorems 11/12/15/16 at every point, duality on every system, CLI on builtins."""
    tk, gate, call = ctx.tk, ctx.gate, ctx.call
    verify_s = 0.0
    points = 0
    theorem12_failures = 0
    at_k = {}  # (builtin name, k) -> verdicts
    for index, system in enumerate(ctx.systems):
        for k in range(system.max_order() + 1):
            for theorem in (11, 12, 15, 16):
                start = perf_counter()
                verdict = call("duality.verify_theorem", tk.verify_theorem, theorem, system, k)
                verify_s += perf_counter() - start
                points += 1
                if theorem == 12:
                    theorem12_failures += not verdict.passed
                else:
                    gate.check(verdict.passed, f"theorem {theorem} on {system.describe()} k={k}")
                at_k.setdefault((system.describe(), k), []).append(verdict)
                _roundtrip(ctx, verdict, f"theorem{theorem}-{index}-{k}.json")

    reports = {}
    for index, system in enumerate(ctx.systems):
        report = call("duality.verify_branchwidth_duality", tk.verify_branchwidth_duality, system)
        reports[system.describe()] = report
        gate.check(report.agrees, f"duality on {system.describe()}")
        _roundtrip(ctx, report, f"duality-{index}.json")
    for name, width in PINS["widths"].items():
        gate.check(reports[name].bw == width, f"pinned width of {name}")
    gate.check(points == 4 * PINS["theorem_points"], f"pinned points ({points // 4})")
    gate.check(theorem12_failures == PINS["theorem12_failures"],
               f"pinned theorem 12 failures ({theorem12_failures})")
    gate.check(len(reports) == PINS["duality_systems"], "pinned duality systems")

    cli = _Cli(ctx)
    work = ctx.work
    for system in ctx.systems[:4]:
        name = system.describe()
        out = str(work / f"cli-{name}.json")
        cli(0, "branch-width", "--system", name, "--json", out)
        gate.check(_read_json(out)["width"] == reports[name].bw, f"cli width of {name}")

        report = reports[name]
        cli(0 if report.agrees or report.degenerate else 1,
            "duality", "--system", name, "--json", out)
        gate.check(_read_json(out) == tk.to_document(report), f"cli duality of {name}")

        verdicts = at_k[(name, 0)]
        cli(0 if all(v.passed for v in verdicts) else 1,
            "verify-theorems", "--system", name, "--k", "0", "--json", out)
        gate.check(_read_json(out) == [tk.to_document(v) for v in verdicts],
                   f"cli verify-theorems of {name}")

        cli(0, "enumerate", "--system", name, "--kind", "tangle", "--k", "1", "--json", out)
        families = _read_json(out)
        gate.check(len(families) == at_k[(name, 1)][0].counts["tangle"],
                   f"cli enumerate of {name}")
        if families:
            family_path = work / f"cli-{name}-family.json"
            family_path.write_text(json.dumps(families[0], indent=2) + "\n", encoding="utf-8")
            cli(0, "check", "--system", name, "--family", str(family_path), "--kind", "tangle")
            family = tk.SeparationFamily.from_masks(
                system, 1, [sum(1 << e for e in side) for side in families[0]["sides"]])
            as_ultrafilter = call("structures.check_structure", tk.check_structure,
                                  system, 1, family, tk.StructureKind.ULTRAFILTER)
            cli(0 if as_ultrafilter.passed else 1, "check", "--system", name,
                "--family", str(family_path), "--kind", "ultrafilter")

    for problem in ("9", "10"):
        out = work / f"cli-hunt{problem}.json"

        def hunt_exit(result, out=out):
            status = _read_json(out)["status"]
            gate.check(status in HUNT_STATUSES, f"cli hunt {problem} status {status}")
            return 0 if status == "no_counterexample_found" else 1

        cli(hunt_exit, "hunt", "--problem", problem, "--n", "3", "--systems", "2",
            "--seed", str(ctx.seed), "--json", str(out))
        ctx.digest.update(out.read_bytes())
    cli(2, "enumerate", "--system", "c4", "--kind", "tangle", "--k", "-1")
    cli(2, "verify-theorems", "--system", "c4", "--k", "0", "--theorems", "13")
    cli(2, "branch-width", "--system", "no-such-system")
    return {
        "theorem_points": points,
        "verify_s": verify_s,
        "cli_calls": cli.calls,
        "cli_s": cli.seconds,
    }


PASSES = {
    "hunt-roundtrip": hunt_pass,
    "theorem-sweep": theorem_pass,
}


def summarize(workload, stages) -> dict:
    """Workload-specific user-facing figures as (value, unit), medians over passes."""
    def med(key):
        return statistics.median(s[key] for s in stages)

    def rate(count, seconds):
        return statistics.median(s[count] / s[seconds] for s in stages)

    if workload == "hunt-roundtrip":
        return {
            "hunt_structures_per_s": (rate("structures", "hunt_s"), "1/s"),
            "hunt_to_file_s": (med("hunt_to_file_s"), "s"),
            "verdict_recheck_s": (med("verdict_recheck_s"), "s"),
        }
    return {
        "theorem_points_per_s": (rate("theorem_points", "verify_s"), "1/s"),
        "cli_calls_per_s": (rate("cli_calls", "cli_s"), "1/s"),
    }
