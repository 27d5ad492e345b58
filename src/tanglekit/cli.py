"""Command-line surface: batch checks, searches, duality runs and hunts.

Exit codes follow one contract everywhere: 0 means every check passed or
the run completed, 1 means a check failed, a search was cut short, or a
hunter found a counterexample (the verdict is still written), and 2 means
the inputs were unusable.  System references are resolved as a builtin
corpus name first, then a filesystem path, then a name under
$TANGLEKIT_CORPUS_DIR.
"""

from __future__ import annotations

import os
from pathlib import Path

import click

from . import __version__, io
from .connectivity import check_int
from .corpus import BUILTIN_SYSTEMS, builtin_system
from .duality import THEOREMS, branch_width, verify_branchwidth_duality, verify_theorem
from .exceptions import ToolkitError
from .search import (
    STATUS_COMPLETE,
    HUNT_NONE_FOUND,
    PROBLEMS,
    HuntCorpus,
    SearchBudget,
    enumerate_all,
    hunt as run_hunt,
)
from .separations import SeparationFamily, make_separation, mask_elements
from .structures import VARIANTS, StructureKind, check_structure

_KIND_CHOICE = click.Choice([k.value for k in StructureKind])
_VARIANT_CHOICE = click.Choice(VARIANTS)
_THEOREM_LIST = ",".join(map(str, THEOREMS))
CORPUS_DIR_VAR = "TANGLEKIT_CORPUS_DIR"


def _resolve_system(ref: str):
    if ref in BUILTIN_SYSTEMS:
        return builtin_system(ref)
    path = Path(ref)
    if path.exists():
        return io.load_system(path)
    corpus_dir = os.environ.get(CORPUS_DIR_VAR)
    if corpus_dir:
        for candidate in (Path(corpus_dir) / ref, Path(corpus_dir) / f"{ref}.json"):
            if candidate.exists():
                return io.load_system(candidate)
    raise click.UsageError(
        f"--system: {ref!r} is not a builtin ({', '.join(sorted(BUILTIN_SYSTEMS))}), "
        f"an existing file, or a name under ${CORPUS_DIR_VAR}"
    )


def _finish(document, json_path, passed=True):
    """Write the document if asked, then exit 1 unless the run passed."""
    if json_path:
        io.save(document, json_path)
    if not passed:
        raise SystemExit(1)


class _Group(click.Group):
    """Turns what the library and the filesystem refuse into usage errors (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ToolkitError, ValueError, OSError) as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="tanglekit")
def main():
    """Tangles, ultrafilters and profiles over symmetric submodular orders."""


@main.command()
@click.option("--system", "system_ref", required=True, help="builtin name, file, or corpus name")
@click.option("--family", "family_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", required=True, type=_KIND_CHOICE)
@click.option("--k", "k_override", type=int, default=None, help="override the family file's k")
@click.option("--variant", type=_VARIANT_CHOICE, default="corrected", show_default=True)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def check(system_ref, family_path, kind, k_override, variant, json_path):
    """Check one family against one structure kind's axioms."""
    system = _resolve_system(system_ref)
    family = io.load_family(family_path, system)
    k = family.k if k_override is None else k_override
    if k != family.k:
        family = SeparationFamily.from_masks(system, k, family.member_masks)
    report = check_structure(system, k, family, StructureKind(kind), variant)
    click.echo(f"system {system.describe()}: kind {kind}, k={k}, variant {variant}")
    for r in report.results:
        line = f"  {r.axiom.value:<14} {'pass' if r.passed else 'FAIL'}"
        if not r.passed and r.witness:
            line += "  witness " + ", ".join(repr(make_separation(system, m)) for m in r.witness)
        if r.element is not None:
            line += f"  element {r.element}"
        click.echo(line)
    click.echo(f"result: {'PASS' if report.passed else 'FAIL'}")
    _finish(report, json_path, report.passed)


@main.command()
@click.option("--system", "system_ref", required=True)
@click.option("--kind", required=True, type=_KIND_CHOICE)
@click.option("--k", required=True, type=int)
@click.option("--limit", type=int, default=None, help="stop after this many families")
@click.option("--variant", type=_VARIANT_CHOICE, default="corrected", show_default=True)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def enumerate(system_ref, kind, k, limit, variant, json_path):
    """List every family of a kind at one k, by exhaustive search."""
    system = _resolve_system(system_ref)
    result = enumerate_all(StructureKind(kind), system, k, variant=variant, limit=limit)
    for family in result.families:
        click.echo(repr(family))
    click.echo(
        f"{len(result.families)} {kind} families on {system.describe()} "
        f"at k={k} ({result.status}, {result.nodes} nodes)"
    )
    _finish(list(result.families), json_path, result.status == STATUS_COMPLETE)


@main.command("branch-width")
@click.option("--system", "system_ref", required=True)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def branch_width_cmd(system_ref, json_path):
    """Exact branch-width with an optimal decomposition witness."""
    system = _resolve_system(system_ref)
    width, tree = branch_width(system)
    click.echo(f"branch-width of {system.describe()}: {width}")
    click.echo(f"tree: {tree.nested()}")
    labels = system.labels()
    for mask in tree.splits:
        side = [labels[e] for e in mask_elements(mask)]
        click.echo(f"  split {{{','.join(side)}}} order {system.evaluate(mask)}")
    _finish(tree, json_path)


@main.command()
@click.option("--system", "system_ref", required=True)
@click.option("--kmax", type=int, default=None, help="cap the k sweep")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def duality(system_ref, kmax, json_path):
    """Compare the tangle spectrum against the branch-width oracle."""
    system = _resolve_system(system_ref)
    report = verify_branchwidth_duality(system, kmax=kmax)
    click.echo(f"system {report.system}: branch-width {report.bw}, "
               f"max tangle order {report.max_tangle_order}")
    for k, exists, matches in report.per_k:
        note = "" if matches else "  <- disagrees with oracle"
        click.echo(f"  k={k}: tangle {'exists' if exists else 'absent'}{note}")
    if report.degenerate:
        click.echo("note: ground set of size <= 2; no convention asserted")
    click.echo(f"agrees: {'yes' if report.agrees else 'no'}")
    _finish(report, json_path, report.agrees or report.degenerate)


@main.command("verify-theorems")
@click.option("--system", "system_ref", required=True)
@click.option("--theorems", default=_THEOREM_LIST, show_default=True,
              help=f"comma-separated subset of {_THEOREM_LIST}")
@click.option("--k", required=True, type=int)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def verify_theorems(system_ref, theorems, k, json_path):
    """Exhaustively verify the translation theorems at one k."""
    try:
        wanted = [int(t) for t in theorems.split(",") if t.strip()]
    except ValueError:
        raise click.UsageError(f"--theorems: cannot parse {theorems!r}")
    bad = [t for t in wanted if t not in THEOREMS]
    if bad or not wanted:
        raise click.UsageError(f"--theorems must name theorems among {_THEOREM_LIST}")
    system = _resolve_system(system_ref)
    verdicts = [verify_theorem(t, system, k) for t in wanted]
    for v in verdicts:
        counts = ", ".join(f"{kind}={count}" for kind, count in v.counts.items())
        click.echo(f"theorem {v.theorem} on {v.system} at k={v.k}: "
                   f"{'PASS' if v.passed else 'FAIL'} ({counts})")
        for kind, family in v.unmatched:
            click.echo(f"  unmatched {kind}: {family!r}")
    _finish(verdicts, json_path, all(v.passed for v in verdicts))


@main.command()
@click.option("--problem", required=True, type=click.Choice([str(p) for p in PROBLEMS]))
@click.option("--n", "size", required=True, type=int, help="ground-set size per system")
@click.option("--systems", "count", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--kmax", type=int, default=None)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
def hunt(problem, size, count, seed, kmax, json_path):
    """Hunt a seeded random corpus for open-question counterexamples."""
    check_int(count, "--systems", 1)
    corpus = HuntCorpus(sizes=(size,) * count, base_seed=seed, kmax=kmax)
    verdict = run_hunt(int(problem), corpus, SearchBudget())
    click.echo(
        f"problem {verdict.problem}: {verdict.status} "
        f"({verdict.systems_examined} systems, "
        f"{verdict.structures_examined} structures)"
    )
    for ce in verdict.counterexamples:
        click.echo(f"  {ce.system.describe()} k={ce.k}: {ce.claim} "
                   f"({ce.failing_axiom.value} fails on {ce.family!r})")
    _finish(verdict, json_path, verdict.status == HUNT_NONE_FOUND)
