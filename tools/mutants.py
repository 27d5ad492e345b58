"""Apply named source edits one at a time and check that the tests catch each.

Each mutant is one exact text replacement in one file under ``src/`` plus the
pytest selection expected to fail on it.  The script copies ``src/`` and
``tests/`` of this checkout into a temporary directory, first runs every
selection on the unedited copy (a selection that already fails there proves
nothing), then applies each edit to a fresh copy and runs its selection.
A failing selection kills the mutant; a passing one lets it survive, which
is a test gap to close with a test or to record here as an equivalent edit.
The working tree is never written to.

    python tools/mutants.py > mutants.json

The exit code is 0 when every mutant is killed, 1 when one survives, and 2
when an edit no longer applies, a selection fails on the unedited copy or
pytest ends a run with an error other than a failing test.
Hypothesis runs with a fixed seed, so results repeat, and with the
``no-shrink`` profile of ``tests/conftest.py``, so a failing example kills
its mutant without first being shrunk.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STRUCTURES = "src/tanglekit/structures.py"
IO = "src/tanglekit/io.py"
SEARCH = "src/tanglekit/search.py"
CONNECTIVITY = "src/tanglekit/connectivity.py"
SEPARATIONS = "src/tanglekit/separations.py"
DUALITY = "src/tanglekit/duality.py"
CLI = "src/tanglekit/cli.py"
KERNEL_TESTS = (
    "tests/test_structures.py::TestKernelMatchesScans",
    "tests/test_structures.py::TestPinnedResults",
    "tests/test_structures.py::TestSingleAxioms",
)
WRITER_TESTS = ("tests/test_io.py::TestByteFormat", "tests/test_io.py::TestWriter")
STREAM_TESTS = ("tests/test_io.py::TestStreamedSave",)
LOAD_TESTS = ("tests/test_io.py::TestStreamedLoad",)
INTEGER_TESTS = ("tests/test_integer_inputs.py",)
# the rules' soundness mutants drop valid families, which the leaf re-check
# cannot see; the oracle sweeps and the corpus family pin must.  The node-count
# pin is left out, so an edit that only weakens pruning survives
RULE_TESTS = tuple(
    f"tests/test_search.py::TestEnumerateAll::{test}"
    for test in (
        "test_matches_oracle_sweep",
        "test_pruning_changes_nothing",
        "test_corpus_families_match_the_pin",
    )
)
# the scan checkers: the oracle sweeps, the 25,400-result pin and the
# single-axiom cases
CHECKER_TESTS = (
    "tests/test_structures.py::TestOracleSweeps",
    "tests/test_structures.py::TestPinnedResults",
    "tests/test_structures.py::TestSingleAxioms",
)
SHARED_BUILD_TESTS = ("tests/test_connectivity.py::TestSharedBuilds",)
NO_ALIASING_TESTS = ("tests/test_io.py::TestNoAliasing",)
TO_DOCUMENT_TESTS = ("tests/test_io.py::TestToDocument",)
UNREADABLE_TESTS = ("tests/test_io.py::TestUnreadableValues",)
HUNT_DOCUMENT_TESTS = ("tests/test_io.py::TestHuntDocuments",)
HUNT_TESTS = ("tests/test_search.py::TestHunt",)
WALK_TESTS = ("tests/test_search.py::TestWalkReuse",)
RENDER_TESTS = ("tests/test_io.py::TestStreamedSave::test_each_shared_descriptor_is_rendered_once",)
RELABEL_TESTS = ("tests/test_relabelling.py",)
# the tree enumeration, the witness pin and the frozen widths
BRANCH_WIDTH_TESTS = ("tests/test_duality.py::TestCubicTrees", "tests/test_duality.py::TestBranchWidth")
DUAL_TESTS = ("tests/test_duality.py::TestDualFamily",)
# the one checker of both verification modes; the pin runs first, as a
# hypothesis test that fails spends minutes shrinking its example
VERIFY_TESTS = (
    "tests/test_connectivity.py::TestVerificationPin",
    "tests/test_connectivity.py::TestVerifier",
    "tests/test_connectivity.py::TestExhaustiveVerifier",
    "tests/test_connectivity.py::TestSampledVerifier",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "up-shift-direction", STRUCTURES,
        "bits |= (bits & ~block) << step",
        "bits |= (bits & ~block) >> step",
        KERNEL_TESTS,
    ),
    Mutant(
        "down-shift-direction", STRUCTURES,
        "bits |= (bits & block) >> step",
        "bits |= (bits & block) << step",
        KERNEL_TESTS,
    ),
    Mutant(
        "f4-without-reversal", STRUCTURES,
        "below, above = (_up, _down) if reverse else (_down, _up)",
        "below, above = (_down, _up)",
        KERNEL_TESTS,
    ),
    Mutant(
        "highest-instead-of-lowest-bit", STRUCTURES,
        "return (bits & -bits).bit_length() - 1",
        "return bits.bit_length() - 1",
        KERNEL_TESTS,
    ),
    Mutant(
        "orientation-without-lower-half", STRUCTURES,
        "unoriented = ctx.eff.bits & lower & ~(ctx.bits | ctx.reversed_bits)",
        "unoriented = ctx.eff.bits & ~(ctx.bits | ctx.reversed_bits)",
        KERNEL_TESTS,
    ),
    Mutant(
        "wf5-without-empty-side-order", STRUCTURES,
        "apart = ctx.within(0) and ctx.bits",
        "apart = ctx.bits",
        KERNEL_TESTS,
    ),
    # the relabelling tests alone: reversal that leaves the top element where it is
    Mutant(
        "reverse-skips-the-top-element", STRUCTURES,
        "for step, block in _containing(n):\n        bits = (bits & block)",
        "for step, block in _containing(n)[:-1]:\n        bits = (bits & block)",
        RELABEL_TESTS,
    ),
    Mutant(
        "reverse-skips-element-zero", STRUCTURES,
        "for step, block in _containing(n):\n        bits = (bits & block)",
        "for step, block in _containing(n)[1:]:\n        bits = (bits & block)",
        KERNEL_TESTS,
    ),
    Mutant(
        "p0-per-member-below-the-cap", STRUCTURES,
        "if ctx.n <= ENUMERATION_LIMIT:\n        high",
        "if False:\n        high",
        ("tests/test_structures.py::TestKernelReadsNoScalarOrder",),
    ),
    Mutant(
        "hunt-over-no-systems", SEARCH,
        '    if not systems:\n        raise ValueError("the corpus holds no systems")\n',
        "",
        HUNT_TESTS,
    ),
    # (emptyset, X) turned round: a leaf that fails F2, so no weak ultrafilter,
    # and fails F6 at (emptyset, emptyset, emptyset); its witness is F6's own
    Mutant(
        "problem-9-reports-a-leaf-that-is-no-weak-ultrafilter", SEARCH,
        "                        f6 = report.result(AxiomId.F6)\n",
        "                        fam = SeparationFamily(system, k, (\n"
        "                            0, *sorted(set(fam.member_masks) - {system.full_mask})\n"
        "                        ))\n"
        "                        f6 = check_structure(system, k, fam, StructureKind.ULTRAFILTER)"
        ".result(AxiomId.F6)\n",
        ("tests/test_acceptance.py::test_criterion_09_hunters",),
    ),
    Mutant(
        "hunt-decides-f6-again", SEARCH,
        "f6 = report.result(AxiomId.F6)",
        "f6 = check_structure(system, k, fam, StructureKind.ULTRAFILTER)"
        ".result(AxiomId.F6)",
        ("tests/test_search.py::TestHunt",),
    ),
    Mutant(
        "order-read-through-evaluate-below-the-cap", STRUCTURES,
        "if self.n <= ENUMERATION_LIMIT:\n            return mask in",
        "if False:\n            return mask in",
        ("tests/test_structures.py::TestKernelReadsNoScalarOrder",),
    ),
    Mutant(
        "cover-skips-a-repeated-third-member", STRUCTURES,
        "for l in range(j, len(ms)):",
        "for l in range(j + 1, len(ms)):",
        CHECKER_TESTS,
    ),
    Mutant(
        "join-check-takes-the-meet", STRUCTURES,
        "join = (a1 | ms[j]) ^ flip",
        "join = (a1 & ms[j]) ^ flip",
        CHECKER_TESTS,
    ),
    Mutant(
        "sf5-adds-the-element", STRUCTURES,
        "shrunk = a & ~(1 << e)",
        "shrunk = a | (1 << e)",
        CHECKER_TESTS,
    ),
    Mutant(
        "meet-ban-takes-the-join", STRUCTURES,
        "banned = a1 & a2",
        "banned = a1 | a2",
        CHECKER_TESTS,
    ),
    Mutant(
        "deletion-ban-without-reversal", STRUCTURES,
        "banned = (a ^ flip) & ~(1 << e)",
        "banned = a & ~(1 << e)",
        CHECKER_TESTS,
    ),
    Mutant(
        "lt3-without-the-element", STRUCTURES,
        "if a12 | bit == ctx.full:",
        "if a12 == ctx.full:",
        CHECKER_TESTS,
    ),
    Mutant(
        "fb2-lower-bound-above-the-meet", STRUCTURES,
        "a3 & ~meet == 0",
        "meet & ~a3 == 0",
        CHECKER_TESTS,
    ),
    Mutant(
        "int-list-separator-without-comma", IO,
        '("," + inner).join(map(int.__repr__, key))',
        "inner.join(map(int.__repr__, key))",
        WRITER_TESTS,
    ),
    Mutant(
        "int-list-memo-without-indent", IO,
        "memo = defaultdict(dict)",
        "memo = defaultdict((lambda shared: lambda: shared)({}))",
        WRITER_TESTS,
    ),
    Mutant(
        "bool-test-after-int-test", IO,
        "        if kind is int:\n            return int.__repr__(value)\n",
        "        if isinstance(value, int):\n            return int.__repr__(value)\n",
        WRITER_TESTS,
    ),
    Mutant(
        "fallback-not-indented", IO,
        'ensure_ascii=False).replace("\\n", nl)',
        "ensure_ascii=False)",
        WRITER_TESTS,
    ),
    Mutant(
        "emitter-refuses-a-key-that-is-no-str", IO,
        "except TypeError:  # a key that is no str",
        "except ValueError:  # a key that is no str",
        WRITER_TESTS,
    ),
    Mutant(
        "int-list-fast-path-accepts-bool", IO,
        "_INTS = frozenset({int})",
        "_INTS = frozenset({int, bool})",
        WRITER_TESTS,
    ),
    Mutant(
        "save-opens-before-the-corpus-check", IO,
        "        doc = _encodable(_documents(document))\n"
        '        with Path(path).open("w", encoding="utf-8") as file:\n',
        "        doc = _documents(document)\n"
        '        with Path(path).open("w", encoding="utf-8") as file:\n'
        "            _encodable(doc)\n",
        STREAM_TESTS,
    ),
    Mutant(
        "corpus-trial-walks-the-corpus-as-a-document", IO,
        '_emitter()(d["corpus"], "\\n").encode()',
        '_write(d["corpus"], str.encode)',
        STREAM_TESTS,
    ),
    Mutant(
        "streamed-sink-writes-the-whole-text", IO,
        '_write(doc, file.write)\n            file.write("\\n")',
        'pieces = []\n            _write(doc, pieces.append)\n'
        '            file.write("".join(pieces) + "\\n")',
        STREAM_TESTS,
    ),
    Mutant(
        "to-document-returns-the-shared-tree", IO,
        "        return _copied(_encodable(_built_document(obj)))\n",
        "        return _encodable(_built_document(obj))\n",
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "load-memo-shared-across-loads", IO,
        "token = _MEMO.set(_Memo(parsed))",
        'token = _MEMO.set(_building.__dict__.setdefault("memo", _Memo(parsed)))',
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "build-memo-not-reset", IO,
        "        _MEMO.reset(token)\n",
        "        pass\n",
        TO_DOCUMENT_TESTS,
    ),
    Mutant(
        "to-document-copies-dicts-one-level-deep", IO,
        "        return {k: v if type(v) in _ATOMS else _copied(v) for k, v in value.items()}\n",
        "        return dict(value)\n",
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "to-document-skips-the-corpus-trial", IO,
        "return _copied(_encodable(_built_document(obj)))",
        "return _copied(_built_document(obj))",
        TO_DOCUMENT_TESTS,
    ),
    Mutant(
        "corpus-copy-shares-nested-values", IO,
        "    return copy.deepcopy(value)\n",
        "    return value\n",
        TO_DOCUMENT_TESTS,
    ),
    Mutant(
        "load-memo-key-drops-an-element", IO,
        "_MEMO.get().sides.setdefault(tuple(value), value)",
        "_MEMO.get().sides.setdefault(tuple(value[:-1]), value)",
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "descriptors-shared-by-kind-and-n", IO,
        "memo.systems[text] = out, _built(out, where)",
        "memo.systems[text] = memo.systems.setdefault(\n"
        '                (out["kind"], out.get("n")), (out, _built(out, where)))',
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "to-document-shares-sides-as-save-does", IO,
        "        return [v if type(v) in _ATOMS else _copied(v) for v in value]\n",
        "        return value if all(type(v) is int for v in value) else [*map(_copied, value)]\n",
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "save-skips-checking-an-object-descriptor", IO,
        "out = _system(system_descriptor(system), where, nested=True)",
        "out = system_descriptor(system)",
        STREAM_TESTS,
    ),
    Mutant(
        "save-skips-checking-an-object-name", IO,
        '_str(obj.system, "system"), obj.k,',
        "obj.system, obj.k,",
        STREAM_TESTS,
    ),
    Mutant(
        "loader-str-accepts-what-utf8-cannot-encode", IO,
        "    if not value.isascii():\n",
        "    if False:\n",
        ("tests/test_io.py::TestSystemDocuments", "tests/test_io.py::TestStreamedSave"),
    ),
    Mutant(
        "save-skips-encoding-the-corpus", IO,
        '_emitter()(d["corpus"], "\\n").encode()',
        '_emitter()(d["corpus"], "\\n")',
        STREAM_TESTS,
    ),
    Mutant(
        "failing-array-not-checked-again-with-paths", IO,
        "            if where is None:\n                raise\n",
        "            raise\n",
        ("tests/test_io.py::TestFamilyDocuments",),
    ),
    Mutant(
        "memo-kept-after-a-failed-call", IO,
        "    finally:\n        _MEMO.reset(token)\n",
        "    else:\n        _MEMO.reset(token)\n",
        TO_DOCUMENT_TESTS,
    ),
    Mutant(
        "side-accepts-equal-neighbours", IO,
        "if type(e) is not int or e <= last:",
        "if type(e) is not int or e < last:",
        ("tests/test_io.py::TestFamilyDocuments",),
    ),
    Mutant(
        "closure-below-takes-element-zero", SEARCH,
        "outside = ~(m ^ flip)",
        "outside = ~(m ^ flip) & ~1",
        RULE_TESTS,
    ),
    Mutant(
        "pair-closure-without-reading-back", SEARCH,
        "join = (read | (x ^ flip)) ^ flip",
        "join = read | (x ^ flip)",
        RULE_TESTS,
    ),
    Mutant(
        "sf5-closure-drops-element-zero-too", SEARCH,
        "shrunk = m & ~bit",
        "shrunk = m & ~(bit | 1)",
        RULE_TESTS,
    ),
    Mutant(
        "cover-conflict-counts-element-zero", SEARCH,
        "if any(mx | y == full for y in both[i:]):",
        "if any(mx | y | 1 == full for y in both[i:]):",
        RULE_TESTS,
    ),
    Mutant(
        "line-conflict-without-efficient-element", SEARCH,
        "if (rest == 0 and self.eff_bits) or rest in self.eff_bits:",
        "if rest == 0 or rest in self.eff_bits:",
        RULE_TESTS,
    ),
    Mutant(
        "p3a-ban-reads-one-member-unreversed", SEARCH,
        "if (x ^ flip) & (y ^ flip) in members:",
        "if (x ^ flip) & y in members:",
        RULE_TESTS,
    ),
    Mutant(
        "sp3-ban-over-every-element", SEARCH,
        "                for bit in self.eff_bits:\n                    if (a",
        "                for bit in (1 << e for e in range(self.full.bit_length())):\n"
        "                    if (a",
        RULE_TESTS,
    ),
    Mutant(
        "f3-forces-singletons-in", SEARCH,
        "out += [self.full ^ bit for bit in self.eff_bits]  # F3",
        "out += self.eff_bits  # F3",
        RULE_TESTS,
    ),
    Mutant(
        "f6-entry-without-reversal", STRUCTURES,
        "AxiomId.F6: partial(_check_cover, True),",
        "AxiomId.F6: partial(_check_cover, False),",
        CHECKER_TESTS,
    ),
    Mutant(
        "kind-row-drops-its-informational-entry", STRUCTURES,
        'StructureKind.TANGLE: ("T1 T2 T3", "T4"),',
        'StructureKind.TANGLE: ("T1 T2 T3", ""),',
        ("tests/test_structures.py::TestCheckStructure::test_minimal_tangle",),
    ),
    # every entry point builds its context first, so the one guard serves all
    Mutant(
        "context-admits-another-systems-family", STRUCTURES,
        '        if family.system is not system:\n'
        '            raise ValueError("family belongs to a different system")\n',
        "",
        ("tests/test_structures.py::TestSingleAxioms::test_input_validation",),
    ),
    Mutant(
        "run-sorts-the-witness", STRUCTURES,
        "return AxiomResult(axiom, False, masks, element)",
        "return AxiomResult(axiom, False, tuple(sorted(masks)), element)",
        CHECKER_TESTS,
    ),
    Mutant(
        "counterexample-witness-from-family-sides", IO,
        "_listed(c.witness))",
        "_listed(c.family.member_masks))",
        ("tests/test_io.py::TestHuntDocuments",),
    ),
    Mutant(
        "check-int-accepts-bools", CONNECTIVITY,
        "if not isinstance(value, int) or isinstance(value, bool) or value < minimum:",
        "if not isinstance(value, int) or value < minimum:",
        INTEGER_TESTS,
    ),
    Mutant(
        "shared-build-key-without-name", CONNECTIVITY,
        "key = (name, json.dumps(descriptor))",
        "key = (None, json.dumps(descriptor))",
        SHARED_BUILD_TESTS,
    ),
    Mutant(
        "shared-build-key-from-field-names", CONNECTIVITY,
        "key = (name, json.dumps(descriptor))",
        "key = (name, str(sorted(descriptor)))",
        SHARED_BUILD_TESTS,
    ),
    Mutant(
        "shared-builds-held-strongly", CONNECTIVITY,
        "_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()",
        "_LIVE: weakref.WeakValueDictionary = {}",
        SHARED_BUILD_TESTS,
    ),
    Mutant(
        "evaluate-accepts-non-integers", CONNECTIVITY,
        "        if type(mask) is not int:",
        "        if False:",
        INTEGER_TESTS,
    ),
    Mutant(
        "evaluate-many-truncates-floats", CONNECTIVITY,
        'if masks.dtype.kind not in "iu":',
        "if False:",
        INTEGER_TESTS,
    ),
    # exhaustive pairs b-major: the pair inequalities are symmetric in a and
    # b, so only the order of a witness pair changes
    Mutant(
        "every-pair-b-major", CONNECTIVITY,
        "        a = b[start:start + rows, None]\n"
        "        yield a, b, (t[a], t, t[a ^ full], t.take(a & b), t.take(a | b),\n"
        "                     t.take(a & ~b), t.take(b & ~a), t[0])\n",
        "        a, col = b[None, start:start + rows], b[:, None]\n"
        "        yield a, col, (t[a], t[col], t[a ^ full], t.take(a & col), t.take(a | col),\n"
        "                       t.take(a & ~col), t.take(col & ~a), t[0])\n",
        VERIFY_TESTS,
    ),
    Mutant(
        "verify-keeps-the-last-witness", CONNECTIVITY,
        "if witnesses[name] is None and bad.any():",
        "if bad.any():",
        VERIFY_TESTS,
    ),
    Mutant(
        "failed-exhaustive-marks-verified", CONNECTIVITY,
        "        if report.passed:\n            system.verified = True\n",
        "        system.verified = True\n",
        VERIFY_TESTS,
    ),
    Mutant(
        "from-masks-accepts-non-integers", SEPARATIONS,
        "if type(m) is not int:",
        "if False:",
        INTEGER_TESTS,
    ),
    Mutant(
        "loader-int-accepts-bools", IO,
        "if isinstance(value, bool) or not isinstance(value, int):\n"
        '        raise SchemaError(f"{where} must be an integer")',
        "if not isinstance(value, int):\n"
        '        raise SchemaError(f"{where} must be an integer")',
        ("tests/test_io.py::TestFamilyDocuments",),
    ),
    Mutant(
        "loader-nat-without-minimum", IO,
        "return _int(value, where, 0)",
        "return _int(value, where)",
        ("tests/test_io.py::TestVerdictDocuments", "tests/test_io.py::TestHuntDocuments"),
    ),
    Mutant(
        "one-of-without-base", IO,
        "constant = constants.get(base(value, where))",
        "constant = constants.get(value)",
        ("tests/test_io.py::TestVerdictDocuments",),
    ),
    Mutant(
        "loader-accepts-unknown-fields", IO,
        "    if unknown:\n",
        "    if False:\n",
        ("tests/test_io.py::TestSystemDocuments",),
    ),
    Mutant(
        "loader-accepts-duplicate-keys", IO,
        "_SCAN = json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys).scan_once",
        "_SCAN = json.JSONDecoder().scan_once",
        ("tests/test_io.py::TestStrictIngest",),
    ),
    Mutant(
        "loader-accepts-duplicate-top-level-keys", IO,
        "return _reject_duplicate_keys(pairs), done",
        "return dict(pairs), done",
        ("tests/test_io.py::TestStrictIngest",),
    ),
    Mutant(
        "refill-drops-the-carried-over-tail", IO,
        "self.text[self.at:] + chunk",
        "chunk",
        LOAD_TESTS,
    ),
    Mutant(
        "loader-accepts-trailing-data", IO,
        "        if self.char():\n            self.fail()\n",
        "",
        LOAD_TESTS,
    ),
    Mutant(
        "malformed-file-read-without-newline-translation", IO,
        'json.loads(text.replace("\\r\\n", "\\n").replace("\\r", "\\n"),',
        "json.loads(text,",
        LOAD_TESTS,
    ),
    Mutant(
        "utf8-error-escapes-unwrapped", IO,
        "        try:\n            chunk = self.file.read(max(_CHUNK, len(self.text) - self.at))\n"
        "        except UnicodeDecodeError:\n            self.fail()\n",
        "        chunk = self.file.read(max(_CHUNK, len(self.text) - self.at))\n",
        ("tests/test_io.py::TestStreamedLoad::test_a_byte_that_is_not_utf8",),
    ),
    Mutant(
        "deep-nesting-escapes-as-recursion-error", IO,
        "    except RecursionError as exc:  # in the scanner, a branch-width tree or the emitter\n"
        '        raise SchemaError(f"{where}: nested too deeply") from exc\n',
        "",
        UNREADABLE_TESTS,
    ),
    Mutant(
        "deep-nesting-refused-by-the-loader-alone", IO,
        '        raise SchemaError(f"{where}: nested too deeply") from exc\n',
        '        if where == "document":\n            raise\n'
        '        raise SchemaError(f"{where}: nested too deeply") from exc\n',
        UNREADABLE_TESTS,
    ),
    Mutant(
        "huge-integer-escapes-the-reader", IO,
        "except (StopIteration, ValueError):",
        "except (StopIteration, json.JSONDecodeError):",
        UNREADABLE_TESTS,
    ),
    Mutant(
        "huge-integer-escapes-the-error-path", IO,
        "        except ValueError as exc:  # an integer of more digits than int() converts\n"
        '            raise SchemaError(f"{self.path}: {exc}") from exc\n',
        "",
        UNREADABLE_TESTS,
    ),
    Mutant(
        "loader-keeps-the-raw-entry", IO,
        "item = check(item, None)",
        "check(item, None)",
        LOAD_TESTS,
    ),
    # one object per distinct value: the hunt's witnesses, the loader's witnesses
    # and strings
    Mutant(
        "hunt-shares-no-witness", SEARCH,
        "            shared.setdefault(witness, witness),\n",
        "            witness,\n",
        HUNT_TESTS,
    ),
    Mutant(
        "hunt-table-kept-across-calls", SEARCH,
        "    shared = {}  # a witness",
        '    shared = hunt.__dict__.setdefault("shared", {})  # a witness',
        HUNT_TESTS,
    ),
    Mutant(
        "loaded-witnesses-not-shared", IO,
        "return _MEMO.get().witnesses.setdefault(tuple(map(tuple, sides)), sides)",
        "return sides",
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "witness-key-from-its-first-side", IO,
        ".setdefault(tuple(map(tuple, sides)), sides)",
        ".setdefault(tuple(map(tuple, sides[:1])), sides)",
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "claims-not-shared", IO,
        '"claim": _shared_str,',
        '"claim": _str,',
        NO_ALIASING_TESTS,
    ),
    Mutant(
        "one-of-gives-the-parsed-value", IO,
        "        return constant\n",
        "        return value\n",
        NO_ALIASING_TESTS,
    ),
    # a counterexample checked against its own system
    Mutant(
        "descriptor-not-built", IO,
        "        return build_system(descriptor).n\n",
        '        return descriptor.get("n", 1 << 20)\n',
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "descriptor-error-escapes-as-value-error", IO,
        "    except (ValueError, FunctionAxiomError) as exc:\n",
        "    except FunctionAxiomError as exc:\n",
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "table-error-escapes-as-axiom-error", IO,
        "    except (ValueError, FunctionAxiomError) as exc:\n",
        "    except ValueError as exc:\n",
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "descriptor-built-per-counterexample", IO,
        "        if text not in memo.systems:\n"
        "            memo.systems[text] = out, _built(out, where)\n",
        "        memo.systems.setdefault(text, (out, _built(out, where)))\n",
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "save-builds-object-descriptors", IO,
        "systems.setdefault(json.dumps(out), (out, system.n))",
        "systems.setdefault(json.dumps(out), (out, _built(out, where)))",
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "counterexample-sides-may-repeat", IO,
        '"claim": _shared_str, "sides": _family_sides,',
        '"claim": _shared_str, "sides": _sides,',
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "unmatched-sides-may-repeat", IO,
        '_UNMATCHED_ENTRY = {"kind": _one_of(*_KIND_VALUES), "sides": _family_sides}',
        '_UNMATCHED_ENTRY = {"kind": _one_of(*_KIND_VALUES), "sides": _sides}',
        ("tests/test_io.py::TestVerdictDocuments",),
    ),
    Mutant(
        "counterexample-sides-range-unchecked", IO,
        '    _in_range(out["sides"], n, f"{where}.sides")\n',
        "",
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "counterexample-witness-range-unchecked", IO,
        '    _in_range(out["witness"], n, f"{where}.witness")\n',
        "",
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "range-check-admits-n", IO,
        "default=-1) >= n:",
        "default=-1) > n:",
        HUNT_DOCUMENT_TESTS,
    ),
    # one walk per key in a hunt: the key, what is kept and the re-check
    Mutant(
        "walk-key-without-n", SEARCH,
        "    key = axioms, system.n, context.bits\n",
        "    key = axioms, context.bits\n",
        ("tests/test_search.py::TestWalkReuse::test_equal_bits_at_two_sizes",),
    ),
    Mutant(
        "walk-key-without-axioms", SEARCH,
        "    key = axioms, system.n, context.bits\n",
        "    key = system.n, context.bits\n",
        WALK_TESTS,
    ),
    # the two cut mutants are equivalent within ``hunt``, which passes no limit
    # and stops at the first cut walk; the tests of ``_enumerate`` itself kill them
    Mutant(
        "cut-walk-kept", SEARCH,
        "        leaves = []\n        if all(",
        "        self.leaves = leaves = []\n        if all(",
        WALK_TESTS,
    ),
    Mutant(
        "walk-stopped-by-limit-kept", SEARCH,
        "    if walk.leaves is not None:\n        walks[key] = walk\n",
        "    if complete:\n        walks[key] = walk\n",
        WALK_TESTS,
    ),
    Mutant(
        "replay-skips-the-leaf-check", SEARCH,
        "            report = check_structure(system, k, family, kind, variant)\n",
        "            if walk.leaves is not None:\n"
        "                found.append((family, None))\n"
        "                continue\n"
        "            report = check_structure(system, k, family, kind, variant)\n",
        WALK_TESTS,
    ),
    # the walk's leaves go to the constructor, which neither sorts nor checks
    Mutant(
        "leaf-tuple-unsorted", SEARCH,
        "yield tuple(sorted(self.assignment.values()))",
        "yield tuple(self.assignment.values())",
        ("tests/test_search.py::TestEnumerateAll::"
         "test_leaves_record_each_orientation_under_its_slot",),
    ),
    Mutant(
        "hunt-counts-a-cut-search", SEARCH,
        "        if not result.complete:\n            raise _Cut\n"
        "        structures_examined += len(result)\n",
        "        structures_examined += len(result)\n"
        "        if not result.complete:\n            raise _Cut\n",
        HUNT_TESTS,
    ),
    Mutant(
        "hunt-builds-the-table-before-the-ground-set-check", SEARCH,
        "            _check_ground_set(system, budget)  # before max_order() builds the table\n"
        "            top = system.max_order()\n",
        "            top = system.max_order()\n"
        "            _check_ground_set(system, budget)\n",
        HUNT_TESTS + ("tests/test_cli.py::TestHunt",),
    ),
    Mutant(
        "walks-kept-across-hunts", SEARCH,
        "    walks = {}  # the walks of this call",
        '    walks = hunt.__dict__.setdefault("walks", {})  # the walks of this call',
        HUNT_TESTS,
    ),
    Mutant(
        "search-budget-unchecked", SEARCH,
        '            check_int(self.max_nodes, "max_nodes")\n',
        "            pass\n",
        ("tests/test_search.py::TestEnumerateAll::test_a_budget_is_checked_when_it_is_made",),
    ),
    Mutant(
        "hunt-corpus-admits-size-one", SEARCH,
        'check_int(n, "ground-set size", 2)',
        'check_int(n, "ground-set size", 1)',
        ("tests/test_search.py::TestCorpora", "tests/test_cli.py::TestHunt"),
    ),
    # Random(-s) draws what Random(s) draws, so two corpus systems would repeat
    Mutant(
        "hunt-corpus-seed-unchecked", SEARCH,
        '        check_int(self.base_seed, "base_seed")\n',
        "",
        INTEGER_TESTS + ("tests/test_cli.py::TestHunt::test_bad_inputs",),
    ),
    # one check and one rendering per counterexample descriptor
    Mutant(
        "raw-lookup-reads-1.0-as-1", IO,
        "            text = json.dumps(value)\n",
        '            text = json.dumps(value, sort_keys=True).replace(".0", "")\n',
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "raw-lookup-outside-loads", IO,
        "    if memo.parsed:\n",
        "    if True:\n",
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "load-checks-every-descriptor", IO,
        "    if memo.parsed:\n",
        "    if False:\n",
        HUNT_DOCUMENT_TESTS,
    ),
    Mutant(
        "raw-text-nesting-not-caught", IO,
        "        except RecursionError:  # nested past any descriptor",
        "        except ValueError:  # nested past any descriptor",
        UNREADABLE_TESTS,
    ),
    Mutant(
        "emitter-memo-on-every-dict", IO,
        "            if key in shared:  # a descriptor, whose keys are str\n",
        "            if key in shared or all(type(k) is str for k in value):\n",
        RENDER_TESTS,
    ),
    Mutant(
        "write-takes-no-descriptor-ids", IO,
        "emit = _emitter({id(d) for d, _ in _MEMO.get(_Memo(False)).systems.values()})",
        "emit = _emitter()",
        RENDER_TESTS,
    ),
    Mutant(
        "descriptor-rendered-per-counterexample", IO,
        "            if key in shared:  # a descriptor, whose keys are str\n",
        "            if False:\n",
        RENDER_TESTS,
    ),
    Mutant(
        "cluster-never-gains-the-inserted-leaf", DUALITY,
        "[c | bit if c & e == e else c for c in tree] + [e, bit]",
        "[c for c in tree] + [e, bit]",
        BRANCH_WIDTH_TESTS,
    ),
    Mutant(
        "tie-break-ignores-the-splits", DUALITY,
        "        system._branch_width = min(\n"
        "            (max((f[c] for c in tree), default=f[0]),\n"
        "             tuple(sorted(min(c, full ^ c) for c in tree)))\n"
        "            for tree in _cubic_trees(n)\n"
        "        )",
        "        system._branch_width = min(\n"
        "            ((max((f[c] for c in tree), default=f[0]),\n"
        "              tuple(sorted(min(c, full ^ c) for c in tree)))\n"
        "             for tree in _cubic_trees(n)),\n"
        "            key=lambda best: best[0],\n"
        "        )",
        BRANCH_WIDTH_TESTS,
    ),
    Mutant(
        "nested-orders-subtrees-by-largest-leaf", DUALITY,
        "key=lambda c: c & -c)",
        "key=int.bit_length)",
        BRANCH_WIDTH_TESTS,
    ),
    Mutant(
        "nested-takes-the-smallest-inner-cluster", DUALITY,
        "half = max((c for c in clusters",
        "half = min((c for c in clusters",
        BRANCH_WIDTH_TESTS,
    ),
    Mutant(
        "recompute-width-reads-only-the-first-split", DUALITY,
        "max(map(evaluate, self.splits), default=evaluate(0))",
        "max(map(evaluate, self.splits[:1]), default=evaluate(0))",
        BRANCH_WIDTH_TESTS,
    ),
    Mutant(
        "dual-family-keeps-the-members", DUALITY,
        "SeparationFamily(family.system, family.k, family.dual_masks())",
        "SeparationFamily(family.system, family.k, family.member_masks)",
        DUAL_TESTS,
    ),
    # a run that exits 1 still writes its document
    Mutant(
        "finish-exits-before-writing", CLI,
        "    if json_path:\n        io.save(document, json_path)\n"
        "    if not passed:\n        raise SystemExit(1)\n",
        "    if not passed:\n        raise SystemExit(1)\n"
        "    if json_path:\n        io.save(document, json_path)\n",
        (
            "tests/test_cli.py::TestCheck::test_failing_check_exits_one_with_witness",
            "tests/test_cli.py::TestVerifyTheorems::test_default_sweep_hits_the_degenerate_pair",
        ),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _pytest(workdir: Path, tests) -> tuple[int, float]:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", "--hypothesis-profile=no-shrink", *tests,
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=workdir, env=env, capture_output=True)
    return done.returncode, time.perf_counter() - start


def _apply(workdir: Path, mutant: Mutant) -> None:
    path = workdir / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise RuntimeError(f"{mutant.name}: edit does not match exactly once in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutants) -> dict:
    with tempfile.TemporaryDirectory(prefix="tanglekit-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        selections = sorted({t for m in mutants for t in m.tests})
        code, _ = _pytest(clean, selections)
        if code != 0:
            raise RuntimeError(f"the selections fail on the unedited copy (pytest exit {code})")
        results = []
        for i, mutant in enumerate(mutants):
            workdir = Path(tmp) / f"m{i}"
            _copy(workdir)
            _apply(workdir, mutant)
            code, seconds = _pytest(workdir, mutant.tests)
            # exit 1 is a failing test; anything else (usage, collection,
            # internal error) is reported as it is, not counted as a kill
            state = "killed" if code == 1 else "survived" if code == 0 else "error"
            results.append({
                "name": mutant.name, "path": mutant.path, "state": state,
                "pytest_exit": code, "seconds": round(seconds, 2),
                "tests": list(mutant.tests),
            })
            shutil.rmtree(workdir)
    return {
        "killed": sum(r["state"] == "killed" for r in results),
        "survived": [r["name"] for r in results if r["state"] == "survived"],
        "errors": [r["name"] for r in results if r["state"] == "error"],
        "mutants": results,
    }


def main() -> int:
    try:
        report = run(MUTANTS)
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    if report["errors"]:
        return 2
    return 1 if report["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
