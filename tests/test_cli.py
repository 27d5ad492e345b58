"""End-to-end runs of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import tanglekit
from tanglekit import load_document, save, to_document
from tanglekit.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def family_file(tmp_path, k, sides, name="family.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"version": 1, "k": k, "sides": sides}))
    return str(path)


class TestCheck:
    def test_passing_tangle(self, runner, tmp_path):
        fam = family_file(tmp_path, 0, [[]])
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", fam, "--kind", "tangle",
        ])
        assert result.exit_code == 0
        assert "result: PASS" in result.output
        for axiom in ("P0", "T1", "T2", "T3", "T4"):
            assert f"{axiom:<14} pass" in result.output

    def test_failing_check_exits_one_with_witness(self, runner, tmp_path):
        fam = family_file(tmp_path, 0, [[]])
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", fam,
            "--kind", "ultrafilter",
        ])
        assert result.exit_code == 1
        assert "result: FAIL" in result.output
        assert "witness" in result.output

    @pytest.mark.parametrize("kind, lines", [
        ("tangle", [
            "  P0             pass",
            "  T1             pass",
            "  T2             pass",
            "  T3             FAIL  witness Separation({0}, order=1), "
            "Separation({1}, order=1), Separation({2}, order=1)",
            "  T4             pass",
        ]),
        ("ultrafilter", [
            "  P0             pass",
            "  F1             pass",
            "  F2             FAIL  witness Separation({}, order=0)",
            "  F3             FAIL  witness Separation({0}, order=1)  element 0",
            "  F4             FAIL  witness Separation({}, order=0), "
            "Separation({0,1}, order=1)",
            "  F5             pass",
            "  F6             FAIL  witness Separation({}, order=0), "
            "Separation({}, order=0), Separation({}, order=0)",
        ]),
    ])
    def test_witness_lines_are_pinned(self, runner, tmp_path, kind, lines):
        fam = family_file(tmp_path, 1, [[], [0], [1], [2]])
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", fam, "--kind", kind,
        ])
        assert result.exit_code == 1
        assert result.output == "\n".join([
            f"system min3: kind {kind}, k=1, variant corrected",
            *lines,
            "result: FAIL",
            "",
        ])

    def test_diagnostic_failure_does_not_gate(self, runner, tmp_path):
        fam = family_file(tmp_path, 1, [[0, 1], [0, 2], [1, 2], [0, 1, 2]])
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", fam,
            "--kind", "weak_ultrafilter",
        ])
        assert result.exit_code == 0
        assert "result: PASS" in result.output
        assert f"{'F6':<14} FAIL" in result.output

    def test_k_override_recomputes_family(self, runner, tmp_path):
        fam = family_file(tmp_path, 0, [[]])
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", fam,
            "--kind", "tangle", "--k", "1",
        ])
        assert result.exit_code == 1
        assert "k=1" in result.output

    def test_negative_k_is_a_usage_error(self, runner, tmp_path):
        fam = family_file(tmp_path, 0, [[]])
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", fam,
            "--kind", "tangle", "--k", "-1",
        ])
        assert result.exit_code == 2

    def test_variant_selects_the_axiom_set(self, runner, tmp_path):
        fam = family_file(tmp_path, 1, [[0]])
        base = ["check", "--system", "min3", "--family", fam,
                "--kind", "profile"]
        corrected = runner.invoke(main, base)
        assert "P3a_corrected" in corrected.output
        literal = runner.invoke(main, base + ["--variant", "literal"])
        assert "P3a_literal" in literal.output
        assert "P3a_corrected" not in literal.output

    def test_json_report_matches_library(self, runner, tmp_path, min3):
        from tanglekit import SeparationFamily, check_structure

        fam = family_file(tmp_path, 0, [[]])
        out = tmp_path / "report.json"
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", fam,
            "--kind", "linear_tangle", "--json", str(out),
        ])
        assert result.exit_code == 0
        family = SeparationFamily.from_masks(min3, 0, [0])
        expected = check_structure(min3, 0, family, "linear_tangle")
        assert load_document(out) == to_document(expected)

    def test_malformed_family_file(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "k": 0, "sides": [[1, 0]]}')
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", str(path),
            "--kind", "tangle",
        ])
        assert result.exit_code == 2
        assert "sorted ascending" in result.output

    def test_unknown_kind(self, runner, tmp_path):
        fam = family_file(tmp_path, 0, [[]])
        result = runner.invoke(main, [
            "check", "--system", "min3", "--family", fam, "--kind", "monoid",
        ])
        assert result.exit_code == 2


class TestEnumerate:
    def test_tangles_on_min3(self, runner):
        result = runner.invoke(main, [
            "enumerate", "--system", "min3", "--kind", "tangle", "--k", "0",
        ])
        assert result.exit_code == 0
        assert "1 tangle families on min3 at k=0 (complete" in result.output
        assert "first_sides=[{}]" in result.output

    def test_json_array_of_family_documents(self, runner, tmp_path):
        out = tmp_path / "families.json"
        result = runner.invoke(main, [
            "enumerate", "--system", "c4", "--kind", "weak_ultrafilter",
            "--k", "2", "--json", str(out),
        ])
        assert result.exit_code == 0
        docs = json.loads(out.read_text())
        assert isinstance(docs, list) and len(docs) == 4
        for doc in docs:
            assert to_document(doc) == doc
            assert doc["k"] == 2

    def test_limit_stops_early_but_stays_complete(self, runner):
        result = runner.invoke(main, [
            "enumerate", "--system", "min3", "--kind", "weak_ultrafilter",
            "--k", "0", "--limit", "1",
        ])
        assert result.exit_code == 0
        assert "(complete" in result.output

    def test_oversized_ground_set_is_a_usage_error(self, runner, tmp_path):
        path = tmp_path / "big.json"
        save(tanglekit.min_cardinality_system(9), path)
        result = runner.invoke(main, [
            "enumerate", "--system", str(path), "--kind", "tangle", "--k", "1",
        ])
        assert result.exit_code == 2
        assert "max_ground_set" in result.output


class TestBranchWidth:
    def test_c4(self, runner):
        result = runner.invoke(main, ["branch-width", "--system", "c4"])
        assert result.exit_code == 0
        assert "branch-width of c4: 2" in result.output
        assert "tree: [0, [1, [2, 3]]]" in result.output
        assert "order 2" in result.output

    def test_json_document(self, runner, tmp_path):
        out = tmp_path / "tree.json"
        result = runner.invoke(main, [
            "branch-width", "--system", "p3", "--json", str(out),
        ])
        assert result.exit_code == 0
        assert load_document(out) == {
            "version": 1, "system": "p3", "width": 1, "tree": [0, 1],
        }


class TestDuality:
    def test_agreement_run(self, runner):
        result = runner.invoke(main, ["duality", "--system", "c4"])
        assert result.exit_code == 0
        assert "branch-width 2" in result.output
        assert "max tangle order 2" in result.output
        assert "agrees: yes" in result.output
        assert result.output.count("tangle exists") == 2
        assert result.output.count("tangle absent") == 3

    def test_degenerate_note(self, runner):
        result = runner.invoke(main, ["duality", "--system", "p3"])
        assert result.exit_code == 0
        assert "no convention asserted" in result.output

    def test_kmax_truncates_sweep(self, runner, tmp_path):
        out = tmp_path / "duality.json"
        result = runner.invoke(main, [
            "duality", "--system", "k4", "--kmax", "1", "--json", str(out),
        ])
        assert result.exit_code == 0
        doc = load_document(out)
        assert [entry["k"] for entry in doc["per_k"]] == [0, 1]
        assert doc["agrees"] is True


class TestVerifyTheorems:
    def test_default_sweep_hits_the_degenerate_pair(self, runner):
        result = runner.invoke(main, [
            "verify-theorems", "--system", "min3", "--k", "0",
        ])
        assert result.exit_code == 1
        assert "theorem 11 on min3 at k=0: PASS" in result.output
        assert "theorem 12 on min3 at k=0: FAIL" in result.output
        assert "unmatched linear_tangle" in result.output

    def test_selected_theorems_pass(self, runner, tmp_path):
        out = tmp_path / "verdicts.json"
        result = runner.invoke(main, [
            "verify-theorems", "--system", "min3", "--k", "0",
            "--theorems", "11,15,16", "--json", str(out),
        ])
        assert result.exit_code == 0
        docs = json.loads(out.read_text())
        assert [d["theorem"] for d in docs] == [11, 15, 16]
        assert all(d["pass"] for d in docs)
        assert all(to_document(d) == d for d in docs)
        assert docs[1]["bw"] == 1

    @pytest.mark.parametrize("spec", ["13", "", "a,b", "12;15"])
    def test_bad_theorem_selection(self, runner, spec):
        result = runner.invoke(main, [
            "verify-theorems", "--system", "min3", "--k", "0",
            "--theorems", spec,
        ])
        assert result.exit_code == 2


class TestHunt:
    def test_counterexample_found_exits_one(self, runner, tmp_path):
        out = tmp_path / "verdict.json"
        result = runner.invoke(main, [
            "hunt", "--problem", "9", "--n", "3", "--systems", "2",
            "--seed", "0", "--json", str(out),
        ])
        assert result.exit_code == 1
        assert "counterexample_found" in result.output
        assert "(2 systems," in result.output
        doc = load_document(out)
        assert doc["status"] == "counterexample_found"
        assert doc["counterexamples"]
        assert all(
            ce["claim"] == "weak_ultrafilter_triple_intersection"
            for ce in doc["counterexamples"]
        )

    def test_clean_sweep_exits_zero(self, runner):
        result = runner.invoke(main, [
            "hunt", "--problem", "9", "--n", "3", "--systems", "2",
            "--seed", "0", "--kmax", "0",
        ])
        assert result.exit_code == 0
        assert "no_counterexample_found" in result.output

    def test_runs_are_byte_identical(self, runner, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            result = runner.invoke(main, [
                "hunt", "--problem", "10", "--n", "3", "--systems", "2",
                "--seed", "7", "--json", str(path),
            ])
            assert result.exit_code in (0, 1)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_inputs(self, runner):
        assert runner.invoke(main, [
            "hunt", "--problem", "8", "--n", "3",
        ]).exit_code == 2
        assert runner.invoke(main, [
            "hunt", "--problem", "9", "--n", "3", "--systems", "-1",
        ]).exit_code == 2
        assert runner.invoke(main, [
            "hunt", "--problem", "9", "--n", "9", "--systems", "1",
        ]).exit_code == 2

    def test_an_oversized_system_exits_two_before_its_table(self, runner, monkeypatch):
        # n = 24 is the largest table a system can build, and hunt builds none
        built = []
        monkeypatch.setattr(tanglekit.ConnectivitySystem, "table", lambda s: built.append(s.n))
        result = runner.invoke(main, ["hunt", "--problem", "9", "--n", "24", "--systems", "1"])
        assert result.exit_code == 2 and built == []
        assert "ground set of 24 exceeds budget max_ground_set=8" in result.output

    @pytest.mark.parametrize("size", ["1", "0", "-4"])
    def test_a_size_below_two_names_the_size(self, runner, size):
        result = runner.invoke(main, ["hunt", "--problem", "9", "--n", size])
        assert result.exit_code == 2
        assert f"ground-set size must be an integer >= 2, got {size}" in result.output
        assert "arity" not in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("args", [
    ["hunt", "--problem", "9", "--n", "3", "--kmax", "-1"],
    ["hunt", "--problem", "9", "--n", "3", "--systems", "0"],
    ["duality", "--system", "c4", "--kmax", "-1"],
    ["enumerate", "--system", "c4", "--kind", "tangle", "--k", "1", "--limit", "0"],
    ["enumerate", "--system", "c4", "--kind", "tangle", "--k", "1", "--limit", "-3"],
])
def test_inputs_that_examine_nothing_are_usage_errors(runner, args):
    assert runner.invoke(main, args).exit_code == 2


BAD_SYSTEM_FILES = {
    "not-json": "{ this is not json",
    "schema-error": '{"version": 1, "kind": "min_cardinality", "n": 0}',
    "asymmetric-table": '{"version": 1, "kind": "explicit", "n": 1, "values": [0, 1]}',
}


@pytest.mark.parametrize("case", ["directory", *BAD_SYSTEM_FILES, "unwritable-json"])
def test_unusable_files_are_usage_errors(runner, tmp_path, case):
    args = ["branch-width", "--system", "c4"]
    if case == "directory":
        args[2] = str(tmp_path)
    elif case == "unwritable-json":
        args += ["--json", str(tmp_path / "missing" / "width.json")]
    else:
        path = tmp_path / "system.json"
        path.write_text(BAD_SYSTEM_FILES[case])
        args[2] = str(path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "Traceback" not in result.output


class TestSystemResolution:
    def test_file_path_reference(self, runner, tmp_path, c4):
        path = tmp_path / "ring.json"
        save(c4, path)
        result = runner.invoke(main, ["branch-width", "--system", str(path)])
        assert result.exit_code == 0
        assert "branch-width of ring: 2" in result.output

    def test_corpus_dir_lookup(self, runner, tmp_path):
        save(tanglekit.min_cardinality_system(4), tmp_path / "quad.json")
        result = runner.invoke(
            main,
            ["branch-width", "--system", "quad"],
            env={"TANGLEKIT_CORPUS_DIR": str(tmp_path)},
        )
        assert result.exit_code == 0
        assert "branch-width of quad: 2" in result.output

    def test_builtin_wins_over_corpus_dir(self, runner, tmp_path):
        save(tanglekit.min_cardinality_system(4), tmp_path / "min3.json")
        result = runner.invoke(
            main,
            ["branch-width", "--system", "min3"],
            env={"TANGLEKIT_CORPUS_DIR": str(tmp_path)},
        )
        assert result.exit_code == 0
        assert "branch-width of min3: 1" in result.output

    def test_unknown_reference(self, runner):
        result = runner.invoke(main, ["check", "--system", "nope",
                                      "--family", "x", "--kind", "tangle"])
        assert result.exit_code == 2

    def test_unknown_name_lists_builtins(self, runner, tmp_path):
        fam = family_file(tmp_path, 0, [[]])
        result = runner.invoke(main, [
            "enumerate", "--system", "nope", "--kind", "tangle", "--k", "0",
        ])
        assert result.exit_code == 2
        assert "c4, k4, min3, p3" in result.output

    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert tanglekit.__version__ in result.output

    def test_python_dash_m_entry_point(self):
        src = str(Path(tanglekit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-m", "tanglekit", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == "tanglekit, version 0.1.0\n"


def test_documents_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(tanglekit.__file__).parents[1])
    commands = {
        "hunt": ["hunt", "--problem", "9", "--n", "4", "--systems", "3", "--seed", "7"],
        "theorems": ["verify-theorems", "--system", "c4", "--k", "1"],
    }
    runs = {name: [] for name in commands}
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        for name, args in commands.items():
            path = tmp_path / f"{name}-{hash_seed}.json"
            result = subprocess.run(
                [sys.executable, "-m", "tanglekit", *args, "--json", str(path)],
                env=env, capture_output=True, timeout=120,
            )
            assert result.returncode in (0, 1), result.stderr
            runs[name].append((result.returncode, path.read_bytes()))
    for name, (first, second) in runs.items():
        assert first == second, name
