"""Canonical JSON round-trips and strict ingest validation."""

import copy
import gc
import hashlib
import json
import os
import re
import signal
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from io import StringIO
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglekit import (
    AxiomId,
    FunctionAxiomError,
    HuntCorpus,
    NamedCorpus,
    SchemaError,
    SeparationFamily,
    branch_width,
    build_system,
    builtin_system,
    check_structure,
    explicit_system,
    graph_cut_system,
    hunt,
    hyperedge_system,
    io,
    load_document,
    load_family,
    load_system,
    min_cardinality_system,
    save,
    to_document,
    verify_branchwidth_duality,
    verify_theorem,
)
from tanglekit.cli import main

MIN3_TABLE = [0, 1, 1, 1, 1, 1, 1, 0]
# side elements that are not non-negative integers; 1.0 == 1 and True == 1
BAD_ELEMENTS = (True, -1, 1.0)


def write(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(
        payload if isinstance(payload, str) else json.dumps(payload),
        encoding="utf-8",
    )
    return path


def assert_save_is_idempotent(obj, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    save(obj, first)
    save(load_document(first), second)
    assert first.read_bytes() == second.read_bytes()


class TestSystemDocuments:
    def test_min_cardinality_document(self, min3):
        assert to_document(min3) == {"version": 1, "kind": "min_cardinality", "n": 3}

    def test_builtin_file_round_trip(self, tmp_path, min3):
        path = write(tmp_path, {"version": 1, "kind": "min_cardinality", "n": 3},
                     "min3.json")
        loaded = load_system(path)
        assert loaded.name == "min3"
        assert list(loaded.table()) == list(min3.table())

    def test_explicit_round_trip_is_pointwise_equal(self, tmp_path, min3):
        exported = explicit_system(MIN3_TABLE)
        path = tmp_path / "exp.json"
        save(exported, path)
        loaded = load_system(path)
        assert all(loaded.evaluate(m) == min3.evaluate(m) for m in range(8))

    def test_graph_and_hyperedge_round_trips(self, tmp_path, c4, k4):
        for system in (c4, k4):
            path = tmp_path / f"{system.name}.json"
            save(system, path)
            loaded = load_system(path)
            assert list(loaded.table()) == list(system.table())
        hyper = build_system(
            {"kind": "hyperedge_boundary", "n": 3, "hyperedges": [[0, 1], [1, 2]]}
        )
        path = tmp_path / "hyper.json"
        save(hyper, path)
        assert list(load_system(path).table()) == list(hyper.table())

    def test_hyperedges_given_unsorted_round_trip(self, tmp_path):
        # a hyperedge is a set, stored sorted as the loader requires
        system = hyperedge_system(3, [(2, 0)])
        assert system.hyperedges == ((0, 2),)
        path = tmp_path / "hyper.json"
        save(system, path)
        assert list(load_system(path).table()) == list(system.table())
        verdict = hunt(9, NamedCorpus((hyperedge_system(3, [(2, 1, 0)]),)))
        assert verdict.counterexamples
        save(verdict, path)
        for ce in load_document(path)["counterexamples"]:
            assert ce["system"]["hyperedges"] == [[0, 1, 2]]

    def test_save_load_save_bytes(self, tmp_path, c4):
        assert_save_is_idempotent(c4, tmp_path)

    def test_explicit_length_must_be_a_power_of_two(self, tmp_path):
        path = write(tmp_path, {
            "version": 1, "kind": "explicit", "n": 3, "values": [0] * 7,
        })
        with pytest.raises(SchemaError, match="length 7"):
            load_system(path)

    def test_planted_asymmetry_is_rejected_with_witness(self, tmp_path):
        broken = list(MIN3_TABLE)
        broken[1] = 5
        path = write(tmp_path, {
            "version": 1, "kind": "explicit", "n": 3, "values": broken,
        })
        with pytest.raises(FunctionAxiomError) as err:
            load_system(path)
        assert err.value.witness == (1,)

    def test_rejections(self, tmp_path):
        cases = [
            {"version": 1, "kind": "lattice", "n": 3},
            {"version": 1, "kind": "min_cardinality", "n": 0},
            {"version": 1, "kind": "min_cardinality", "n": 3, "extra": True},
            {"version": 1, "kind": "min_cardinality"},
            {"version": 1, "kind": "explicit", "n": 1, "values": [0, True]},
            {"version": 1, "kind": "explicit", "n": 1, "values": [0, -1]},
            {"version": 1, "kind": "explicit", "n": 20000, "values": [0, 0]},
            {"version": 1, "kind": "graph_cut", "vertices": ["a"], "edges": [["a"]]},
            {"version": 1, "kind": "hyperedge_boundary", "n": 2,
             "hyperedges": [[1, 0]]},
            *(
                {"version": 1, "kind": "hyperedge_boundary", "n": 2,
                 "hyperedges": [[0, bad]]}
                for bad in BAD_ELEMENTS
            ),
        ]
        for doc in cases:
            with pytest.raises(SchemaError):
                load_system(write(tmp_path, doc))

    def test_a_string_utf8_cannot_encode(self, tmp_path, min3):
        bad = "b\udc80"  # a lone surrogate; json.dumps writes it as an escape
        system = {"version": 1, "kind": "graph_cut", "vertices": ["a", bad],
                  "edges": [["a", bad]]}
        with pytest.raises(SchemaError, match=r"^vertices\[1\] is not encodable as UTF-8"):
            load_document(write(tmp_path, system))
        verdict = to_document(hunt(9, NamedCorpus((min3,))))
        verdict["counterexamples"][0]["claim"] = bad
        with pytest.raises(SchemaError, match=r"counterexamples\[0\]\.claim is not encodable"):
            load_document(write(tmp_path, verdict))

    def test_family_document_is_not_a_system(self, tmp_path):
        path = write(tmp_path, {"version": 1, "k": 0, "sides": [[0]]})
        with pytest.raises(SchemaError, match="does not hold a system"):
            load_system(path)


class TestFamilyDocuments:
    def test_empty_side_loads_as_the_empty_separation(self, tmp_path, min3):
        path = write(tmp_path, {"version": 1, "k": 0, "sides": [[]]})
        fam = load_family(path, min3)
        assert fam.member_masks == (0,)
        assert fam.members[0].order == 0

    def test_orders_are_recomputed_not_read(self, tmp_path, min3):
        path = write(tmp_path, {"version": 1, "k": 1, "sides": [[0, 2], [1]]})
        fam = load_family(path, min3)
        assert fam.member_masks == (2, 5)
        assert [s.order for s in fam] == [1, 1]

    def test_duplicate_side(self, tmp_path, min3):
        path = write(tmp_path, {"version": 1, "k": 0, "sides": [[0], [0]]})
        with pytest.raises(SchemaError, match="duplicate"):
            load_family(path, min3)

    def test_element_out_of_range(self, tmp_path, min3):
        path = write(tmp_path, {"version": 1, "k": 0, "sides": [[0, 1, 2, 3]]})
        with pytest.raises(SchemaError, match="out of range"):
            load_family(path, min3)

    def test_malformed_sides(self, tmp_path, min3):
        for sides, message in [
            ([[1, 0]], r"sides\[0\] must be sorted ascending"),
            ([[0, 0]], r"sides\[0\] repeats an element"),
            ([["a"]], r"sides\[0\]\[0\] must be an integer"),
            ("nope", "sides must be an array"),
            ([[0, True]], r"sides\[0\]\[1\] must be an integer"),
            ([[0, -1]], r"sides\[0\]\[1\] must be >= 0"),
            ([[0, 1.0]], r"sides\[0\]\[1\] must be an integer"),
        ]:
            path = write(tmp_path, {"version": 1, "k": 0, "sides": sides})
            with pytest.raises(SchemaError, match=message):
                load_family(path, min3)

    def test_negative_k(self, tmp_path, min3):
        path = write(tmp_path, {"version": 1, "k": -1, "sides": [[0]]})
        with pytest.raises(SchemaError):
            load_family(path, min3)

    def test_system_document_is_not_a_family(self, tmp_path, min3):
        path = write(tmp_path, {"version": 1, "kind": "min_cardinality", "n": 3})
        with pytest.raises(SchemaError, match="does not hold a family"):
            load_family(path, min3)

    def test_round_trip(self, tmp_path, min3):
        fam = SeparationFamily.from_masks(min3, 1, [5, 0, 3])
        path = tmp_path / "fam.json"
        save(fam, path)
        assert load_family(path, min3).member_masks == (0, 3, 5)
        assert_save_is_idempotent(fam, tmp_path)

    def test_document_shape(self, min3):
        fam = SeparationFamily.from_masks(min3, 1, [3])
        assert to_document(fam) == {"version": 1, "k": 1, "sides": [[0, 1]]}


class TestReportDocuments:
    def test_shape_and_key_order(self, min3):
        fam = SeparationFamily.from_masks(min3, 1, [3, 5, 6, 7])
        report = check_structure(min3, 1, fam, "weak_ultrafilter")
        doc = to_document(report)
        assert list(doc) == ["version", "kind", "k", "variant", "axioms", "pass"]
        assert doc["kind"] == "weak_ultrafilter" and doc["pass"] is True
        by_id = {e["id"]: e for e in doc["axioms"]}
        assert list(by_id["F6"]) == ["id", "pass", "witness", "element"]
        assert by_id["F6"]["pass"] is False
        assert by_id["F6"]["witness"] == [[0, 1], [0, 2], [1, 2]]

    def test_round_trip(self, tmp_path, min3):
        fam = SeparationFamily.from_masks(min3, 1, [0, 1, 2, 4])
        report = check_structure(min3, 1, fam, "tangle")
        assert_save_is_idempotent(report, tmp_path)
        doc = to_document(report)
        path = tmp_path / "report.json"
        save(report, path)
        assert load_document(path) == doc

    def test_rejections(self, tmp_path, min3):
        fam = SeparationFamily.from_masks(min3, 0, [0])
        good = to_document(check_structure(min3, 0, fam, "tangle"))
        bad_kind = {**good, "kind": "near_tangle"}
        bad_variant = {**good, "variant": "fixed"}
        bad_axiom = {**good, "axioms": [{**good["axioms"][0], "id": "T9"}]}
        truncated_entry = {**good, "axioms": [{"id": "T1", "pass": True}]}
        versioned_entry = {**good, "axioms": [{**good["axioms"][0], "version": 1}]}
        unhashable_kind = {**good, "kind": ["tangle"]}
        bad_witnesses = [
            {**good, "axioms": [{**good["axioms"][0], "witness": [[0, bad]]}]}
            for bad in BAD_ELEMENTS
        ]
        for doc in (bad_kind, bad_variant, bad_axiom, truncated_entry,
                    versioned_entry, unhashable_kind, *bad_witnesses):
            with pytest.raises(SchemaError):
                load_document(write(tmp_path, doc))


class TestVerdictDocuments:
    def test_bijection_verdict_shape(self, min3):
        doc = to_document(verify_theorem(12, min3, 0))
        assert list(doc) == [
            "version", "theorem", "system", "k", "pass", "counts", "unmatched", "bw",
        ]
        assert doc["theorem"] == 12 and doc["pass"] is False
        assert doc["counts"] == {"linear_tangle": 2, "single_ultrafilter": 1}
        assert doc["unmatched"] == [{"kind": "linear_tangle", "sides": [[0, 1, 2]]}]
        assert doc["bw"] is None

    def test_existence_verdict_round_trip(self, tmp_path, min3):
        verdict = verify_theorem(15, min3, 0)
        assert to_document(verdict)["bw"] == 1
        assert_save_is_idempotent(verdict, tmp_path)

    def test_rejections(self, tmp_path, min3):
        good = to_document(verify_theorem(11, min3, 0))
        for doc in (
            {**good, "theorem": 13},
            {**good, "theorem": 11.0},
            {**good, "k": 0.0},
            {**good, "counts": {"tangle": -1}},
            {**good, "counts": "many"},
            {**good, "unmatched": [{"kind": "tangle"}]},
            {**good, "bw": True},
        ):
            with pytest.raises(SchemaError):
                load_document(write(tmp_path, doc))

    def test_unmatched_sides_repeat_none(self, tmp_path, min3):
        good = to_document(verify_theorem(12, min3, 0))
        doc = {**good, "unmatched": [{"kind": "linear_tangle", "sides": [[0, 1, 2]] * 2}]}
        message = r"^unmatched\[0\]\.sides contains a duplicate$"
        with pytest.raises(SchemaError, match=message):
            load_document(write(tmp_path, doc))
        with pytest.raises(SchemaError, match=message):
            to_document(doc)


class TestHuntDocuments:
    def test_shape(self, min3):
        doc = to_document(hunt(9, NamedCorpus((min3,))))
        assert list(doc) == [
            "version", "problem", "corpus", "systems_examined",
            "structures_examined", "counterexamples", "status",
        ]
        assert doc["status"] == "counterexample_found"
        (ce,) = doc["counterexamples"]
        assert ce["system"] == {"kind": "min_cardinality", "n": 3}
        assert ce["k"] == 1
        assert ce["claim"] == "weak_ultrafilter_triple_intersection"
        assert ce["sides"] == [[0, 1], [0, 2], [1, 2], [0, 1, 2]]
        assert ce["failing_axiom"] == "F6"
        assert ce["witness"] == [[0, 1], [0, 2], [1, 2]]

    def test_round_trip_and_offline_recheck(self, tmp_path, min3):
        verdict = hunt(9, NamedCorpus((min3,)))
        assert_save_is_idempotent(verdict, tmp_path)
        path = tmp_path / "verdict.json"
        save(verdict, path)
        doc = load_document(path)
        (ce,) = doc["counterexamples"]
        system = build_system(ce["system"])
        masks = [sum(1 << e for e in side) for side in ce["sides"]]
        fam = SeparationFamily.from_masks(system, ce["k"], masks)
        report = check_structure(system, ce["k"], fam, "ultrafilter")
        assert not report.result(AxiomId(ce["failing_axiom"])).passed
        assert check_structure(system, ce["k"], fam, "weak_ultrafilter").passed

    def test_rejections(self, tmp_path, min3):
        good = to_document(hunt(9, NamedCorpus((min3,))))
        ce = good["counterexamples"][0]
        for doc in (
            {**good, "problem": 8},
            {**good, "status": "done"},
            {**good, "systems_examined": -1},
            {**good, "corpus": "stuff"},
            {**good, "counterexamples": [{**ce, "failing_axiom": "F9"}]},
            {**good, "counterexamples": [
                {**ce, "system": {"version": 1, **ce["system"]}}
            ]},
            {**good, "counterexamples": [{**ce, "version": 1}]},
            *(
                {**good, "counterexamples": [{**ce, "witness": [[0, bad]]}]}
                for bad in BAD_ELEMENTS
            ),
        ):
            with pytest.raises(SchemaError):
                load_document(write(tmp_path, doc))

    def test_counterexamples_are_checked_against_their_system(self, tmp_path, min3):
        good = to_document(hunt(9, NamedCorpus((min3,))))
        ce = good["counterexamples"][0]
        for bad, message in [
            ({**ce, "sides": [*ce["sides"], [0, 2]]}, "sides contains a duplicate"),
            ({**ce, "sides": [[0, 1], [0, 3]]}, r"sides\[1\]: element 3 out of range for n=3"),
            ({**ce, "sides": [[9]]}, r"sides\[0\]: element 9 out of range for n=3"),
            ({**ce, "witness": [[0, 1], [2, 3]]},
             r"witness\[1\]: element 3 out of range for n=3"),
            ({**ce, "system": {"kind": "hyperedge_boundary", "n": 4, "hyperedges": [[0, 99]]}},
             r"system: hyperedge \[0, 99\] has element 99 outside 0\.\.3"),
        ]:
            doc = {**good, "counterexamples": [ce, bad]}
            message = rf"^counterexamples\[1\]\.{message}$"
            with pytest.raises(SchemaError, match=message):
                load_document(write(tmp_path, doc))
            with pytest.raises(SchemaError, match=message):
                to_document(doc)

    def test_graph_systems_count_their_ground_set(self, tmp_path, min3):
        # four vertices and one edge: a cut's ground set is the vertices, a
        # boundary's the edges
        good = to_document(hunt(9, NamedCorpus((min3,))))
        graph = {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"]]}
        cut = {**good["counterexamples"][0], "system": {"kind": "graph_cut", **graph},
               "sides": [[3]], "witness": [[0, 3]]}
        doc = {**good, "counterexamples": [cut]}
        assert load_document(write(tmp_path, doc)) == to_document(doc) == doc
        boundary = {**cut, "system": {"kind": "graph_boundary", **graph}}
        with pytest.raises(SchemaError, match=(
            r"^counterexamples\[0\]\.sides\[0\]: element 3 out of range for n=1$"
        )):
            load_document(write(tmp_path, {**good, "counterexamples": [boundary]}))

    def test_each_distinct_descriptor_is_built_once(self, tmp_path, monkeypatch):
        built = []

        def counted(descriptor, **kwargs):
            built.append(json.dumps(descriptor))
            return build_system(descriptor, **kwargs)

        monkeypatch.setattr(io, "build_system", counted)
        path = tmp_path / "verdict.json"
        save(hunt(9, HuntCorpus(sizes=(4, 4, 5, 5), base_seed=3)), path)
        assert built == []  # an object's descriptor is built already
        loaded = load_document(path)
        texts = [json.dumps(ce["system"]) for ce in loaded["counterexamples"]]
        assert sorted(built) == sorted(set(texts)) and len(texts) > len(built) > 1
        # to_document builds each once too
        built.clear()
        assert to_document(loaded) == loaded
        assert sorted(built) == sorted(set(texts))
        built.clear()
        assert to_document(json.loads(path.read_text())) == loaded
        assert sorted(built) == sorted(set(texts))

    def test_a_failed_explicit_table_is_a_schema_error(self, tmp_path, min3):
        good = to_document(hunt(9, NamedCorpus((min3,))))
        ce = good["counterexamples"][0]
        broken = list(MIN3_TABLE)
        broken[1] = 5
        bad = {**ce, "system": {"kind": "explicit", "n": 3, "values": broken}}
        doc = {**good, "counterexamples": [ce, bad]}
        message = r"^counterexamples\[1\]\.system: explicit table rejected: "
        with pytest.raises(SchemaError, match=message):
            load_document(write(tmp_path, doc))
        with pytest.raises(SchemaError, match=message):
            to_document(doc)


class TestDualityAndTreeDocuments:
    def test_duality_report_shape(self, min3):
        doc = to_document(verify_branchwidth_duality(min3))
        assert list(doc) == [
            "version", "system", "bw", "max_tangle_order", "per_k",
            "agrees", "degenerate",
        ]
        assert doc["per_k"] == [
            {"k": 0, "tangle_exists": True, "matches": True},
            {"k": 1, "tangle_exists": False, "matches": True},
        ]
        assert doc["agrees"] is True and doc["degenerate"] is False

    def test_duality_round_trip(self, tmp_path, c4):
        assert_save_is_idempotent(verify_branchwidth_duality(c4), tmp_path)

    def test_branchwidth_document(self, tmp_path, c4):
        _, decomposition = branch_width(c4)
        doc = to_document(decomposition)
        assert doc == {
            "version": 1, "system": "c4", "width": 2, "tree": [0, [1, [2, 3]]],
        }
        assert_save_is_idempotent(decomposition, tmp_path)

    def test_tree_rejections(self, tmp_path, c4):
        good = to_document(branch_width(c4)[1])
        for tree in (-1, [0, [1, True]], [0, "leaf"], {"root": 0}):
            with pytest.raises(SchemaError):
                load_document(write(tmp_path, {**good, "tree": tree}))

    def test_duality_rejections(self, tmp_path, min3):
        good = to_document(verify_branchwidth_duality(min3))
        for doc in (
            {**good, "per_k": [{"k": 0, "tangle_exists": True}]},
            {**good, "per_k": [{"k": 0, "tangle_exists": 1, "matches": True}]},
            {**good, "bw": -1},
            {**good, "agrees": "yes"},
        ):
            with pytest.raises(SchemaError):
                load_document(write(tmp_path, doc))


class TestStrictIngest:
    def test_duplicate_keys(self, tmp_path, min3):
        path = write(tmp_path, '{"version": 1, "k": 0, "k": 1, "sides": []}')
        with pytest.raises(SchemaError, match=r"duplicate JSON keys: \['k'\]$"):
            load_family(path, min3)
        nested = '{"k": 0, "x": {"b": 1, "a": 2, "b": 3, "a": 4}}'
        with pytest.raises(SchemaError, match=r"duplicate JSON keys: \['a', 'b'\]$"):
            load_family(write(tmp_path, nested), min3)

    @pytest.mark.parametrize("version", [0, 2, "1", True, None, 1.0])
    def test_version_gate(self, tmp_path, min3, version):
        path = write(tmp_path, {"version": version, "k": 0, "sides": [[0]]})
        with pytest.raises(SchemaError):
            load_family(path, min3)

    def test_missing_version(self, tmp_path):
        path = write(tmp_path, {"k": 0, "sides": [[0]]})
        with pytest.raises(SchemaError, match="missing fields.*version"):
            load_document(path)

    def test_not_json_or_not_an_object(self, tmp_path):
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_document(write(tmp_path, "{nope"))
        with pytest.raises(SchemaError, match="must be an object"):
            load_document(write(tmp_path, "[1, 2]"))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_document(tmp_path / "absent.json")

    def test_unrecognised_shape(self, tmp_path):
        with pytest.raises(SchemaError, match="not recognised"):
            load_document(write(tmp_path, {"version": 1, "payload": 3}))

    def test_to_document_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            to_document(object())

    def test_serialization_format(self, min3):
        fam = SeparationFamily.from_masks(min3, 0, [0])
        text = io.dumps(fam)
        assert text.endswith("\n")
        assert text == json.dumps(
            {"version": 1, "k": 0, "sides": [[]]}, indent=2
        ) + "\n"


def byte_format_objects():
    """At least one object of every shape in the ``io`` docstring table."""
    min3, c4, k4 = (builtin_system(name) for name in ("min3", "c4", "k4"))
    # a 5-cycle whose labels need escapes or lie beyond ASCII
    labels = ["Ørsted", 'q"uote', "back\\slash", "tab\there", "日本"]
    cycle = graph_cut_system(
        labels, [[labels[i], labels[(i + 1) % 5]] for i in range(5)], name="cycle-ünï"
    )
    hyper = build_system(
        {"kind": "hyperedge_boundary", "n": 4, "hyperedges": [[0, 1], [1, 2, 3]]}
    )
    with_empty = SeparationFamily.from_masks(min3, 1, [0, 3, 5])
    failing = check_structure(
        min3, 1, SeparationFamily.from_masks(min3, 1, [3, 5, 6, 7]), "ultrafilter"
    )
    return [
        explicit_system(MIN3_TABLE, name="tablé"), min3, c4, cycle, hyper,
        with_empty,
        failing,
        check_structure(min3, 1, SeparationFamily.from_masks(min3, 1, [0, 1, 2, 4]),
                        "tangle"),
        verify_theorem(12, cycle, 1),
        verify_theorem(15, min3, 0),
        hunt(9, NamedCorpus((min3, c4))),
        hunt(10, NamedCorpus((cycle,), kmax=2)),
        hunt(9, HuntCorpus((3, 4), 7)),
        verify_branchwidth_duality(c4),
        branch_width(k4)[1],
        [min3, with_empty, verify_branchwidth_duality(min3)],
        to_document(failing),
    ]


class TestByteFormat:
    def test_pinned_bytes(self):
        """SHA-256 over ``io.dumps`` of every shape.

        The digest is that of ``json.dumps(doc, indent=2, ensure_ascii=False)``
        on the same objects, so any drift of the writer from that format
        changes it.
        """
        digest = hashlib.sha256()
        size = 0
        for obj in byte_format_objects():
            text = io.dumps(obj)
            doc = [to_document(o) for o in obj] if isinstance(obj, list) else to_document(obj)
            assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
            data = text.encode()
            digest.update(data + b"\0")
            size += len(data)
        assert size == 57_671
        assert digest.hexdigest() == (
            "2e4145beb246431a9a4a5368e3f6fc472cd25b92bc7b17d93c33a9c120d1554c"
        )


# JSON trees with what the writer special-cases: empty containers, lists of
# plain ints (memoised per indent), ints mixed with lists (a branch-width
# tree), bools beside ints, ints beyond 64 bits and strings needing escapes
_TEXT = st.text() | st.text(alphabet='"\\/\x00\x01\x1f\x7f\n\t\u2028aéØ日😀')
_INTS = st.integers() | st.integers(min_value=-(2**70), max_value=2**70)
_SCALARS = st.none() | st.booleans() | _INTS | _TEXT | st.floats()
_TREES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(_INTS, max_size=4)
        | st.lists(st.integers(0, 9) | inner, max_size=4)
        | st.lists(st.integers(-3, 3) | st.booleans(), max_size=4)
        | st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=40,
)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    @example([[1, 2], {"a": [1, 2], "b": [[1, 2]]}, [], {}, [True, 1], [[]]])
    # what the emitter hands to json.dumps: a tuple, a str enum, an int enum,
    # a dict subclass and a float, each nested below the corpus
    @example([{"a": [(1, [2, "x"], ())]}, [(), (True,)]])
    @example({"axiom": [AxiomId.F6, [AxiomId.F6]], "signal": [signal.SIGINT, 1]})
    @example([OrderedDict(a=[1, OrderedDict(b=(2,))], c=OrderedDict()), {"d": OrderedDict(e=1)}])
    @example([[1.5, [0.0, -2.5e-300]], {"f": 1e300}, 1.0])
    # keys that are no str, which json.dumps converts: {"3": "min3"}
    @example({"sizes": {3: "min3"}})
    def test_text_matches_json_dumps(self, value):
        """``dumps`` of a hunt verdict whose corpus holds ``value``."""
        doc = {"version": 1, "problem": 9, "corpus": {"value": value}, "systems_examined": 0,
               "structures_examined": 0, "counterexamples": [],
               "status": "no_counterexample_found"}
        assert io.dumps(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    @example([{"a": [{"b": [[0, 1], []]}], "c": {"d": [True, 1]}}, [[1], [True]], {}])
    @example({"a": [{"b": 1}, [1, 2], {"c": [[1, 2]]}], "d": {}, "e": [[1.0], [1]]})
    @example({"sizes": {3: "min3"}})
    def test_streamed_sink_matches_json_dumps(self, value):
        """The pieces ``save`` writes to its file, with one memo per call."""
        sink = StringIO()
        io._write(value, sink.write)
        assert sink.getvalue() == json.dumps(value, indent=2, ensure_ascii=False)


class TestGcState:
    """Public I/O calls pause the cyclic GC and leave it as they found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, tmp_path, min3, enabled):
        fam = SeparationFamily.from_masks(min3, 1, [0, 3])
        system_path, family_path = tmp_path / "system.json", tmp_path / "family.json"
        save(min3, system_path)
        save(fam, family_path)
        bad = write(tmp_path, '{"version": 1, "k": 0, "k": 1, "sides": []}', "bad.json")
        unknown = {"version": 1, "payload": 3}
        calls = [
            (lambda: save(fam, tmp_path / "out.json"), False),
            (lambda: io.dumps([min3, fam]), False),
            (lambda: load_document(family_path), False),
            (lambda: load_system(system_path), False),
            (lambda: load_family(family_path, min3), False),
            (lambda: save(unknown, tmp_path / "out.json"), True),
            (lambda: io.dumps(unknown), True),
            (lambda: load_document(bad), True),
            (lambda: load_system(bad), True),
            (lambda: load_family(bad, min3), True),
        ]
        before = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for i, (call, fails) in enumerate(calls):
                if fails:
                    with pytest.raises(SchemaError):
                        call()
                else:
                    call()
                assert gc.isenabled() is enabled, i
        finally:
            (gc.enable if before else gc.disable)()

    def test_save_frees_the_document_before_the_gc_resumes(
        self, tmp_path, monkeypatch, min3, c4
    ):
        """Otherwise the first collection after the pause walks all of it
        (about 0.2 s on the corpus problem-9 verdict)."""
        verdict = hunt(9, NamedCorpus((min3, c4)))
        young = []
        resume = gc.enable

        def enable():
            young.extend(
                o for o in gc.get_objects(generation=0)
                if type(o) is list and o and type(o[0]) is dict and "failing_axiom" in o[0]
            )
            resume()

        monkeypatch.setattr(gc, "enable", enable)
        before = gc.isenabled()
        try:
            resume()
            save(verdict, tmp_path / "verdict.json")
        finally:
            (resume if before else gc.disable)()
        assert young == []
        assert (tmp_path / "verdict.json").read_text(encoding="utf-8") == io.dumps(verdict)


class _SetCorpus(NamedCorpus):
    """A corpus whose description holds a set, which JSON cannot."""

    def describe(self):
        return {"named": {s.name for s in self.members}}


class _SurrogateCorpus(NamedCorpus):
    """A corpus whose description holds a string UTF-8 cannot encode."""

    def describe(self):
        return {"named": ["b\udc80"]}


class _IntKeyCorpus(NamedCorpus):
    """A corpus whose description has keys that are no str, as JSON converts them."""

    def describe(self):
        return {3: "min3", "sizes": {3: "min3", None: [1.5, {True: []}]}}


def _lists(value):
    """Every list in a JSON tree, by identity (the tree keeps them alive)."""
    found = {}
    if isinstance(value, list):
        found[id(value)] = value
    for item in value.values() if isinstance(value, dict) else (
        value if isinstance(value, list) else ()
    ):
        found.update(_lists(item))
    return found


class TestStreamedSave:
    """``save`` streams its text and still never leaves a partial file."""

    def failing_saves(self, min3):
        verdict = hunt(9, _SetCorpus((min3,)))
        assert verdict.counterexamples
        graph = {"version": 1, "kind": "graph_cut", "vertices": ["a", "b\udc80"],
                 "edges": [["a", "b\udc80"]]}
        # a toolkit object's labels and names come from its caller
        triangle = (["a", "b\udc80", "c"], [["a", "b\udc80"], ["b\udc80", "c"], ["a", "c"]])
        labelled = hunt(9, NamedCorpus((graph_cut_system(*triangle, name="t"),)))
        assert labelled.counterexamples
        named = verify_theorem(12, graph_cut_system(["a", "b"], [["a", "b"]], name="g\udc80"), 0)
        return [
            ({"version": 1, "payload": 3}, SchemaError, "not recognised"),
            ([min3, {"version": 1, "k": -1, "sides": []}], SchemaError, "k must be >= 0"),
            (verdict, TypeError, "set is not JSON serializable"),
            ([min3, verdict], TypeError, "set is not JSON serializable"),
            (graph, SchemaError, r"vertices\[1\] is not encodable as UTF-8"),
            (hunt(9, _SurrogateCorpus((min3,))), UnicodeEncodeError, "surrogates not allowed"),
            (graph_cut_system(graph["vertices"], graph["edges"]), SchemaError,
             r"system\.vertices\[1\] is not encodable as UTF-8"),
            (labelled, SchemaError,
             r"counterexamples\[0\]\.system\.vertices\[1\] is not encodable as UTF-8"),
            ([min3, named], SchemaError, "system is not encodable as UTF-8"),
            (_deep_tree(), SchemaError, "^document: nested too deeply$"),
        ]

    def test_a_failed_save_keeps_an_existing_target(self, tmp_path, min3):
        path = tmp_path / "target.json"
        save(min3, path)
        before = path.read_bytes()
        for document, error, message in self.failing_saves(min3):
            with pytest.raises(error, match=message):
                save(document, path)
            assert path.read_bytes() == before

    def test_a_failed_save_creates_no_file(self, tmp_path, min3):
        path = tmp_path / "absent.json"
        for document, error, message in self.failing_saves(min3):
            with pytest.raises(error, match=message):
                save(document, path)
            assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_the_corpus_error_is_the_one_json_dumps_raises(self, min3):
        corpus = _SetCorpus((min3,)).describe()
        with pytest.raises(TypeError) as expected:
            json.dumps(corpus)
        with pytest.raises(TypeError) as raised:
            io.dumps(hunt(9, _SetCorpus((min3,))))
        assert str(raised.value) == str(expected.value)

    def test_keys_that_are_no_str_save_as_json_dumps_writes_them(self, tmp_path, min3):
        verdict = hunt(9, _IntKeyCorpus((min3,)))
        path = tmp_path / "verdict.json"
        save(verdict, path)
        text = json.dumps(io.to_document(verdict), indent=2, ensure_ascii=False) + "\n"
        assert path.read_text(encoding="utf-8") == io.dumps(verdict) == text
        assert load_document(path)["corpus"] == {
            "3": "min3", "sizes": {"3": "min3", "null": [1.5, {"true": []}]},
        }

    def test_no_write_holds_two_counterexamples(self, tmp_path, monkeypatch, min3, c4):
        verdict = hunt(9, NamedCorpus((min3, c4)))
        assert len(verdict.counterexamples) >= 2
        writes = []
        real_open = Path.open

        class Recorder:
            def __init__(self, file):
                self.file = file

            def write(self, text):
                writes.append(text)
                return self.file.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

        path = tmp_path / "verdict.json"
        with monkeypatch.context() as patch:
            patch.setattr(Path, "open", lambda self, *a, **kw: Recorder(real_open(self, *a, **kw)))
            save(verdict, path)
        assert "".join(writes) == path.read_text(encoding="utf-8") == io.dumps(verdict)
        assert max(w.count('"failing_axiom"') for w in writes) == 1
        assert sum(w.count('"failing_axiom"') for w in writes) == len(verdict.counterexamples)


def _side_lists(doc):
    """Every side of a hunt verdict document, hyperedges included, with repeats."""
    return [
        side
        for ce in doc["counterexamples"]
        for side in (*ce["sides"], *ce["witness"], *ce["system"].get("hyperedges", ()))
    ]


def _distinct(values, key):
    """(distinct objects, distinct keys) among ``values``."""
    return len({id(v) for v in values}), len({key(v) for v in values})


class TestNoAliasing:
    """The loader keeps its own parse, with equal sides, witnesses, system
    descriptors and strings within one document as one shared object, so a
    loaded document is read-only; ``to_document`` of it is the editable copy,
    each side and witness its own list, while ``copy.deepcopy`` keeps the
    sharing.  A caller's dict is copied, never shared."""

    def documents(self, min3, c4):
        hyper = hyperedge_system(4, [(0, 1), (1, 2, 3)])
        return [
            hunt(9, NamedCorpus((min3, c4, hyper))),
            check_structure(min3, 1, SeparationFamily.from_masks(min3, 1, [3, 5, 6, 7]),
                            "ultrafilter"),
            verify_theorem(12, min3, 0),
            SeparationFamily.from_masks(min3, 1, [0, 3, 5]),
            hyper,
            branch_width(c4)[1],
        ]

    def test_to_document_of_a_loaded_document_shares_no_list(self, tmp_path, min3, c4):
        for i, obj in enumerate(self.documents(min3, c4)):
            path = tmp_path / f"doc{i}.json"
            save(obj, path)
            loaded = load_document(path)
            before = copy.deepcopy(loaded)
            canonical = to_document(loaded)
            assert canonical == loaded == before
            assert not set(_lists(canonical)) & set(_lists(loaded)), i
            save(loaded, tmp_path / "again.json")
            assert loaded == before
            assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
            for side in _lists(canonical).values():
                side.append("changed")
            assert loaded == before

    def test_two_loads_are_independent(self, tmp_path, min3, c4):
        path = tmp_path / "verdict.json"
        save(self.documents(min3, c4)[0], path)
        first, second = load_document(path), load_document(path)
        assert first == second
        assert not set(_lists(first)) & set(_lists(second))
        first["counterexamples"][0]["sides"][0].append(99)
        first["corpus"]["named"].append("x")
        assert second == load_document(path)

    def test_a_load_shares_equal_sides_and_descriptors(self, tmp_path):
        # two hyperedge systems with the same n, and the hyperedge [0, 1] in both
        systems = (hyperedge_system(4, [(0, 1), (1, 2, 3)]),
                   hyperedge_system(4, [(0, 1), (2, 3)]))
        verdict = hunt(9, NamedCorpus(systems))
        path = tmp_path / "verdict.json"
        save(verdict, path)
        loaded = load_document(path)
        assert loaded == to_document(verdict)
        sides = _side_lists(loaded)
        lists, tuples = _distinct(sides, tuple)
        assert lists == tuples < len(sides)
        descriptors = [ce["system"] for ce in loaded["counterexamples"]]
        assert _distinct(descriptors, json.dumps) == (2, 2) and len(descriptors) > 2
        # the editable copy: every side its own list, every descriptor its own dict
        copied = to_document(loaded)
        assert copied == loaded
        assert _distinct(_side_lists(copied), tuple)[0] == len(sides)
        assert len({id(ce["system"]) for ce in copied["counterexamples"]}) == len(descriptors)
        deep = copy.deepcopy(loaded)
        assert deep == loaded and _distinct(_side_lists(deep), tuple) == (lists, tuples)

    def test_a_load_shares_equal_witnesses_and_strings(self, tmp_path):
        verdict = hunt(9, HuntCorpus(sizes=(4, 4, 5, 5), base_seed=3))
        path = tmp_path / "verdict.json"
        save(verdict, path)
        loaded = load_document(path)
        assert loaded == to_document(verdict)

        def witnesses(doc):
            return [ce["witness"] for ce in doc["counterexamples"]]

        lists, keys = _distinct(witnesses(loaded), json.dumps)
        assert lists == keys < len(witnesses(loaded))
        for key in ("claim", "failing_axiom"):
            assert _distinct([ce[key] for ce in loaded["counterexamples"]], str) == (1, 1)
        assert loaded["counterexamples"][0]["failing_axiom"] is AxiomId.F6.value
        # the editable copy: every witness its own list; a deep copy keeps the sharing
        copied = to_document(loaded)
        assert copied == loaded
        assert _distinct(witnesses(copied), json.dumps)[0] == len(witnesses(loaded))
        deep = copy.deepcopy(loaded)
        assert deep == loaded and _distinct(witnesses(deep), json.dumps) == (lists, keys)

    def test_a_claim_that_reads_as_a_descriptor_stays_a_string(self, tmp_path, min3):
        doc = to_document(hunt(9, NamedCorpus((min3,))))
        ce = doc["counterexamples"][0]
        doc["counterexamples"].append({**ce, "claim": json.dumps(ce["system"])})
        assert load_document(write(tmp_path, doc)) == doc

    def test_the_sharing_in_save_does_not_leak(self, tmp_path, min3, c4):
        verdict = self.documents(min3, c4)[0]
        path = tmp_path / "verdict.json"
        save(verdict, path)
        text = path.read_text(encoding="utf-8")
        assert text == io.dumps(verdict)
        doc = to_document(verdict)
        assert text == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        sides = _side_lists(doc)
        lists, tuples = _distinct(sides, tuple)
        assert lists == len(sides) > tuples

    def test_to_document_copies_the_hunt_corpus(self, min3):
        verdict = hunt(9, NamedCorpus((min3,)))
        doc = to_document(verdict)
        doc["corpus"]["named"].append("x")
        assert verdict.corpus["named"] == ["min3"]
        assert to_document(verdict)["corpus"]["named"] == ["min3"]


class _TupleCorpus(NamedCorpus):
    """A corpus whose description holds a tuple of lists."""

    def describe(self):
        return {"named": ([s.name for s in self.members], ["x"])}


class TestToDocument:
    """``to_document`` builds the document ``save`` writes, in the same
    context, then copies it."""

    def test_an_object_is_checked_as_save_checks_it(self, tmp_path):
        vertices, edges = ["a", "b\udc80"], [["a", "b\udc80"]]
        system = graph_cut_system(vertices, edges)
        for obj, message in [
            (system, r"^system\.vertices\[1\] is not encodable as UTF-8"),
            ({"version": 1, "kind": "graph_cut", "vertices": vertices, "edges": edges},
             r"^vertices\[1\] is not encodable as UTF-8"),
        ]:
            with pytest.raises(SchemaError, match=message):
                to_document(obj)
            with pytest.raises(SchemaError, match=message):
                save(obj, tmp_path / "system.json")

    def test_a_corpus_tuple_of_lists_is_copied(self, min3):
        verdict = hunt(9, _TupleCorpus((min3,)))
        doc = to_document(verdict)
        assert doc["corpus"] == verdict.corpus
        original, copied = verdict.corpus["named"], doc["corpus"]["named"]
        assert type(copied) is tuple and copied is not original
        assert not {id(v) for v in copied} & {id(v) for v in original}
        copied[0].append("changed")
        assert verdict.corpus["named"] == (["min3"], ["x"])

    def test_a_call_keeps_nothing_alive(self, tmp_path):
        system = hyperedge_system(4, [(0, 1), (1, 2, 3)])
        ref = weakref.ref(system)
        save(system, tmp_path / "system.json")
        io.dumps(system)
        del system
        gc.collect()
        assert ref() is None


def _nested(depth):
    """0 inside ``depth`` arrays, as JSON text."""
    return "[" * depth + "0" + "]" * depth


def _deep_tree():
    """A parsed branch-width document whose tree the check recurses into past the limit."""
    return {"version": 1, "system": "c4", "width": 2, "tree": json.loads(_nested(500))}


class TestUnreadableValues:
    """What the interpreter cannot read is a ``SchemaError`` naming the file,
    or the document where no file is read: nesting past the recursion limit
    and integers of more digits than ``int`` converts."""

    def deep_files(self, tmp_path):
        # a branch-width tree the check recurses into, and arrays nested past
        # what the scanner decodes
        tree = '{"version": 1, "system": "c4", "width": 2, "tree": %s}' % _nested(500)
        sides = '{"version": 1, "k": 0, "sides": %s}' % _nested(5000)
        return [write(tmp_path, tree, "tree.json"), write(tmp_path, sides, "sides.json")]

    def test_deep_nesting(self, tmp_path):
        for path in self.deep_files(tmp_path):
            with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: nested too deeply$"):
                load_document(path)
        shallow = '{"version": 1, "system": "c4", "width": 2, "tree": %s}' % _nested(100)
        assert load_document(write(tmp_path, shallow))["tree"] == json.loads(_nested(100))
        # the same tree parsed by the caller: every call refuses it alike
        for call in (to_document, io.dumps):
            with pytest.raises(SchemaError, match="^document: nested too deeply$"):
                call(_deep_tree())

    def test_deep_nesting_exits_two(self, tmp_path):
        for path in self.deep_files(tmp_path):
            result = CliRunner().invoke(main, [
                "check", "--system", "min3", "--family", str(path), "--kind", "tangle",
            ])
            assert result.exit_code == 2, result.output
            assert "nested too deeply" in result.output

    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    def test_an_integer_of_too_many_digits(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(io, "_CHUNK", chunk)
        huge = "9" * 5000
        for text in (
            '{"version": 1, "k": %s, "sides": [[0]]}' % huge,
            '{"version": 1, "k": 0, "sides": [[0, %s]]}' % huge,
        ):
            path = write(tmp_path, text)
            message = rf"^{re.escape(str(path))}: Exceeds the limit \(4300 digits\)"
            with pytest.raises(SchemaError, match=message):
                load_document(path)
        digits = "9" * 4300  # the most int() converts
        assert load_document(write(tmp_path, '{"version": 1, "k": %s, "sides": []}' % digits)) == {
            "version": 1, "k": int(digits), "sides": [],
        }


def whole_text_load(path):
    """The loader as it was with ``json.loads`` of the whole text: the reference."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, object_pairs_hook=io._reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    return to_document(doc)


def outcome(load, path):
    try:
        return load(path)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


# the texts put in place of each character, and before it, taking turns
_EDITS = ("", "}", "]", ",", '"', "0", " ", "\\", ":", "{", "[", "x", "-", ".", "e", "\n",
          "\r", "\ufeff", "é", "1", "null", '"k": 1, ')


class TestStreamedLoad:
    """Loading chunk by chunk and entry by entry gives what loading the whole
    text gives: the same document, or the same error text, which names the
    same line, column and char."""

    CHUNK = 5  # characters, which ``io._CHUNK`` counts: values and entries cross chunks

    @pytest.fixture
    def text(self):
        # two counterexamples, and a name whose characters take two bytes
        systems = (builtin_system("min3"), min_cardinality_system(3, name="mïn3"))
        text = io.dumps(hunt(9, NamedCorpus(systems)))
        assert text.count('"failing_axiom"') == 2 and len(text.encode()) > len(text)
        return text

    def assert_same(self, path, data):
        path.write_bytes(data.encode())
        expected = outcome(whole_text_load, path)
        assert outcome(load_document, path) == expected, data
        return expected

    def test_every_truncation(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(io, "_CHUNK", self.CHUNK)
        path = tmp_path / "doc.json"
        outcomes = [self.assert_same(path, text[:end]) for end in range(len(text) + 1)]
        assert outcomes[-1] == outcomes[-2] == to_document(json.loads(text))
        assert len({o for o in outcomes if isinstance(o, str)}) > len(text) / 2

    def test_every_position_edited(self, tmp_path, monkeypatch, text):
        monkeypatch.setattr(io, "_CHUNK", self.CHUNK)
        path = tmp_path / "doc.json"
        for i in range(len(text)):
            edit = _EDITS[i % len(_EDITS)]
            self.assert_same(path, text[:i] + edit + text[i + 1:])
            self.assert_same(path, text[:i] + edit + text[i:])

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1 << 20])
    def test_special_texts(self, tmp_path, monkeypatch, text, chunk):
        monkeypatch.setattr(io, "_CHUNK", chunk)
        path = tmp_path / "doc.json"
        entry = text.index('"k": 1')
        cases = [
            text, text.replace("\n", "\r\n"), text.replace("\n", "\r"),
            "\ufeff" + text, " \ufeff" + text, text + "\n\n  ", text + "x", text + "{}",
            "", "   \n ", "[1, 2]", "5", "-", "nul", '"text"', "{}", " {\n}\n", "{", "{,}",
            '{"version": 1, "k": 0, "sides": [], "k": 1}',
            '{"version": 1, "k": 0, "k": 1, "sides": [}',
            '{"version": 1, "k": 0, "sides": [[0]],}',
            '{"version": 1, "k": 12345678901234567890123, "sides": [[0]]}',
            text[:entry] + '"k": 1, "k": 2' + text[entry + 6:],
            text[:entry] + '"k": -1' + text[entry + 6:],
            text[:entry] + '"k": -1' + text[entry + 6:-30],
            text.replace('"problem": 9', '"problem": 8').replace('"k": 1', '"k": -1', 1),
            text.replace('"problem": 9', '"tree": 0'),
            text.replace('"counterexamples": [', '"counterexamples": [],\n"x": [', 1),
            text.replace("\n    {", "\n    {},{", 1),
            '{"version": 1, "problem": 9, "counterexamples": [1, 2,]}',
            '{"version": 1, "problem": 9, "counterexamples": [1 2]}',
            '{"version": 1, "problem": 9, "counterexamples": {}}',
            '{"version": 1, "problem": 9, "counterexamples": [{"a": 1, "a": 2}]}',
        ]
        for data in cases:
            self.assert_same(path, data)
        assert self.assert_same(path, text) == whole_text_load(path)

    def test_entries_come_back_in_key_order(self, tmp_path, text):
        # every object but the free-form corpus with its keys reversed
        doc = json.loads(text, object_pairs_hook=lambda pairs: dict(
            pairs if pairs[0][0] == "named" else reversed(pairs)
        ))
        path = write(tmp_path, doc)
        loaded = load_document(path)
        assert json.dumps(loaded, indent=2, ensure_ascii=False) + "\n" == text
        save(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text(encoding="utf-8") == text

    def test_the_text_is_never_whole(self, tmp_path, monkeypatch, min3, c4):
        verdict = hunt(9, NamedCorpus((min3, c4)))
        path = tmp_path / "verdict.json"
        save(verdict, path)
        held = []
        more = io._Reader.more

        def recording(reader):
            done = more(reader)
            held.append(len(reader.text))
            return done

        monkeypatch.setattr(io, "_CHUNK", 256)
        monkeypatch.setattr(io._Reader, "more", recording)
        assert load_document(path) == to_document(verdict)
        assert len(held) > 10 and max(held) < path.stat().st_size / 4

    def test_a_byte_that_is_not_utf8(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_CHUNK", 4)
        head = '{"version": 1, "kind": "graph_cut", "vertices": ["é'.encode()
        for bad, message in [
            (b"\xff", "invalid start byte"),
            (b"\xc3(", "invalid continuation byte"),
            (b"\xe6\x97", "unexpected end of data"),
        ]:
            for pad in range(4):  # the bad byte at each place within a chunk
                data = head + b"a" * pad + bad
                if "end of data" not in message:
                    data += b'"], "edges": []}'
                path = tmp_path / "bad.json"
                path.write_bytes(data)
                with pytest.raises(SchemaError) as err:
                    load_document(path)
                assert str(err.value) == (
                    f"{path} is not valid UTF-8: {message} at byte {len(head) + pad}"
                )

    def test_characters_split_across_chunks(self, tmp_path, monkeypatch):
        labels = ["日本", "Ørsted", "😀"]
        system = graph_cut_system(labels, [labels[:2], labels[1:]])
        path = tmp_path / "system.json"
        save(system, path)
        for chunk in range(1, 9):
            monkeypatch.setattr(io, "_CHUNK", chunk)
            assert load_document(path) == to_document(system)
            assert load_system(path).vertices == tuple(labels)


class TestErrorPath:
    """A malformed file is read again, whole, from its first byte: decoded
    first, then parsed, so a bad byte is reported wherever the reader
    stopped."""

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
    def test_a_bad_byte_after_the_syntax_error(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(io, "_CHUNK", chunk)
        # the doubled comma comes 64 KiB ahead of the bad byte
        head = b'{"version": 1,, "k": 0, "sides": [' + b" " * (1 << 16)
        path = tmp_path / "doc.json"
        path.write_bytes(head + b" ]}")
        with pytest.raises(SchemaError) as err:
            load_document(path)
        assert str(err.value) == (
            f"{path} is not valid JSON: Expecting property name enclosed in double "
            "quotes: line 1 column 15 (char 14)"
        )
        path.write_bytes(head + b"\xff]}")
        with pytest.raises(SchemaError) as err:
            load_document(path)
        assert str(err.value) == (
            f"{path} is not valid UTF-8: invalid start byte at byte {len(head)}"
        )


@contextmanager
def pipe_holding(tmp_path, data, seconds=10):
    """A named pipe that one thread opens, fills with ``data`` and closes; the
    block fails if it runs ``seconds`` (a reader that opens the pipe again
    would wait for a writer forever)."""
    path = tmp_path / "doc.fifo"
    os.mkfifo(path)

    def write():
        try:
            with open(path, "wb") as pipe:
                pipe.write(data)
        except BrokenPipeError:  # the reader closed its end first
            pass

    def expire(signum, frame):
        pytest.fail(f"reading the pipe took over {seconds} s")

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield path
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        writer.join(seconds)
    assert not writer.is_alive()


class TestPipeInput:
    """A pipe is read once: a valid document loads from it as from a file, and
    a malformed one, which cannot be read again, raises instead of blocking."""

    FAMILY = b'{"version": 1, "k": 1, "sides": [[], [0]]}\n'
    MALFORMED = b'{"version": 1, "k": 1, "sides": [[], [0],]}\n'

    def test_a_valid_document_loads(self, tmp_path, min3):
        with pipe_holding(tmp_path, self.FAMILY) as path:
            family = load_family(path, min3)
        assert family.member_masks == SeparationFamily.from_masks(min3, 1, [0, 1]).member_masks

    def test_a_malformed_document_cannot_be_read(self, tmp_path):
        with pipe_holding(tmp_path, self.MALFORMED) as path:
            with pytest.raises(SchemaError) as err:
                load_document(path)
        message = str(err.value)
        assert message.startswith(f"cannot read {path}: ") and "not seekable" in message

    def test_check_exits_two(self, tmp_path):
        with pipe_holding(tmp_path, self.MALFORMED) as path:
            result = CliRunner().invoke(main, [
                "check", "--system", "min3", "--family", str(path), "--kind", "tangle",
            ])
        assert result.exit_code == 2
        assert f"cannot read {path}" in result.output
