"""Set-function construction, evaluation, and the four-inequality verifier."""

import gc
import hashlib
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit import (
    ConnectivitySystem,
    FunctionAxiomError,
    GroundSetLimitError,
    build_system,
    explicit_system,
    graph_boundary_system,
    graph_cut_system,
    hyperedge_system,
    min_cardinality_system,
    random_hyperedge_system,
    save,
    standard_corpus,
    system_descriptor,
    verify_axioms,
)
from tanglekit import connectivity, load_system
from tanglekit.connectivity import (
    CHECK_EMPTY_SET_MINIMUM,
    CHECK_POSIMODULARITY,
    CHECK_SUBMODULARITY,
    CHECK_SYMMETRY,
    SAMPLE_CHUNK,
    SYSTEM_KINDS,
)

import oracle

MIN3_TABLE = (0, 1, 1, 1, 1, 1, 1, 0)


class TestBuilders:
    def test_min_cardinality_matches_oracle(self, min3):
        f = oracle.min_cardinality_fn(3)
        for mask in range(8):
            elems = frozenset(e for e in range(3) if mask >> e & 1)
            assert min3.evaluate(mask) == f(elems)
        assert tuple(int(v) for v in min3.table()) == MIN3_TABLE

    def test_path_boundary_values(self, p3):
        # ground set = the two edges of a-b-c; the shared vertex b is the
        # only one with incident edges on both sides
        assert p3.n == 2
        assert [p3.evaluate(m) for m in range(4)] == [0, 1, 1, 0]
        assert p3.labels() == ("a-b", "b-c")

    def test_cycle_boundary_matches_oracle(self, c4):
        f = oracle.graph_edge_boundary_fn(c4.edges)
        for mask in range(16):
            elems = frozenset(e for e in range(4) if mask >> e & 1)
            assert c4.evaluate(mask) == f(elems)
        assert c4.max_order() == 4

    def test_k4_edge_boundary_values(self, k4):
        # elements are K4's six edges; both endpoints of a lone edge still
        # meet outside edges, so every singleton has order 2
        assert [k4.evaluate(1 << e) for e in range(6)] == [2] * 6
        edges = k4.edges
        for i in range(6):
            for j in range(i + 1, 6):
                shared = set(edges[i]) & set(edges[j])
                want = 3 if shared else 4
                assert k4.evaluate(1 << i | 1 << j) == want
        assert k4.max_order() == 4

    def test_k4_efficient_sides_frozen(self, k4):
        table = k4.table()
        sides = sorted(m for m in range(64) if table[m] <= 2)
        assert sides == [0, 1, 2, 4, 8, 16, 31, 32, 47, 55, 59, 61, 62, 63]

    def test_hyperedge_determinism(self):
        a = random_hyperedge_system(5, 5, 3, seed=42)
        b = random_hyperedge_system(5, 5, 3, seed=42)
        assert a.hyperedges == b.hyperedges
        assert list(a.table()) == list(b.table())

    def test_hyperedge_empty_is_zero(self):
        s = hyperedge_system(2, [])
        assert [s.evaluate(m) for m in range(4)] == [0, 0, 0, 0]

    def test_triangle_hyperedges_count_splits(self):
        s = hyperedge_system(3, [(0, 1), (1, 2), (0, 2)])
        # each singleton splits exactly its two incident pairs
        assert [s.evaluate(1 << e) for e in range(3)] == [2, 2, 2]

    def test_to_explicit_pointwise_equal(self, min3):
        exp = min3.to_explicit()
        for mask in range(8):
            assert exp.evaluate(mask) == min3.evaluate(mask)

    def test_build_system_round_trip(self, c4):
        rebuilt = build_system(system_descriptor(c4))
        assert list(rebuilt.table()) == list(c4.table())

    def test_build_system_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fields"):
            build_system({"kind": "min_cardinality", "n": 3, "extra": 1})

    def test_build_system_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing fields"):
            build_system({"kind": "explicit", "n": 3})


class TestValidation:
    def test_explicit_rejects_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            explicit_system([0, 1, 1])

    def test_explicit_rejects_negative_and_bool(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            explicit_system([0, -1, 1, 0])
        with pytest.raises(ValueError, match="non-negative integer"):
            explicit_system([0, True, 1, 0])

    def test_graph_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_boundary_system(["a", "b"], [("a", "a")])

    def test_graph_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            graph_cut_system(["a", "b"], [("a", "c")])

    def test_hyperedge_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            hyperedge_system(3, [(0, 3)])

    def test_hyperedge_rejects_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            hyperedge_system(3, [(1, 1)])

    @pytest.mark.parametrize("descriptor, field", [
        ({"kind": "hyperedge_boundary", "n": 3, "hyperedges": 5}, "hyperedges"),
        ({"kind": "hyperedge_boundary", "n": 3, "hyperedges": [5]}, "hyperedges"),
        ({"kind": "graph_cut", "vertices": ["a", "b"], "edges": 5}, "edges"),
        ({"kind": "graph_boundary", "vertices": "abc", "edges": [["a", "b"]]}, "vertices"),
    ])
    def test_build_system_names_a_malformed_field(self, descriptor, field):
        with pytest.raises(ValueError, match=f"{descriptor['kind']} {field} must be a list"):
            build_system(descriptor)


HYPER = {"kind": "hyperedge_boundary", "n": 3, "hyperedges": [[0, 1]]}


class TestSharedBuilds:
    """build_system returns the live system of an identical descriptor and name."""

    @pytest.fixture
    def spot_checks(self, monkeypatch):
        calls = []
        check = connectivity._spot_check
        monkeypatch.setattr(connectivity, "_spot_check", lambda s: calls.append(s) or check(s))
        return calls

    def test_an_equal_descriptor_and_name_share_the_live_system(self, spot_checks):
        system = build_system(HYPER, name="h")
        assert build_system({"kind": "hyperedge_boundary", "n": 3, "hyperedges": [(0, 1)]},
                            name="h") is system
        assert build_system(system_descriptor(system), name="h") is system
        assert spot_checks == [system]

    def test_names_and_labels_keep_systems_apart(self):
        system = build_system(HYPER)
        assert build_system(HYPER, name="h") is not system
        assert build_system({**HYPER, "hyperedges": [[1, 2]]}) is not system
        cut = build_system({"kind": "graph_cut", "vertices": ["a", "b"], "edges": [["a", "b"]]})
        other = build_system({"kind": "graph_cut", "vertices": ["x", "y"], "edges": [["x", "y"]]})
        assert other is not cut and other.labels() == ("x", "y")

    def test_a_dead_system_is_built_and_checked_again(self, spot_checks):
        system = build_system(HYPER)
        ref = weakref.ref(system)
        del system
        spot_checks.clear()
        gc.collect()
        assert ref() is None
        rebuilt = build_system(HYPER)
        assert spot_checks == [rebuilt]

    @pytest.mark.parametrize("bad", [True, 1.0, 5])
    def test_rejected_descriptors_raise_while_a_valid_one_lives(self, bad):
        system = build_system(HYPER)
        with pytest.raises(ValueError):
            build_system({**HYPER, "hyperedges": [[0, bad]]})
        assert build_system(HYPER) is system

    def test_descriptors_json_cannot_encode_build_as_before(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            build_system({**HYPER, "hyperedges": [[0, np.int64(1)]]})
        system = build_system(HYPER, name=["unhashable"])
        assert build_system(HYPER, name=["unhashable"]) is not system

    def test_named_builders_return_fresh_systems(self):
        assert hyperedge_system(3, [(0, 1)]) is not hyperedge_system(3, [(0, 1)])

    def test_loading_one_file_twice_gives_one_system(self, tmp_path):
        path = tmp_path / "h.json"
        save(hyperedge_system(3, [(0, 1)]), path)
        system = load_system(path)
        assert load_system(path) is system and system.name == "h"


class TestVerifier:
    def test_named_systems_verify_exhaustively(self, min3, p3, c4, k4):
        for s in (min3, p3, c4, k4):
            report = verify_axioms(s)
            assert report.passed
            assert s.verified

    def test_planted_symmetry_violation(self):
        values = list(MIN3_TABLE)
        values[1] = 5
        with pytest.raises(FunctionAxiomError) as err:
            explicit_system(values)
        assert err.value.witness == (1,)

    def test_planted_submodularity_violation(self):
        # patched symmetrically so only submodularity breaks:
        # f({0}) + f({1}) = 2 < f(empty) + f({0,1}) = 9
        values = list(MIN3_TABLE)
        values[3] = values[4] = 9
        with pytest.raises(FunctionAxiomError) as err:
            explicit_system(values)
        assert err.value.witness == (1, 2)

    def test_verifier_reports_witness_without_builder(self):
        values = list(MIN3_TABLE)
        values[3] = values[4] = 9
        raw = ConnectivitySystem(3, "explicit", values=tuple(values))
        report = verify_axioms(raw)
        assert not report.passed
        assert report.check(CHECK_SYMMETRY).passed
        assert report.check(CHECK_EMPTY_SET_MINIMUM).passed
        sub = report.check(CHECK_SUBMODULARITY)
        assert not sub.passed and sub.witness == (1, 2)
        assert not raw.verified

    def test_posimodularity_checked(self, c4):
        report = verify_axioms(c4)
        assert report.check(CHECK_POSIMODULARITY).passed

    def test_exhaustive_limit(self):
        big = min_cardinality_system(13)
        with pytest.raises(GroundSetLimitError):
            verify_axioms(big, "exhaustive")
        assert verify_axioms(big, "sampled", samples=500).passed

    def test_sampled_finds_planted_violation(self):
        values = [0] * 16
        values[1] = 7  # asymmetric at {e0}
        raw = ConnectivitySystem(4, "explicit", values=tuple(values))
        report = verify_axioms(raw, "sampled", samples=2000)
        assert not report.check(CHECK_SYMMETRY).passed

    @given(
        n=st.integers(min_value=2, max_value=6),
        count=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_hyperedge_systems_verify(self, n, count, seed):
        s = random_hyperedge_system(n, count, min(3, n), seed)
        assert verify_axioms(s).passed

    @given(n=st.integers(min_value=1, max_value=10))
    @settings(max_examples=15, deadline=None)
    def test_min_cardinality_is_popcount_min(self, n):
        s = min_cardinality_system(n)
        full = (1 << n) - 1
        for mask in range(0, full + 1, max(1, full // 64)):
            pop = bin(mask).count("1")
            assert s.evaluate(mask) == min(pop, n - pop)


def _fresh_systems():
    """One small system of each kind, plus a one-element system of each kind."""
    return [
        explicit_system(MIN3_TABLE),
        explicit_system((1, 1)),
        graph_cut_system("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")]),
        graph_cut_system(["a"], []),
        graph_boundary_system("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w"), ("w", "y")]),
        graph_boundary_system(["a", "b"], [("a", "b")]),
        random_hyperedge_system(7, 7, 3, seed=5),
        hyperedge_system(1, [(0,)]),
        min_cardinality_system(9),
        min_cardinality_system(1),
    ]


class TestEvaluateMany:
    def test_every_kind_matches_evaluate_and_table(self):
        systems = _fresh_systems()
        assert {s.kind for s in systems if s.n == 1} == set(SYSTEM_KINDS)
        assert {s.kind for s in systems if s.n > 1} == set(SYSTEM_KINDS)
        for s in systems:
            many = s.evaluate_many(np.arange(1 << s.n))  # before any table exists
            assert many.dtype == np.int64
            assert many.tolist() == [s.evaluate(m) for m in range(1 << s.n)], s
            table = s.table()
            assert table.dtype == np.int64
            assert table.tolist() == many.tolist(), s
            assert s.evaluate_many(np.arange(1 << s.n)).tolist() == many.tolist()

    def test_keeps_the_shape_of_its_input(self, k4):
        masks = np.array([[0, 1, 2], [61, 62, 63]])
        assert k4.evaluate_many(masks).tolist() == [
            [k4.evaluate(int(m)) for m in row] for row in masks
        ]

    def test_out_of_range_masks_raise(self):
        for s in _fresh_systems():
            for cached in (False, True):
                if cached:
                    s.table()
                for bad in ([-1], [0, s.full_mask + 1], [s.full_mask, -5, 1 << 40]):
                    with pytest.raises(ValueError, match="outside the ground set"):
                        s.evaluate_many(np.array(bad))


def _oracle_systems():
    """(system, oracle f over frozensets) for each structured kind, at n <= 16
    and past the enumeration cap, where ``evaluate`` builds no table."""
    rng = random.Random(11)
    out = []
    for n in (6, 17):
        cut_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        out.append((
            graph_cut_system([str(v) for v in range(n)],
                             [(str(u), str(v)) for u, v in cut_edges]),
            oracle.graph_cut_fn(n, cut_edges),
        ))
        # a cycle on the edges' vertices plus chords: n edges in all
        m = n // 2 + 1
        edges = [(f"v{i}", f"v{(i + 1) % m}") for i in range(m)]
        edges += [(f"v{i}", f"v{(i + 2) % m}") for i in range(n - m)]
        out.append((graph_boundary_system([f"v{i}" for i in range(m)], edges),
                    oracle.graph_edge_boundary_fn(edges)))
        hyper = random_hyperedge_system(n, n, 3, seed=n)
        out.append((hyper, oracle.split_count_fn([frozenset(h) for h in hyper.hyperedges])))
        out.append((min_cardinality_system(n + 3), oracle.min_cardinality_fn(n + 3)))
    return out


class TestEvaluateMatchesOracle:
    def test_every_structured_kind_on_fresh_systems(self):
        """``evaluate`` reads f through the table below the cap and through
        ``evaluate_many`` beyond it; both must equal the naive definitions."""
        systems = _oracle_systems()
        assert {s.kind for s, _ in systems} == set(SYSTEM_KINDS) - {"explicit"}
        assert {s.kind for s, _ in systems if s.n > 16} == {s.kind for s, _ in systems}
        for s, f in systems:
            assert s._table is None
            masks = range(1 << s.n) if s.n <= 16 else random.Random(s.n).sample(
                range(1 << s.n), 2000
            )
            for mask in masks:
                side = frozenset(e for e in range(s.n) if mask >> e & 1)
                assert s.evaluate(mask) == f(side), (s, mask)
            # the first read builds the table below the cap, and none beyond
            assert (s._table is None) == (s.n > 16), s


class TestSampledVerifier:
    @pytest.mark.parametrize("samples", [0, -3, True, 2.5, "10"])
    def test_runs_that_examine_nothing_are_rejected(self, min3, samples):
        with pytest.raises(ValueError, match="samples"):
            verify_axioms(min3, "sampled", samples=samples)

    @given(
        n=st.integers(min_value=1, max_value=9),
        values=st.lists(st.integers(min_value=0, max_value=3), min_size=512, max_size=512),
        symmetric=st.booleans(),
        samples=st.sampled_from([1, 37, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 5]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_explicit_tables_match_the_reference(self, n, values, symmetric, samples, seed):
        full = (1 << n) - 1
        values = values[: full + 1]
        if symmetric:
            values = [max(v, values[m ^ full]) for m, v in enumerate(values)]
        raw = ConnectivitySystem(n, "explicit", values=tuple(values))
        report = verify_axioms(raw, "sampled", samples=samples, seed=seed)
        expected = oracle.verify_sampled_reference(values.__getitem__, n, samples, seed)
        assert _report_entry(report) == expected

    @given(
        n=st.integers(min_value=2, max_value=12),
        count=st.integers(min_value=0, max_value=8),
        system_seed=st.integers(min_value=0, max_value=10_000),
        samples=st.sampled_from([128, SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 5]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_hyperedge_systems_match_the_reference(self, n, count, system_seed, samples, seed):
        s = random_hyperedge_system(n, count, min(3, n), system_seed)
        f = oracle.split_count_fn([frozenset(h) for h in s.hyperedges])
        expected = oracle.verify_sampled_reference(
            lambda m: f(frozenset(e for e in range(n) if m >> e & 1)), n, samples, seed
        )
        assert _report_entry(verify_axioms(s, "sampled", samples=samples, seed=seed)) == expected

    def test_witness_drawn_past_the_first_chunk(self):
        # 13 elements, one asymmetric entry: seed 4 first draws it or its
        # complement as pair 6147, in the second chunk
        values = min_cardinality_system(13).table().tolist()
        values[5] += 1
        raw = ConnectivitySystem(13, "explicit", values=tuple(values))
        samples = 3 * SAMPLE_CHUNK
        report = verify_axioms(raw, "sampled", samples=samples, seed=4)
        assert _report_entry(report) == oracle.verify_sampled_reference(
            values.__getitem__, 13, samples, 4
        )
        rng = random.Random(4)
        draws = [rng.randrange(1 << 13) for _ in range(2 * samples)][::2]
        (witness,) = report.check(CHECK_SYMMETRY).witness
        assert draws.index(witness) == 6147

    def test_builds_make_no_scalar_evaluate_call(self, monkeypatch, k4):
        calls = []
        evaluate = ConnectivitySystem.evaluate

        def counted(system, mask):
            calls.append(mask)
            return evaluate(system, mask)

        monkeypatch.setattr(ConnectivitySystem, "evaluate", counted)
        hyper = standard_corpus()[-1]
        assert hyper.kind == "hyperedge_boundary"
        for s in (hyper, k4):
            build_system(system_descriptor(s))
        assert calls == []


class TestExhaustiveVerifier:
    @given(
        n=st.integers(min_value=1, max_value=6),
        values=st.lists(st.integers(min_value=0, max_value=3), min_size=64, max_size=64),
        symmetric=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_explicit_tables_match_the_reference(self, n, values, symmetric):
        full = (1 << n) - 1
        values = values[: full + 1]
        if symmetric:
            values = [max(v, values[m ^ full]) for m, v in enumerate(values)]
        raw = ConnectivitySystem(n, "explicit", values=tuple(values))
        expected = oracle.verify_exhaustive_reference(values.__getitem__, n)
        assert _report_entry(verify_axioms(raw)) == expected
        assert raw.verified == all(passed for _, passed, _ in expected[2])


def _report_entry(report):
    return (
        report.mode,
        report.pairs_checked,
        tuple((c.name, c.passed, c.witness) for c in report.checks),
    )


def pinned_tables():
    """300 seeded explicit tables, n = 2..7, nearly all failing some axiom.

    A third hold random values, a third random symmetric values (so that
    submodularity and posimodularity fail with symmetry intact) and a third
    are hyperedge tables with one entry bumped by one.
    """
    rng = random.Random(2024)
    tables = []
    for i in range(300):
        n = 2 + i % 6
        size = 1 << n
        if i % 3 == 0:
            values = [rng.randrange(4) for _ in range(size)]
        elif i % 3 == 1:
            values = [0] * size
            for m in range(size // 2):
                values[m] = values[m ^ (size - 1)] = rng.randrange(4)
        else:
            h = random_hyperedge_system(n, n, min(3, n), seed=rng.randrange(10**6))
            values = [int(v) for v in h.table()]
            values[rng.randrange(size)] += 1
        tables.append(tuple(values))
    return tables


def planted_13_element_tables():
    """Two 13-element tables past the exhaustive limit, each with a planted
    violation that only the 65,536-sample fallback can see."""
    base = list(min_cardinality_system(13).table().tolist())
    raised_floor = list(base)
    raised_floor[0] = raised_floor[-1] = 3
    asymmetric = list(base)
    asymmetric[5] += 1
    return [tuple(raised_floor), tuple(asymmetric)]


class TestVerificationPin:
    def test_reports_and_rejections_match_the_pin(self):
        """Every verifier report and every explicit-table rejection, frozen.

        Covers sampled mode at (128, 0), (2000, 7) and (20000, 3) and
        exhaustive mode on freshly built corpus systems (the four builtins
        among them) and on ``pinned_tables``, plus the FunctionAxiomError
        message and witness of ``explicit_system`` on every pinned table and
        on the 13-element tables of the sampled fallback.  Any change to a
        draw, a check or the order in which witnesses are found changes the
        digest.
        """
        configs = (("sampled", 128, 0), ("sampled", 2000, 7), ("sampled", 20000, 3))
        descriptors = [system_descriptor(s) for s in standard_corpus()]
        tables = pinned_tables()
        digest = hashlib.sha256()
        entries = 0
        for mode, samples, seed in configs + (("exhaustive", 0, 0),):
            kw = {"samples": samples, "seed": seed} if mode == "sampled" else {}
            systems = [build_system(d) for d in descriptors] + [
                ConnectivitySystem(len(v).bit_length() - 1, "explicit", values=v)
                for v in tables
            ]
            for system in systems:
                report = verify_axioms(system, mode, **kw)
                digest.update(repr(_report_entry(report)).encode())
                entries += 1
        rejected = 0
        for values in tables + planted_13_element_tables():
            try:
                explicit_system(values)
                outcome = ("accepted",)
            except FunctionAxiomError as err:
                outcome = (str(err), err.witness)
                rejected += 1
            digest.update(repr(outcome).encode())
        assert entries == 4 * (28 + 300)
        assert rejected == 289
        assert digest.hexdigest() == (
            "a6b67fd7e68f3fbdf5f8a52af6311040230865e16189a9e6d920dc69974c713f"
        )
