from dataclasses import replace

import pytest

from srcartier.cartier import (
    InconsistencyError,
    Verdict,
    classify,
    classify_via_free_face,
    classify_via_ideal,
    complex_of_ideal,
    count_complexes_oracle,
    cross_validate,
    enumerate_complexes,
    free_face_scan,
    ideal_of_complex,
    random_complex,
    witness_monomial,
)
from srcartier import cartier, monomials
from srcartier.complexes import (
    FreeFacePair,
    SimplicialComplex,
    build_complex,
    full_simplex,
    minimal_nonfaces,
    vertex_mask,
)
from srcartier.monomials import minimize, parse_monomial, zero_ideal

PG = Verdict.PRINCIPALLY_GENERATED
INF = Verdict.INFINITELY_GENERATED


def ideal(n, *gens):
    return minimize([parse_monomial(g, n) for g in gens], n)


class TestCorrespondence:
    def test_path_ideal(self, path):
        assert ideal_of_complex(path) == ideal(3, "x1*x3")

    def test_whiskered_tetra_ideal(self, whiskered_tetra):
        assert ideal_of_complex(whiskered_tetra) == ideal(
            5, "x3*x5", "x4*x5", "x1*x2*x5", "x1*x2*x3*x4")

    def test_full_simplex_zero_ideal(self):
        assert ideal_of_complex(full_simplex(3)) == zero_ideal(3)

    def test_inverse(self, path):
        assert complex_of_ideal(ideal(3, "x1*x3")) == path

    def test_zero_to_full_simplex(self):
        assert complex_of_ideal(zero_ideal(3)) == full_simplex(3)

    def test_variables_to_irrelevant(self):
        got = complex_of_ideal(ideal(3, "x1", "x2", "x3"))
        assert got == build_complex([], 3)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            complex_of_ideal(ideal(2, "x1^2"))

    def test_twelve_disjoint_edges(self):
        # 2^12 pure facets: one endpoint of each edge x_{2i-1} x_{2i}.
        got = complex_of_ideal(ideal(24, *(f"x{2 * i + 1}*x{2 * i + 2}" for i in range(12))))
        expected = {sum(1 << (2 * i + (choice >> i & 1)) for i in range(12))
                    for choice in range(1 << 12)}
        assert len(got.facets) == 4096 and got.facets == expected

    def test_roundtrip_exhaustive_n4(self):
        for n in range(1, 5):
            for cx in enumerate_complexes(n):
                assert complex_of_ideal(ideal_of_complex(cx)) == cx


class TestIdealCriterion:
    def test_whiskered_tetra(self, whiskered_tetra):
        assert classify_via_ideal(whiskered_tetra, 2).verdict is PG

    def test_vertex_and_edge(self, vertex_and_edge):
        report = classify_via_ideal(vertex_and_edge, 2)
        assert report.verdict is INF
        assert report.colon_lhs == ("x1^2*x2", "x1*x2*x3", "x2*x3^2")
        assert report.colon_rhs == ("x1*x2*x3", "x1^2*x2^2", "x2^2*x3^2")
        assert report.monomial_witness == "x1^2*x2"

    def test_hollow_triangle(self, hollow_triangle):
        report = classify_via_ideal(hollow_triangle, 2)
        assert report.verdict is PG
        assert report.colon_lhs == ("x1*x2*x3",)
        assert report.colon_rhs == ("x1*x2*x3",)

    def test_full_simplex_short_circuit(self):
        report = classify_via_ideal(full_simplex(4), 2)
        assert report.verdict is PG
        assert report.colon_lhs == () and report.colon_rhs == ()

    def test_path_is_pg(self, path):
        # The path is a cone over vertex 2; the support-vertex form of the
        # identity holds, so the ring is principally generated.
        assert classify_via_ideal(path, 2).verdict is PG

    def test_bad_q(self, path):
        with pytest.raises(ValueError):
            classify_via_ideal(path, 1)

    def test_report_is_read_off_the_pairs(self, monkeypatch):
        # Built from the ideals of `ideal_test`, the report has the same
        # verdict and strings, and its witness is the first lhs generator
        # outside the rhs ideal; read off the pairs, no ideal is built.
        def from_ideals(cx, q):
            identity = cartier.ideal_test(cx, q)
            offending = next(identity.offending(), None)
            strings = (() if identity.lhs.is_unit() else
                       (tuple(identity.lhs.gens_strings()), tuple(identity.rhs.gens_strings())))
            return (identity.verdict, strings,
                    monomials.format_monomial(offending) if offending else None)

        def forbidden(*args):
            raise AssertionError("classify_via_ideal built the identity as ideals")

        cases = [(cx, q) for n in range(5) for cx in enumerate_complexes(n) for q in (2, 3)]
        expected = [from_ideals(cx, q) for cx, q in cases]
        monkeypatch.setattr(cartier, "_pair_ideal", forbidden)
        monkeypatch.setattr(cartier, "ideal_test", forbidden)
        for (cx, q), want in zip(cases, expected):
            report = classify_via_ideal(cx, q)
            strings = (report.colon_lhs, report.colon_rhs) if report.colon_lhs else ()
            assert (report.verdict, strings, report.monomial_witness) == want, (cx, q)


class TestFreeFaceCriterion:
    def test_whiskered_tetra(self, whiskered_tetra):
        assert classify_via_free_face(whiskered_tetra).verdict is PG

    def test_vertex_and_edge(self, vertex_and_edge):
        report = classify_via_free_face(vertex_and_edge)
        assert report.verdict is INF
        assert report.free_face_witness == ((1,), (1, 3))
        assert report.monomial_witness == "x1^2*x2"

    def test_cone_over_hollow_uses_core(self, cone_over_hollow):
        # Δ itself has free faces, but its core (the hollow triangle) has
        # none; the core-first order of operations is essential.
        assert classify_via_free_face(cone_over_hollow).verdict is PG

    def test_path_is_pg(self, path):
        # Same guard as the cone fixture: the path is a cone over vertex 2.
        assert classify_via_free_face(path).verdict is PG


class TestWitnessMonomial:
    def test_vertex_and_edge(self, vertex_and_edge):
        pair = FreeFacePair(vertex_mask({1}, 3), vertex_mask({1, 3}, 3))
        assert witness_monomial(vertex_and_edge, pair) == (2, 1, 0)

    def test_edge_plus_point(self):
        cx = build_complex([{1, 2}, {3}], 3)
        pair = FreeFacePair(vertex_mask({1}, 3), vertex_mask({1, 2}, 3))
        assert witness_monomial(cx, pair) == (2, 0, 1)

    def test_requires_core(self, path):
        pair = FreeFacePair(vertex_mask({1}, 3), vertex_mask({1, 2}, 3))
        with pytest.raises(ValueError):
            witness_monomial(path, pair)

    def test_invalid_pair(self, vertex_and_edge):
        pair = FreeFacePair(vertex_mask({2}, 3), vertex_mask({1, 3}, 3))
        with pytest.raises(ValueError):
            witness_monomial(vertex_and_edge, pair)


class TestClassify:
    def test_whiskered_tetra_both(self, whiskered_tetra):
        report = classify(whiskered_tetra)
        assert report.verdict is PG

    def test_vertex_and_edge_both(self, vertex_and_edge):
        report = classify(vertex_and_edge)
        assert report.verdict is INF
        assert report.free_face_witness == ((1,), (1, 3))
        assert report.monomial_witness == "x1^2*x2"
        assert report.colon_lhs and report.colon_rhs

    def test_full_simplex(self):
        assert classify(full_simplex(5)).verdict is PG

    def test_json_shape(self, vertex_and_edge):
        d = classify(vertex_and_edge).to_json_dict()
        assert set(d) == {"verdict", "n", "V", "core_facets", "free_face",
                          "facet", "witness_monomial", "colon_lhs", "colon_rhs"}
        assert d["verdict"] == "infgen"
        assert d["free_face"] == [1] and d["facet"] == [1, 3]

    def test_one_dualization_and_one_core_per_call(self, monkeypatch, whiskered_tetra,
                                                   vertex_and_edge, cone_over_hollow):
        # The ideal route builds both sides from the nonface masks: no
        # generator tuples to re-read, no Frobenius power, no minimizing sum.
        calls = {}

        def count(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("minimal_nonfaces", "core", "ideal_of_complex"):
            count(cartier, name)
        for name in ("frobenius_power", "add"):
            count(monomials, name)
        for cx in (whiskered_tetra, vertex_and_edge, cone_over_hollow, full_simplex(3)):
            for q in (2, 3):
                calls.clear()
                classify(cx, q)
                assert calls == {"minimal_nonfaces": 1, "core": 1}

    def test_identity_is_read_off_the_pairs(self, monkeypatch, whiskered_tetra,
                                            vertex_and_edge, cone_over_hollow):
        # The verdict and both sides of the identity come from the
        # vertex-set pairs: no `MonomialIdeal` of either side is built.
        def forbidden(*args):
            raise AssertionError("classify built the identity as ideals")

        monkeypatch.setattr(cartier, "_pair_ideal", forbidden)
        monkeypatch.setattr(cartier, "ideal_test", forbidden)
        for cx, verdict in ((whiskered_tetra, PG), (vertex_and_edge, INF),
                            (cone_over_hollow, PG), (full_simplex(3), PG)):
            for q in (2, 3):
                assert classify(cx, q).verdict is verdict

    @pytest.mark.parametrize("q", [2, 3, 65537])
    def test_no_vertices(self, q):
        # The full simplex on no vertices: I = 0, and I^[q] : I is the unit
        # ideal, so neither side is reported, at any q.
        report = classify(SimplicialComplex(0, frozenset({0})), q)
        assert report.verdict is PG and report.n == 0
        assert report.colon_lhs == report.colon_rhs == ()

    def test_disagreement_raises(self, vertex_and_edge, monkeypatch):
        good = classify_via_free_face(vertex_and_edge)
        monkeypatch.setattr(
            cartier, "classify_via_free_face",
            lambda cx: type(good)(**{**good.__dict__, "verdict": PG}))
        with pytest.raises(InconsistencyError):
            cartier.classify(vertex_and_edge)


class TestRandomComplex:
    def test_deterministic(self):
        a = random_complex(5, 0.3, seed=1)
        b = random_complex(5, 0.3, seed=1)
        assert a == b

    def test_seed_changes_output(self):
        outs = {random_complex(6, 0.5, seed=s) for s in range(20)}
        assert len(outs) > 1

    def test_n1(self):
        for s in range(10):
            cx = random_complex(1, 0.5, seed=s)
            assert cx.facets in ({0}, {1})

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_complex(0, 0.5, 1)
        with pytest.raises(ValueError):
            random_complex(3, 1.5, 1)


class TestEnumeration:
    def test_small_counts(self):
        assert sum(1 for _ in enumerate_complexes(1)) == 2
        assert sum(1 for _ in enumerate_complexes(2)) == 5

    def test_n2_complexes(self):
        got = {cx.facets for cx in enumerate_complexes(2)}
        assert got == {frozenset({0}), frozenset({0b01}), frozenset({0b10}),
                       frozenset({0b01, 0b10}), frozenset({0b11})}

    def test_no_duplicates_n4(self):
        seen = list(enumerate_complexes(4))
        assert len(seen) == len(set(seen)) == count_complexes_oracle(4)

    def test_oracle_counts(self):
        assert [count_complexes_oracle(n) for n in range(1, 5)] == [2, 5, 19, 167]

    def test_too_large(self):
        with pytest.raises(ValueError):
            next(enumerate_complexes(7))


class TestCrossValidate:
    def test_exhaustive_n3(self):
        report = cross_validate(exhaustive_ns=(1, 2, 3), random_ns=(),
                                trials_per_n=0, q_sweep=(3,))
        assert report.ok
        assert report.total == 2 + 5 + 19
        assert report.witness_checked == report.infgen > 0
        assert report.q_sweep_checked == report.total - len(report.mismatches)

    def test_q_sweep_detects_wrong_exponents(self, monkeypatch):
        # x_{A∖B} raised to q-2 instead of q-1 leaves every verdict as it
        # is; only the comparison with the general colon can see it.
        real = cartier._pair_ideal

        def mutated(pairs, q, n):
            good = real(pairs, q, n)
            if q < 3:
                return good
            return monomials.MonomialIdeal(n, frozenset(
                tuple(q - 2 if e == q - 1 else e for e in g) for g in good.gens))

        monkeypatch.setattr(cartier, "_pair_ideal", mutated)
        report = cross_validate(exhaustive_ns=(1, 2, 3), random_ns=(6,),
                                trials_per_n=5, q_sweep=(2, 3))
        assert not report.mismatches and report.q_sweep_checked == report.total
        swept = {(m["complex"], m["q"]) for m in report.q_sweep_mismatches}
        assert {q for _, q in swept} == {3}
        assert len(swept) == report.total - 3   # all but the full simplices on [1], [2], [3]

    def test_random_small(self):
        report = cross_validate(exhaustive_ns=(), random_ns=(6,),
                                trials_per_n=50, seed=7)
        assert report.ok and report.total == 50

    def test_detects_mutation(self, monkeypatch):
        # Harness sensitivity: a deliberately broken criterion must surface.
        monkeypatch.setattr(cartier, "free_face_scan", flipped_scan)
        report = cross_validate(exhaustive_ns=(2,), random_ns=(), trials_per_n=0)
        assert report.mismatches

    def test_detects_bad_witness(self, monkeypatch):
        # x_1...x_n lies in the rhs I^[2] + (x_1...x_n), so the contract fails.
        monkeypatch.setattr(cartier, "witness_monomial", lambda cx, pair: (1,) * cx.n)
        report = cross_validate(exhaustive_ns=(1, 2, 3), random_ns=(), trials_per_n=0)
        assert not report.mismatches
        assert len(report.witness_violations) == report.infgen > 0

    def test_detects_witness_in_frobenius_power(self, monkeypatch):
        # x_g^2 for a minimal nonface g generates I^[2], so it lies in the
        # colon and in the rhs.  An infgen core is not the boundary of a
        # simplex, so g misses a vertex: only the I^[2] test can catch it.
        def squared_nonface(cx, pair):
            g = minimal_nonfaces(cx)[0]
            return tuple(2 if g >> i & 1 else 0 for i in range(cx.n))

        monkeypatch.setattr(cartier, "witness_monomial", squared_nonface)
        report = cross_validate(exhaustive_ns=(1, 2, 3, 4), random_ns=(), trials_per_n=0)
        assert not report.mismatches
        assert len(report.witness_violations) == report.infgen > 0

    def test_each_criterion_runs_once_per_complex(self, monkeypatch):
        calls = {"core": 0, "free_faces": 0}

        def counted(name):
            real = getattr(cartier, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cartier, name, counted(name))
        report = cross_validate(exhaustive_ns=(1, 2, 3, 4), random_ns=())
        assert report.ok and report.infgen > 0
        assert calls == {"core": report.total, "free_faces": report.total}

    def test_q2_verdict_is_read_off_the_pairs(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("cross_validate built the identity as ideals")

        monkeypatch.setattr(cartier, "_pair_ideal", forbidden)
        monkeypatch.setattr(cartier, "ideal_test", forbidden)
        report = cross_validate(exhaustive_ns=(1, 2, 3, 4), random_ns=(6,), trials_per_n=20)
        assert report.ok and report.total == 2 + 5 + 19 + 167 + 20

    def test_report_json(self):
        d = cross_validate(exhaustive_ns=(2,), random_ns=(), trials_per_n=0).to_json_dict()
        assert d["mismatches"] == [] and d["total"] == 5


def flipped_scan(cx):
    """The free-face scan with its verdict flipped: a pair is invented for a
    core without one, and dropped from a core with some."""
    scan = free_face_scan(cx)
    return replace(scan, pairs=[] if scan.pairs else [FreeFacePair(1, 1)])
