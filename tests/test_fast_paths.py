"""The output-sensitive combinatorics and the packed colon kernel,
checked against the plain definitions they replace.

Each reference below is a direct scan: all 2^n subsets for the minimal
nonfaces and for the complex of an ideal, all faces for the free faces and
for an elementary collapse, and every quotient `colon_mono(m, g)` and
pairwise lcm for an intersection or a colon.  The fast paths must return
the same list in the same order.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from srcartier.cartier import classify, complex_of_ideal, enumerate_complexes, ideal_of_complex
from srcartier.complexes import (
    FreeFacePair,
    SimplicialComplex,
    build_complex,
    collapse_greedy,
    elementary_collapse,
    face_key,
    free_faces,
    from_masks,
    is_face,
    minimal_nonfaces,
    vertex_mask,
)
from srcartier.monomials import (
    _colon_packed,
    _encode,
    _intersect_packed,
    _minimize_packed,
    colon,
    colon_mono,
    frobenius_power,
    intersect,
    lcm_mono,
    minimize,
    parse_monomial,
    principal,
    unit_ideal,
)
from test_properties import complexes


# -- reference implementations ----------------------------------------------

def minimal_nonfaces_scan(cx):
    found = []
    for k in range(1, cx.n + 1):
        for combo in combinations(range(1, cx.n + 1), k):
            m = vertex_mask(combo, cx.n)
            if any(nf & ~m == 0 for nf in found):
                continue
            if not is_face(cx, m):
                found.append(m)
    return found


def free_faces_scan(cx):
    pairs = []
    for face in cx.faces():
        if face == 0:
            continue
        conts = [f for f in cx.facets if face & ~f == 0]
        if len(conts) == 1 and conts[0].bit_count() == face.bit_count() + 1:
            pairs.append(FreeFacePair(face, conts[0]))
    pairs.sort(key=lambda p: face_key(p.free_face))
    return pairs


def complex_of_ideal_scan(ideal):
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in ideal.gens]
    faces = [m for m in range(1 << ideal.n)
             if not any(s & ~m == 0 for s in supports)]
    return from_masks(faces, ideal.n)


def elementary_collapse_faces(cx, pair):
    return from_masks(cx.faces() - {pair.free_face, pair.facet}, cx.n)


def intersect_product(a, b):
    return _minimize_packed(x | y for x in a for y in b)


def colon_product(a, b):
    """(a : b) as the intersection of the quotients a : g, every lcm formed."""
    cur = None
    for g in b.gens:
        quotient = minimize([colon_mono(m, g) for m in a.gens], a.n)
        cur = quotient if cur is None else minimize(
            [lcm_mono(x, y) for x in cur.gens for y in quotient.gens], a.n)
    return cur


# -- every complex with n <= 5 ----------------------------------------------

@pytest.fixture(scope="module")
def small_complexes():
    return [cx for n in range(1, 6) for cx in enumerate_complexes(n)]


def check_complex(cx):
    assert minimal_nonfaces(cx) == minimal_nonfaces_scan(cx)
    pairs = free_faces(cx)
    assert pairs == free_faces_scan(cx)
    ideal = ideal_of_complex(cx)
    assert complex_of_ideal(ideal) == complex_of_ideal_scan(ideal)
    for pair in pairs:
        assert elementary_collapse(cx, pair) == elementary_collapse_faces(cx, pair)


def test_every_small_complex_matches_the_scans(small_complexes):
    assert len(small_complexes) == 7773
    for cx in small_complexes:
        check_complex(cx)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_unit_ideal_gives_the_empty_face_complex(n):
    assert complex_of_ideal(unit_ideal(n)) == complex_of_ideal_scan(unit_ideal(n))


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_strategy_complexes_match_the_scans(cx):
    check_complex(cx)


@settings(max_examples=100, deadline=None)
@given(complexes(max_n=9))
def test_larger_strategy_complexes_match_the_scans(cx):
    check_complex(cx)


# -- packed intersection and colon on ideals that are not squarefree -------

def random_ideal(rng, n, max_exp=3):
    gens = [tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, 5))]
    return minimize(gens, n)


def random_pairs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield random_ideal(rng, n), random_ideal(rng, n)


def test_intersect_matches_the_product():
    for a, b in random_pairs(11, 400):
        pa = [_encode(g, 4) for g in a.gens]
        pb = [_encode(g, 4) for g in b.gens]
        assert sorted(_intersect_packed(pa, pb)) == sorted(intersect_product(pa, pb))
        expected = minimize([lcm_mono(x, y) for x in a.gens for y in b.gens], a.n)
        assert intersect(a, b) == expected


@pytest.mark.parametrize("q", [2, 3])
def test_colon_matches_the_product(q):
    for a, b in random_pairs(20 + q, 300):
        frob = frobenius_power(a, q)
        assert colon(frob, a) == colon_product(frob, a)
        assert colon(a, frob) == colon_product(a, frob)
        assert colon(frob, b) == colon_product(frob, b)
        assert colon(b, a) == colon_product(b, a)


@pytest.mark.parametrize("a, g, expected", [
    # Exponents of g above the widest field of a (width 3 here) lower
    # those fields to 0; the levels past the width change nothing.
    (["x1^2", "x1*x2"], "x1^5", ["1"]),
    (["x1^2*x2^2", "x2*x3^2"], "x2^7", ["x1^2", "x3^2"]),
    (["x1^2*x2", "x2^2*x3"], "x1^4*x3", ["x2"]),
    (["x1^2*x2^2"], "x1", ["x1*x2^2"]),
    (["x1*x3", "x2^2"], "x2", ["x2", "x1*x3"]),
])
def test_quotient_by_a_generator_wider_than_the_fields(a, g, expected):
    n = 3
    a = minimize([parse_monomial(t, n) for t in a], n)
    g = parse_monomial(g, n)
    quotient = colon(a, principal(g))
    assert quotient.gens_strings() == expected
    assert quotient == colon_product(a, principal(g))


def test_quotient_kernel_matches_colon_mono():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 5)
        a = random_ideal(rng, n)
        g = tuple(rng.randint(0, 7) for _ in range(n))
        width = max(max(m) for m in a.gens) + 1
        packed = _colon_packed([_encode(m, width) for m in a.gens], g, width)
        assert sorted(packed) == sorted(
            _minimize_packed(_encode(colon_mono(m, g), width) for m in a.gens))


# -- the classify path never lists every face ------------------------------

def test_classify_and_collapse_use_facets_only(monkeypatch):
    def no_faces(cx):
        raise AssertionError("SimplicialComplex.faces was called")

    monkeypatch.setattr(SimplicialComplex, "faces", no_faces)
    cone_over_hollow = build_complex([[1, 2, 9, 10], [2, 3, 9, 10], [1, 3, 9, 10],
                                      [4, 5, 6, 7, 8, 9, 10]], 10)
    whiskered = build_complex([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [4, 5]], 5)
    for cx in (cone_over_hollow, whiskered):
        classify(cx)
        collapse_greedy(cx)
