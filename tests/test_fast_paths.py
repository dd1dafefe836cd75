"""The output-sensitive combinatorics and the packed general colon,
checked against the plain definitions they replace.

Each reference below is a direct scan: all 2^n subsets for the minimal
nonfaces and for the complex of an ideal, all faces for the free faces and
for an elementary collapse, and every quotient `colon_mono(m, g)` and
pairwise lcm for an intersection or a colon.  The ridge count behind
`free_faces` is also checked against the pairwise scan it replaced (every
ridge against every other facet), and `collapse_greedy` against a greedy
collapse driven by that scan.  The fast paths must return the same list
in the same order.  The Stanley-Reisner colon kernel is checked against
the general `colon` on small complexes, and against the definition of
I^[q] : I on complexes too large for `colon`; the closed-form rhs against
I^[q] + (x_V^{q-1}) summed and minimized by `monomials.add`; and the
verdict and colon strings `classify` reads off the vertex-set pairs, and
its core facets, against the ideals of those pairs (what `ideal_test`
returns) and the core's `sorted_facets()`.  In homology,
the cleared elimination is checked against the plain per-degree ranks; the
distinct-link walk, Reisner's tests and the relabelled Betti key against
one `link(cx, F)` per face, whose homology bypasses `reduced_betti` and
its cache; the increasing-chain walk against the unpruned walk it
replaced, link for link, both started from the facet-count root key; the
bitwise facet counts behind that key against a count per vertex; the
Betti numbers read through that key, on permuted complexes, and the
one-star quotient behind `reduced_betti` against the chain complex on all
faces; the Betti numbers certified over Z for every prime against that
chain complex over GF(2), GF(3) and GF(5),
the unit-pivot integer elimination against the ranks over GF(p), and the
elimination at p = 2 against the xor-packed GF(2) elimination it
replaced; the closed-form Buchsbaum*
certificate against the ranks of the induced maps and against the first
top-dimensional pair of `free_faces`; those four-rank induced maps
against the cycle-basis computation they replaced; `_maximal` against
the all-pairs comparison it replaces; and `mask_vertices`, `squeeze` and the vertex
map of `core` against a loop over every bit position.
"""

import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from srcartier import cartier
from srcartier.cartier import (
    ColonIdentity,
    Verdict,
    _identity_pairs,
    _pair_ideal,
    _sr_colon_pairs,
    classify,
    colon_identity,
    complex_of_ideal,
    enumerate_complexes,
    ideal_of_complex,
    ideal_test,
    random_complex,
    trial_seed,
)
from srcartier.complexes import (
    MAX_VERTICES,
    CoreResult,
    FreeFacePair,
    SimplicialComplex,
    _bits,
    _maximal,
    _minimal_transversals,
    build_complex,
    collapse_greedy,
    cone_vertices,
    core,
    elementary_collapse,
    face_key,
    free_faces,
    from_masks,
    deletion,
    dimension,
    is_face,
    join_with_simplex,
    link,
    minimal_nonfaces,
    mask_vertices,
    squeeze,
    support_vertices,
    vertex_mask,
)
from srcartier import complexes as complexes_module
from srcartier.homology import (
    BuchsbaumStarRefutation,
    RankCertificate,
    _betti,
    _contrastar_quotient,
    _count_classes,
    _eliminate,
    _link_keys,
    _reduced_betti_cached,
    _relabelled,
    _root_key,
    _subtract_multiple,
    build_chain_complex,
    buchsbaum_star_refutation,
    is_cohen_macaulay,
    is_doubly_cohen_macaulay,
    is_gorenstein_star,
    reduced_betti,
    relative_map_is_surjective,
)
from srcartier.monomials import (
    MonomialIdeal,
    _decode,
    _encode,
    _intersect_packed,
    _minimize_packed,
    add,
    colon,
    contains,
    frobenius_power,
    minimize,
    multiply,
    parse_monomial,
    principal,
    unit_ideal,
    zero_ideal,
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


def minimal_transversals_berge(edges, n):
    """Berge's algorithm: the minimal transversals of each prefix of the
    edges, extended one edge at a time, in increasing mask order."""
    full = (1 << n) - 1
    trans = [0]
    for e in sorted({e & full for e in edges}):
        missed = [t for t in trans if not t & e]
        if not missed:
            continue
        hit = [t for t in trans if t & e]
        trans = hit[:]
        for v in _bits(e):
            hit_v = [h for h in hit if h & v]
            for t in missed:
                tv = t | v
                if all(h & ~tv for h in hit_v):
                    trans.append(tv)
    return trans


def face_key_tuples(mask):
    """Cardinality, then the tuple of vertex labels."""
    return (mask.bit_count(), mask_vertices(mask))


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


def free_faces_pairwise(cx):
    """Every ridge of every facet against every other facet."""
    pairs = []
    for g in cx.facets:
        if g.bit_count() < 2:
            continue
        others = [h for h in cx.facets if h != g]
        for i in range(cx.n):
            face = g & ~(1 << i)
            if face != g and all(face & ~h for h in others):
                pairs.append(FreeFacePair(face, g))
    pairs.sort(key=lambda p: face_key(p.free_face))
    return pairs


def collapse_greedy_pairwise(cx):
    seq = []
    while pairs := free_faces_pairwise(cx):
        cx = elementary_collapse(cx, pairs[0])
        seq.append(pairs[0])
    return cx, seq


def mask_vertices_bitwise(mask):
    """One step per bit position, zeros included."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def squeeze_bitwise(mask, keep):
    """One step per bit position: the i-th lowest bit of keep becomes bit i."""
    out = pos = 0
    for i in range(keep.bit_length()):
        if keep >> i & 1:
            out |= (mask >> i & 1) << pos
            pos += 1
    return out


def core_bitwise(cx):
    """The non-cone vertices renumbered bit by bit, and the maximal images
    of the facets."""
    keep = support_vertices(cx)
    facets = _maximal(squeeze_bitwise(f, keep) for f in cx.facets)
    return CoreResult(SimplicialComplex(keep.bit_count(), facets), mask_vertices(keep))


def rhs_by_arithmetic(ideal, q):
    """I^[q] + (x_V^{q-1}), V the variables of the generators, by `add`."""
    xv = tuple(q - 1 if any(g[i] for g in ideal.gens) else 0 for i in range(ideal.n))
    return add(frobenius_power(ideal, q), principal(xv))


def complex_of_ideal_scan(ideal):
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in ideal.gens]
    faces = [m for m in range(1 << ideal.n)
             if not any(s & ~m == 0 for s in supports)]
    return from_masks(faces, ideal.n)


def elementary_collapse_faces(cx, pair):
    return from_masks(cx.faces() - {pair.free_face, pair.facet}, cx.n)


def colon_mono(a, g):
    """The monomial quotient a : g, i.e. a / gcd(a, g)."""
    return tuple(max(x - y, 0) for x, y in zip(a, g))


def lcm_mono(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def test_colon_mono():
    m = parse_monomial
    assert colon_mono(m("x1^2*x2^2", 2), m("x1*x2", 2)) == m("x1*x2", 2)


def test_lcm():
    m = parse_monomial
    assert lcm_mono(m("x1*x2", 3), m("x2*x3^2", 3)) == m("x1*x2*x3^2", 3)


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
    assert pairs == free_faces_pairwise(cx)
    assert collapse_greedy(cx) == collapse_greedy_pairwise(cx)
    assert core(cx) == core_bitwise(cx)
    ideal = ideal_of_complex(cx)
    assert complex_of_ideal(ideal) == complex_of_ideal_scan(ideal)
    for pair in pairs:
        assert elementary_collapse(cx, pair) == elementary_collapse_faces(cx, pair)


def test_every_small_complex_matches_the_scans(small_complexes):
    assert len(small_complexes) == 7773
    for cx in small_complexes:
        check_complex(cx)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_unit_ideal_has_no_complex(n):
    # Not even ∅ is a face, and `SimplicialComplex` cannot hold the void complex.
    with pytest.raises(ValueError, match="^the unit ideal is the ideal of the void complex"):
        complex_of_ideal(unit_ideal(n))


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
        got = _intersect_packed(pa, pb)
        assert sorted(got) == sorted(intersect_product(pa, pb))
        expected = minimize([lcm_mono(x, y) for x in a.gens for y in b.gens], a.n)
        assert MonomialIdeal(a.n, frozenset(_decode(x, a.n, 4) for x in got)) == expected


@pytest.mark.parametrize("q", [2, 3])
def test_colon_matches_the_product(q):
    for a, b in random_pairs(20 + q, 300):
        frob = frobenius_power(a, q)
        assert colon(frob, a) == colon_product(frob, a)
        assert colon(a, frob) == colon_product(a, frob)
        assert colon(frob, b) == colon_product(frob, b)
        assert colon(b, a) == colon_product(b, a)


@pytest.mark.parametrize("a, g, expected", [
    # An exponent of g at or above the one of a lowers it to 0, also when
    # it exceeds the widest thermometer field of a (width 3 here).
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


def test_quotient_matches_colon_mono():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 5)
        a = random_ideal(rng, n)
        g = tuple(rng.randint(0, 7) for _ in range(n))
        assert colon(a, principal(g)) == minimize([colon_mono(m, g) for m in a.gens], n)


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


# -- the Stanley-Reisner colon kernel against the general colon -------------

def pair_monomial(a, b, q, n):
    return tuple(q if b >> i & 1 else (q - 1 if a >> i & 1 else 0) for i in range(n))


def sr_colon(cx, q):
    """I^[q] : I from the kernel's pairs; duplicate pairs are an error."""
    pairs = _sr_colon_pairs(cx.facets, minimal_nonfaces(cx), cx.n)
    assert len(set(pairs)) == len(pairs)
    for a, b in pairs:
        assert b & ~a == 0
    return MonomialIdeal(cx.n, frozenset(pair_monomial(a, b, q, cx.n) for a, b in pairs))


def general_colon(cx, q):
    ideal = ideal_of_complex(cx)
    return colon(frobenius_power(ideal, q), ideal)


def test_sr_colon_matches_the_colon_on_every_small_complex(small_complexes):
    # A MonomialIdeal compares its generator sets, so a surplus (not
    # minimal) kernel generator fails too.
    for cx in small_complexes:
        for q in (2, 3):
            assert sr_colon(cx, q) == general_colon(cx, q), (cx, q)


@settings(max_examples=100, deadline=None)
@given(complexes(max_n=9))
def test_sr_colon_matches_the_colon_on_strategy_complexes(cx):
    for q in (2, 3, 5):
        assert sr_colon(cx, q) == general_colon(cx, q)


def test_sr_colon_drops_a_frobenius_generator():
    # I = (x1*x2): x1^2*x2^2 is a generator of I^[2] but x1*x2 divides it.
    cx = build_complex([[1], [2]], 2)
    assert _sr_colon_pairs(cx.facets, minimal_nonfaces(cx), 2) == [(0b11, 0)]
    assert sr_colon(cx, 2).gens_strings() == ["x1*x2"]
    assert sr_colon(cx, 2) == general_colon(cx, 2)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_sr_colon_of_the_full_simplex_is_the_unit_ideal(n):
    cx = build_complex([range(1, n + 1)], n)
    assert _sr_colon_pairs(cx.facets, minimal_nonfaces(cx), n) == [(0, 0)]
    assert sr_colon(cx, 2) == unit_ideal(n)
    assert colon_identity(zero_ideal(n), 2).lhs == unit_ideal(n)
    assert colon_identity(zero_ideal(n), 2).holds


@pytest.mark.parametrize("facets, n", [
    ([[1], [2]], 2),
    ([[1, 3], [2]], 3),
    ([[1, 2], [1, 3], [2, 3]], 3),
    ([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 5], [2, 5]], 5),
])
def test_sr_colon_never_uses_a_cone_vertex(facets, n):
    base = build_complex(facets, n)
    cx = join_with_simplex(base, 2)
    cone = ((1 << cx.n) - 1) & ~((1 << n) - 1)
    pairs = _sr_colon_pairs(cx.facets, minimal_nonfaces(cx), cx.n)
    assert pairs and all(not (a | b) & cone for a, b in pairs)
    assert sorted(pairs) == sorted(_sr_colon_pairs(base.facets, minimal_nonfaces(base), n))
    for q in (2, 3):
        assert sr_colon(cx, q) == general_colon(cx, q)


@pytest.mark.parametrize("text", [
    "x1*x2, x2*x3", "x1*x2*x3", "x1, x2*x3", "x1*x4, x2*x4, x3*x5",
])
def test_colon_identity_of_an_ideal_matches_the_colon(text):
    ideal = minimize([parse_monomial(t, 5) for t in text.split(",")], 5)
    for q in (2, 3, 5):
        identity = colon_identity(ideal, q)
        assert identity.lhs == colon(frobenius_power(ideal, q), ideal)
        assert identity.rhs == rhs_by_arithmetic(ideal, q)


def check_rhs(cx):
    # The pairs do not depend on q: `ideal_test(cx, q).rhs` is their ideal.
    ideal = ideal_of_complex(cx)
    _, rhs = _identity_pairs(cx.n, 2, minimal_nonfaces(cx), cx.facets)
    for q in (2, 3, 5):
        assert _pair_ideal(rhs, q, cx.n) == rhs_by_arithmetic(ideal, q), (cx, q)


def test_closed_form_rhs_matches_the_sum_on_every_small_complex(small_complexes):
    for cx in small_complexes:
        check_rhs(cx)


@settings(max_examples=100, deadline=None)
@given(complexes(max_n=9))
def test_closed_form_rhs_matches_the_sum_on_strategy_complexes(cx):
    check_rhs(cx)


def check_classify_from_pairs(cx):
    core_cx, vmap = core(cx)
    core_facets = tuple(tuple(vmap[i - 1] for i in mask_vertices(f))
                        for f in core_cx.sorted_facets())
    # The pairs do not depend on q: `ideal_test(cx, q)` is their ideals.
    lhs, rhs = _identity_pairs(cx.n, 2, minimal_nonfaces(cx), cx.facets)
    for q in (2, 3, 5):
        identity = ColonIdentity(_pair_ideal(lhs, q, cx.n), _pair_ideal(rhs, q, cx.n))
        assert (lhs == rhs) == identity.holds, (cx, q)
        report = classify(cx, q)
        assert report.verdict is identity.verdict
        assert report.core_facets == core_facets
        if identity.lhs.is_unit():
            assert report.colon_lhs == report.colon_rhs == ()
        else:
            assert report.colon_lhs == tuple(identity.lhs.gens_strings()), (cx, q)
            assert report.colon_rhs == tuple(identity.rhs.gens_strings()), (cx, q)


def test_classify_reads_the_identity_off_the_pairs_on_every_small_complex(small_complexes):
    for cx in small_complexes:
        check_classify_from_pairs(cx)


@settings(max_examples=100, deadline=None)
@given(complexes(max_n=9))
def test_classify_reads_the_identity_off_the_pairs_on_strategy_complexes(cx):
    check_classify_from_pairs(cx)


def test_colon_identity_of_the_unit_ideal():
    identity = colon_identity(unit_ideal(3), 2)
    assert identity.lhs == unit_ideal(3) and identity.holds


@pytest.mark.parametrize("text", ["x1*x2, x2*x3", "x1^2*x2", "1"])
def test_colon_identity_refuses_q_below_2_on_both_routes(text):
    # Squarefree ideals take the pairs, the others the general colon.
    ideal = minimize([parse_monomial(t, 3) for t in text.split(",")], 3)
    for q in (1, 0, -1):
        with pytest.raises(ValueError, match=f"q={q} must be >= 2"):
            colon_identity(ideal, q)


def test_ideal_test_reads_no_free_face_logic(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the ideal criterion used free-face logic")

    for name in ("free_faces", "is_free_face_pair", "core", "classify_via_free_face"):
        monkeypatch.setattr(cartier, name, forbidden)
        monkeypatch.setattr(complexes_module, name, forbidden, raising=False)
    monkeypatch.setattr(SimplicialComplex, "faces", forbidden)
    infgen = [build_complex([[1, 3], [2]], 3),
              build_complex([[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3, 6]], 6)]
    pg = [build_complex([[1, 2, 4], [2, 3, 4], [1, 3, 4]], 4),
          build_complex([[1, 2], [2, 3]], 3),
          build_complex([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 5], [2, 5]], 5)]
    for q in (2, 3):
        for cx in infgen:
            test = ideal_test(cx, q)
            assert test.verdict is Verdict.INFINITELY_GENERATED and any(test.offending())
        for cx in pg:
            assert ideal_test(cx, q).verdict is Verdict.PRINCIPALLY_GENERATED


# -- the kernel on complexes too large for the general colon --------------

class ColonByDefinition:
    """m ∈ I^[q] : I iff m·x_g ∈ I^[q] for every minimal nonface g.

    A monomial u lies in I^[q] iff its variables of exponent >= q contain
    a minimal nonface.  For u = m·x_g those are the variables where
    m_i >= q, and those of g where m_i >= q - 1.  Nonface tests are cached
    by vertex set.
    """

    def __init__(self, nonfaces, q):
        self.nonfaces = nonfaces
        self.q = q
        self.is_nonface = {}

    def nonface(self, s):
        hit = self.is_nonface.get(s)
        if hit is None:
            hit = self.is_nonface[s] = any(h & ~s == 0 for h in self.nonfaces)
        return hit

    def __contains__(self, m):
        high = sum(1 << i for i, e in enumerate(m) if e >= self.q)
        mid = sum(1 << i for i, e in enumerate(m) if e >= self.q - 1)
        return all(self.nonface(high | (mid & g)) for g in self.nonfaces)


@pytest.mark.parametrize("n", [12, 13, 14])
def test_sr_colon_meets_the_definition_on_large_random_complexes(n):
    q = 2
    cx = random_complex(n, 0.15, trial_seed(42, n, 0))
    nonfaces = minimal_nonfaces(cx)
    ideal = ideal_of_complex(cx)
    frob = frobenius_power(ideal, q)
    lhs = ideal_test(cx, q).lhs
    gens = lhs.sorted_gens()
    in_colon = ColonByDefinition(nonfaces, q)
    # Membership, spot-checked against the ideal arithmetic as well.
    for k, m in enumerate(gens):
        assert m in in_colon
        if k % 400 == 0:
            assert all(contains(frob, multiply(m, g)) for g in ideal.gens)
    # Minimality: no generator divided by a variable is still in the colon.
    for m in gens:
        for i, e in enumerate(m):
            if e:
                assert m[:i] + (e - 1,) + m[i + 1:] not in in_colon
    # Completeness: a monomial is in the colon iff a generator divides it.
    rng = random.Random(n)
    hits = 0
    for _ in range(500):
        m = tuple(rng.randint(0, q) for _ in range(n))
        member = m in in_colon
        hits += member
        assert member == contains(lhs, m)
    assert 0 < hits < 500


# -- homology: clearing, the link walk and the antichain test ----------------

def homology_dims_uncleared(cc):
    """H_k = dim C_k - rank ∂_k - rank ∂_{k+1}, every row of every ∂_k reduced."""
    ranks = {k: len(_eliminate(rows, cc.p)) for k, rows in cc.boundaries.items()}
    return {k: len(cc.basis[k]) - ranks[k] - ranks.get(k + 1, 0) for k in sorted(cc.basis)}


@lru_cache(maxsize=None)
def betti_direct(cx, p):
    """Reduced Betti numbers in degrees -1..dim from the faces of the
    complex on its own labels, bypassing `reduced_betti` and its relabelled
    key.  Memoized by the labelled complex, only to share work between
    equal links."""
    dims = build_chain_complex(cx.faces(), p).homology_dims()
    return {k: dims.get(k, 0) for k in range(-1, dimension(cx) + 1)}


@lru_cache(maxsize=None)
def link_betti_per_face(cx, p):
    """One link built from the facets of Δ for every face, with
    `betti_direct`.  Memoized only to share work between tests."""
    return [(dimension(lk), betti_direct(lk, p))
            for lk in (link(cx, face) for face in cx.faces())]


def betti_set(pairs):
    return {(d, tuple(sorted(betti.items()))) for d, betti in pairs}


def is_cm_per_face(cx, p):
    return len({f.bit_count() for f in cx.facets}) == 1 and all(
        all(b == 0 for k, b in betti.items() if k < d) for d, betti in link_betti_per_face(cx, p))


def is_gorenstein_star_per_face(cx, p):
    return is_cm_per_face(cx, p) and all(
        betti[d] == 1 for d, betti in link_betti_per_face(cx, p))


def is_2cm_per_face(cx, p):
    d = dimension(cx)
    return is_cm_per_face(cx, p) and all(
        dimension(dl) == d and is_cm_per_face(dl, p)
        for dl in (deletion(cx, v) for v in range(1, cx.n + 1)))


def buchsbaum_refutation_by_ranks(cx, p):
    """A cone vertex, else the first free pair (F, G) whose induced map
    H_d(Δ, cost F) -> H_d(Δ, cost G), d = dim Δ, is not surjective, with
    the rank and target dimension computed on the quotient complexes."""
    cone = cone_vertices(cx)
    if cone:
        return BuchsbaumStarRefutation("cone", mask_vertices(cone)[0], None, None, None)
    d = dimension(cx)
    for pair in free_faces(cx):
        cert = relative_map_is_surjective(cx, pair.free_face, pair.facet, d, p)
        if not cert.surjective:
            return BuchsbaumStarRefutation("free_face", None, pair, cert.rank, cert.target_dim)
    return None


def eliminate_with_left_kernel(rows, p):
    """(rank, a basis of the left kernel {x : x·M = 0} indexed by row, pivot
    columns) of the sparse rows over GF(p): each row carries the
    combination of input rows that produced it, and a row that reduces to
    zero contributes its combination."""
    null = []
    pivots = {}
    for i, row in enumerate(rows):
        r = {j: c % p for j, c in row.items() if c % p}
        comb = {i: 1}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], p - 2, p)
                pivots[lead] = ({j: c * inv % p for j, c in r.items()},
                                {k: c * inv % p for k, c in comb.items()})
                break
            c = r[lead] * piv[0][lead]
            _subtract_multiple(r, c, piv[0], p)
            _subtract_multiple(comb, c, piv[1], p)
        else:
            null.append(comb)
    return len(pivots), null, set(pivots)


def relative_maps_by_cycles(cx, small, big, degrees, p):
    """H_d(Δ, cost F) -> H_d(Δ, cost G) at each degree d from a cycle basis:
    the kernel of ∂_d on the source, projected onto the faces of the
    target, and the rank it adds to the target's boundaries."""
    faces = cx.faces()
    source = _contrastar_quotient(faces, small, p)
    target = _contrastar_quotient(faces, big, p)
    certs = []
    for degree in degrees:
        index = {f: i for i, f in enumerate(target.basis.get(degree, []))}
        boundaries = target.boundaries.get(degree + 1, [])
        rank_top = eliminate_with_left_kernel(boundaries, p)[0]
        rank_d = eliminate_with_left_kernel(target.boundaries.get(degree, []), p)[0]
        target_dim = len(index) - rank_d - rank_top
        if target_dim == 0:
            certs.append(RankCertificate(True, 0, 0))
            continue
        basis = source.basis.get(degree, [])
        _, cycles, _ = eliminate_with_left_kernel(source.boundaries.get(degree, []), p)
        projected = [{index[basis[i]]: c for i, c in z.items() if basis[i] in index}
                     for z in cycles]
        rank = eliminate_with_left_kernel(projected + boundaries, p)[0] - rank_top
        certs.append(RankCertificate(rank == target_dim, rank, target_dim))
    return certs


def link_keys_unpruned(cx):
    """The relabelled facets of every link up to relabelling, from the same
    root key as `_link_keys`: each new link L expands every vertex of L,
    and a child is kept if not yet seen."""
    support, facets = _root_key(cx.facets)
    seen = {facets}
    stack = [(support.bit_count(), facets)]
    keys = []
    while stack:
        k, facets = stack.pop()
        keys.append(facets)
        for i in range(k):
            v = 1 << i
            support, child = _relabelled([f & ~v for f in facets if f & v])
            if child not in seen:
                seen.add(child)
                stack.append((support.bit_count(), child))
    return keys


def first_top_free_pair(cx):
    """A cone vertex, else the first pair of `free_faces` whose facet has
    dim Δ + 1 vertices."""
    cone = cone_vertices(cx)
    if cone:
        return BuchsbaumStarRefutation("cone", mask_vertices(cone)[0], None, None, None)
    top = dimension(cx) + 1
    for pair in free_faces(cx):
        if pair.facet.bit_count() == top:
            return BuchsbaumStarRefutation("free_face", None, pair, 0, 1)
    return None


def check_link_keys(cx):
    keys = list(_link_keys(cx))
    assert keys[0] == _root_key(cx.facets)[1]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(link_keys_unpruned(cx))


def maximal_all_pairs(masks):
    """Every set against every kept larger-or-equal set."""
    uniq = sorted(set(masks), key=lambda m: -m.bit_count())
    kept = []
    for m in uniq:
        for k in kept:
            if m & ~k == 0:
                break
        else:
            kept.append(m)
    return frozenset(kept)


@pytest.mark.parametrize("p", [2, 3])
def test_cleared_homology_matches_the_uncleared_ranks(small_complexes, p):
    for cx in small_complexes:
        faces = cx.faces()
        cc = build_chain_complex(faces, p)
        assert cc.homology_dims() == homology_dims_uncleared(cc)
        for face in faces:
            if face:
                rel = _contrastar_quotient(faces, face, p)
                assert rel.homology_dims() == homology_dims_uncleared(rel)


def test_link_walk_matches_one_link_per_face(small_complexes):
    # The walk yields each link once up to relabelling, so the two agree as
    # sets of (dim, Betti numbers), not face by face.  A link's Betti
    # numbers run from degree -1 to its dimension.
    for p in (2, 3):
        for cx in small_complexes:
            walked = ((len(b) - 2, dict(enumerate(b, -1)))
                      for b in (_betti(key, p) for key in _link_keys(cx)))
            assert betti_set(walked) == betti_set(link_betti_per_face(cx, p))


def test_increasing_chains_visit_the_links_of_the_unpruned_walk(small_complexes):
    for cx in small_complexes:
        check_link_keys(cx)


@settings(max_examples=200, deadline=None)
@given(complexes(max_n=9))
def test_increasing_chains_match_the_unpruned_walk_up_to_n9(cx):
    check_link_keys(cx)


@pytest.mark.parametrize("p", [2, 3])
def test_reisner_test_stops_at_the_complex_itself(p):
    # Two disjoint hollow triangles: pure, with H̃_0 ≠ 0, so Δ's own Betti
    # numbers, yielded first, already refute Cohen-Macaulayness.
    cx = build_complex([{1, 2}, {1, 3}, {2, 3}, {4, 5}, {4, 6}, {5, 6}], 6)
    _reduced_betti_cached.cache_clear()
    assert not is_cohen_macaulay(cx, p)
    assert _reduced_betti_cached.cache_info().misses == 1


@pytest.mark.parametrize("p", [2, 3])
def test_reisner_tests_match_the_per_face_oracle(small_complexes, p):
    for cx in small_complexes:
        assert is_cohen_macaulay(cx, p) == is_cm_per_face(cx, p)
        assert is_gorenstein_star(cx, p) == is_gorenstein_star_per_face(cx, p)
        assert is_doubly_cohen_macaulay(cx, p) == is_2cm_per_face(cx, p)


@pytest.mark.parametrize("p", [2, 3])
def test_one_star_quotient_matches_the_full_complex(small_complexes, p):
    for cx in small_complexes:
        assert reduced_betti(cx, p) == betti_direct(cx, p)


def check_certified_betti(cx):
    """The entry cached for every prime, when certified, is the GF(p)
    homology at p = 2, 3 and 5; `reduced_betti` is, either way."""
    certified = _reduced_betti_cached(_relabelled(cx.facets)[1])
    for p in (2, 3, 5):
        if certified is not None:
            assert dict(enumerate(certified, -1)) == betti_direct(cx, p)
        assert reduced_betti(cx, p) == betti_direct(cx, p)
    return certified is not None


def test_certified_betti_matches_every_field_on_every_small_complex(small_complexes):
    # No complex on five vertices has torsion, and none needs a pivot ±2.
    assert all([check_certified_betti(cx) for cx in small_complexes])


@settings(max_examples=200, deadline=None)
@given(complexes(max_n=9))
def test_certified_betti_matches_every_field_up_to_n9(cx):
    check_certified_betti(cx)


def test_integer_elimination_matches_the_ranks_over_gf_p():
    rng = random.Random(31)
    certified = 0
    for _ in range(300):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 8)
        rows = [{j: rng.choice((1, -1)) for j in range(ncols) if rng.random() < 0.4}
                for _ in range(nrows)]
        pivots = _eliminate(rows, 0)
        if pivots is None:
            continue
        certified += 1
        for p in (2, 3, 5):
            assert _eliminate(rows, p) == pivots
    assert 0 < certified < 300
    # A leading ±2 with no pivot, and [[1, 1], [1, -1]], whose ranks over
    # GF(2) and GF(3) differ.
    for rows in ([{0: 2, 1: 1}], [{0: -2}, {0: 1}], [{0: 1, 1: 1}, {0: 1, 1: -1}]):
        assert _eliminate(rows, 0) is None
    assert [len(_eliminate([{0: 1, 1: 1}, {0: 1, 1: -1}], p)) for p in (2, 3)] == [1, 2]


def eliminate_gf2_packed(rows, kernel=False):
    """The xor elimination over GF(2): rows and their combinations packed
    into ints, each pivot keyed by its lowest bit."""
    null = []
    pivots = {}
    for i, row in enumerate(rows):
        r = sum(1 << j for j, c in row.items() if c & 1)
        comb = 1 << i if kernel else 0
        while r:
            piv = pivots.get(r & -r)
            if piv is None:
                pivots[r & -r] = (r, comb)
                break
            r ^= piv[0]
            comb ^= piv[1]
        else:
            if kernel:
                null.append({k: 1 for k in range(comb.bit_length()) if comb >> k & 1})
    return len(pivots), null, {b.bit_length() - 1 for b in pivots}


def star_quotient(cx):
    """The faces σ with σ ∪ v ∉ Δ, v the lowest vertex in the most facets,
    on Δ's own labels."""
    count = {1 << i: sum(f >> i & 1 for f in cx.facets) for i in range(cx.n)}
    v = max(count, key=lambda b: (count[b], -b))
    faces = cx.faces()
    return {f for f in faces if not f & v} - {f ^ v for f in faces if f & v}


def test_elimination_matches_the_packed_gf2_on_random_matrices():
    rng = random.Random(41)
    for _ in range(500):
        nrows, ncols = rng.randint(0, 9), rng.randint(0, 10)
        density = rng.choice((0.2, 0.5, 0.8))
        rows = [{j: 1 for j in range(ncols) if rng.random() < density} for _ in range(nrows)]
        assert _eliminate(rows, 2) == eliminate_gf2_packed(rows)[2]
        # The left-kernel elimination behind `relative_maps_by_cycles`.
        assert eliminate_with_left_kernel(rows, 2) == eliminate_gf2_packed(rows, kernel=True)


def test_elimination_matches_the_packed_gf2_on_quotient_boundaries(small_complexes):
    # Rank and pivot columns, on the one-star quotient and every
    # contrastar quotient of every complex with n <= 5.
    matrices = 0
    for cx in small_complexes:
        faces = cx.faces()
        quotients = [build_chain_complex(star_quotient(cx), 2)]
        quotients += [_contrastar_quotient(faces, face, 2) for face in faces if face]
        for cc in quotients:
            for rows in cc.boundaries.values():
                assert _eliminate(rows, 2) == eliminate_gf2_packed(rows)[2]
                matrices += 1
    assert matrices > 100000


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("facets, n, expected", [
    ([], 1, {-1: 1}),                                   # {∅}: no vertex to cone from
    ([], 4, {-1: 1}),
    ([{1}], 1, {-1: 0, 0: 0}),                          # a point: quotient empty
    ([{1, 2, 3}], 3, {-1: 0, 0: 0, 1: 0, 2: 0}),        # a simplex
    ([{1, 2, 4}, {2, 3, 4}, {1, 3, 4}], 4, {-1: 0, 0: 0, 1: 0, 2: 0}),  # cone over a circle
    ([{1, 4}, {2, 4}, {3, 4}], 4, {-1: 0, 0: 0, 1: 0}),  # cone over three points
    ([{1, 2}, {3}], 3, {-1: 0, 0: 1, 1: 0}),               # not a cone
])
def test_one_star_quotient_on_cones_and_the_empty_face(facets, n, expected, p):
    cx = build_complex(facets, n)
    assert reduced_betti(cx, p) == betti_direct(cx, p) == expected


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_certificate_matches_the_ranks(small_complexes, p):
    kinds = set()
    for cx in small_complexes:
        cert = buchsbaum_star_refutation(cx, p)
        assert cert == buchsbaum_refutation_by_ranks(cx, p)
        kinds.add(cert and cert.kind)
    assert kinds == {"cone", "free_face", None}


def test_relative_map_ranks_match_the_cycle_basis(small_complexes):
    # Every free pair and a seeded sample of faces F ⊆ G, at every degree
    # from dim G up: below it the target has no chains.
    rng = random.Random(16)
    maps = rank_zero = onto = 0
    for cx in small_complexes:
        pairs = [(pair.free_face, pair.facet) for pair in free_faces(cx)]
        faces = sorted(cx.faces())
        for _ in range(2):
            big = rng.choice(faces)
            pairs.append((big & rng.getrandbits(cx.n), big))
        for small, big in pairs:
            degrees = range(big.bit_count() - 1, dimension(cx) + 1)
            for p in (2, 3):
                certs = [relative_map_is_surjective(cx, small, big, d, p) for d in degrees]
                assert certs == relative_maps_by_cycles(cx, small, big, degrees, p)
                for cert in certs:
                    if cert.target_dim:
                        maps += 1
                        rank_zero += cert.rank == 0
                        onto += cert.surjective
    assert 0 < rank_zero < maps and 0 < onto < maps


@settings(max_examples=300, deadline=None)
@given(complexes(max_n=9), st.sampled_from([2, 3]))
def test_top_ridge_certificate_matches_the_first_top_free_pair(cx, p):
    assert buchsbaum_star_refutation(cx, p) == first_top_free_pair(cx)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << n) - 1), max_size=12),
    st.permutations(range(n)))), st.sampled_from([2, 3]))
def test_relabelled_betti_matches_the_direct_computation(masks_perm, p):
    masks, perm = masks_perm
    n = len(perm)
    cx = from_masks(masks, n)
    moved = from_masks((sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in masks), n)
    assert reduced_betti(moved, p) == betti_direct(moved, p) == betti_direct(cx, p)
    # The root key, read as a complex on bits 0..k-1, is the complex relabelled.
    support, key = _root_key(moved.facets)
    assert betti_direct(from_masks(key, max(1, support.bit_count())), p) == betti_direct(cx, p)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=40))
def test_count_classes_match_a_count_per_vertex(masks):
    count = {i: sum(m >> i & 1 for m in masks) for i in range(12)}
    held = sorted({c for c in count.values() if c})
    assert _count_classes(masks) == [sum(1 << i for i in count if count[i] == c) for c in held]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), max_size=40)))
def test_maximal_matches_the_all_pairs_comparison(masks):
    assert _maximal(masks) == maximal_all_pairs(masks)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=8), st.integers(0, (1 << 12) - 1))
def test_squeeze_matches_the_bitwise_loop(masks, keep):
    masks = [m & keep for m in masks]
    assert squeeze(masks, keep) == [squeeze_bitwise(m, keep) for m in masks]


def test_mask_vertices_matches_the_bitwise_loop():
    rng = random.Random(17)
    for _ in range(1000):
        dense = rng.getrandbits(rng.randint(0, 1024))
        sparse = sum(1 << rng.randrange(1024) for _ in range(rng.randint(0, 6)))
        for mask in (dense, sparse):
            assert mask_vertices(mask) == mask_vertices_bitwise(mask)


# -- dualization: the MMCS search against Berge's algorithm ----------------

def cross_polytope_facets(d):
    """The boundary of the d-dimensional cross-polytope on 2d vertices: one
    vertex of each pair {2i+1, 2i+2} per facet."""
    facets = [0]
    for i in range(d):
        facets = [f | 1 << (2 * i + c) for f in facets for c in (0, 1)]
    return facets


def disjoint_edge_masks(k):
    return [3 << (2 * i) for i in range(k)]


def check_dualization(edges, n):
    """The transversals of the edges, each found once, and their own
    transversals, which are the inclusion-minimal edges."""
    found = _minimal_transversals(edges, n)
    assert sorted(found) == sorted(minimal_transversals_berge(edges, n))
    assert len(set(found)) == len(found)
    full = (1 << n) - 1
    minimal_edges = sorted(full ^ m for m in _maximal(full ^ e for e in edges))
    back = _minimal_transversals(found, n)
    assert sorted(back) == sorted(minimal_transversals_berge(found, n)) == minimal_edges


def facet_complements(cx):
    full = (1 << cx.n) - 1
    return [full & ~f for f in cx.facets]


def test_dualization_matches_berge_on_every_small_complex(small_complexes):
    for cx in small_complexes:
        check_dualization(facet_complements(cx), cx.n)


@pytest.mark.parametrize("n", range(6, 15))
def test_dualization_matches_berge_on_random_complexes(n):
    for t in range(10):
        cx = random_complex(n, cartier._DENSITIES[t % 5], trial_seed(11, n, t))
        check_dualization(facet_complements(cx), n)


@pytest.mark.parametrize("d", range(1, 13))
def test_dualization_matches_berge_on_cross_polytopes(d):
    cx = from_masks(cross_polytope_facets(d), 2 * d)
    assert sorted(minimal_nonfaces(cx)) == disjoint_edge_masks(d)
    check_dualization(facet_complements(cx), 2 * d)


@pytest.mark.parametrize("k", range(1, 13))
def test_dualization_matches_berge_on_disjoint_edges(k):
    check_dualization(disjoint_edge_masks(k), 2 * k)


@pytest.mark.parametrize("edges, n, expected", [
    ([], 3, [0]),                   # no edges: the empty set meets them all
    ([0], 3, []),                   # nothing meets an empty edge
    ([0b101, 0], 3, []),
    ([0b1000, 0b011], 3, []),       # vertices past n are dropped
    ([0b011, 0b011, 0b111], 3, [0b001, 0b010]),
])
def test_dualization_of_degenerate_edges(edges, n, expected):
    assert sorted(_minimal_transversals(edges, n)) == expected


def test_limit_counts_every_leaf_of_the_search():
    # k disjoint edges: every leaf is one of the 2^k transversals.
    for k in range(1, 9):
        edges = disjoint_edge_masks(k)
        assert _minimal_transversals(edges, 2 * k, (1 << k) - 1) is None
        assert len(_minimal_transversals(edges, 2 * k, 1 << k)) == 1 << k
    # The complements of the square's four edges {1,3} < {2,3} < {1,4} <
    # {2,4}, in mask order.  Under {1} the search adds 2 and finds {1,2}.
    # Under {3}, the lowest edge missed is {1,4}: 1 leaves {3} the one
    # private edge {2,3}, and the edge {2,4} missed next offers only 2,
    # which takes it, so {1,3} is a dead end; 4 finds {3,4}.  Three leaves,
    # two transversals.
    square = facet_complements(from_masks(cross_polytope_facets(2), 4))
    assert _minimal_transversals(square, 4, 2) is None
    assert sorted(_minimal_transversals(square, 4, 3)) == [0b0011, 0b1100]
    assert _minimal_transversals([0], 3, 0) is None    # one dead end
    assert _minimal_transversals([0], 3, 1) == []
    assert _minimal_transversals([], 3, 0) is None     # one transversal, ∅
    assert _minimal_transversals([], 3, 1) == [0]


def test_limit_is_monotone_on_small_complexes(small_complexes):
    """Below some least limit the search returns None, and from it on the
    full answer; that least limit counts at least the transversals."""
    for cx in small_complexes[::7]:
        edges = facet_complements(cx)
        full = _minimal_transversals(edges, cx.n)
        least = next(k for k in range(len(full) + cx.n * len(edges) + 2)
                     if _minimal_transversals(edges, cx.n, k) is not None)
        assert least >= len(full)
        assert _minimal_transversals(edges, cx.n, least) == full
        assert _minimal_transversals(edges, cx.n, least + 5) == full
        assert all(_minimal_transversals(edges, cx.n, k) is None for k in range(least))


def test_dualization_budget_admits_16_disjoint_edges_and_refuses_17():
    assert cartier.DUAL_BUDGET == 1 << 16
    ideal = MonomialIdeal(32, frozenset(
        tuple(1 if i // 2 == j else 0 for i in range(32)) for j in range(16)))
    assert len(complex_of_ideal(ideal).facets) == 1 << 16
    assert len(_minimal_transversals(disjoint_edge_masks(16), 32, 1 << 16)) == 1 << 16
    assert _minimal_transversals(disjoint_edge_masks(17), 34, 1 << 16) is None


def test_boundary_of_the_largest_simplex_has_one_minimal_nonface():
    # The search adds the 64 vertices one by one, down to depth 64.
    full = (1 << MAX_VERTICES) - 1
    sphere = SimplicialComplex(MAX_VERTICES, frozenset(full ^ 1 << i for i in range(MAX_VERTICES)))
    assert minimal_nonfaces(sphere) == [full]


def test_face_key_sorts_as_the_label_tuples():
    masks = list(range(1 << 12))
    rng = random.Random(23)
    wide = [rng.getrandbits(MAX_VERTICES) for _ in range(20000)]
    wide += [sum(1 << v for v in rng.sample(range(MAX_VERTICES), 3)) for _ in range(2000)]
    for group in (masks, wide):
        assert sorted(group, key=face_key) == sorted(group, key=face_key_tuples)
