"""Property-based tests tying the ideal arithmetic, the combinatorics and
the homology engine together.

The helpers that only the tests call live here, and the other test files
import them: the join with a simplex and the contrastar profile
H_*(Δ, cost F), besides the supports `supp` and `supp_two`."""

import json
from itertools import permutations, product

from hypothesis import given, settings, strategies as st

from srcartier.cartier import (
    classify,
    classify_via_free_face,
    classify_via_ideal,
    complex_of_ideal,
    cross_validate,
    enumerate_complexes,
    ideal_of_complex,
    random_complex,
)
from srcartier.complexes import (
    SimplicialComplex,
    collapse_greedy,
    cone_vertices,
    core,
    deletion,
    dimension,
    elementary_collapse,
    free_faces,
    from_masks,
    is_face,
    link,
    mask_vertices,
    minimal_nonfaces,
    support_vertices,
)
from srcartier.homology import PrimeField, _contrastar_quotient, reduced_betti
from srcartier.monomials import (
    add,
    colon,
    contains,
    frobenius_power,
    minimize,
    multiply,
    principal,
)


def join_with_simplex(cx, extra):
    """Join with the full simplex on extra vertices 1..extra beyond n."""
    n = cx.n + extra
    simplex = ((1 << n) - 1) & ~((1 << cx.n) - 1)
    return SimplicialComplex(n, frozenset(f | simplex for f in cx.facets))


def contrastar_profile(cx, face, p=2):
    """H_*(Δ, cost F) in degrees 0..dim Δ; reduced homology of Δ if F = ∅."""
    PrimeField(p)
    if face == 0:
        return reduced_betti(cx, p)
    if not is_face(cx, face):
        raise ValueError(f"{mask_vertices(face)} is not a face")
    dims = _contrastar_quotient(cx.faces(), face, p).homology_dims()
    return {k: dims.get(k, 0) for k in range(0, dimension(cx) + 1)}


def supp(m):
    """Indices (1-based) of the variables dividing m."""
    return frozenset(i + 1 for i, e in enumerate(m) if e)


def supp_two(m):
    """Indices whose exponent is at least 2."""
    return frozenset(i + 1 for i, e in enumerate(m) if e >= 2)


@st.composite
def complexes(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    return from_masks(masks, n)


@st.composite
def ideals(draw, max_n=4, max_exp=2):
    n = draw(st.integers(min_value=1, max_value=max_n))
    gens = draw(st.lists(
        st.tuples(*([st.integers(0, max_exp)] * n)), min_size=1, max_size=4))
    return minimize(gens, n)


def monomials_in(n, max_exp=3):
    return st.tuples(*([st.integers(0, max_exp)] * n))


def face_set(mask):
    return frozenset(mask_vertices(mask))


class TestMonomialProperties:
    @given(ideals())
    def test_minimize_idempotent(self, i):
        assert minimize(i.gens, i.n) == i

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 2)), min_size=1, max_size=4))
    def test_minimize_order_independent(self, gens):
        base = minimize(gens, 3)
        for perm in permutations(gens):
            assert minimize(perm, 3) == base

    @settings(max_examples=50, deadline=None)
    @given(ideals(max_n=3), ideals(max_n=3))
    def test_colon_oracle(self, a, b):
        if a.n != b.n:
            return
        q = colon(a, b)
        for m in product(range(5), repeat=a.n):
            expected = (b.is_zero()
                        or all(contains(a, multiply(m, g)) for g in b.gens))
            assert contains(q, m) == expected


class TestFrobeniusMembership:
    """supp_2 characterizations of membership in I^[2] and I^[2] + (x^1)."""

    @staticmethod
    def check_complex(cx):
        ideal = ideal_of_complex(cx)
        frob = frobenius_power(ideal, 2)
        full_product = (1,) * cx.n
        summed = add(frob, principal(full_product))
        all_vars = frozenset(range(1, cx.n + 1))
        for m in product(range(4), repeat=cx.n):
            s2 = sum(1 << (i - 1) for i in supp_two(m))
            nonface = not is_face(cx, s2)
            assert contains(frob, m) == nonface
            if supp(m) != all_vars:
                assert contains(summed, m) == nonface

    def test_exhaustive_small(self):
        for n in (1, 2, 3, 4):
            for cx in enumerate_complexes(n):
                self.check_complex(cx)

    def test_sampled_n5(self):
        for t in range(40):
            self.check_complex(random_complex(5, 0.5, seed=1000 + t))

    def test_containment_chain(self):
        # colon(I^[2], I) contains I^[2] + (x^1) whenever V = [n].
        for n in (2, 3, 4):
            for cx in enumerate_complexes(n):
                if support_vertices(cx) != (1 << n) - 1:
                    continue
                ideal = ideal_of_complex(cx)
                if ideal.is_zero():
                    continue
                frob = frobenius_power(ideal, 2)
                lhs = colon(frob, ideal)
                rhs = add(frob, principal((1,) * n))
                assert all(contains(lhs, g) for g in rhs.gens)

    @settings(max_examples=100, deadline=None)
    @given(complexes(max_n=4), st.data())
    def test_monotone_saturation(self, cx, data):
        ideal = ideal_of_complex(cx)
        if ideal.is_zero():
            return
        summed = add(frobenius_power(ideal, 2), principal((1,) * cx.n))
        m = data.draw(monomials_in(cx.n))
        missing = sorted(frozenset(range(1, cx.n + 1)) - supp(m))
        if len(missing) < 2 or contains(summed, m):
            return
        for i in missing:
            bumped = multiply(m, tuple(1 if j == i - 1 else 0 for j in range(cx.n)))
            assert not contains(summed, bumped)


class TestComplexProperties:
    @given(complexes())
    def test_roundtrip(self, cx):
        assert complex_of_ideal(ideal_of_complex(cx)) == cx

    @given(complexes())
    def test_support_is_union_of_nonfaces(self, cx):
        union = 0
        for nf in minimal_nonfaces(cx):
            union |= nf
        assert union == support_vertices(cx)

    @given(complexes())
    def test_core_join_reconstruction(self, cx):
        core_cx, vmap = core(cx)
        cone = cone_vertices(cx)
        lifted = frozenset(
            sum(1 << (vmap[i] - 1) for i in range(len(vmap)) if f >> i & 1) | cone
            for f in core_cx.facets)
        assert lifted == cx.facets

    @given(complexes())
    def test_operations_preserve_antichain(self, cx):
        # The constructor validates; these calls must not raise.
        core(cx)
        for v in range(1, cx.n + 1):
            if is_face(cx, 1 << (v - 1)):
                link(cx, 1 << (v - 1))
            deletion(cx, v)
        for pair in free_faces(cx):
            elementary_collapse(cx, pair)

    @given(complexes(max_n=4))
    def test_join_invariance(self, cx):
        joined = join_with_simplex(cx, 2)
        assert classify(joined).verdict == classify(cx).verdict

    @settings(max_examples=60, deadline=None)
    @given(complexes())
    def test_collapse_preserves_homology(self, cx):
        def nonzero(betti):
            return {k: b for k, b in betti.items() if b}

        betti = nonzero(reduced_betti(cx))
        while True:
            pairs = free_faces(cx)
            if not pairs:
                break
            cx = elementary_collapse(cx, pairs[0])
            assert nonzero(reduced_betti(cx)) == betti


class TestHomologyProperties:
    @settings(max_examples=60, deadline=None)
    @given(complexes(max_n=4), st.integers(0, 1))
    def test_contrastar_link_identity(self, cx, pidx):
        p = (2, 3)[pidx]
        d = dimension(cx)
        for face in cx.faces():
            if face == 0:
                continue
            prof = contrastar_profile(cx, face, p)
            lk_betti = reduced_betti(link(cx, face), p)
            size = face.bit_count()
            for i in range(0, d + 1):
                assert prof.get(i, 0) == lk_betti.get(i - size, 0)


class TestDeterminism:
    def test_classify_reports_identical(self):
        for t in range(10):
            cx = random_complex(6, 0.5, seed=t)
            a = json.dumps(classify(cx).to_json_dict())
            b = json.dumps(classify(cx).to_json_dict())
            assert a == b

    def test_cross_validate_identical(self):
        kw = dict(exhaustive_ns=(3,), random_ns=(6,), trials_per_n=20, seed=9)
        d1 = cross_validate(**kw).to_json_dict()
        d2 = cross_validate(**kw).to_json_dict()
        d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
        assert d1 == d2

    def test_criteria_agree_on_random_sample(self):
        for t in range(100):
            cx = random_complex(6, (0.2, 0.5, 0.8)[t % 3], seed=t)
            assert classify_via_ideal(cx, 2).verdict == classify_via_free_face(cx).verdict
