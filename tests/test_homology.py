import random
from itertools import product

import pytest

from srcartier import complexes
from srcartier.complexes import (
    FACE_BUDGET,
    FreeFacePair,
    build_complex,
    faces_of_facets,
    full_simplex,
    mask_vertices,
    vertex_mask,
)
from srcartier.homology import (
    PrimeField,
    _check_boundary_squared,
    _eliminate,
    _reduced_betti_cached,
    _relabelled,
    build_chain_complex,
    buchsbaum_star_refutation,
    is_cohen_macaulay,
    is_doubly_cohen_macaulay,
    is_gorenstein,
    is_gorenstein_star,
    reduced_betti,
    relative_map_is_surjective,
)
from test_fast_paths import betti_direct, is_cm_per_face, is_gorenstein_star_per_face
from test_properties import contrastar_profile


def euler_characteristic_reduced(cx):
    """Alternating face count, empty face included (so {∅} gives -1)."""
    return sum(-1 if (f.bit_count() - 1) % 2 else 1 for f in cx.faces())


def mk(vertices, n):
    return vertex_mask(vertices, n)


@pytest.fixture
def projective_plane():
    """Minimal 6-vertex triangulation of RP^2 (antipodal icosahedron)."""
    return build_complex(
        [{1, 2, 3}, {1, 3, 4}, {1, 4, 5}, {1, 5, 6}, {1, 2, 6},
         {2, 3, 5}, {3, 4, 6}, {2, 4, 5}, {3, 5, 6}, {2, 4, 6}], 6)


@pytest.fixture
def suspended_projective_plane(projective_plane):
    """ΣRP² on 8 vertices: H̃_{k+1}(ΣRP²) = H̃_k(RP²), Z/2 torsion in H_2."""
    return build_complex([{*mask_vertices(f), apex}
                          for f in projective_plane.facets for apex in (7, 8)], 8)


@pytest.fixture
def octahedron():
    return build_complex([{a, b, c} for a in (1, 2) for b in (3, 4) for c in (5, 6)], 6)


def nonzero(betti):
    return {k: b for k, b in betti.items() if b}


class TestReducedBetti:
    def test_point(self):
        assert nonzero(reduced_betti(build_complex([{1}], 1))) == {}

    def test_irrelevant_complex(self):
        assert nonzero(reduced_betti(build_complex([], 2))) == {-1: 1}

    def test_two_points(self):
        assert nonzero(reduced_betti(build_complex([{1}, {2}], 2))) == {0: 1}

    def test_hollow_triangle(self, hollow_triangle):
        for p in (2, 3, 5):
            assert nonzero(reduced_betti(hollow_triangle, p)) == {1: 1}

    def test_solid_triangle(self, solid_triangle):
        assert nonzero(reduced_betti(solid_triangle)) == {}

    def test_whiskered_tetra_sphere_wedge_circle(self, whiskered_tetra):
        assert nonzero(reduced_betti(whiskered_tetra)) == {1: 1, 2: 1}
        assert nonzero(reduced_betti(whiskered_tetra, 3)) == {1: 1, 2: 1}

    def test_projective_plane_depends_on_p(self, projective_plane):
        assert nonzero(reduced_betti(projective_plane, 2)) == {1: 1, 2: 1}
        assert nonzero(reduced_betti(projective_plane, 3)) == {}
        assert nonzero(reduced_betti(projective_plane, 5)) == {}

    def test_euler_poincare(self, whiskered_tetra, path, hollow_triangle, projective_plane):
        for cx in (whiskered_tetra, path, hollow_triangle, projective_plane,
                   build_complex([], 3), full_simplex(4)):
            chi = euler_characteristic_reduced(cx)
            for p in (2, 3):
                betti = reduced_betti(cx, p)
                assert chi == sum((-1 if k % 2 else 1) * b for k, b in betti.items())


class TestTorsion:
    """RP² and ΣRP² have Z/2 torsion, so their Betti numbers depend on p
    and no unit-pivot elimination over Z can certify them."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name, torsion_degrees", [
        ("projective_plane", {1: 1, 2: 1}),
        ("suspended_projective_plane", {2: 1, 3: 1}),
    ])
    def test_betti_numbers_and_reisner_tests(self, request, name, torsion_degrees, p):
        cx = request.getfixturevalue(name)
        betti = reduced_betti(cx, p)
        assert betti == betti_direct(cx, p)
        assert nonzero(betti) == (torsion_degrees if p == 2 else {})
        assert is_cohen_macaulay(cx, p) == is_cm_per_face(cx, p) == (p != 2)
        assert not is_gorenstein_star(cx, p)
        assert not is_gorenstein_star_per_face(cx, p)

    def test_torsion_takes_the_uncertified_fallback(
            self, projective_plane, suspended_projective_plane, octahedron):
        for cx in (projective_plane, suspended_projective_plane):
            assert _reduced_betti_cached(_relabelled(cx.facets)[1]) is None
        assert _reduced_betti_cached(_relabelled(octahedron.facets)[1]) == (0, 0, 0, 1)

    def test_one_miss_serves_every_prime(self, octahedron):
        _reduced_betti_cached.cache_clear()
        assert nonzero(reduced_betti(octahedron, 2)) == {2: 1}
        assert nonzero(reduced_betti(octahedron, 3)) == {2: 1}
        info = _reduced_betti_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestContrastarProfile:
    def test_empty_face_is_reduced_homology(self, hollow_triangle):
        assert contrastar_profile(hollow_triangle, 0) == reduced_betti(hollow_triangle)

    def test_solid_triangle_edge(self, solid_triangle):
        prof = contrastar_profile(solid_triangle, mk({1, 2}, 3))
        assert prof.get(2, 0) == 0

    def test_solid_triangle_facet(self, solid_triangle):
        prof = contrastar_profile(solid_triangle, mk({1, 2, 3}, 3))
        assert prof.get(2, 0) == 1

    def test_non_face_rejected(self, hollow_triangle):
        with pytest.raises(ValueError, match=r"\(1, 2, 3\) is not a face"):
            contrastar_profile(hollow_triangle, mk({1, 2, 3}, 3))


class TestRelativeMap:
    def test_solid_triangle_not_surjective(self, solid_triangle):
        cert = relative_map_is_surjective(
            solid_triangle, mk({1, 2}, 3), mk({1, 2, 3}, 3), 2)
        assert cert == (False, 0, 1)

    def test_identity_is_surjective(self, solid_triangle):
        facet = mk({1, 2, 3}, 3)
        cert = relative_map_is_surjective(solid_triangle, facet, facet, 2)
        assert cert == (True, 1, 1)

    def test_zero_target_is_surjective(self, solid_triangle):
        cert = relative_map_is_surjective(
            solid_triangle, mk({1}, 3), mk({1, 2}, 3), 2)
        assert cert.surjective and cert.target_dim == 0

    def test_vertex_and_edge(self, vertex_and_edge):
        cert = relative_map_is_surjective(
            vertex_and_edge, mk({1}, 3), mk({1, 3}, 3), 1)
        assert cert == (False, 0, 1)

    def test_face_containment_required(self, solid_triangle, hollow_triangle):
        with pytest.raises(ValueError):
            relative_map_is_surjective(solid_triangle, mk({1}, 3), mk({2, 3}, 3), 1)
        with pytest.raises(ValueError):
            relative_map_is_surjective(hollow_triangle, mk({1}, 3), mk({1, 2, 3}, 3), 1)


def simplex_boundary(n):
    return build_complex([[v for v in range(1, n + 1) if v != u] for u in range(1, n + 1)], n)


class TestFaceBudget:
    def test_sphere_on_20_vertices_answers(self):
        # 20 facets of 19 vertices: 20 * 2^19 subsets counted, within 2^24.
        assert 20 << 19 <= FACE_BUDGET
        assert nonzero(reduced_betti(simplex_boundary(20))) == {18: 1}

    def test_both_families_are_counted(self, monkeypatch):
        monkeypatch.setattr(complexes, "FACE_BUDGET", 10)
        assert faces_of_facets([0b111], minus=[0b001]) == {0b010, 0b011, 0b100, 0b101, 0b110, 0b111}
        with pytest.raises(ValueError, match="up to 12 faces to list"):
            faces_of_facets([0b111], minus=[0b011])

    @pytest.mark.parametrize("call", [
        lambda cx: reduced_betti(cx, 3),
        lambda cx: relative_map_is_surjective(cx, mk([1], 24), mk([1, 2], 24), 1),
        lambda cx: contrastar_profile(cx, mk([1], 24)),
        lambda cx: cx.faces(),
    ])
    def test_sphere_on_24_vertices_is_refused(self, call):
        # The one-star quotient alone has 2^23 + 23 * 2^22 subsets of facets,
        # and it is counted whole before either part is listed.
        with pytest.raises(ValueError, match="over the face budget"):
            call(simplex_boundary(24))


class TestCohenMacaulay:
    def test_basic_fixtures(self, solid_triangle, hollow_triangle, path, whiskered_tetra,
                            vertex_and_edge):
        assert is_cohen_macaulay(solid_triangle)
        assert is_cohen_macaulay(hollow_triangle)
        assert is_cohen_macaulay(path)
        assert not is_cohen_macaulay(whiskered_tetra)          # not pure
        assert not is_cohen_macaulay(vertex_and_edge)

    def test_disconnected_pure(self):
        assert not is_cohen_macaulay(build_complex([{1, 2}, {3, 4}], 4))

    def test_projective_plane(self, projective_plane):
        # Reisner: CM over GF(3) but not over GF(2).
        assert not is_cohen_macaulay(projective_plane, 2)
        assert is_cohen_macaulay(projective_plane, 3)

    def test_cleared_cache_is_not_served_again(self):
        # The benchmark clears the Betti cache so that a repeated input is
        # computed again; no other memo may answer for it.
        octahedron = build_complex(
            [{a, b, c} for a in (1, 2) for b in (3, 4) for c in (5, 6)], 6)
        cache = _reduced_betti_cached
        cache.cache_clear()
        assert is_cohen_macaulay(octahedron, 3)
        first = cache.cache_info().misses
        assert first > 0
        assert is_cohen_macaulay(octahedron, 3)
        assert cache.cache_info().misses == first
        cache.cache_clear()
        assert is_cohen_macaulay(octahedron, 3)
        assert cache.cache_info().misses == first

    @pytest.mark.parametrize("p", [2, 3])
    def test_relabelled_complex_adds_no_miss(self, p):
        # A disk whose six vertices lie in 2, 6, 4, 5, 1 and 3 facets: the
        # root key orders its vertices the same way under every labelling,
        # so a relabelled copy is served from the cache alone.
        facets = [{1, 2, 3}, {1, 2, 4}, {2, 3, 4}, {2, 3, 6}, {2, 4, 5}, {2, 4, 6}, {3, 4, 6}]
        first, second = (
            build_complex([{perm[v - 1] for v in f} for f in facets], 6)
            for perm in ((6, 5, 4, 3, 2, 1), (3, 1, 6, 2, 5, 4)))
        assert first != second
        _reduced_betti_cached.cache_clear()
        assert is_cohen_macaulay(first, p)
        misses = _reduced_betti_cached.cache_info().misses
        assert misses > 1
        assert is_cohen_macaulay(second, p)
        assert _reduced_betti_cached.cache_info().misses == misses

    @pytest.mark.parametrize("p", [2, 3])
    def test_relabelled_non_pure_complex_adds_no_miss(self, p):
        # A triangle and a path, whose vertices lie in 1, 1, 2, 2 and 1
        # facets, then 2, 1, 1, 2 and 1: a non-pure Δ is keyed by its root
        # key too, and both labellings give the same one.
        first = build_complex([{1, 2, 3}, {3, 4}, {4, 5}], 5)
        second = build_complex([{1, 2, 3}, {1, 4}, {4, 5}], 5)
        _reduced_betti_cached.cache_clear()
        assert reduced_betti(first, p) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert _reduced_betti_cached.cache_info().misses == 1
        assert reduced_betti(second, p) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert _reduced_betti_cached.cache_info().misses == 1


class TestDoublyCohenMacaulay:
    def test_hollow_triangle(self, hollow_triangle):
        assert is_doubly_cohen_macaulay(hollow_triangle)

    def test_solid_triangle(self, solid_triangle):
        # Deleting a vertex drops the dimension.
        assert not is_doubly_cohen_macaulay(solid_triangle)

    def test_path(self, path):
        assert not is_doubly_cohen_macaulay(path)

    def test_two_points(self):
        assert is_doubly_cohen_macaulay(build_complex([{1}, {2}], 2))


class TestGorenstein:
    def test_hollow_triangle_star(self, hollow_triangle):
        assert is_gorenstein_star(hollow_triangle)
        assert is_gorenstein_star(hollow_triangle, 3)

    def test_solid_triangle_not_star(self, solid_triangle):
        assert not is_gorenstein_star(solid_triangle)

    def test_cone_is_gorenstein(self, cone_over_hollow, solid_triangle):
        assert is_gorenstein(cone_over_hollow)
        assert is_gorenstein(solid_triangle)
        assert is_gorenstein(full_simplex(3))

    def test_path_core_is_sphere(self, path):
        # The core of the path is the two endpoints, an S^0, hence G*.
        assert is_gorenstein(path)

    def test_vertex_and_edge(self, vertex_and_edge):
        assert not is_gorenstein_star(vertex_and_edge)
        assert not is_gorenstein(vertex_and_edge)

    def test_projective_plane(self, projective_plane):
        # Over GF(2) the first Betti number is nonzero; over GF(3) the top
        # one vanishes.  Neither field makes RP^2 a homology sphere.
        assert not is_gorenstein_star(projective_plane, 2)
        assert not is_gorenstein_star(projective_plane, 3)


class TestBuchsbaumStar:
    def test_solid_triangle_is_cone(self, solid_triangle):
        cert = buchsbaum_star_refutation(solid_triangle)
        assert cert.kind == "cone" and cert.vertex == 1

    def test_cone_over_hollow(self, cone_over_hollow):
        cert = buchsbaum_star_refutation(cone_over_hollow)
        assert cert.kind == "cone" and cert.vertex == 4

    def test_hollow_triangle_no_certificate(self, hollow_triangle):
        assert buchsbaum_star_refutation(hollow_triangle) is None

    def test_free_face_certificate(self, vertex_and_edge):
        cert = buchsbaum_star_refutation(vertex_and_edge)
        assert cert.kind == "free_face"
        assert cert.pair == FreeFacePair(mk({1}, 3), mk({1, 3}, 3))
        assert cert.rank == 0 and cert.target_dim == 1

    def test_sphere_no_certificate(self):
        tetra = build_complex(
            [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}], 4)
        assert buchsbaum_star_refutation(tetra) is None


class TestField:
    def test_prime_field(self):
        def accepted(p):
            try:
                return PrimeField(p).p == p
            except ValueError:
                return False

        assert [p for p in range(20) if accepted(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert accepted(101) and accepted(2**31 - 1)
        for bad in (-3, 0, 1, 4, 9, 2**31, 2147483659):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_homology_rejects_composite_field(self, hollow_triangle):
        for bad in (1, 4, 6):
            with pytest.raises(ValueError):
                reduced_betti(hollow_triangle, bad)


# Inputs on which an early exit could return before any chain complex is
# built: a cone, {∅}, a non-pure complex with no cone vertex, and the
# smallest complex with a free-face certificate.
SHORTCUT_COMPLEXES = {
    "cone": build_complex([{1, 2, 4}, {2, 3, 4}, {1, 3, 4}], 4),
    "empty_face": build_complex([], 2),
    "non_pure": build_complex([{1, 2, 3}, {3, 4}, {1, 4}], 4),
    "vertex_and_edge": build_complex([{1, 3}, {2}], 3),
}

PUBLIC_FUNCTIONS = {
    "reduced_betti": reduced_betti,
    "is_cohen_macaulay": is_cohen_macaulay,
    "is_doubly_cohen_macaulay": is_doubly_cohen_macaulay,
    "is_gorenstein_star": is_gorenstein_star,
    "is_gorenstein": is_gorenstein,
    "buchsbaum_star_refutation": buchsbaum_star_refutation,
    "contrastar_profile": lambda cx, p: contrastar_profile(cx, max(cx.facets), p),
    "relative_map_is_surjective": lambda cx, p: relative_map_is_surjective(
        cx, 0, max(cx.facets), max(cx.facets).bit_count() - 1, p),
}


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("name", sorted(PUBLIC_FUNCTIONS))
@pytest.mark.parametrize("cx_name", sorted(SHORTCUT_COMPLEXES))
def test_public_functions_validate_the_field_first(cx_name, name, p):
    fn, cx = PUBLIC_FUNCTIONS[name], SHORTCUT_COMPLEXES[cx_name]
    fn(cx, 2)  # the arguments are valid apart from the field
    with pytest.raises(ValueError, match=f"{p} is "):
        fn(cx, p)


def _span(vectors, p, ncols):
    """Every GF(p) combination of the given sparse vectors, as dense tuples."""
    out = set()
    for coeffs in product(range(p), repeat=len(vectors)):
        acc = [0] * ncols
        for a, v in zip(coeffs, vectors):
            for j, c in v.items():
                acc[j] = (acc[j] + a * c) % p
        out.add(tuple(acc))
    return out


class TestEliminate:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_rank_and_pivots_against_enumeration(self, p):
        rng = random.Random(1000 + p)
        for _ in range(60):
            nrows, ncols = rng.randint(0, 5), rng.randint(0, 6)
            density = rng.choice((0.2, 0.5, 0.9))
            rows = [{j: rng.randrange(1, p) for j in range(ncols) if rng.random() < density}
                    for _ in range(nrows)]
            if nrows >= 3 and rng.random() < 0.5:
                # Force a dependency: the last row is a combination of two others.
                a, b = rng.randrange(1, p), rng.randrange(1, p)
                mixed = {j: (a * rows[0].get(j, 0) + b * rows[1].get(j, 0)) % p
                         for j in range(ncols)}
                rows[-1] = {j: c for j, c in mixed.items() if c}
            pivots = _eliminate(rows, p)
            assert p ** len(pivots) == len(_span(rows, p, ncols))
            assert pivots <= set(range(ncols))

    def test_integer_growth_stops_certifying(self):
        # Pivots e_i - e_{i+1} - e_{i+2} (i < m), e_m and e_{m+1}, then e_0:
        # reducing e_0 meets the Fibonacci numbers up to F_{m+1}, and
        # F_46 < 2^31 < F_47.
        def rows(m):
            return ([{i: 1, i + 1: -1, i + 2: -1} for i in range(m)]
                    + [{m: 1}, {m + 1: 1}, {0: 1}])

        assert len(_eliminate(rows(45), 0)) == 47
        assert _eliminate(rows(46), 0) is None
        for p in (2, 3, 5):
            assert len(_eliminate(rows(46), p)) == 48



class TestBoundarySquaredCheck:
    """The ∂² = 0 check that runs on every build fires on a corrupted
    boundary.  It runs over Z, so it also sees a sign flip that is
    invisible modulo 2."""

    @pytest.mark.parametrize("p", [0, 2, 3])
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("mutation", ["flip", "drop"])
    def test_corrupted_entry(self, p, degree, mutation):
        cc = build_chain_complex(full_simplex(3).faces(), p)
        boundaries = {k: [dict(row) for row in rows] for k, rows in cc.boundaries.items()}
        _check_boundary_squared(boundaries)
        row = boundaries[degree][0]
        j = next(iter(row))
        if mutation == "drop":
            del row[j]
        else:
            row[j] = -row[j]
        with pytest.raises(AssertionError):
            _check_boundary_squared(boundaries)
