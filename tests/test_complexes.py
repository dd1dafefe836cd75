import pytest

from srcartier.complexes import (
    FreeFacePair,
    SimplicialComplex,
    build_complex,
    collapse_greedy,
    cone_vertices,
    core,
    deletion,
    dimension,
    elementary_collapse,
    free_faces,
    full_simplex,
    is_face,
    link,
    mask_vertices,
    minimal_nonfaces,
    support_vertices,
    vertex_mask,
)


def facet_sets(cx):
    return {frozenset(mask_vertices(f)) for f in cx.facets}


def mk(vertices, n):
    return vertex_mask(vertices, n)


class TestBuild:
    def test_whiskered_tetra_facets(self, whiskered_tetra):
        assert len(whiskered_tetra.facets) == 6
        assert facet_sets(whiskered_tetra) == {
            frozenset(s) for s in
            [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}, {1, 5}, {2, 5}]
        }

    def test_empty_input_is_irrelevant_complex(self):
        cx = build_complex([], 3)
        assert cx.facets == frozenset({0})
        assert dimension(cx) == -1

    def test_antichain_reduction(self):
        cx = build_complex([{1, 2}, {1}, {2, 3}], 3)
        assert facet_sets(cx) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            build_complex([{1, 4}], 3)

    def test_bad_ground_set(self):
        with pytest.raises(ValueError):
            build_complex([], 0)
        with pytest.raises(ValueError):
            build_complex([], 65)

    def test_non_antichain_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, frozenset({0b01, 0b11}))

    def test_void_complex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, frozenset())


class TestFaceQueries:
    def test_is_face(self, whiskered_tetra):
        assert is_face(whiskered_tetra, mk({1, 5}, 5))
        assert not is_face(whiskered_tetra, mk({3, 5}, 5))
        assert is_face(whiskered_tetra, 0)

    def test_dimension(self, whiskered_tetra, path):
        assert dimension(whiskered_tetra) == 2
        assert dimension(path) == 1
        assert dimension(build_complex([], 3)) == -1


class TestFreeFaces:
    def test_whiskered_tetra_has_none(self, whiskered_tetra):
        assert free_faces(whiskered_tetra) == []

    def test_path(self, path):
        pairs = {(p.free_face, p.facet) for p in free_faces(path)}
        assert (mk({1}, 3), mk({1, 2}, 3)) in pairs
        assert (mk({3}, 3), mk({2, 3}, 3)) in pairs

    def test_hollow_triangle_has_none(self, hollow_triangle):
        assert free_faces(hollow_triangle) == []

    def test_empty_face_never_free(self):
        # A single point: removing {∅, {1}} would not preserve homotopy type.
        assert free_faces(build_complex([{1}], 1)) == []

    def test_soundness(self, path, whiskered_tetra, cone_over_hollow):
        for cx in (path, whiskered_tetra, cone_over_hollow):
            reported = {(p.free_face, p.facet) for p in free_faces(cx)}
            for face in cx.faces():
                if face == 0:
                    continue
                conts = [g for g in cx.facets if face & ~g == 0]
                expected_free = (len(conts) == 1
                                 and conts[0].bit_count() == face.bit_count() + 1)
                assert ((face, conts[0]) in reported) == expected_free if conts else True


class TestCollapse:
    def test_path_step(self, path):
        out = elementary_collapse(path, FreeFacePair(mk({1}, 3), mk({1, 2}, 3)))
        assert facet_sets(out) == {frozenset({2, 3})}

    def test_solid_triangle_step(self, solid_triangle):
        out = elementary_collapse(
            solid_triangle, FreeFacePair(mk({1, 2}, 3), mk({1, 2, 3}, 3)))
        assert facet_sets(out) == {frozenset({1, 3}), frozenset({2, 3})}

    def test_invalid_pair(self, path):
        with pytest.raises(ValueError):
            elementary_collapse(path, FreeFacePair(mk({2}, 3), mk({1, 2}, 3)))

    def test_greedy_path(self, path):
        final, seq = collapse_greedy(path)
        assert len(seq) == 2
        assert dimension(final) == 0 and len(final.facets) == 1

    def test_greedy_whiskered_tetra_noop(self, whiskered_tetra):
        final, seq = collapse_greedy(whiskered_tetra)
        assert final == whiskered_tetra and seq == []

    def test_greedy_irrelevant_complex(self):
        cx = build_complex([], 2)
        assert collapse_greedy(cx) == (cx, [])


class TestConeCoreJoin:
    def test_whiskered_tetra_support(self, whiskered_tetra):
        assert cone_vertices(whiskered_tetra) == 0
        assert mask_vertices(support_vertices(whiskered_tetra)) == (1, 2, 3, 4, 5)

    def test_cone_over_hollow(self, cone_over_hollow):
        assert mask_vertices(cone_vertices(cone_over_hollow)) == (4,)
        assert mask_vertices(support_vertices(cone_over_hollow)) == (1, 2, 3)

    def test_full_simplex(self):
        cx = full_simplex(4)
        assert cone_vertices(cx) == 0b1111
        assert support_vertices(cx) == 0

    def test_core_of_cone(self, cone_over_hollow, hollow_triangle):
        core_cx, vmap = core(cone_over_hollow)
        assert core_cx == hollow_triangle
        assert vmap == (1, 2, 3)

    def test_core_identity(self, whiskered_tetra):
        core_cx, vmap = core(whiskered_tetra)
        assert core_cx == whiskered_tetra
        assert vmap == (1, 2, 3, 4, 5)

    def test_core_of_full_simplex(self):
        core_cx, vmap = core(full_simplex(3))
        assert core_cx.n == 0 and core_cx.facets == frozenset({0})
        assert vmap == ()

    def test_join_reconstruction(self, cone_over_hollow):
        keep = support_vertices(cone_over_hollow)
        cone = cone_vertices(cone_over_hollow)
        assert all(f == (f & keep) | cone for f in cone_over_hollow.facets)


class TestSubcomplexes:
    def test_link(self, hollow_triangle):
        lk = link(hollow_triangle, mk({1}, 3))
        assert facet_sets(lk) == {frozenset({2}), frozenset({3})}

    def test_link_nonface(self, hollow_triangle):
        with pytest.raises(ValueError):
            link(hollow_triangle, mk({1, 2, 3}, 3))

    def test_deletion(self, path):
        assert facet_sets(deletion(path, 2)) == {frozenset({1}), frozenset({3})}


class TestMinimalNonfaces:
    def test_path(self, path):
        assert [mask_vertices(m) for m in minimal_nonfaces(path)] == [(1, 3)]

    def test_whiskered_tetra(self, whiskered_tetra):
        got = [mask_vertices(m) for m in minimal_nonfaces(whiskered_tetra)]
        assert got == [(3, 5), (4, 5), (1, 2, 5), (1, 2, 3, 4)]

    def test_full_simplex(self):
        assert minimal_nonfaces(full_simplex(3)) == []

    def test_irrelevant_complex(self):
        cx = build_complex([], 3)
        assert [mask_vertices(m) for m in minimal_nonfaces(cx)] == [(1,), (2,), (3,)]
