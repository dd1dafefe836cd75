"""Exact simplicial homology over prime fields GF(p).

Chain complexes are built from face bitmasks with the ascending-vertex
orientation.  Relative homology H_*(Δ, cost F) uses the quotient basis of
faces of Δ outside the contrastar, which are the faces that contain F
(`_contrastar_quotient`).  Each boundary map is stored as a list of sparse
rows (column -> coefficient ±1), built in one pass per face, and ∂² = 0
is checked over Z on every build, which implies it modulo every p.

One Gaussian elimination, `_eliminate`, serves every caller: it returns
the pivot columns, whose number is the rank.  One loop reduces dict
rows, modulo p with each pivot scaled to 1, or with p = 0 over Z,
accepting only ±1 as a pivot; such a rank is the rank over every GF(p),
and anything else returns None.
`homology_dims` eliminates the top degree first and clears: a row of ∂_k
whose face is a pivot column of ∂_{k+1} lies in the span of the later
rows, so it is left out (Chen–Kerber, "Persistent homology computation
with a twist", 2011).  Both proofs are in the docstrings.

Reisner's criterion reads only (dim, H̃_*) of each link, and both are
invariant under relabelling the vertices.  `_relabelled` maps the support
vertices of a facet set, in increasing order, to bits 0..k-1 (with
`complexes.squeeze`, which also gives `core` its labels), and Betti
numbers are cached by the relabelled facets alone, for every prime at
once.  A pure Δ, where the walk starts, is keyed by `_root_key` instead:
its support vertices ordered by the number of facets that hold them,
fewest first, ties by label.  Two complexes that differ only by labels
then often share the key of Δ, and with it every key of the walk below;
keyed by increasing labels they seldom do.  Within one complex, too,
more of the isomorphic links end up with one key.  `_link_keys` lists
each link once up to relabelling, starting from the root key:
{lk F : F ∈ Δ} is the closure of {Δ} under vertex links, since
lk(F ∪ v) = lk_{lk F}(v), and relabelling commutes with taking links.
It reaches each face along one chain that adds vertices in increasing
order: an entry (L, t) expands only the vertices i ≥ t of L, and the
child lk_L(i) gets the threshold "its vertices below i".  A child seen
before is expanded again only below its least earlier threshold.  No
link is rebuilt from the facets of Δ.  A cache entry is one tuple
(H̃_{-1}, ..., H̃_d), from degree -1 to d = dim L, and Reisner's tests
read it as it is: L passes the CM test iff the sum is the last entry,
and the Gorenstein* test iff that entry is also 1.  So a link's
dimension is read off its tuple, and no link is validated again.

Betti numbers come from a one-star quotient.  The closed star st v of a
vertex is a cone, so H̃_i(Δ) ≅ H_i(Δ, st v), the homology of the chain
complex on the faces σ with σ ∪ v ∉ Δ: the faces of the facets avoiding
v, minus the faces of lk v, taking v in the most facets.  Every face
listing, this one and `SimplicialComplex.faces`, is refused with
ValueError past `complexes.FACE_BUDGET`, counted from the facets before
any face is listed.  The quotient is not reduced further (say by greedy
collapses, whose invariance the acceptance tests check against these
numbers).

`_reduced_betti_cached` builds the quotient once, over Z, and stores the
Betti numbers of a unit-pivot elimination, which hold over every GF(p)
(universal coefficients; unit-pivot elimination is the usual first step
of integer homology, Dumas–Heckenbach–Saunders–Welker, "Computing
simplicial homology based on efficient Smith normal form algorithms",
2003).  Where a pivot is not ±1, or an entry leaves (-2^31, 2^31), the
entry is None: the numbers may depend on p, as on RP², and each lookup
eliminates over GF(p), uncached.

The Buchsbaum* certificate is in closed form: for a free pair (F, G),
H_*(Δ, cost F) = 0 and H_*(Δ, cost G) is GF(p) in degree dim G, so the
induced map in degree dim Δ fails to be surjective iff dim G = dim Δ
(`buchsbaum_star_refutation`).  Every facet over a ridge of a top facet
is top, so only the top facets' ridges are counted, by the same
`complexes.ridge_owners` as the free faces.
`relative_map_is_surjective` computes such maps from four ranks on the
two quotient complexes and is the tests' oracle for it.

Every public function validates p with `PrimeField` before anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Collection, Iterable, Iterator, NamedTuple, Optional

from .complexes import (
    SimplicialComplex,
    cone_vertices,
    core,
    deletion,
    dimension,
    faces_of_facets,
    face_key,
    FreeFacePair,
    is_face,
    is_pure,
    mask_vertices,
    ridge_owners,
    squeeze,
)


@dataclass(frozen=True)
class PrimeField:
    """A prime p with 2 <= p < 2^31; trial division is bounded by 2^16."""

    p: int

    def __post_init__(self):
        p = self.p
        if not 2 <= p < 2**31:
            raise ValueError(f"{p} is outside [2, 2^31)")
        if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")


Row = dict[int, int]  # column -> nonzero coefficient, mod p or in Z
_ENTRY_LIMIT = 1 << 31  # integer elimination stops certifying past ±2^31


def _subtract_multiple(dst: Row, c: int, src: Row, p: int) -> bool:
    """dst -= c·src over GF(p), or over Z if p = 0, dropping entries that
    cancel.  Over Z, False once an entry leaves (-2^31, 2^31)."""
    for j, v in src.items():
        x = dst.get(j, 0) - c * v
        if p:
            x %= p
        elif not -_ENTRY_LIMIT < x < _ENTRY_LIMIT:
            return False
        if x:
            dst[j] = x
        else:
            del dst[j]
    return True


def _eliminate(rows: list[Row], p: int) -> Optional[set[int]]:
    """The pivot columns of the matrix with the given sparse rows over
    GF(p); their number is its rank.

    Each row is reduced against pivots keyed by their leading (smallest)
    column, subtracting r[lead]·piv[lead] times the pivot row.  Over GF(p)
    a new pivot row is scaled to lead with 1.

    p = 0 reduces the integer rows over Z in the same loop, taking only ±1
    as a new pivot, stored as it is; it returns None as soon as a leading
    entry with no pivot is not ±1, or an entry leaves (-2^31, 2^31).
    Otherwise the pivots hold over every GF(p).  Each step subtracts an
    integer multiple of an earlier row, which is invertible over Z and so
    over every GF(p).  At the end the pivot rows have distinct leading
    columns and leading entries ±1, nonzero modulo every p, and the other
    rows are zero; so modulo p they are an echelon basis of the same row
    space, and the pivot count is the rank over every field.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        r = {j: c % p for j, c in row.items() if c % p} if p else dict(row)
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                if p:
                    inv = pow(r[lead], p - 2, p)
                    r = {j: c * inv % p for j, c in r.items()}
                elif r[lead] not in (1, -1):
                    return None
                pivots[lead] = r
                break
            if not _subtract_multiple(r, r[lead] * piv[lead], piv, p):
                return None
    return set(pivots)


class ChainComplexOverField(NamedTuple):
    """Quotient chain complex on a set of faces of some complex, over GF(p),
    or over Z if p = 0."""

    p: int
    basis: dict[int, list[int]]          # degree -> ordered face masks
    boundaries: dict[int, list[Row]]     # degree k -> rows of C_k -> C_{k-1}

    def homology_dims(self) -> Optional[dict[int, int]]:
        """dim H_k over GF(p) in each degree.  Over Z (p = 0) these are the
        dimensions over every GF(p), or None if some ∂_k has no unit-pivot
        elimination (`_eliminate`).

        Clearing leaves out the row of ∂_k at each pivot column σ of
        ∂_{k+1}.  The reduced row behind that pivot is the boundary of a
        chain with coefficient ±1 at σ (over Z; a unit over GF(p)) and
        nonzero entries only at later faces, so ∂² = 0 makes row σ of ∂_k a
        combination of later rows, with integer coefficients over Z.  From
        the last row down, the rows left out thus lie in the span of the
        rows kept, over Z and modulo every p.
        """
        pivots: dict[int, set[int]] = {}
        for k in sorted(self.boundaries, reverse=True):
            rows = self.boundaries[k]
            cleared = pivots.get(k + 1)
            if cleared:
                rows = [row for i, row in enumerate(rows) if i not in cleared]
            pivots[k] = _eliminate(rows, self.p)
            if pivots[k] is None:
                return None
        return {k: len(self.basis[k]) - len(pivots[k]) - len(pivots.get(k + 1, ()))
                for k in sorted(self.basis)}


def build_chain_complex(face_basis: set[int], p: int) -> ChainComplexOverField:
    """Chain complex on the given faces; coefficients to absent faces drop.
    The boundary signs are ±1, so one build serves Z (p = 0) and every
    GF(p), where -1 is the residue p - 1.

    Raises ValueError unless p is 0 or a prime below 2^31: modulo a
    composite, leading coefficients need not be invertible and elimination
    would not terminate.
    """
    if p:
        PrimeField(p)
    basis: dict[int, list[int]] = {}
    for f in face_basis:
        basis.setdefault(f.bit_count() - 1, []).append(f)
    for k in basis:
        basis[k].sort()
    index = {f: i for k in basis for i, f in enumerate(basis[k])}
    boundaries: dict[int, list[Row]] = {}
    for k, faces in basis.items():
        rows = []
        for f in faces:
            # Dropping the i-th lowest vertex has sign (-1)^i.
            row: Row = {}
            sign = 1
            rest = f
            while rest:
                low = rest & -rest
                j = index.get(f ^ low)
                if j is not None:
                    row[j] = sign
                sign = -sign
                rest ^= low
            rows.append(row)
        boundaries[k] = rows
    _check_boundary_squared(boundaries)
    return ChainComplexOverField(p, basis, boundaries)


def _check_boundary_squared(boundaries: dict[int, list[Row]]):
    """∂_{k-1} ∂_k = 0 over Z, hence modulo every p."""
    for k, rows in boundaries.items():
        lower = boundaries.get(k - 1)
        if lower is None:
            continue
        for row in rows:
            acc: dict[int, int] = {}
            for j, c in row.items():
                for j2, c2 in lower[j].items():
                    acc[j2] = acc.get(j2, 0) + c * c2
            if any(acc.values()):
                raise AssertionError("boundary squared is nonzero")


def _relabelled(facets: Collection[int]) -> tuple[int, frozenset[int]]:
    """The support of the facets, as a mask, and the facets with its k
    vertices, in increasing order, mapped to bits 0..k-1."""
    support = 0
    for f in facets:
        support |= f
    return support, frozenset(squeeze(facets, support))


def _count_classes(facets: Iterable[int]) -> list[int]:
    """The vertex bits of the facets, grouped by the number of facets that
    hold them: one mask per count, fewest first.

    The counts are added up bitwise for all vertices at once: levels[j]
    holds the vertices whose count has bit j set, and each facet is added
    with carries, as in binary addition.  Splitting the support by the
    levels, highest first, orders the classes by count.
    """
    levels: list[int] = []
    for f in facets:
        for j, level in enumerate(levels):
            levels[j], f = level ^ f, level & f
            if not f:
                break
        else:
            if f:
                levels.append(f)
    support = 0
    for level in levels:
        support |= level
    classes = [support] if support else []
    for level in reversed(levels):
        classes = [h for c in classes for h in (c & ~level, c & level) if h]
    return classes


def _root_key(facets: Collection[int]) -> tuple[int, frozenset[int]]:
    """The support of the facets, as a mask, and the facets with its k
    vertices, ordered by the number of facets that hold them, fewest
    first and ties by label, mapped to bits 0..k-1.

    This is Δ under a bijection of its vertices, so it has the same Betti
    numbers and the same links up to isomorphism; two complexes that
    differ only by labels often get the same key.  Only a pure Δ is keyed
    so: its links go through `_relabelled` in `_link_keys`.
    """
    classes = _count_classes(facets)
    support = sum(classes)  # the classes are disjoint
    if all(c < d & -d for c, d in zip(classes, classes[1:])):
        # Each class lies below the next, so the order is the labels'.
        return support, frozenset(squeeze(facets, support))
    bit: dict[int, int] = {}
    for c in classes:
        while c:
            low = c & -c
            bit[low] = 1 << len(bit)
            c ^= low
    keyed = []
    for f in facets:
        g = 0
        while f:
            low = f & -f
            g |= bit[low]
            f ^= low
        keyed.append(g)
    return support, frozenset(keyed)


def _star_quotient_betti(facets: frozenset[int], p: int) -> Optional[tuple[int, ...]]:
    """(H̃_{-1}, ..., H̃_d) over GF(p), d = dim Δ, of the relabelled facets
    of an already validated complex; over Z (p = 0) the same numbers for
    every GF(p), or None where unit pivots do not certify them.  The
    tuple starts at degree -1, so its length is dim Δ + 2.

    Built on the quotient by the star of the vertex v in the most facets
    (the lowest such bit): the faces σ with σ ∪ v ∉ Δ, i.e. the faces of the
    facets avoiding v that are not in lk v.  The quotient is empty iff Δ
    is a cone over v, and then every reduced Betti number is 0, read off
    without listing a face.  Otherwise `faces_of_facets` counts both parts
    against the face budget before it lists either.
    """
    d = max(f.bit_count() for f in facets) - 1
    if d < 0:
        return (1,)
    top = _count_classes(facets)[-1]
    v = top & -top
    if all(f & v for f in facets):
        return (0,) * (d + 2)
    quotient = faces_of_facets((f for f in facets if not f & v),
                               minus=(f ^ v for f in facets if f & v))
    dims = build_chain_complex(quotient, p).homology_dims()
    if dims is None:
        return None
    return tuple(dims.get(k, 0) for k in range(-1, d + 1))


@lru_cache(maxsize=1 << 17)
def _reduced_betti_cached(facets: frozenset[int]) -> Optional[tuple[int, ...]]:
    """The reduced Betti numbers of the relabelled facets over every GF(p),
    from degree -1 up, from one elimination over Z, or None where they
    may depend on p."""
    return _star_quotient_betti(facets, 0)


def _betti(facets: frozenset[int], p: int) -> tuple[int, ...]:
    """The cached Betti numbers, or for an entry that depends on p (RP², say)
    the elimination over GF(p), uncached."""
    return _reduced_betti_cached(facets) or _star_quotient_betti(facets, p)


def reduced_betti(cx: SimplicialComplex, p: int = 2) -> dict[int, int]:
    """Reduced Betti numbers over GF(p); {∅} has a single unit in degree -1."""
    PrimeField(p)
    # Any labelling gives the same numbers.  Only a pure Δ is walked, by
    # the Reisner tests, and its walk starts from the root key.
    key = _root_key if is_pure(cx) else _relabelled
    return dict(enumerate(_betti(key(cx.facets)[1], p), -1))


def _contrastar_quotient(faces: set[int], face: int, p: int) -> ChainComplexOverField:
    """The chain complex of (Δ, cost F), on the faces of Δ that contain F."""
    return build_chain_complex({f for f in faces if face & ~f == 0}, p)


class RankCertificate(NamedTuple):
    surjective: bool
    rank: int
    target_dim: int


def relative_map_is_surjective(
    cx: SimplicialComplex, small: int, big: int, degree: int, p: int = 2
) -> RankCertificate:
    """Surjectivity of H_d(Δ, cost F) -> H_d(Δ, cost G) for F ⊆ G.

    Returns (surjective, rank of the induced map, dimension of the target
    homology), from four ranks.  The map is induced by the projection
    π: C(Δ, cost F) -> C(Δ, cost G) that drops the faces not containing G;
    let K_d be the d-faces that contain F but not G.  π is onto, so
    B_d(target) = π(B_d(source)) ⊆ π(Z_d(source)), and the rank is
    dim π(Z_d(source)) - dim B_d(target).  The cycles that π kills are
    those supported on K_d, of dimension |K_d| - rank(∂_d^source on the
    rows of K_d).  With dim Z_d(source) = |C_d(source)| - rank ∂_d^source
    and |C_d(source)| - |K_d| = |C_d(target)|, the rank is
    |C_d(target)| - rank ∂_d^source + rank(∂_d^source on K_d)
    - rank ∂_{d+1}^target.
    """
    PrimeField(p)
    if small & ~big:
        raise ValueError("first face must be contained in the second")
    if not is_face(cx, big):
        raise ValueError("second argument is not a face")
    faces = cx.faces()
    source = _contrastar_quotient(faces, small, p)
    target = _contrastar_quotient(faces, big, p)

    def rank(rows: list[Row]) -> int:
        return len(_eliminate(rows, p))

    size = len(target.basis.get(degree, []))
    rank_top = rank(target.boundaries.get(degree + 1, []))
    target_dim = size - rank(target.boundaries.get(degree, [])) - rank_top
    if target_dim == 0:
        return RankCertificate(True, 0, 0)
    rows = source.boundaries.get(degree, [])
    killed = [row for f, row in zip(source.basis.get(degree, []), rows) if big & ~f]
    rank_map = size - rank(rows) + rank(killed) - rank_top
    return RankCertificate(rank_map == target_dim, rank_map, target_dim)


def _link_keys(cx: SimplicialComplex) -> Iterator[frozenset[int]]:
    """The relabelled facets of each link of a face of Δ, once each and
    lazily, Δ's own first.

    A stack entry (L, lo, hi) expands the vertices lo <= i < hi of L; the
    child C = lk_L(i) has threshold t, the number of C's vertices below i.
    Every face {g_1 < ... < g_m} is reached along ∅ ⊂ {g_1} ⊂ ... by
    vertices at or above each threshold, since relabelling keeps the
    order, and the children of (L, t) depend only on L and t and shrink as
    t grows.  So C need only be expanded from the least threshold it is
    reached with: over [t, k_C) when new, and over [t, best[C]) when t is
    lower than before.  A vertex link of an antichain is an antichain.

    The walk starts from `_root_key(Δ)`, not from `_relabelled(Δ)`.  The
    root key is Δ under a bijection of its vertices, so it has the same
    Betti numbers and the same links up to isomorphism, and `reduced_betti`
    keys a pure Δ the same way, so the first yield is its cache entry.  The
    argument above uses no property of the root's vertex order: it needs
    only that each child keeps its parent's order, which `_relabelled`
    does for every child.
    """
    support, facets = _root_key(cx.facets)
    yield facets
    best = {facets: 0}
    stack = [(facets, 0, support.bit_count())]
    while stack:
        facets, lo, hi = stack.pop()
        for i in range(lo, hi):
            v = 1 << i
            support, child = _relabelled([f ^ v for f in facets if f & v])
            t = (support & (v - 1)).bit_count()
            end = best.get(child)
            if end is None:
                yield child
                end = support.bit_count()
            elif end <= t:
                continue
            best[child] = t
            stack.append((child, t, end))


def is_cohen_macaulay(cx: SimplicialComplex, p: int = 2) -> bool:
    """Reisner's criterion: links have no reduced homology below their dim."""
    PrimeField(p)
    # Betti numbers are nonnegative, so the sum is the top one iff the rest vanish.
    return is_pure(cx) and all(
        sum(b) == b[-1] for b in (_betti(key, p) for key in _link_keys(cx)))


def is_doubly_cohen_macaulay(cx: SimplicialComplex, p: int = 2) -> bool:
    """CM, and deleting any vertex stays CM of the same dimension."""
    # is_cohen_macaulay validates p before its first shortcut.
    if not is_cohen_macaulay(cx, p):
        return False
    d = dimension(cx)
    verts = 0
    for f in cx.facets:
        verts |= f
    for v in mask_vertices(verts):
        dl = deletion(cx, v)
        if dimension(dl) != d or not is_cohen_macaulay(dl, p):
            return False
    return True


def is_gorenstein_star(cx: SimplicialComplex, p: int = 2) -> bool:
    """Every link is a homology sphere over GF(p) (vanishing below the top,
    one-dimensional on top)."""
    PrimeField(p)
    return is_pure(cx) and all(
        sum(b) == b[-1] == 1 for b in (_betti(key, p) for key in _link_keys(cx)))


def is_gorenstein(cx: SimplicialComplex, p: int = 2) -> bool:
    PrimeField(p)
    return is_gorenstein_star(core(cx).complex, p)


class BuchsbaumStarRefutation(NamedTuple):
    kind: str                         # "cone" or "free_face"
    vertex: Optional[int]
    pair: Optional[FreeFacePair]
    rank: Optional[int]
    target_dim: Optional[int]


def buchsbaum_star_refutation(cx: SimplicialComplex, p: int = 2) -> Optional[BuchsbaumStarRefutation]:
    """A certificate that Δ is not Buchsbaum*, when one is found.

    Either Δ is a cone over a vertex, or it has a free-face pair whose
    induced map on top relative homology fails to be surjective.  Absence
    of a certificate proves nothing.

    The second kind is in closed form.  Let (F, G) be a free pair: G is
    the only facet over F, and |G| = |F| + 1.  Only F and G contain F, so
    the chain complex of (Δ, cost F) is GF(p)·G -> GF(p)·F with ∂G = ±F,
    an isomorphism, and H_*(Δ, cost F) = 0.  Only G contains G, so
    H_*(Δ, cost G) is one-dimensional, in degree dim G.  In degree
    d = dim Δ the map H_d(Δ, cost F) -> H_d(Δ, cost G) is therefore 0 -> 0
    unless dim G = d, and then 0 -> GF(p): rank 0 < target dimension 1,
    for every p.  So the certificate is the free pair, least in `face_key`
    order of F, whose facet has d + 1 vertices; `relative_map_is_surjective`
    computes the same ranks.

    Only the top facets need be read.  Let F be a ridge of a facet G with
    d + 1 vertices.  A face over F other than F has at least d + 1
    vertices, and F is no facet, since F ⊂ G and the facets form an
    antichain.  So every facet over F has d + 1 vertices, and F is free iff
    it is a ridge of exactly one top facet.  For d < 1 the only ridge is
    the empty face, which is never taken as free.
    """
    PrimeField(p)
    cone = cone_vertices(cx)
    if cone:
        return BuchsbaumStarRefutation("cone", mask_vertices(cone)[0], None, None, None)
    top = dimension(cx) + 1
    if top < 2:
        return None
    over = ridge_owners(g for g in cx.facets if g.bit_count() == top)
    free = min((ridge for ridge, g in over.items() if g), key=face_key, default=None)
    if free is None:
        return None
    return BuchsbaumStarRefutation("free_face", None, FreeFacePair(free, over[free]), 0, 1)


def contrastar_profile(cx: SimplicialComplex, face: int, p: int = 2) -> dict[int, int]:
    """H_*(Δ, cost F) in degrees 0..dim Δ; reduced homology of Δ if F = ∅."""
    PrimeField(p)
    if face == 0:
        return reduced_betti(cx, p)
    if not is_face(cx, face):
        raise ValueError(f"{mask_vertices(face)} is not a face")
    dims = _contrastar_quotient(cx.faces(), face, p).homology_dims()
    return {k: dims.get(k, 0) for k in range(0, dimension(cx) + 1)}
