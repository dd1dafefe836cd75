"""Simplicial complexes on a small ground set, stored as facet bitmasks.

Vertices are labelled 1..n and a face is an integer whose bit i-1 is set
iff vertex i belongs to the face.  The complex {∅} (the nonvoid complex
with no vertices) is stored as the single facet 0.  The void complex is
not representable.

Nothing here walks all 2^n subsets of the ground set.  Minimal nonfaces
are computed by hypergraph dualization (Alexander duality: they are the
minimal transversals of the facet complements, found by the MMCS
depth-first search over per-vertex bitsets of the edges, whose work is
bounded by its leaves, see `_minimal_transversals`), free faces come from
the ridges G minus v of the facets G, and an elementary collapse rewrites
the facet list directly.  Only `faces_of_facets` (and
`SimplicialComplex.faces`, which calls it) lists every face, and no
routine on the classify path calls it.  It raises ValueError, before
listing any face, when the subsets of the facets, counted as the sum of
2^|F|, exceed FACE_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, NamedTuple, Optional

MAX_VERTICES = 64
FACE_BUDGET = 1 << 24  # most faces listed at once, as a sum of 2^|F| over facets
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # for bytes.translate


def vertex_mask(vertices: Iterable[int], n: int) -> int:
    """Pack 1-based vertex labels into a bitmask, checking the range."""
    m = 0
    for v in vertices:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} out of range [1, {n}]")
        m |= 1 << (v - 1)
    return m


def mask_vertices(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of 1-based vertex labels."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _bits(mask: int) -> Iterator[int]:
    """The one-bit masks of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def face_key(mask: int) -> tuple[int, int]:
    """Graded-lexicographic sort key on faces (cardinality, then labels).

    Of two sets of one size, the one holding the lower first differing
    label comes first: with the MAX_VERTICES bits reversed, vertex 1
    highest, it is the larger mask.  So the key negates the bit-reversed
    mask (its bytes reversed in order and within each byte) and builds no
    tuple of labels.
    """
    reversed_bytes = mask.to_bytes(MAX_VERTICES // 8, "little").translate(_REVERSED_BITS)
    return (mask.bit_count(), -int.from_bytes(reversed_bytes, "big"))


def _maximal(masks: Iterable[int]) -> frozenset[int]:
    """Inclusion-maximal elements of a set of bitmasks.

    Each set is compared only with the kept sets of strictly larger size:
    distinct sets of equal size are incomparable, so on a pure family the
    cost is linear.
    """
    by_size: dict[int, list[int]] = {}
    for m in set(masks):
        by_size.setdefault(m.bit_count(), []).append(m)
    kept: list[int] = []
    for size in sorted(by_size, reverse=True):
        layer = by_size[size]
        if kept:
            layer = [m for m in layer if all(m & ~k for k in kept)]
        kept += layer
    return frozenset(kept)


def _subsets(facets: list[int]) -> set[int]:
    seen: set[int] = set()
    for f in facets:
        s = f
        while True:
            seen.add(s)
            if s == 0:
                break
            s = (s - 1) & f
    return seen


def faces_of_facets(facets: Iterable[int], minus: Iterable[int] = ()) -> set[int]:
    """Every subset of some facet, as bitmasks (0, the empty face, included),
    less every subset of some facet in `minus`.

    Raises ValueError, before listing any face, when the subsets of both
    families, counted as the sum of 2^|F|, exceed FACE_BUDGET.
    """
    facets, minus = list(facets), list(minus)
    total = sum([1 << f.bit_count() for f in facets + minus])
    if total > FACE_BUDGET:
        raise ValueError(f"up to {total} faces to list, over the face budget of {FACE_BUDGET}")
    faces = _subsets(facets)
    faces -= _subsets(minus)
    return faces


class FreeFacePair(NamedTuple):
    free_face: int
    facet: int


class CoreResult(NamedTuple):
    complex: "SimplicialComplex"
    vertex_map: tuple[int, ...]  # new label i+1 -> original label vertex_map[i]


@dataclass(frozen=True)
class SimplicialComplex:
    """A nonvoid simplicial complex given by its facets (an antichain)."""

    n: int
    facets: frozenset[int]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"ground set size {self.n} outside [0, {MAX_VERTICES}]")
        full = (1 << self.n) - 1
        if not self.facets:
            raise ValueError("void complex is not representable; use facets={0}")
        for f in self.facets:
            if f & ~full:
                raise ValueError("facet uses vertices outside the ground set")
        if self.facets != _maximal(self.facets):
            raise ValueError("facets must form an antichain")

    def faces(self) -> set[int]:
        """All faces, as bitmasks (always contains 0, the empty face)."""
        return faces_of_facets(self.facets)

    def sorted_facets(self) -> list[int]:
        return sorted(self.facets, key=face_key)

    def facet_vertex_lists(self) -> list[tuple[int, ...]]:
        return [mask_vertices(f) for f in self.sorted_facets()]

    def __repr__(self):
        facets = ",".join("{%s}" % ",".join(map(str, vs)) for vs in self.facet_vertex_lists())
        return f"SimplicialComplex(n={self.n}, facets=[{facets}])"


def build_complex(facet_list: Iterable[Iterable[int]], n: int) -> SimplicialComplex:
    """Build a complex from vertex lists; an empty list yields {∅}."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n={n} outside [1, {MAX_VERTICES}]")
    return from_masks((vertex_mask(f, n) for f in facet_list), n)


def from_masks(masks: Iterable[int], n: int) -> SimplicialComplex:
    """Build a complex from face bitmasks, keeping only maximal ones; no
    masks yield {∅}."""
    return SimplicialComplex(n, _maximal(masks) or frozenset({0}))


def full_simplex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, frozenset({(1 << n) - 1 if n else 0}))


def is_face(cx: SimplicialComplex, face: int) -> bool:
    return any(face & ~f == 0 for f in cx.facets)


def dimension(cx: SimplicialComplex) -> int:
    return max(f.bit_count() for f in cx.facets) - 1


def ridge_owners(facets: Iterable[int]) -> dict[int, int]:
    """Each ridge G minus v of the given facets -> G, or 0 if it is a
    ridge of more than one of them."""
    owner: dict[int, int] = {}
    for g in facets:
        for v in _bits(g):
            r = g ^ v
            owner[r] = 0 if r in owner else g
    return owner


def free_faces(cx: SimplicialComplex) -> list[FreeFacePair]:
    """All pairs (F, G) with G the unique facet over F and |G| = |F|+1.

    Only the ridges F = G minus v of a facet G with |G| >= 2 qualify.  A
    facet H over F is not F itself, since F lies inside the facet G, so H
    has at least |G| vertices, and F is a ridge of H if it has exactly |G|.
    So F is free iff it is the ridge of one facet of size |G| and no larger
    facet contains it; no smaller facet can.  The facets are taken by
    size, largest first: the ridges of one size are counted, and each
    ridge counted once is tested against the larger facets only.  The
    empty face is excluded: removing it would not preserve the homotopy
    type, and any complex where it qualifies is a cone.
    """
    by_size: dict[int, list[int]] = {}
    for g in cx.facets:
        by_size.setdefault(g.bit_count(), []).append(g)
    pairs = []
    larger: list[int] = []
    for size in sorted(by_size, reverse=True):
        layer = by_size[size]
        if size >= 2:
            for r, g in ridge_owners(layer).items():
                if g and all(r & ~h for h in larger):
                    pairs.append(FreeFacePair(r, g))
        larger += layer
    pairs.sort(key=lambda p: face_key(p.free_face))
    return pairs


def is_free_face_pair(cx: SimplicialComplex, pair: FreeFacePair) -> bool:
    extra = pair.facet & ~pair.free_face
    if pair.free_face == 0 or extra.bit_count() != 1 or pair.free_face & ~pair.facet:
        return False
    if pair.facet not in cx.facets or not is_face(cx, pair.free_face):
        return False
    conts = [f for f in cx.facets if pair.free_face & ~f == 0]
    return conts == [pair.facet]


def elementary_collapse(cx: SimplicialComplex, pair: FreeFacePair) -> SimplicialComplex:
    """Remove a free face F and its facet G; preserves the homotopy type.

    The faces left inside G are those of the facets G minus w, w in F.
    """
    if not is_free_face_pair(cx, pair):
        raise ValueError(f"{pair} is not a free-face pair of the complex")
    g = pair.facet
    masks = [f for f in cx.facets if f != g]
    masks += [g & ~w for w in _bits(pair.free_face)]
    return from_masks(masks, cx.n)


def collapse_greedy(cx: SimplicialComplex) -> tuple[SimplicialComplex, list[FreeFacePair]]:
    """Collapse repeatedly, always using the graded-lex smallest pair."""
    seq: list[FreeFacePair] = []
    while True:
        pairs = free_faces(cx)
        if not pairs:
            return cx, seq
        cx = elementary_collapse(cx, pairs[0])
        seq.append(pairs[0])


def cone_vertices(cx: SimplicialComplex) -> int:
    """Bitmask of vertices belonging to every facet."""
    m = (1 << cx.n) - 1
    for f in cx.facets:
        m &= f
    return m


def support_vertices(cx: SimplicialComplex) -> int:
    """Bitmask of vertices dividing some minimal generator of the ideal."""
    return ((1 << cx.n) - 1) & ~cone_vertices(cx)


def squeeze(masks: Collection[int], keep: int) -> Collection[int]:
    """Masks inside `keep`, with the k bits of `keep`, in increasing order,
    mapped to bits 0..k-1: `masks` itself when they already are."""
    gaps = keep ^ ((1 << keep.bit_length()) - 1)
    while gaps:
        # Close the highest run of gaps, bits low..top-1, by shifting down.
        top = gaps.bit_length()
        low = (~gaps & ((1 << top) - 1)).bit_length()
        below = (1 << low) - 1
        masks = [m & below | (m >> (top - low)) & ~below for m in masks]
        gaps &= below
    return masks


def core(cx: SimplicialComplex) -> CoreResult:
    """Restrict to the non-cone vertices; Δ = core(Δ) * 2^{cone vertices}.

    The facets stay an antichain: they all contain the cone vertices.
    """
    keep = support_vertices(cx)
    facets = frozenset(squeeze([f & keep for f in cx.facets], keep))
    return CoreResult(SimplicialComplex(keep.bit_count(), facets), mask_vertices(keep))


def join_with_simplex(cx: SimplicialComplex, extra: int) -> SimplicialComplex:
    """Join with the full simplex on extra vertices 1..extra beyond n."""
    n = cx.n + extra
    add = ((1 << n) - 1) & ~((1 << cx.n) - 1)
    return SimplicialComplex(n, frozenset(f | add for f in cx.facets))


def link(cx: SimplicialComplex, face: int) -> SimplicialComplex:
    """Faces disjoint from `face` whose union with it stays a face."""
    facets = frozenset(f & ~face for f in cx.facets if face & ~f == 0)
    if not facets:
        raise ValueError(f"{mask_vertices(face)} is not a face")
    return SimplicialComplex(cx.n, facets)


def deletion(cx: SimplicialComplex, v: int) -> SimplicialComplex:
    """Faces avoiding vertex v."""
    if not 1 <= v <= cx.n:
        raise ValueError(f"vertex {v} out of range [1, {cx.n}]")
    bit = 1 << (v - 1)
    return from_masks((f & ~bit for f in cx.facets), cx.n)


def _incidence(edges: list[int], n: int) -> list[int]:
    """For each vertex i+1, the bitset of the edges that contain it: bit j
    is set iff edges[j] holds the vertex.

    The edges are written as rows of n binary digits, edge 0 last, and
    zip reads the columns off them, so each bitset is parsed once instead
    of being grown one edge at a time (7-9x faster from 1,500 edges on).
    """
    top = 1 << n  # a leading 1 pins every row to n digits
    rows = [format(e | top, "b") for e in reversed(edges)]
    return [int("".join(col), 2) for col in zip(*rows)][:0:-1]


def _minimal_transversals(edges: Iterable[int], n: int,
                          limit: Optional[int] = None) -> Optional[list[int]]:
    """Minimal vertex sets meeting every edge, by the MMCS depth-first
    search (Murakami-Uno, Discrete Appl. Math. 170, 2014), or None once
    the search passes `limit` leaves.

    Each vertex holds the bitset of the edges it meets, over the sorted,
    distinct edges.  A node of the search is a set S whose every vertex u
    has a private edge, one that no other vertex of S meets; `crit` holds
    these, one bitset per vertex of S.  The node branches on the lowest
    edge that S misses, adding each candidate vertex v of that edge whose
    addition leaves every u a private edge.  S is then a minimal
    transversal once it meets every edge, and every minimal transversal is
    reached this way.  The vertices of the branching edge leave the
    candidates for the branch of its first vertex, and each comes back
    once its own branch is done, so no set is reached twice.  An empty
    edge leaves no transversal; no edges leave the empty set.

    A leaf is a transversal found or a node with no child.  Every other
    node has a child and the depth is at most n, so the work is bounded by
    about n nodes per leaf, with no scan of the 2^n subsets of the ground
    set and no comparison with the transversals found so far.
    """
    edges = sorted({e & ((1 << n) - 1) for e in edges})
    every = (1 << len(edges)) - 1
    hits = _incidence(edges, n)
    misses = [every ^ h for h in hits]
    found: list[int] = []
    leaves = 0

    def search(s: int, crit: list[int], cand: int, uncov: int) -> bool:
        """Search below S = s, with the private edges `crit` of its
        vertices, the candidate vertices `cand` and the edges `uncov` it
        misses; False once the leaves pass `limit`."""
        nonlocal leaves
        if uncov:
            c = cand & edges[(uncov & -uncov).bit_length() - 1]
            cand ^= c
            leaf = True
            while c:
                v = c & -c
                c ^= v
                i = v.bit_length() - 1
                miss = misses[i]
                kept = []
                for k in crit:
                    k &= miss
                    if not k:
                        break
                    kept.append(k)
                else:
                    leaf = False
                    kept.append(hits[i] & uncov)
                    if not search(s | v, kept, cand, uncov & miss):
                        return False
                cand |= v
            if not leaf:
                return True
        else:
            found.append(s)
        leaves += 1
        return limit is None or leaves <= limit

    return found if search(0, [], (1 << n) - 1, every) else None


def minimal_nonfaces(cx: SimplicialComplex) -> list[int]:
    """Inclusion-minimal non-faces, in graded-lex order.

    By Alexander duality these are the minimal transversals of the facet
    complements: a set is a nonface iff it meets every complement.
    """
    full = (1 << cx.n) - 1
    found = _minimal_transversals((full & ~f for f in cx.facets), cx.n)
    return sorted(found, key=face_key)


def is_pure(cx: SimplicialComplex) -> bool:
    sizes = {f.bit_count() for f in cx.facets}
    return len(sizes) == 1
