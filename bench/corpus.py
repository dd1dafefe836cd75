"""Seeded generators for the benchmark corpus.

Every generator takes a ``random.Random`` and returns a complex as a
sorted list of facets, each a sorted tuple of 1-based vertex labels.
``facet_text`` turns that into facet-file text, the only form in which
inputs reach the program.  Nothing here imports the program, so a change
to the program (its own random sampler included) cannot change the corpus.
"""

from __future__ import annotations

import random
from itertools import product

Facets = list[tuple[int, ...]]


def _maximal(sets) -> Facets:
    """Inclusion-maximal members of a family of vertex sets, sorted."""
    uniq = sorted({frozenset(s) for s in sets}, key=len, reverse=True)
    kept: list[frozenset] = []
    for s in uniq:
        if not any(s <= k for k in kept):
            kept.append(s)
    return sorted((tuple(sorted(s)) for s in kept), key=lambda f: (len(f), f))


def relabel(facets: Facets, n: int, rng: random.Random) -> Facets:
    """Apply a seeded permutation of the vertex labels 1..n."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return _maximal([perm[v - 1] for v in f] for f in facets)


def random_complex(n: int, rng: random.Random) -> Facets:
    """Facet-first sampler: n..2n random facets of size 2..n//2+1, every
    vertex covered.  Such complexes nearly always have a free face."""
    sets = []
    for _ in range(rng.randint(n, 2 * n)):
        sets.append(set(rng.sample(range(1, n + 1), rng.randint(2, n // 2 + 1))))
    covered = set().union(*sets)
    for v in range(1, n + 1):
        if v not in covered:
            rng.choice(sets).add(v)
    return _maximal(sets)


def cross_polytope_boundary(d: int) -> Facets:
    """Boundary of the d-dimensional cross-polytope: a (d-1)-sphere on 2d
    vertices, one vertex from each antipodal pair {i, i+d}."""
    return _maximal(
        [i + d * s for i, s in enumerate(signs, start=1)]
        for signs in product((0, 1), repeat=d)
    )


def stacked_sphere(d: int, n: int, rng: random.Random) -> Facets:
    """Boundary of a stacked d-polytope on n >= d+1 vertices: start from
    the boundary of a d-simplex and repeatedly subdivide a random facet
    by a new vertex."""
    if n < d + 1:
        raise ValueError(f"a stacked {d}-sphere needs at least {d + 1} vertices")
    simplex = set(range(1, d + 2))
    facets = [frozenset(simplex - {v}) for v in simplex]
    for v in range(d + 2, n + 1):
        f = facets.pop(rng.randrange(len(facets)))
        facets.extend(frozenset(f - {w} | {v}) for w in f)
    return _maximal(facets)


def join(a: Facets, na: int, b: Facets, nb: int) -> tuple[Facets, int]:
    """Join of a complex on [na] with a complex on [nb], whose vertices are
    shifted to na+1..na+nb."""
    return _maximal(fa + tuple(v + na for v in fb) for fa in a for fb in b), na + nb


def cone(core: Facets, n_core: int, extra: int) -> tuple[Facets, int]:
    """Join with the full simplex on extra new vertices."""
    return join(core, n_core, [tuple(range(1, extra + 1))], extra)


def has_free_face(facets: Facets) -> bool:
    """Some facet G has a codimension-one face lying in no other facet."""
    sets = [frozenset(f) for f in facets]
    for g in sets:
        if len(g) < 2:
            continue
        for v in g:
            face = g - {v}
            if not any(face <= h for h in sets if h is not g):
                return True
    return False


def facet_text(facets: Facets, n: int) -> str:
    """Facet-file text with an explicit ``n`` header."""
    lines = [f"n = {n}"]
    lines.extend(" ".join(map(str, f)) if f else "-" for f in facets)
    return "\n".join(lines) + "\n"
