"""Deciding whether the Cartier algebra of a Stanley-Reisner ring is
principally or infinitely generated.

Two independent routes run once per complex and are cross-checked:
`_identity_pairs` gives both sides of the identity
I^[q] : I = I^[q] + (x_V^{q-1}) (`ideal_test` as the ideals of a
`ColonIdentity`), and `free_face_scan` the free faces of the core.  Each
gives a verdict; a disagreement is a hard internal error.  The harness
checks the witness monomial of the scan's first pair on the scan's own
core.

For a Stanley-Reisner ideal the colon I^[q] : I is read off the primary
decomposition I = ∩_F (x_i : i ∉ F) over the facets F
(`_sr_colon_pairs`), with no ideal arithmetic and for every q at once;
only the nonfaces and the facets are read, never the free faces.  The
route stays on vertex bitmasks: the rhs is x_V^{q-1} with x_g^q for each
minimal nonface g ≠ V, minimal as it stands (see `_identity_pairs`), so
neither side is minimized.  `classify` and `classify_via_ideal` read the
verdict and both sides' strings straight off these pairs
(`_pair_strings`); `ideal_test` builds the two ideals from them.  The
general `monomials.colon` serves every other monomial ideal, and the
q-sweep of `cross_validate` checks the pairs against it.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from itertools import combinations
from typing import Collection, Iterable, Iterator, Optional

from . import monomials as mono
from .complexes import (
    FreeFacePair,
    SimplicialComplex,
    _bits,
    _minimal_transversals,
    core,
    face_key,
    free_faces,
    from_masks,
    is_free_face_pair,
    mask_vertices,
    minimal_nonfaces,
    support_vertices,
    vertex_mask,
)
from .monomials import Monomial, MonomialIdeal


EXHAUSTIVE_MAX_N = 5   # largest n that enumerate_complexes will visit
RANDOM_MAX_N = 20      # largest n that random_complex will sample
# Past this many leaves of the dualization per generator (one per facet
# on these joins) `colon_identity` uses `monomials.colon`.  At q = 2 on
# joins of 3-point sets, whose dual grows fastest, the two routes cost the
# same at 40 facets per generator (4.1 ms); on joins of pentagons the
# dual route is still ahead at 31 (2.9 against 3.4 ms); on joins of hollow
# triangles and on disjoint edges the general colon leads from about 50,
# and both stay under 1.6 ms up to 100.
_FACETS_PER_GENERATOR = 32
# Most leaves (transversals found plus dead ends) the dualization of
# `complex_of_ideal` may reach, so that no command that needs a complex
# runs for minutes on a small `.ideal`: k disjoint edges have 2^k facets,
# one leaf each.  `classify` takes 1.8-2.0 s and 73 MB at k = 16, and
# refuses k = 17 in 0.2 s; before any budget it took 6.5 s and 126 MB at
# 17, and 68 s and 823 MB at 20 (2-vCPU Xeon).
DUAL_BUDGET = 1 << 16
# Up to this n the q-sweep of `_check_one` also compares both sides with
# `monomials.colon`: for q = 3, 4, 8 on random complexes that adds 0.6 ms
# a complex at n = 5, 9.6 ms (38 ms at most) at n = 8 and 33 ms (133 ms
# at most) at n = 9.
_Q_SWEEP_COLON_MAX_N = 8


class Verdict(Enum):
    PRINCIPALLY_GENERATED = "pg"
    INFINITELY_GENERATED = "infgen"


class InconsistencyError(RuntimeError):
    """The two classification criteria disagreed (a bug, not an input error)."""


def _verdict(holds: bool) -> Verdict:
    """The verdict of the colon identity for a Stanley-Reisner ideal."""
    return Verdict.PRINCIPALLY_GENERATED if holds else Verdict.INFINITELY_GENERATED


def ideal_of_complex(cx: SimplicialComplex) -> MonomialIdeal:
    """The Stanley-Reisner ideal: squarefree generators from minimal non-faces."""
    gens = []
    for nf in minimal_nonfaces(cx):
        gens.append(tuple(1 if nf >> i & 1 else 0 for i in range(cx.n)))
    return MonomialIdeal(cx.n, frozenset(gens))


def complex_of_ideal(ideal: MonomialIdeal) -> SimplicialComplex:
    """Inverse Stanley-Reisner correspondence for squarefree ideals.

    Raises ValueError on the unit ideal, which belongs to the void complex:
    not even ∅ is a face, and `SimplicialComplex` cannot hold that; and
    once the dualization passes DUAL_BUDGET leaves.
    """
    if ideal.is_unit():
        raise ValueError("the unit ideal is the ideal of the void complex, "
                         "which is not representable")
    for g in ideal.gens:
        if not mono.is_squarefree(g):
            raise ValueError(f"generator {mono.format_monomial(g)} is not squarefree")
    facets = _facets_of_ideal(ideal, DUAL_BUDGET)
    if facets is None:
        raise ValueError(f"dualizing the ideal passes the budget of {DUAL_BUDGET} sets")
    return from_masks(facets, ideal.n)


def _supports(ideal: MonomialIdeal) -> list[int]:
    return [sum(1 << i for i, e in enumerate(g) if e) for g in ideal.gens]


def _facets_of_ideal(ideal: MonomialIdeal,
                     limit: Optional[int] = None) -> Optional[list[int]]:
    """The facets of the complex of a squarefree ideal, as bitmasks, or
    None once the dualization passes `limit` leaves.

    A set is a face iff its complement meets every generator support, so
    the facets are the complements of the minimal transversals, an
    antichain already.  The unit ideal has none; its callers turn it away.
    """
    full = (1 << ideal.n) - 1
    trans = _minimal_transversals(_supports(ideal), ideal.n, limit)
    return None if trans is None else [full & ~t for t in trans]


def _sr_colon_pairs(facets: Collection[int], nonfaces: Collection[int],
                    n: int) -> list[tuple[int, int]]:
    """Minimal generators of I^[q] : I for the Stanley-Reisner ideal I of
    a complex, as pairs (A, B) with B ⊆ A for x_B^q · x_{A∖B}^{q-1}.

    With P_F = (x_i : i ∉ F) over the facets F, I = ∩_F P_F and so
    I^[q] : I = ∩_F (P_F^[q] + (x_{[n]∖F}^{q-1})).  A monomial whose
    exponents are >= q on B and >= q-1 on A lies in it iff B is a nonface
    or A ⊇ A(B) = B ∪ ([n] ∖ cl(B)), where cl(B) is the intersection of
    the facets containing B.  The minimal generators are therefore:
    (V, ∅), V the non-cone vertices; (g, g) for each minimal nonface g,
    unless A(g∖w) ⊆ g for some w ∈ g; and (A(B), B) for each nonempty
    face B ⊆ V with a vertex of V in cl(B) ∖ B, unless A(B∖w) ⊆ A(B) for
    some w ∈ B.  Only the last kind lies outside I^[q] + (x_V^{q-1}).

    The faces B ⊆ V∖v with v ∈ cl(B) are closed upwards, so each lies
    below a start (F∖v) ∩ V, F a facet containing v, whose closure holds
    v, and is reached from it by dropping one vertex at a time.  No face
    outside these descents is visited, and the pairs do not depend on q.
    """
    full = (1 << n) - 1
    cone = full
    for f in facets:
        cone &= f
    support = full & ~cone
    a_of: dict[int, int] = {}

    def a_set(b: int) -> int:
        a = a_of.get(b)
        if a is None:
            closure = full
            for f in facets:
                if b & ~f == 0:
                    closure &= f
            a = a_of[b] = b | (full & ~closure)
        return a

    # (g, g) drops out iff the facets over g∖w all contain [n]∖g, which
    # makes [n]∖{w} the one facet over g∖w.
    dropped = 0
    for f in facets:
        if (full & ~f).bit_count() == 1:
            dropped |= full & ~f
    pairs = [(support, 0)] + [(g, g) for g in nonfaces if not g & dropped]
    # v ∈ cl(D) for a face D avoiding v iff D ∪ (g∖v) is a nonface for
    # every minimal nonface g ∋ v.  A minimal nonface h inside D ∪ (g∖v)
    # avoids v and meets g∖v, so the test is h∖(g∖v) ⊆ D for some such h.
    seen: set[int] = set()
    for v in _bits(support):
        avoid = [h for h in nonfaces if not h & v]
        tests = []
        for g in nonfaces:
            if g & v:
                r = g & ~v
                tests.append([h & ~r for h in avoid if h & r])
        if not all(tests):
            continue
        tests.sort(key=len)
        for f in facets:
            if f & v:
                d = f & support & ~v
                for rests in tests:
                    for x in rests:
                        if x & ~d == 0:
                            break
                    else:
                        break
                else:
                    seen.add(d)
    stack = list(seen)
    while stack:
        b = stack.pop()
        a = a_set(b)
        minimal = True
        for w in _bits(b):
            c = b & ~w
            ac = a_set(c)
            if ac & ~a == 0:
                minimal = False
            if c and support & ~ac and c not in seen:
                seen.add(c)
                stack.append(c)
        if minimal:
            pairs.append((a, b))
    return pairs


@dataclass(frozen=True)
class ColonIdentity:
    """Both sides of I^[q] : I = I^[q] + (x_V^{q-1}), V the variables of I."""

    lhs: MonomialIdeal    # I^[q] : I
    rhs: MonomialIdeal    # I^[q] + (x_V^{q-1})

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs

    @property
    def verdict(self) -> Verdict:
        """The verdict the identity gives for a Stanley-Reisner ideal."""
        return _verdict(self.holds)

    def offending(self) -> Iterator[Monomial]:
        """Generators of the lhs outside the rhs, in sorted order.

        The lhs contains the rhs, so a generator of the rhs is never one."""
        rhs = self.rhs
        return (g for g in self.lhs.sorted_gens()
                if g not in rhs.gens and not mono.contains(rhs, g))


def _check_q(q: int, capped: bool = True) -> None:
    """Refuse a Frobenius power q < 2, and, if `capped`, one past the
    exponent cap."""
    if q < 2:
        raise ValueError(f"q={q} must be >= 2")
    if capped and q > mono.EXPONENT_CAP:
        raise OverflowError(f"exponent exceeds cap {mono.EXPONENT_CAP}")


def colon_identity(ideal: MonomialIdeal, q: int) -> ColonIdentity:
    """The colon-ideal identity of a monomial ideal at q >= 2, V = the
    variables dividing some generator (for a Stanley-Reisner ideal, the
    support vertices of the complex).  Raises ValueError for q < 2.

    A squarefree proper ideal is the Stanley-Reisner ideal of
    `complex_of_ideal(ideal)`, whose minimal nonfaces are the generator
    supports, and both sides come from `_colon_identity`.  Any other ideal
    (one with a generator that is not squarefree, or the unit ideal) goes
    through the general `monomials.colon`, and so does a squarefree ideal
    whose dualization passes `_FACETS_PER_GENERATOR` leaves per generator:
    k disjoint edges have 2^k facets, while `monomials.colon` stays
    polynomial there.
    """
    # Each route checks the cap on the exponents it builds.
    _check_q(q, capped=False)
    if not ideal.is_unit() and all(mono.is_squarefree(g) for g in ideal.gens):
        facets = _facets_of_ideal(ideal, _FACETS_PER_GENERATOR * len(ideal.gens))
        if facets is not None:
            return _colon_identity(ideal.n, q, _supports(ideal), facets)
    return _general_colon_identity(ideal, q)


def _general_colon_identity(ideal: MonomialIdeal, q: int) -> ColonIdentity:
    """Both sides by ideal arithmetic: `monomials.colon` and `monomials.add`."""
    frob = mono.frobenius_power(ideal, q)
    xv = tuple(q - 1 if any(g[i] for g in ideal.gens) else 0 for i in range(ideal.n))
    return ColonIdentity(mono.colon(frob, ideal), mono.add(frob, mono.principal(xv)))


def _pair_ideal(pairs: Iterable[tuple[int, int]], q: int, n: int) -> MonomialIdeal:
    """The ideal of the monomials x_B^q · x_{A∖B}^{q-1}, over pairs (A, B)
    of bitmasks with B ⊆ A, given minimal already."""
    bits = [1 << i for i in range(n)]
    return MonomialIdeal(n, frozenset(
        tuple(q if b & s else (q - 1 if a & s else 0) for s in bits) for a, b in pairs))


def _identity_pairs(n: int, q: int, nonfaces: list[int], facets: Collection[int]
                    ) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Both sides of the identity for the Stanley-Reisner ideal I of the
    complex on [n] with these minimal nonfaces and facets, all bitmasks, as
    sets of pairs (A, B) for x_B^q · x_{A∖B}^{q-1} (see `_pair_ideal`).

    The lhs comes from `_sr_colon_pairs`, whose first pair is (V, ∅), V
    the non-cone vertices.  The rhs I^[q] + (x_V^{q-1}) is generated by
    x_V^{q-1} and x_g^q for each minimal nonface g ≠ V, with no
    minimization.  Every minimal nonface g lies in V: for a cone vertex c
    in g, a facet over the face g∖c would hold c and so g.  So x_V^{q-1}
    divides x_g^q only when g = V; no x_g^q divides x_V^{q-1}, because
    q > q-1 and g is not empty; and the x_g^q form an antichain, because
    the g do.  Both sides are thus minimal generating sets, and for q >= 2
    distinct pairs give distinct monomials, so the identity holds iff the
    two sets are equal.
    """
    # With no nonface every exponent is 0, so no q is past the cap.
    _check_q(q, capped=bool(nonfaces))
    pairs = _sr_colon_pairs(facets, nonfaces, n)
    v = pairs[0][0]
    return set(pairs), {(v, 0)} | {(g, g) for g in nonfaces if g != v}


def _colon_identity(n: int, q: int, nonfaces: list[int],
                    facets: Collection[int]) -> ColonIdentity:
    """The identity, as ideals, from the pairs of `_identity_pairs`."""
    lhs, rhs = _identity_pairs(n, q, nonfaces, facets)
    return ColonIdentity(_pair_ideal(lhs, q, n), _pair_ideal(rhs, q, n))


def ideal_test(cx: SimplicialComplex, q: int = 2) -> ColonIdentity:
    """The colon-ideal criterion with the support-vertex product on the right.
    For the full simplex (zero ideal) both sides are the unit ideal."""
    return _colon_identity(cx.n, q, minimal_nonfaces(cx), cx.facets)


def witness_monomial(cx: SimplicialComplex, pair: FreeFacePair) -> Monomial:
    """The separating monomial built from a free-face pair, for V = [n].

    Squares the variables of the free face, skips the added facet vertex,
    and takes every other variable once; the result lies in I^[2]:I but
    not in I^[2] + (x_1 ... x_n).
    """
    full = (1 << cx.n) - 1
    if support_vertices(cx) != full:
        raise ValueError("witness monomial requires a complex equal to its core")
    if not is_free_face_pair(cx, pair):
        raise ValueError(f"{pair} is not a free-face pair of the complex")
    skip = pair.facet & ~pair.free_face
    return tuple(
        2 if pair.free_face >> i & 1 else (0 if skip >> i & 1 else 1)
        for i in range(cx.n)
    )


@dataclass(frozen=True)
class ClassificationReport:
    verdict: Verdict
    n: int
    support_v: tuple[int, ...]
    core_facets: tuple[tuple[int, ...], ...]   # original vertex labels
    free_face_witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    monomial_witness: Optional[str] = None     # core coordinates
    colon_lhs: tuple[str, ...] = ()
    colon_rhs: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        ff = self.free_face_witness
        return {
            "verdict": self.verdict.value,
            "n": self.n,
            "V": list(self.support_v),
            "core_facets": [list(f) for f in self.core_facets],
            "free_face": list(ff[0]) if ff else None,
            "facet": list(ff[1]) if ff else None,
            "witness_monomial": self.monomial_witness,
            "colon_lhs": list(self.colon_lhs),
            "colon_rhs": list(self.colon_rhs),
        }


def _relabel(mask: int, vmap: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([vmap[i - 1] for i in mask_vertices(mask)])


def _core_fields(core_cx: SimplicialComplex, vmap: tuple[int, ...]) -> dict:
    """The report fields V and the core facets, in the original vertex
    labels, of the core and its vertex map.  The map lists V and keeps the
    vertex order, so the relabelled facets sort as `face_key` sorts the
    core's own."""
    core_facets = sorted([_relabel(f, vmap) for f in core_cx.facets],
                         key=lambda t: (len(t), t))
    return {"support_v": vmap, "core_facets": tuple(core_facets)}


def _pair_strings(lhs: set[tuple[int, int]], rhs: set[tuple[int, int]],
                  q: int, n: int) -> dict:
    """The report fields for both sides of the identity, given as pairs of
    `_identity_pairs`, with no `MonomialIdeal` built: each side's
    `gens_strings()`, and no field for the full simplex, the one complex
    whose I^[q] : I is the unit ideal.

    Each pair is formatted once, walking the bits of A.  The order is
    `monomials._sort_gens`: degree (q-1)|A| + |B|, then the exponents in
    descending lexicographic order.  For q >= 2 the exponents q > q-1 > 0
    are distinct, so the exponent order reads, vertex by vertex in
    increasing order, 2v for v ∈ B before 2v+1 for v ∈ A∖B before
    vertices outside A.  Of two pairs of one degree neither sequence is a
    prefix of the other (the longer would have the larger degree), so the
    sequences compare as the exponent tuples do.  The pair (∅, ∅), the
    unit ideal, marks the full simplex (V = ∅).
    """
    if (0, 0) in lhs:
        return {}
    # Indexed by vertex label; entry 0 is never read.
    hi = [f"x{v}^{q}" for v in range(n + 1)]
    lo = [f"x{v}" if q == 2 else f"x{v}^{q - 1}" for v in range(n + 1)]
    keyed = []
    for pair in lhs | rhs:
        a, b = pair
        key = [(q - 1) * a.bit_count() + b.bit_count()]
        parts = []
        while a:
            low = a & -a
            v = low.bit_length()
            if b & low:
                key.append(2 * v)
                parts.append(hi[v])
            else:
                key.append(2 * v + 1)
                parts.append(lo[v])
            a ^= low
        keyed.append((key, pair, "*".join(parts)))
    keyed.sort()
    return {"colon_lhs": tuple(s for _, pair, s in keyed if pair in lhs),
            "colon_rhs": tuple(s for _, pair, s in keyed if pair in rhs)}


def classify_via_ideal(cx: SimplicialComplex, q: int = 2) -> ClassificationReport:
    """Verdict from the colon-ideal identity on Δ itself (no core reduction);
    the core gives only the report's V and core facets.

    The witness is the first lhs generator outside the rhs.  Both sides are
    minimal generating sets and the lhs contains the rhs, so a generator of
    the lhs lies in the rhs iff it is a generator of the rhs.
    """
    lhs, rhs = _identity_pairs(cx.n, q, minimal_nonfaces(cx), cx.facets)
    strings = _pair_strings(lhs, rhs, q, cx.n)
    witness = None
    if lhs != rhs:
        rhs_strings = set(strings["colon_rhs"])
        witness = next(s for s in strings["colon_lhs"] if s not in rhs_strings)
    return ClassificationReport(
        verdict=_verdict(lhs == rhs),
        n=cx.n,
        monomial_witness=witness,
        **_core_fields(*core(cx)),
        **strings,
    )


@dataclass(frozen=True)
class FreeFaceScan:
    """The core of Δ, its vertex map (new -> original) and its free faces."""

    core: SimplicialComplex
    vmap: tuple[int, ...]
    pairs: list[FreeFacePair]

    @property
    def verdict(self) -> Verdict:
        """Δ is infinitely generated iff its core has a free face."""
        return Verdict.INFINITELY_GENERATED if self.pairs else Verdict.PRINCIPALLY_GENERATED


def free_face_scan(cx: SimplicialComplex) -> FreeFaceScan:
    """The combinatorial criterion: the free faces of the core of Δ."""
    core_cx, vmap = core(cx)
    return FreeFaceScan(core_cx, vmap, free_faces(core_cx))


def classify_via_free_face(cx: SimplicialComplex) -> ClassificationReport:
    """Verdict from the free-face scan, applied to the core of Δ."""
    scan = free_face_scan(cx)
    witness = monomial = None
    if scan.pairs:
        first = scan.pairs[0]
        witness = (_relabel(first.free_face, scan.vmap), _relabel(first.facet, scan.vmap))
        monomial = mono.format_monomial(witness_monomial(scan.core, first))
    return ClassificationReport(
        verdict=scan.verdict,
        n=cx.n,
        free_face_witness=witness,
        monomial_witness=monomial,
        **_core_fields(scan.core, scan.vmap),
    )


def classify(cx: SimplicialComplex, q: int = 2) -> ClassificationReport:
    """Run both criteria; they must agree."""
    # The free-face report already holds V and the core facets; the ideal
    # route adds only its verdict and the two sides of the identity, both
    # read off the pairs, as `ideal_test` would give them.
    lhs, rhs = _identity_pairs(cx.n, q, minimal_nonfaces(cx), cx.facets)
    verdict = _verdict(lhs == rhs)
    rf = classify_via_free_face(cx)
    if verdict != rf.verdict:
        raise InconsistencyError(
            f"criteria disagree on {cx!r}: ideal={verdict.value}, "
            f"free_face={rf.verdict.value}"
        )
    return replace(rf, **_pair_strings(lhs, rhs, q, cx.n))


def random_complex(n: int, expected_density: float, seed: int) -> SimplicialComplex:
    """Deterministic random complex: size-biased facet candidates, then maximal."""
    if not 1 <= n <= RANDOM_MAX_N:
        raise ValueError(f"random_complex supports 1 <= n <= {RANDOM_MAX_N}")
    if not 0 < expected_density < 1:
        raise ValueError("density must lie strictly between 0 and 1")
    rng = random.Random(seed)
    cands = []
    for k in range(1, n + 1):
        threshold = expected_density * 2 ** (-(k - 1) / 2)
        for combo in combinations(range(1, n + 1), k):
            if rng.random() < threshold:
                cands.append(vertex_mask(combo, n))
    return from_masks(cands, n)


def enumerate_complexes(n: int) -> Iterator[SimplicialComplex]:
    """Every simplicial complex on [n]: all antichains of nonempty subsets,
    plus {∅}, for n <= EXHAUSTIVE_MAX_N."""
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration capped at n={EXHAUSTIVE_MAX_N}")
    yield SimplicialComplex(n, frozenset({0}))
    subs = sorted(range(1, 1 << n), key=face_key)

    def rec(start: int, chosen: tuple[int, ...]) -> Iterator[SimplicialComplex]:
        for i in range(start, len(subs)):
            s = subs[i]
            # subs is in graded order, so s never lies inside an earlier c.
            if any(c & ~s == 0 for c in chosen):
                continue
            nxt = chosen + (s,)
            yield SimplicialComplex(n, frozenset(nxt))
            yield from rec(i + 1, nxt)

    yield from rec(0, ())


def count_complexes_oracle(n: int) -> int:
    """Independent count of complexes on [n] via downset enumeration.

    Downsets of the Boolean lattice 2^[k] are enumerated by brute force
    over families (bitmask over 2^k subsets) for k <= 4; for n = 5 the
    splitting on the last vertex counts pairs of nested downsets of 2^[4].
    Complexes are the nonvoid downsets: the total minus one.
    """
    if n > 5:
        raise ValueError("oracle implemented for n <= 5")

    def downsets(k: int) -> list[int]:
        nsub = 1 << k
        out = []
        for fam in range(1 << nsub):
            ok = True
            for s in range(nsub):
                if fam >> s & 1:
                    t = s
                    while ok and t:
                        t = (t - 1) & s
                        if not fam >> t & 1:
                            ok = False
                else:
                    continue
                if not ok:
                    break
            if ok:
                out.append(fam)
        return out

    if n <= 4:
        return len(downsets(n)) - 1
    ds4 = downsets(4)
    total = sum(1 for d0 in ds4 for d1 in ds4 if d1 & ~d0 == 0)
    return total - 1


def _witness_contract_holds(core_cx: SimplicialComplex, pair: FreeFacePair) -> bool:
    """Check m ∈ I^[2]:I and m ∉ I^[2]+(x_1⋯x_n) on a core, m the witness
    monomial of one of its free-face pairs.  Membership in the colon is
    tested by its definition: m·g ∈ I^[2] for every generator g of I.  A
    monomial avoids the sum iff no generator of I^[2] divides it and some
    variable is missing from it."""
    m = witness_monomial(core_cx, pair)
    ideal = ideal_of_complex(core_cx)
    frob = mono.frobenius_power(ideal, 2)
    in_lhs = all(mono.contains(frob, mono.multiply(m, g)) for g in ideal.gens)
    return in_lhs and not mono.contains(frob, m) and not all(m)


@dataclass
class CrossValidationReport:
    total: int = 0
    pg: int = 0
    infgen: int = 0
    mismatches: list = field(default_factory=list)
    witness_checked: int = 0
    witness_violations: list = field(default_factory=list)
    q_sweep_checked: int = 0
    q_sweep_mismatches: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.witness_violations or self.q_sweep_mismatches)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "elapsed_seconds": round(self.elapsed_seconds, 3)}


_DENSITIES = (0.15, 0.3, 0.5, 0.7, 0.85)


def trial_seed(seed: int, n: int, index: int) -> int:
    """Splittable per-trial seed: base seed xored with a trial tag."""
    return (seed ^ (n << 48) ^ index) & 0xFFFFFFFFFFFFFFFF


def _check_one(cx: SimplicialComplex, report: CrossValidationReport,
               label: str, q_sweep: tuple[int, ...] | None):
    """Check both verdicts and the witness contract at q = 2, then at each
    q of the sweep the verdict and, for n <= _Q_SWEEP_COLON_MAX_N, both
    sides of the identity against the general colon and sum.  The pairs
    do not depend on q, so each q's sides are built from the q = 2 ones."""
    nonfaces = minimal_nonfaces(cx)
    lhs, rhs = _identity_pairs(cx.n, 2, nonfaces, cx.facets)
    vi = _verdict(lhs == rhs)
    scan = free_face_scan(cx)
    report.total += 1
    if vi != scan.verdict:
        report.mismatches.append(
            {"complex": label, "ideal": vi.value, "free_face": scan.verdict.value})
        return
    if vi is Verdict.PRINCIPALLY_GENERATED:
        report.pg += 1
    else:
        report.infgen += 1
        report.witness_checked += 1
        if not _witness_contract_holds(scan.core, scan.pairs[0]):
            report.witness_violations.append({"complex": label})
    if q_sweep:
        report.q_sweep_checked += 1
        ideal = ideal_of_complex(cx) if cx.n <= _Q_SWEEP_COLON_MAX_N else None
        for q in q_sweep:
            identity = ColonIdentity(_pair_ideal(lhs, q, cx.n), _pair_ideal(rhs, q, cx.n))
            if identity.verdict != vi or (
                    ideal is not None and identity != _general_colon_identity(ideal, q)):
                report.q_sweep_mismatches.append({"complex": label, "q": q})


def cross_validate(
    exhaustive_ns: tuple[int, ...] = (1, 2, 3, 4, 5),
    random_ns: tuple[int, ...] = (6, 7, 8),
    trials_per_n: int = 10000,
    seed: int = 42,
    q_sweep: tuple[int, ...] | None = None,
) -> CrossValidationReport:
    """Agreement harness for the two criteria, with witness contracts."""
    for q in q_sweep or ():
        _check_q(q)
    report = CrossValidationReport()
    start = time.perf_counter()
    for n in exhaustive_ns:
        for cx in enumerate_complexes(n):
            _check_one(cx, report, repr(cx), q_sweep)
    for n in random_ns:
        for t in range(trials_per_n):
            density = _DENSITIES[t % len(_DENSITIES)]
            cx = random_complex(n, density, trial_seed(seed, n, t))
            _check_one(cx, report, f"n={n} trial={t} seed={seed}", q_sweep)
    report.elapsed_seconds = time.perf_counter() - start
    return report
