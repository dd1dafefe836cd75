"""Exact arithmetic of monomials and monomial ideals in n variables.

A monomial is a tuple of n non-negative exponents.  Ideals are kept as
minimal generating sets.  `minimize` and the intersections inside `colon`
run on a packed encoding: each exponent e is stored as a run of e one-bits
(a thermometer code), so that divisibility is a submask test and lcm is a
bitwise or.  `colon` intersects the quotients by each generator: a
monomial quotient m : g is taken by its definition on the exponent tuples,
max(e - f, 0) in each variable, and only then packed; an intersection
pairs only the generators that no generator of the other side divides;
the rest pass through unchanged.

`colon` is the general engine: the colon identity uses it for ideals that
are not squarefree, and the tests use it as the reference for the
Stanley-Reisner colon in `cartier`, which needs no ideal arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

Monomial = tuple[int, ...]

EXPONENT_CAP = 1 << 16
MAX_VARIABLES = 1024  # monomials are dense n-tuples, so n is checked first


def _check_same_n(a: Monomial, b: Monomial):
    if len(a) != len(b):
        raise ValueError(f"ambient mismatch: {len(a)} vs {len(b)} variables")


def divides(a: Monomial, b: Monomial) -> bool:
    _check_same_n(a, b)
    return all(x <= y for x, y in zip(a, b))


def multiply(a: Monomial, b: Monomial) -> Monomial:
    _check_same_n(a, b)
    out = tuple(x + y for x, y in zip(a, b))
    if any(e > EXPONENT_CAP for e in out):
        raise OverflowError(f"exponent exceeds cap {EXPONENT_CAP}")
    return out


def power(a: Monomial, q: int) -> Monomial:
    if any(e * q > EXPONENT_CAP for e in a):
        raise OverflowError(f"exponent exceeds cap {EXPONENT_CAP}")
    return tuple(e * q for e in a)


def unit_monomial(n: int) -> Monomial:
    return (0,) * n


def is_squarefree(m: Monomial) -> bool:
    return all(e <= 1 for e in m)


_MONO_TOKEN = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")


def parse_monomial(text: str, n: int | None = None) -> Monomial:
    """Parse the `x1^2*x3` grammar; `1` is the unit monomial."""
    text = text.strip()
    if not text:
        raise ValueError("empty monomial")
    exps: dict[int, int] = {}
    if text != "1":
        for tok in text.split("*"):
            m = _MONO_TOKEN.match(tok.strip())
            if not m:
                raise ValueError(f"bad monomial token {tok!r}")
            i = int(m.group(1))
            e = int(m.group(2)) if m.group(2) else 1
            if i < 1:
                raise ValueError(f"variable index {i} must be positive")
            if i > MAX_VARIABLES:
                raise ValueError(f"variable x{i} exceeds the limit of {MAX_VARIABLES} variables")
            exps[i] = exps.get(i, 0) + e
            if exps[i] > EXPONENT_CAP:
                # Rejected before `minimize` packs a (1 << e) - 1 thermometer code.
                raise ValueError("exponent out of range")
    size = n if n is not None else max(exps, default=1)
    if exps and max(exps) > size:
        raise ValueError(f"variable x{max(exps)} exceeds ambient n={size}")
    return tuple(exps.get(i, 0) for i in range(1, size + 1))


def format_monomial(m: Monomial) -> str:
    parts = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(m, start=1) if e > 0]
    return "*".join(parts) if parts else "1"


# -- packed encoding ---------------------------------------------------------

def _encode(m: Monomial, width: int) -> int:
    out = 0
    for i, e in enumerate(m):
        out |= ((1 << e) - 1) << (i * width)
    return out


def _decode(x: int, n: int, width: int) -> Monomial:
    field = (1 << width) - 1
    return tuple(((x >> (i * width)) & field).bit_count() for i in range(n))


def _minimize_packed(cands: Iterable[int]) -> list[int]:
    """Minimal elements under the divisibility submask order."""
    kept: list[int] = []
    for c in sorted(set(cands), key=int.bit_count):
        for k in kept:
            if c & k == k:
                break
        else:
            kept.append(c)
    return kept


def _intersect_packed(a: list[int], b: list[int]) -> list[int]:
    """Minimal generators of the intersection: minimal lcms x | y.

    A member x of a that some y in b divides is its own lcm with y and
    divides every other lcm it takes part in, so it passes through as is;
    likewise for b.  Only the members on neither side are paired.
    """
    passed, rest_a, rest_b = [], [], []
    for x in a:
        for y in b:
            if x & y == y:
                passed.append(x)
                break
        else:
            rest_a.append(x)
    for y in b:
        for x in a:
            if x & y == x:
                passed.append(y)
                break
        else:
            rest_b.append(y)
    passed += [x | y for x in rest_a for y in rest_b]
    return _minimize_packed(passed)


# -- ideals ------------------------------------------------------------------

def _sort_gens(gens: Iterable[Monomial]) -> list[Monomial]:
    # A list of negated exponents compares as the tuple would, built faster.
    return sorted(gens, key=lambda m: (sum(m), [-e for e in m]))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal by its (unique) minimal generating set.

    The zero ideal has no generators; the unit ideal is generated by 1.
    """

    n: int
    gens: frozenset[Monomial]

    def __post_init__(self):
        for g in self.gens:
            if len(g) != self.n:
                raise ValueError("generator length differs from ambient n")
            if min(g, default=0) < 0 or max(g, default=0) > EXPONENT_CAP:
                raise ValueError("exponent out of range")

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return unit_monomial(self.n) in self.gens

    def sorted_gens(self) -> list[Monomial]:
        return _sort_gens(self.gens)

    def gens_strings(self) -> list[str]:
        return [format_monomial(g) for g in self.sorted_gens()]

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, gens=({', '.join(self.gens_strings())}))"


def minimize(gens: Iterable[Monomial], n: int) -> MonomialIdeal:
    """Drop every generator divisible by another one."""
    gens = list(gens)
    width = max((max(g, default=0) for g in gens), default=0) + 1
    packed = _minimize_packed(_encode(g, width) for g in gens)
    return MonomialIdeal(n, frozenset(_decode(x, n, width) for x in packed))


def zero_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, frozenset())


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, frozenset({unit_monomial(n)}))


def principal(m: Monomial) -> MonomialIdeal:
    return MonomialIdeal(len(m), frozenset({m}))


def frobenius_power(ideal: MonomialIdeal, q: int) -> MonomialIdeal:
    """The ideal generated by q-th powers of the minimal generators."""
    if q < 1:
        raise ValueError(f"q={q} must be >= 1")
    return MonomialIdeal(ideal.n, frozenset(power(g, q) for g in ideal.gens))


def add(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    return minimize(list(a.gens) + list(b.gens), a.n)


def colon(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """(a : b) = ∩_g (a : g) over the minimal generators g of b, where
    a : g is generated by the quotients m : g = m / gcd(m, g), m in a."""
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    if b.is_zero():
        # (I : 0) = S by convention.
        return unit_ideal(a.n)
    if a.is_zero():
        return zero_ideal(a.n)
    # No quotient, and so no lcm of quotients, has an exponent above a's.
    width = max(max(m, default=0) for m in a.gens) + 1
    cur: list[int] | None = None
    for g in b.sorted_gens():
        quotients = _minimize_packed(
            _encode([max(e - f, 0) for e, f in zip(m, g)], width) for m in a.gens)
        cur = quotients if cur is None else _intersect_packed(cur, quotients)
    assert cur is not None
    return MonomialIdeal(a.n, frozenset(_decode(x, a.n, width) for x in cur))


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    if len(m) != ideal.n:
        raise ValueError("ambient mismatch")
    return any(divides(g, m) for g in ideal.gens)
