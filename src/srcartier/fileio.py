"""Parsing and printing of facet files and ideal files.

Facet file: optional header ``n = <int>``, then one facet per line as
whitespace-separated positive integers (``-`` for the empty facet).
Ideal file: optional header, then one monomial per line in the
``x1^2*x3`` grammar.  ``#`` starts a comment, blank lines are ignored.
"""

from __future__ import annotations

import re

from .complexes import SimplicialComplex, build_complex, mask_vertices
from .monomials import (
    MAX_VARIABLES, Monomial, MonomialIdeal, format_monomial, minimize, parse_monomial)

_HEADER = re.compile(r"^n\s*=\s*(\d+)$")


def _logical_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_facet_file(text: str, n_override: int | None = None) -> SimplicialComplex:
    lines = _logical_lines(text)
    n = None
    if lines and (m := _HEADER.match(lines[0])):
        n = int(m.group(1))
        lines = lines[1:]
    facets: list[list[int]] = []
    for line in lines:
        if line == "-":
            facets.append([])
            continue
        try:
            facets.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ValueError(f"bad facet line {line!r}") from None
        if any(v < 1 for v in facets[-1]):
            raise ValueError(f"bad facet line {line!r}: vertices are positive")
    if n_override is not None:
        n = n_override
    if n is None:
        n = max((v for f in facets for v in f), default=1)
    return build_complex(facets, n)


def format_facet_file(cx: SimplicialComplex) -> str:
    lines = [f"n = {cx.n}"]
    for f in cx.sorted_facets():
        lines.append(" ".join(map(str, mask_vertices(f))) if f else "-")
    return "\n".join(lines) + "\n"


def parse_ideal_file(text: str, n_override: int | None = None) -> MonomialIdeal:
    lines = _logical_lines(text)
    n = None
    if lines and (m := _HEADER.match(lines[0])):
        n = int(m.group(1))
        lines = lines[1:]
    if n is None and n_override is None:
        # Two passes: find the largest variable index first.
        n = 1
        for line in lines:
            mono = parse_monomial(line)
            n = max(n, len(mono))
    if n_override is not None:
        n = n_override
    if n > MAX_VARIABLES:
        raise ValueError(f"n={n} exceeds the limit of {MAX_VARIABLES} variables")
    gens: list[Monomial] = []
    for line in lines:
        gens.append(parse_monomial(line, n))
    return minimize(gens, n)


def format_ideal_file(ideal: MonomialIdeal) -> str:
    lines = [f"n = {ideal.n}"]
    lines.extend(format_monomial(g) for g in ideal.sorted_gens())
    return "\n".join(lines) + "\n"
