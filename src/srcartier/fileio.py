"""Parsing and printing of facet files and ideal files.

Facet file: optional header ``n = <int>``, then one facet per line as
whitespace-separated positive integers (``-`` for the empty facet), in
ASCII.  Ideal file: optional header, then one monomial per line in the
``x1^2*x3`` grammar.  Numbers are ASCII digits only.  ``#`` starts a
comment, blank lines are ignored.
"""

from __future__ import annotations

import re

from .complexes import SimplicialComplex, build_complex, mask_vertices
from .monomials import (
    MAX_VARIABLES, MonomialIdeal, format_monomial, minimize, parse_monomial)

_HEADER = re.compile(r"n\s*=\s*([0-9]+)")  # [0-9]: \d would take any Unicode digit


def _header_and_lines(text: str) -> tuple[int | None, list[str]]:
    """The n of an ``n = <int>`` header, or None, and the other logical
    lines: comments cut, blank lines dropped."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if lines and (m := _HEADER.fullmatch(lines[0])):
        return int(m.group(1)), lines[1:]
    return None, lines


def parse_facet_file(text: str, n_override: int | None = None) -> SimplicialComplex:
    n, lines = _header_and_lines(text)
    facets: list[list[int]] = []
    for line in lines:
        if line == "-":
            facets.append([])
            continue
        # `int` alone would also read "+4", "1_0" and non-ASCII digits.
        if not line.isascii() or "_" in line or "+" in line:
            raise ValueError(f"bad facet line {line!r}")
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
    """With no n from a header or override, n is the largest variable index,
    and the monomials read shorter are padded with zero exponents."""
    n, lines = _header_and_lines(text)
    if n_override is not None:
        n = n_override
    if n is not None and n < 0:
        raise ValueError(f"n={n} outside [0, {MAX_VARIABLES}]")
    if n is not None and n > MAX_VARIABLES:
        raise ValueError(f"n={n} exceeds the limit of {MAX_VARIABLES} variables")
    gens = [parse_monomial(line, n) for line in lines]
    if n is None:
        n = max(map(len, gens), default=1)
        gens = [g + (0,) * (n - len(g)) for g in gens]
    return minimize(gens, n)


def format_ideal_file(ideal: MonomialIdeal) -> str:
    lines = [f"n = {ideal.n}"]
    lines.extend(format_monomial(g) for g in ideal.sorted_gens())
    return "\n".join(lines) + "\n"
