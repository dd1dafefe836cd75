"""The benchmark's workloads: seeded item pools, the call each item makes
into the program, and the per-item correctness gate.

A pool workload has strata (kinds of input) and ``rounds`` items per
stratum.  Pool item (stratum, i) is generated from its own fixed seed, so
the pool never depends on the run seed; the expected outputs of every
pool item are committed under ``expected/``.  The run seed only picks, per
stratum, the order in which pool items are visited.  A run visits the
strata round-robin, so every run sees the same mix of inputs whatever
its seed and however many items it completes.  A run that exhausts the
pool starts it over.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpus as C

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass(frozen=True)
class Stratum:
    name: str
    make: Callable[[random.Random], tuple[C.Facets, int]]


@dataclass
class Item:
    key: str
    text: str
    cx: object = None   # parsed SimplicialComplex
    p: int = 0          # field characteristic (homology items only)


# Each stratum fixes every size parameter, so items of one stratum cost
# about the same and the run seed moves the figures little.

def _random(n, free_face=False):
    def make(rng):
        while True:
            facets = C.random_complex(n, rng)
            if not free_face or C.has_free_face(facets):
                return facets, n
    return Stratum(f"random-{n}", make)


def _cross_polytope(d):
    return Stratum(f"cross-polytope-{2 * d}",
                   lambda rng: (C.relabel(C.cross_polytope_boundary(d), 2 * d, rng), 2 * d))


def _stacked(d, n):
    return Stratum(f"stacked-{d}-{n}",
                   lambda rng: (C.relabel(C.stacked_sphere(d, n, rng), n, rng), n))


def _join(da, na, db, nb):
    """Join of a stacked da-sphere on na vertices with a stacked db-sphere."""
    def make(rng):
        a, b = C.stacked_sphere(da, na, rng), C.stacked_sphere(db, nb, rng)
        facets, n = C.join(a, na, b, nb)
        return C.relabel(facets, n, rng), n
    return Stratum(f"join-{da}.{na}-{db}.{nb}", make)


def _cone(core_kind, nc, extra):
    """A random or stacked-3-sphere core on nc vertices, coned by a simplex."""
    def make(rng):
        if core_kind == "random":
            core = C.random_complex(nc, rng)
        else:
            core = C.stacked_sphere(3, nc, rng)
        facets, n = C.cone(core, nc, extra)
        return C.relabel(facets, n, rng), n
    return Stratum(f"cone-{core_kind}-{nc}+{extra}", make)


@dataclass(frozen=True)
class PoolWorkload:
    name: str
    strata: tuple[Stratum, ...]
    rounds: int
    fields: tuple[int, ...] = ()   # homology: one item per prime

    def pool(self):
        """Every pool item as (key, facet text), in (stratum, index) order."""
        for s in self.strata:
            for i in range(self.rounds):
                rng = random.Random(f"{self.name}/{s.name}/{i}")
                facets, n = s.make(rng)
                yield f"{s.name}/{i}", C.facet_text(facets, n)

    def items(self, seed: int) -> list[Item]:
        """The run's visiting order: round-robin over strata, each stratum's
        pool shuffled by the run seed."""
        texts = dict(self.pool())
        orders = [random.Random(f"{seed}/{s.name}").sample(range(self.rounds), self.rounds)
                  for s in self.strata]
        out = []
        for r in range(self.rounds):
            for s, order in zip(self.strata, orders):
                key = f"{s.name}/{order[r]}"
                if self.fields:
                    out.extend(Item(f"{key}/p{p}", texts[key], p=p) for p in self.fields)
                else:
                    out.append(Item(key, texts[key]))
        return out


# classify mixes two kinds of input.  On the n = 8..12 strata (half random
# complexes, nearly all infgen; half spheres and a join, pg, which take the
# full-equality path) monomials.colon does most of the work.  On the cone
# strata (a 6..8-vertex core joined with an 8-simplex, n = 14..16) the 2^n
# scan in complexes.minimal_nonfaces does, and colon sees only the core.
CLASSIFY = PoolWorkload(
    "classify",
    (_random(8), _random(9), _random(10),
     _cross_polytope(6), _stacked(3, 10), _join(2, 5, 3, 6),
     *(_cone(kind, nc, 8) for kind in ("random", "sphere") for nc in (6, 7, 8))),
    rounds=60,
)

HOMOLOGY = PoolWorkload(
    "homology",
    (_random(8, True), _random(9, True), _random(10, True),
     _cross_polytope(4), _cross_polytope(5),
     _stacked(4, 10), _stacked(5, 11), _stacked(6, 12),
     _join(2, 4, 2, 5), _join(2, 5, 3, 5), _join(3, 5, 3, 5)),
    rounds=72,
    fields=(2, 3),
)

POOL_WORKLOADS = {w.name: w for w in (CLASSIFY, HOMOLOGY)}
WORKLOADS = ("classify", "homology", "crossval-exhaustive")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the calls into the program, and what of their output is checked ---------

def classify_record(report) -> dict:
    """The checked part of a classification: every JSON field except n and
    the colon_lhs / colon_rhs strings, with the (long) core facet list
    replaced by its digest."""
    out = report.to_json_dict()
    for key in ("n", "colon_lhs", "colon_rhs"):
        del out[key]
    out["core_facets"] = digest(json.dumps(out["core_facets"]))
    return out


def _vertices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def homology_battery(homology, cx, p: int) -> dict:
    betti = homology.reduced_betti(cx, p)
    cm = homology.is_cohen_macaulay(cx, p)
    gstar = homology.is_gorenstein_star(cx, p)
    refutation = homology.buchsbaum_star_refutation(cx, p)
    if refutation is not None:
        pair = refutation.pair
        refutation = [refutation.kind, refutation.vertex,
                      pair and [_vertices(pair.free_face), _vertices(pair.facet)],
                      refutation.rank, refutation.target_dim]
    return {"betti": sorted(betti.items()), "cm": cm, "gstar": gstar,
            "bstar_refutation": refutation}


def run_item(workload: str, item: Item, srcartier) -> dict:
    if workload == "homology":
        return homology_battery(srcartier.homology, item.cx, item.p)
    return classify_record(srcartier.cartier.classify(item.cx))


def load_expected(workload: str) -> dict:
    with open(EXPECTED_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def normalise(record: dict) -> dict:
    """Tuples and lists compare unequal; compare through JSON."""
    return json.loads(json.dumps(record))
