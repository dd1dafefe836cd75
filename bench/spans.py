"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps a fixed list of the program's public functions by
rebinding each name in every ``srcartier`` module that holds it (methods
are rebound on their class).  Each call records a span: name, start, end
and the index of the enclosing span.  Self time (a span minus its child
spans) and per-function counters are accumulated as spans close, so
nothing needs a second pass.  Nothing is installed unless the benchmark
runs with ``--trace 1``.

Hot leaf helpers called once per subset or per generator pair
(``vertex_mask``, ``is_face``, ``colon_mono``, ``divides``, ...) are not
wrapped: their cost would swamp the spans, and it is charged to the
caller's self time instead.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

# (module, attribute) -> counter: name of a count metric and how to read
# the count off the call's result, or None.
TRACED = {
    ("fileio", "parse_facet_file"): None,
    ("complexes", "minimal_nonfaces"): ("found", len),
    ("complexes", "free_faces"): ("pairs", len),
    ("complexes", "core"): None,
    ("complexes", "SimplicialComplex.faces"): ("count", len),
    ("monomials", "colon"): ("gens_out", lambda r: len(r.gens)),
    ("monomials", "frobenius_power"): None,
    ("monomials", "add"): None,
    ("monomials", "contains"): None,
    ("cartier", "classify"): None,
    ("cartier", "classify_via_ideal"): None,
    ("cartier", "classify_via_free_face"): None,
    ("cartier", "ideal_test"): None,
    ("cartier", "ideal_of_complex"): None,
    ("cartier", "witness_monomial"): None,
    ("cartier", "cross_validate"): None,
    ("cartier", "count_complexes_oracle"): None,
    ("homology", "reduced_betti"): None,
    ("homology", "build_chain_complex"): ("cells", lambda r: sum(map(len, r.basis.values()))),
    ("homology", "ChainComplexOverField.homology_dims"): None,
    ("homology", "relative_map_is_surjective"): None,
    ("homology", "is_cohen_macaulay"): None,
    ("homology", "is_gorenstein_star"): None,
    ("homology", "buchsbaum_star_refutation"): None,
}

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.active: list[int] = []
        self.counts: dict[str, int] = {}
        self.colon_unguarded_ns = 0  # colon spans with no ideal_test above
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._ideal_test = self._intern("cartier.ideal_test")
        self._colon = self._intern("monomials.colon")

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
            self.active.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self._child_ns.append(0)
        self.active[nid] += 1
        self.calls[nid] += 1
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, nid: int):
        t1 = time.perf_counter_ns()
        self.end[idx] = t1
        self._stack.pop()
        dur = t1 - self.start[idx]
        self.self_ns[nid] += dur - self._child_ns.pop()
        self.active[nid] -= 1
        if self._child_ns:
            self._child_ns[-1] += dur
        if nid == self._colon and not self.active[self._ideal_test]:
            self.colon_unguarded_ns += dur

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        nid = self._intern(name)
        idx = self._open(nid)
        try:
            return fn(*args)
        finally:
            self._close(idx, nid)

    def wrap(self, name: str, fn, counter=None, name_of=None):
        """A traced stand-in for fn; name_of(args) may pick the span name."""
        nid = self._intern(name)
        count_key, count_of = counter if counter else (None, None)
        if count_key:
            count_key = f"{name}.{count_key}"
            self.counts.setdefault(count_key, 0)

        def traced(*args, **kwargs):
            span_id = self._intern(name_of(args)) if name_of else nid
            idx = self._open(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, span_id)
            if count_key:
                self.counts[count_key] += count_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every function in TRACED to a traced wrapper."""
        modules = [m for k, m in sys.modules.items()
                   if k == "srcartier" or k.startswith("srcartier.")]
        for (modname, attr), counter in TRACED.items():
            mod = importlib.import_module(f"srcartier.{modname}")
            name = f"{modname}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                name_of = None
                if meth == "homology_dims":
                    name_of = lambda args: ("homology.homology_dims.gf2" if args[0].p == 2
                                            else "homology.homology_dims.gfp")
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), counter, name_of))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def snapshot(self) -> dict:
        """Running totals, to difference across the timed phase."""
        return {
            "self_ns": dict(zip(self.names, self.self_ns)),
            "calls": dict(zip(self.names, self.calls)),
            "counts": dict(self.counts),
            "spans": len(self.start),
            "colon_unguarded_ns": self.colon_unguarded_ns,
        }

    def write(self, path):
        """Write every span, column-wise, as gzipped JSON."""
        doc = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_span_cost_ns(calls: int = 20000) -> float:
    """Measured cost one traced call adds over a direct call."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe", noop)
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        diff = ((t2 - t1) - (t1 - t0)) / calls
        best = diff if best is None else min(best, diff)
        probe = Tracer()
        traced = probe.wrap("probe", noop)
    return max(best, 0.0)
