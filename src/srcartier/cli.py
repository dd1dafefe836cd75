"""Command-line interface.

Exit codes: 0 = success (classify: principally generated), 1 = input
error, 2 = internal inconsistency / cross-validation failure,
3 = infinitely generated (classify only).

Each input is checked once, by the layer that owns it: argparse reads
the flags, the library refuses values it cannot use (q < 2, a field
that is not prime, a `cross-validate` size out of range), and this
module checks only what the library cannot see (`--exhaustive` without
`--n`, `--trials` < 1).  `main` turns every such refusal, the parser's
included, into one `error:` line and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from . import cartier as cl
from . import complexes as cxm
from . import fileio
from . import homology as hom
from . import monomials as mono
from .cartier import InconsistencyError, Verdict

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_INFGEN = 3


def _face_str(vertices) -> str:
    return "{%s}" % ",".join(map(str, vertices))


def _mask_str(mask: int) -> str:
    return _face_str(cxm.mask_vertices(mask))


def _pair_obj(pair: cxm.FreeFacePair) -> dict:
    return {"free_face": list(cxm.mask_vertices(pair.free_face)),
            "facet": list(cxm.mask_vertices(pair.facet))}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _detect_format(path: str, override: str | None) -> str:
    if override:
        return override
    if path.endswith(".facets"):
        return "facets"
    if path.endswith(".ideal"):
        return "ideal"
    raise ValueError(
        f"cannot infer format of {path!r}; use --format facets|ideal")


def _load(args, kind: str) -> cxm.SimplicialComplex | mono.MonomialIdeal:
    """The input file as a complex (kind "complex") or as its
    Stanley-Reisner ideal (kind "ideal"), whichever format it is in."""
    fmt = _detect_format(args.input, args.format)
    text = _read(args.input)
    if fmt == "facets":
        cx = fileio.parse_facet_file(text, args.n)
        return cx if kind == "complex" else cl.ideal_of_complex(cx)
    ideal = fileio.parse_ideal_file(text, args.n)
    return ideal if kind == "ideal" else cl.complex_of_ideal(ideal)


def _emit(args, json_obj, text_lines):
    """Print the output; once the reader closes stdout, drop the rest."""
    try:
        if args.json:
            print(json.dumps(json_obj, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # print() to a None stdout does nothing, and the interpreter skips
        # its final flush, which would otherwise report the closed pipe.
        sys.stdout = None


def cmd_classify(args, cx) -> int:
    report = cl.classify(cx, q=args.q)
    d = report.to_json_dict()
    lines = [
        f"verdict: {'principally generated' if report.verdict is Verdict.PRINCIPALLY_GENERATED else 'infinitely generated'}",
        f"n: {report.n}",
        f"V: {_face_str(report.support_v)}",
        f"core facets: {' '.join(_face_str(f) for f in report.core_facets)}",
    ]
    if report.free_face_witness:
        ff, facet = report.free_face_witness
        lines.append(f"free face: {_face_str(ff)} in facet {_face_str(facet)}")
        lines.append(f"witness monomial (core coordinates): {report.monomial_witness}")
    if report.colon_lhs or report.colon_rhs:
        lines.append(f"colon lhs: {', '.join(report.colon_lhs)}")
        lines.append(f"colon rhs: {', '.join(report.colon_rhs)}")
    _emit(args, d, lines)
    return EXIT_OK if report.verdict is Verdict.PRINCIPALLY_GENERATED else EXIT_INFGEN


def cmd_free_faces(args, cx) -> int:
    pairs = cxm.free_faces(cx)
    obj = [_pair_obj(p) for p in pairs]
    lines = [f"{_mask_str(p.free_face)} -> {_mask_str(p.facet)}" for p in pairs]
    _emit(args, obj, lines or ["no free faces"])
    return EXIT_OK


def cmd_collapse(args, cx) -> int:
    final, seq = cxm.collapse_greedy(cx)
    obj = {
        "final_facets": [list(v) for v in final.facet_vertex_lists()],
        "steps": [_pair_obj(p) for p in seq],
    }
    lines = [f"step {i + 1}: remove {_mask_str(p.free_face)} and {_mask_str(p.facet)}"
             for i, p in enumerate(seq)]
    lines.append("final facets: " + " ".join(_face_str(v) for v in final.facet_vertex_lists()))
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_core(args, cx) -> int:
    core_cx, vmap = cxm.core(cx)
    obj = {
        "n": core_cx.n,
        "facets": [list(v) for v in core_cx.facet_vertex_lists()],
        "vertex_map": list(vmap),
    }
    lines = [
        f"core on {core_cx.n} vertices: "
        + " ".join(_face_str(v) for v in core_cx.facet_vertex_lists()),
        "vertex map (new -> original): "
        + ", ".join(f"{i + 1}->{v}" for i, v in enumerate(vmap)),
    ]
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_nonfaces(args, cx) -> int:
    nfs = cxm.minimal_nonfaces(cx)
    obj = [list(cxm.mask_vertices(m)) for m in nfs]
    _emit(args, obj, [_mask_str(m) for m in nfs] or ["none (full simplex)"])
    return EXIT_OK


def cmd_colon(args, ideal) -> int:
    if ideal.is_zero():
        _emit(args, {"zero_ideal": True, "verdict": "pg"},
              ["zero ideal: the ring is regular; principally generated"])
        return EXIT_OK
    identity = cl.colon_identity(ideal, args.q)
    if not all(mono.is_squarefree(g) for g in ideal.gens):
        print(f"note: the ideal is not squarefree, so xV^{args.q - 1} is not in "
              f"I^[{args.q}]:I and the paper's identity does not apply",
              file=sys.stderr)
    offending = [mono.format_monomial(g) for g in identity.offending()]
    obj = {
        "q": args.q,
        "lhs": identity.lhs.gens_strings(),
        "rhs": identity.rhs.gens_strings(),
        "equal": identity.holds,
        "offending": offending,
    }
    lines = [
        f"lhs I^[{args.q}]:I = ({', '.join(obj['lhs'])})",
        f"rhs I^[{args.q}] + (xV^{args.q - 1}) = ({', '.join(obj['rhs'])})",
        "equal: " + ("yes" if obj["equal"] else "no"),
    ]
    if offending:
        lines.append("offending generators: " + ", ".join(offending))
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_homology(args, cx) -> int:
    betti = hom.reduced_betti(cx, args.field)
    obj = [{"degree": k, "dim": v} for k, v in sorted(betti.items())]
    _emit(args, obj, [f"H~_{k} dim {v}" for k, v in sorted(betti.items())])
    return EXIT_OK


def _cmd_predicate(fn, name: str, args, cx) -> int:
    p = args.field
    result = fn(cx, p)
    _emit(args, {name: result, "field": p}, [f"{name} over GF({p}): {str(result).lower()}"])
    return EXIT_OK


def cmd_bstar_refute(args, cx) -> int:
    cert = hom.buchsbaum_star_refutation(cx, args.field)
    if cert is None:
        _emit(args, {"certificate": None},
              ["no refutation certificate found (not a proof of Buchsbaum*-ness)"])
        return EXIT_OK
    if cert.kind == "cone":
        obj = {"certificate": {"kind": "cone", "vertex": cert.vertex}}
        lines = [f"not Buchsbaum*: cone over vertex {cert.vertex}"]
    else:
        obj = {"certificate": {"kind": "free_face", **_pair_obj(cert.pair),
                               "rank": cert.rank, "target_dim": cert.target_dim}}
        lines = [
            "not Buchsbaum*: free face "
            f"{_mask_str(cert.pair.free_face)} in {_mask_str(cert.pair.facet)}; "
            f"induced map rank {cert.rank} < target dim {cert.target_dim}"
        ]
    _emit(args, obj, lines)
    return EXIT_OK


def _parse_q_sweep(text: str) -> tuple[int, ...]:
    """The comma-separated powers of --q-sweep; `cross_validate` checks each."""
    try:
        return tuple(int(q) for q in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


def cmd_cross_validate(args, _) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials {args.trials} must be >= 1")
    if args.exhaustive and args.single_n is None:
        raise ValueError("--exhaustive needs --n")
    # Without --n, the default sizes of `cross_validate` apply.
    sizes = {}
    if args.single_n is not None:
        ns = (args.single_n,)
        sizes = {"exhaustive_ns": ns if args.exhaustive else (),
                 "random_ns": () if args.exhaustive else ns}
    report = cl.cross_validate(
        trials_per_n=args.trials, seed=args.seed, q_sweep=args.q_sweep, **sizes)
    obj = report.to_json_dict()
    lines = [
        f"complexes checked: {report.total} (pg {report.pg}, infgen {report.infgen})",
        f"mismatches: {len(report.mismatches)}",
        f"witness contracts checked: {report.witness_checked}, violations: {len(report.witness_violations)}",
    ]
    if args.q_sweep:
        lines.append(
            f"q-sweep {list(args.q_sweep)} checked: {report.q_sweep_checked}, "
            f"mismatches: {len(report.q_sweep_mismatches)}")
    if not report.ok:
        for m in report.mismatches + report.witness_violations + report.q_sweep_mismatches:
            lines.append(f"FAIL: {m}")
    _emit(args, obj, lines)
    return EXIT_OK if report.ok else EXIT_INTERNAL


class _Parser(argparse.ArgumentParser):
    """A parser whose errors reach `main` as ValueError, like any other
    bad input, instead of a usage dump and exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="srcartier",
        description="Classify Cartier algebras of Stanley-Reisner rings and "
                    "inspect the underlying simplicial/ideal structure.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, fn, hlp: str, load: str | None = "complex"):
        """A subcommand; `main` loads its input as `load` and calls fn(args, input)."""
        p = sub.add_parser(name, help=hlp)
        if load:
            p.add_argument("input", help="facet (.facets) or ideal (.ideal) file")
            p.add_argument("--format", choices=["facets", "ideal"],
                           help="override format auto-detection")
            p.add_argument("--n", type=int, default=None, help="override ground-set size")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(fn=fn, load=load)
        return p

    p = add("classify", cmd_classify, "run both criteria and report the verdict")
    p.add_argument("--q", type=int, default=2, help="Frobenius power (default 2)")
    add("free-faces", cmd_free_faces, "list all free-face pairs")
    add("collapse", cmd_collapse, "greedy elementary collapse sequence")
    add("core", cmd_core, "core complex and vertex map")
    add("nonfaces", cmd_nonfaces, "minimal non-faces")
    add("colon", cmd_colon, "both sides of the colon-ideal identity",
        load="ideal").add_argument("--q", type=int, default=2)

    for name, fn, hlp in [
        ("homology", cmd_homology, "reduced Betti numbers over GF(p)"),
        ("cm", partial(_cmd_predicate, hom.is_cohen_macaulay, "cohen_macaulay"),
         "Cohen-Macaulay test (Reisner)"),
        ("2cm", partial(_cmd_predicate, hom.is_doubly_cohen_macaulay, "doubly_cohen_macaulay"),
         "doubly Cohen-Macaulay test"),
        ("gorenstein-star", partial(_cmd_predicate, hom.is_gorenstein_star, "gorenstein_star"),
         "Gorenstein* test"),
        ("bstar-refute", cmd_bstar_refute, "Buchsbaum* refutation certificate"),
    ]:
        add(name, fn, hlp).add_argument("--field", type=int, default=2, help="prime p for GF(p)")

    p = add("cross-validate", cmd_cross_validate, "agreement harness for both criteria",
            load=None)
    p.add_argument("--n", dest="single_n", type=int, default=None,
                   help="restrict to a single ground-set size")
    p.add_argument("--exhaustive", action="store_true",
                   help="with --n: enumerate instead of sampling")
    p.add_argument("--trials", type=int, default=1000,
                   help="random trials per n (default 1000)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--q-sweep", dest="q_sweep", type=_parse_q_sweep, default=None,
                   help="comma-separated Frobenius powers to compare, e.g. 2,3,4,8")
    return top


def main(argv=None) -> int:
    """Run one subcommand.  Every ValueError or OverflowError, from parsing
    the flags, loading the input or the library, is an input error: one
    `error:` line and exit 1.  InconsistencyError exits 2; any other
    exception, such as the AssertionError of a failed ∂² check,
    propagates.  `--help` prints the usage and exits 0."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args, args.load and _load(args, args.load))
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
