"""Tests of the benchmark's own generators and its traced run.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import corpus as C
import workloads as W
from srcartier.cartier import classify
from srcartier.fileio import parse_facet_file
from srcartier.homology import is_gorenstein_star, reduced_betti

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", list(W.POOL_WORKLOADS.values()), ids=lambda w: w.name)
def test_same_seed_same_bytes(workload):
    first, second = list(workload.pool()), list(workload.pool())
    assert first == second
    expected = W.load_expected(workload.name)
    for key, text in first:
        stored = expected[f"{key}/p{workload.fields[0]}" if workload.fields else key]
        assert stored["input"] == W.digest(text), key
    assert [i.key for i in workload.items(7)] == [i.key for i in workload.items(7)]
    assert [i.key for i in workload.items(7)] != [i.key for i in workload.items(8)]


def _spheres():
    rng = random.Random(11)
    out = [(C.cross_polytope_boundary(d), 2 * d) for d in (2, 3, 4)]
    out += [(C.stacked_sphere(d, n, rng), n) for d, n in ((2, 6), (3, 7), (4, 8), (5, 9))]
    out.append(C.join(C.stacked_sphere(2, 4, rng), 4, C.stacked_sphere(3, 5, rng), 5))
    out += [(C.relabel(f, n, rng), n) for f, n in out[:2]]
    for workload in (W.CLASSIFY, W.HOMOLOGY):
        out += [s.make(rng) for s in workload.strata
                if s.name.split("-")[0] in ("cross", "stacked", "join")
                and s.name != "cross-polytope-12"]
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_spheres_have_top_homology_only_and_are_gorenstein_star(p):
    for facets, n in _spheres():
        cx = parse_facet_file(C.facet_text(facets, n))
        top = max(map(len, facets)) - 1
        betti = reduced_betti(cx, p)
        assert {k: b for k, b in betti.items() if b} == {top: 1}, facets
        assert is_gorenstein_star(cx, p), facets


def test_cone_verdict_equals_core_verdict():
    rng = random.Random(5)
    verdicts = set()
    for i in range(12):
        nc = 6 + i % 3
        core = C.random_complex(nc, rng) if i % 2 else C.stacked_sphere(3, nc, rng)
        cone, n = C.cone(core, nc, 3)
        core_verdict = classify(parse_facet_file(C.facet_text(core, nc))).verdict
        cone_verdict = classify(parse_facet_file(C.facet_text(C.relabel(cone, n, rng), n))).verdict
        assert cone_verdict == core_verdict
        verdicts.add(core_verdict.value)
    assert verdicts == {"pg", "infgen"}


def test_has_free_face_matches_program():
    from srcartier.complexes import free_faces

    rng = random.Random(3)
    for _ in range(40):
        facets = C.random_complex(rng.randint(4, 8), rng)
        n = max(max(f) for f in facets)
        cx = parse_facet_file(C.facet_text(facets, n))
        assert C.has_free_face(facets) == bool(free_faces(cx))


@pytest.mark.parametrize("workload,trace", [("classify", 1), ("homology", 1), ("classify", 0)])
def test_short_run_prints_checked_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        homology_ms = metrics["homology.self_ms"]
        assert (homology_ms > 0) == (workload == "homology")
