"""Record sets of benchmark runs and compare two sets.

    python3 bench/compare.py record DIR [--seeds 1-10] [--workloads a,b] [--seconds S] [--trace 0|1]
    python3 bench/compare.py summary DIR
    python3 bench/compare.py compare BASE_DIR NEW_DIR

``record`` runs ``run.py`` once per (seed, workload), each in a fresh
process, and keeps every stamped result as ``DIR/<workload>-<seed>.json``.
``summary`` prints, per workload and metric, the median of a set and its
spread: the distance between the first and third quartile as a share of
the median.  ``compare`` reads two sets and reports, per end-to-end
metric and workload, whether the second is worse than the first by more
than the bound in ``BENCHMARK.json`` (status ``worse``), whether either
set spreads wider than that bound (``unresolved``, unless every new run
beats every base run), or neither (``ok``).  It exits 1 unless every
status is ``ok`` and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    args.dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in parse_seeds(args.seeds):
        for name in names:
            out = args.dir / f"{name}-{seed}.json"
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{name} seed={seed} exit={proc.returncode} {last[0][:200]}", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


def load(directory: Path) -> dict:
    """workload -> list of run records."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        runs[doc["stamp"]["workload"]].append(doc)
    return runs


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def spread(vals: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(vals) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def summary(args) -> int:
    for workload, runs in sorted(load(args.dir).items()):
        bad = sum(not r["result"]["correct"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, {bad} not correct")
        for metric, m in runs[0]["result"]["metrics"].items():
            vals = values(runs, metric)
            print(f"  {metric:48s} median {statistics.median(vals):12.6g} {m['unit']:10s} "
                  f"spread {spread(vals):.4f}")
    return 0


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    ok = True
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload, []), new.get(workload, [])
        if not a or not b:
            print(f"== {workload}: missing from one set")
            ok = False
            continue
        bad = sum(not r["result"]["correct"] for r in a + b)
        ok &= bad == 0
        print(f"== {workload}: {len(a)} base runs, {len(b)} new runs, {bad} not correct")
        for m in spec["end_to_end"]:
            va, vb = values(a, m["name"]), values(b, m["name"])
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse_by = sign * (mb - ma) / ma
            sa, sb = spread(va), spread(vb)
            new_always_better = all(sign * (y - x) < 0 for x in va for y in vb)
            if worse_by > m["bound"]:
                status = "worse"
            elif max(sa, sb) > m["bound"] and not new_always_better:
                status = "unresolved"
            else:
                status = "ok"
            ok &= status == "ok"
            print(f"  {m['name']:18s} base {ma:12.6g} new {mb:12.6g} {m['unit']:4s} "
                  f"worse_by {worse_by:+.4f} bound {m['bound']:.2f} "
                  f"spread {sa:.4f}/{sb:.4f}  {status}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("dir", type=Path)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="", help="default: the workloads of BENCHMARK.json")
    r.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("summary")
    s.add_argument("dir", type=Path)
    c = sub.add_parser("compare")
    c.add_argument("base", type=Path)
    c.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    return {"record": record, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
