"""srcartier benchmark: one timed run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...     # every workload, each in its own process

Run from the root of a source checkout; the program is imported from
``src/``.  Each run is a closed loop with one caller in one thread: the
next item starts only when the previous one has returned.  Every output
is checked against the expected values under ``bench/expected/``.

An item is one ``classify`` call (classify), one homology battery for one
complex and one prime (homology), or one whole ``cross_validate`` call
(crossval-exhaustive, whose harness exposes no per-complex time; its
throughput counts complexes).  ``setup_s`` is the
median of several set-ups (import, input generation, parsing), all but
one in fresh processes; the timed phase then runs in this process with
cold caches, as a command-line user would see it.  The end-to-end times
are adjusted for host speed (see ``hostspeed.py``); the raw ones are in
the stamp.  ``peak_rss_mb`` is read after a fixed amount of work
(``RSS_ROUNDS`` rounds of the pool, or the first cross_validate call), so
that it does not grow with the number of items a run happens to reach.

``--trace 0`` prints the end-to-end metrics (tracing is not installed);
``--trace 1`` installs the span tracer of ``spans.py`` and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--out FILE``
also writes that result with its stamp (commit, Python, CPUs, load, seed,
item counts) as JSON, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

SETUP_SAMPLES = 7        # set-ups per run (one here, the rest in fresh processes)
RSS_ROUNDS = 8           # peak RSS is read after this many rounds (or the first call)
MIN_COVERAGE = 0.95      # traced run: span self times over traced wall time
MAX_FAILURES_SHOWN = 5
CROSSVAL_NS = (1, 2, 3, 4, 5)

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics from the traced run.  Times and counts are per item
# (per cross_validate call on crossval-exhaustive), so that runs which
# complete different numbers of items compare.
SELF_TIMES = [
    "monomials.colon", "monomials.frobenius_power", "monomials.add", "monomials.contains",
    "complexes.minimal_nonfaces", "complexes.free_faces", "complexes.core", "complexes.faces",
    "cartier.ideal_test", "cartier.ideal_of_complex", "cartier.classify_via_free_face",
    "homology.build_chain_complex", "homology.relative_map_is_surjective",
]
COUNTS = [
    "monomials.colon.gens_out", "complexes.minimal_nonfaces.found",
    "complexes.free_faces.pairs", "complexes.faces.count",
    "homology.build_chain_complex.cells",
]
LAYERS = ["complexes", "monomials", "cartier", "homology"]

PER_LAYER = {
    **{f"{name}.self_ms": "ms/item" for name in SELF_TIMES},
    **{name: "count/item" for name in COUNTS},
    "monomials.colon.under_witness_ms": "ms/item",
    "homology.homology_dims.gf2_ms": "ms/item",
    "homology.homology_dims.gfp_ms": "ms/item",
    "cartier.pg": "count/item",
    "cartier.infgen": "count/item",
    "homology.betti_cache.hit_ratio": "ratio",
    "homology.betti_cache.lookups": "count/item",
    **{f"{layer}.self_ms": "ms/item" for layer in LAYERS},
    # fileio parses during set-up, so its figure is per parse call.
    "fileio.parse_facet_file.self_ms": "ms/call",
    "trace.coverage_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program source, corpus drift)."""


# -- set-up ------------------------------------------------------------------

def import_program():
    if not (SRC / "srcartier" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import srcartier
    from srcartier import cartier, fileio, homology  # noqa: F401
    return srcartier


def setup(workload: str, seed: int, tracer=None):
    """Import the program, generate the inputs and parse them.  Returns the
    seconds taken, the program and the run's items (or, for
    crossval-exhaustive, the expected complex count)."""
    t0 = time.perf_counter()
    srcartier = import_program()
    if tracer is not None:
        tracer.install()
    if workload == "crossval-exhaustive":
        state = sum(srcartier.cartier.count_complexes_oracle(n) for n in CROSSVAL_NS)
    else:
        state = W.POOL_WORKLOADS[workload].items(seed)
        parsed = {}
        for item in state:
            if item.text not in parsed:
                parsed[item.text] = srcartier.fileio.parse_facet_file(item.text)
            item.cx = parsed[item.text]
    return time.perf_counter() - t0, srcartier, state


def setup_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchError("set-up probe timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- timed phase -------------------------------------------------------------

class Outcome:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts: Counter = Counter()
        self.strata: Counter = Counter()
        self.complexes = 0      # crossval-exhaustive: complexes checked
        self.wraps = 0
        self.cleared_cache: list = []   # Betti cache statistics at each wrap
        self.elapsed = 0.0      # timed phase, less time spent on host-speed samples
        self.rss_mb = 0.0

    def read_rss(self):
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(message)
            print(f"FAILED {message}", file=sys.stderr)


def _call(tracer, fn, *args):
    return fn(*args) if tracer is None else tracer.span("bench.item", fn, *args)


def timed_pool(workload, items, srcartier, seconds, tracer, host) -> Outcome:
    expected = W.load_expected(workload)
    for item in items:
        if expected.get(item.key, {}).get("input") != W.digest(item.text):
            raise BenchError(f"input {item.key} differs from the committed corpus")
    out = Outcome()
    pool = W.POOL_WORKLOADS[workload]
    rss_items = RSS_ROUNDS * len(pool.strata) * max(1, len(pool.fields))
    spent = host.spent
    i = 0
    start = time.perf_counter()
    deadline = start + seconds
    while i == 0 or time.perf_counter() < deadline:
        if i and i % len(items) == 0:
            # A repeated input must not be served from the Betti cache.
            out.wraps += 1
            cache = srcartier.homology._reduced_betti_cached
            out.cleared_cache.append(cache.cache_info())
            cache.cache_clear()
        item = items[i % len(items)]
        i += 1
        t0 = time.perf_counter()
        try:
            result = _call(tracer, W.run_item, workload, item, srcartier)
        except Exception:  # a failed item is counted, and the run goes on
            out.latencies.append(time.perf_counter() - t0)
            out.fail(f"{item.key}: {traceback.format_exc().strip()}")
            continue
        out.latencies.append(time.perf_counter() - t0)
        out.strata[item.key.split("/")[0]] += 1
        if "verdict" in result:
            out.verdicts[result["verdict"]] += 1
        if W.normalise(result) != expected[item.key]["expect"]:
            out.fail(f"{item.key}: got {json.dumps(result)}")
        if i == rss_items:
            out.read_rss()
        host.maybe_sample()
    out.elapsed = time.perf_counter() - start - (host.spent - spent)
    if i < rss_items:
        out.read_rss()
    return out


def timed_crossval(expected_total, srcartier, seconds, tracer, host) -> Outcome:
    expected = W.load_expected("crossval-exhaustive")
    out = Outcome()
    spent = host.spent
    start = time.perf_counter()
    deadline = start + seconds
    while not out.latencies or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        report = _call(tracer, srcartier.cartier.cross_validate, CROSSVAL_NS, ())
        out.latencies.append(time.perf_counter() - t0)
        out.complexes += report.total
        out.verdicts.update(pg=report.pg, infgen=report.infgen)
        problems = []
        if not report.ok:
            problems.append(f"report not ok: {json.dumps(report.to_json_dict())[:2000]}")
        if report.total != expected_total:
            problems.append(f"total {report.total} != oracle count {expected_total}")
        if (report.pg, report.infgen) != (expected["pg"], expected["infgen"]):
            problems.append(f"pg/infgen {report.pg}/{report.infgen} != "
                            f"{expected['pg']}/{expected['infgen']}")
        if problems:
            out.fail("cross_validate: " + "; ".join(problems))
        if len(out.latencies) == 1:
            out.read_rss()
        host.sample(repeat=10)
    out.elapsed = time.perf_counter() - start - (host.spent - spent)
    return out


# -- metrics -----------------------------------------------------------------

def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end_metrics(workload, out: Outcome, setup_times, factor: float) -> dict:
    """Times are multiplied by the host-speed factor (1 for raw figures)."""
    done = out.complexes if workload == "crossval-exhaustive" else len(out.latencies)
    return {
        "latency_p50_ms": statistics.median(out.latencies) * 1e3 * factor,
        "latency_p90_ms": nearest_rank(out.latencies, 0.9) * 1e3 * factor,
        "throughput_per_s": done / out.elapsed / factor,
        "setup_s": statistics.median(setup_times) * factor,
        "peak_rss_mb": out.rss_mb,
    }


def per_layer_metrics(tracer, out: Outcome, before: dict, cache_before, srcartier) -> dict:
    from spans import per_span_cost_ns

    after = tracer.snapshot()
    items = len(out.latencies)

    def delta(kind, name):
        return after[kind].get(name, 0) - before[kind].get(name, 0)

    def per_item_ms(ns):
        return ns / 1e6 / items

    m = {f"{name}.self_ms": per_item_ms(delta("self_ns", name)) for name in SELF_TIMES}
    m.update({name: delta("counts", name) / items for name in COUNTS})
    parse = "fileio.parse_facet_file"
    parse_ms = after["self_ns"].get(parse, 0) / 1e6 / max(1, after["calls"].get(parse, 0))
    m["monomials.colon.under_witness_ms"] = per_item_ms(
        after["colon_unguarded_ns"] - before["colon_unguarded_ns"])
    m["homology.homology_dims.gf2_ms"] = per_item_ms(delta("self_ns", "homology.homology_dims.gf2"))
    m["homology.homology_dims.gfp_ms"] = per_item_ms(delta("self_ns", "homology.homology_dims.gfp"))
    m["cartier.pg"] = out.verdicts["pg"] / items
    m["cartier.infgen"] = out.verdicts["infgen"] / items
    infos = [*out.cleared_cache, srcartier.homology._reduced_betti_cached.cache_info()]
    hits = sum(c.hits for c in infos) - cache_before.hits
    misses = sum(c.misses for c in infos) - cache_before.misses
    m["homology.betti_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["homology.betti_cache.lookups"] = (hits + misses) / items
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = per_item_ms(sum(
            delta("self_ns", name) for name in after["self_ns"] if name.startswith(layer + ".")))
    m[f"{parse}.self_ms"] = parse_ms
    timed_ns = out.elapsed * 1e9
    m["trace.coverage_frac"] = sum(delta("self_ns", name) for name in after["self_ns"]) / timed_ns
    m["trace_overhead_frac"] = (after["spans"] - before["spans"]) * per_span_cost_ns() / timed_ns
    return m


# -- stamp -------------------------------------------------------------------

def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "srcartier").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(args, loadavg, out: Outcome) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": loadavg,
        "items": len(out.latencies),
        "complexes": out.complexes or None,
        "items_per_stratum": dict(sorted(out.strata.items())),
        "pg": out.verdicts.get("pg"),
        "infgen": out.verdicts.get("infgen"),
        "pool_wraps": out.wraps,
    }


# -- entry points ------------------------------------------------------------

def run_one(args) -> dict:
    loadavg = list(os.getloadavg())
    host = HostSpeed()
    host.sample(repeat=5)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        _, srcartier, state = setup(args.workload, args.seed, tracer)
        setup_times = []
    else:
        setup_times = [setup_in_fresh_process(args.workload, args.seed)
                       for _ in range(SETUP_SAMPLES - 1)]
        seconds, srcartier, state = setup(args.workload, args.seed)
        setup_times.append(seconds)

    before = tracer.snapshot() if tracer is not None else None
    cache_before = srcartier.homology._reduced_betti_cached.cache_info()

    if args.workload == "crossval-exhaustive":
        out = timed_crossval(state, srcartier, args.seconds, tracer, host)
    else:
        out = timed_pool(args.workload, state, srcartier, args.seconds, tracer, host)

    correct = out.failed == 0
    extra = {"host_factor": host.factor(), "host_samples": len(host.samples)}
    if tracer is None:
        metrics = end_to_end_metrics(args.workload, out, setup_times, host.factor())
        units = END_TO_END
        extra["raw"] = end_to_end_metrics(args.workload, out, setup_times, 1.0)
    else:
        metrics = per_layer_metrics(tracer, out, before, cache_before, srcartier)
        units = PER_LAYER
        if metrics["trace.coverage_frac"] < MIN_COVERAGE:
            print(f"error: span self times cover {metrics['trace.coverage_frac']:.3f} "
                  f"of the traced wall time (< {MIN_COVERAGE})", file=sys.stderr)
            correct = False
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"spans-{args.workload}-{args.seed}.json.gz")

    attempted = len(out.latencies)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"stamp": {**stamp(args, loadavg, out), **extra}, "failed_frac": out.failed / attempted,
            "failures": out.failures, "result": result}


def print_table(workload: str, record: dict):
    res = record["result"]
    print(f"== {workload}: {res['attempted']} items, {res['failed']} failed, "
          f"correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':48s} {record['failed_frac']:14.6g} ratio")


def run_all(args) -> dict:
    """Every workload, each in a fresh process, one after another."""
    records = {}
    for workload in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--quiet"]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload {workload} timed out") from None
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {workload} exited with {proc.returncode}")
        records[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, record in records.items():
        print_table(workload, record)
    results = [r["result"] for r in records.values()]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{w}/{k}": v for w, r in records.items()
                    for k, v in r["result"]["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the stamped result here as JSON")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--quiet", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed)[0])
            return 0
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        record = run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.quiet:
        print(json.dumps(record))
        return 0
    print_table(args.workload, record)
    print("stamp " + json.dumps(record["stamp"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
