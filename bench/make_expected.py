"""Regenerate ``bench/expected/*.json`` from the program in ``src/``.

    python3 bench/make_expected.py [WORKLOAD ...]

Each pool item is stored under its key with the digest of its input text
and the output the benchmark checks.  Run this only at a commit whose
outputs are trusted, and only when the corpus itself changes: every later
run is checked against these files.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as W


def expected_for(workload: W.PoolWorkload, srcartier) -> dict:
    out = {}
    for key, text in workload.pool():
        cx = srcartier.fileio.parse_facet_file(text)
        for p in workload.fields or (0,):
            item = W.Item(f"{key}/p{p}" if p else key, text, cx, p)
            out[item.key] = {"input": W.digest(text),
                             "expect": W.normalise(W.run_item(workload.name, item, srcartier))}
    return out


def crossval_expected(srcartier) -> dict:
    report = srcartier.cartier.cross_validate(run.CROSSVAL_NS, ())
    if not report.ok:
        raise SystemExit("cross_validate reports a failure; not writing expected values")
    return {"pg": report.pg, "infgen": report.infgen}


def write(name: str, doc: dict):
    # One entry per line keeps diffs of the expected files readable.
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in doc.items()]
    path = W.EXPECTED_DIR / f"{name}.json"
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {path} ({len(doc)} entries)")


def main(names):
    srcartier = run.import_program()
    W.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or W.WORKLOADS:
        if name == "crossval-exhaustive":
            write(name, crossval_expected(srcartier))
        else:
            write(name, expected_for(W.POOL_WORKLOADS[name], srcartier))


if __name__ == "__main__":
    main(sys.argv[1:])
