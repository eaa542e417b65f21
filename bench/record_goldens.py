"""Record the outputs the benchmark checks against, into bench/goldens/.

    python3 bench/record_goldens.py

Run from the repository root.  Re-record only for an intended change of
output or of the input pools, and say so with the change: the exact
reports must otherwise stay byte-identical.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads as w  # noqa: E402
from rodtopo import cli  # noqa: E402


def exact_corpus():
    pool = w.exact_pool()
    files = {}
    for rel in w.corpus_files():
        text = (ROOT / rel).read_text(encoding="utf-8")
        files[rel] = {"sha256": w.sha256(text), "digest": w.exact_pipeline(text)[0]}
    return {
        "pool_size": len(pool),
        "inputs_sha256": w.sha256("\n".join(pool)),
        "files": files,
        "digests": [w.exact_pipeline(text)[0] for text in pool],
    }


def long_runs():
    pool = w.chain_pool()
    digests = {}
    for L, chains in pool.items():
        digests[L] = []
        for chain in chains:
            tp, tp2, ok = w.round_trip(chain)
            if not ok:
                raise SystemExit(f"round trip of a length-{L} chain is not the identity")
            digests[L].append(w.round_trip_digest(tp, tp2))
    return {"inputs_sha256": w.sha256(json.dumps(pool, sort_keys=True)), "digests": digests}


def tension_verify():
    text = (ROOT / w.VERIFY_DIAGRAM).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "report.json")
        code = cli.main(["model-verify", str(ROOT / w.VERIFY_DIAGRAM), "--format", "json",
                         "--out", out])
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    if code != 0 or not report["passed"]:
        raise SystemExit("model-verify did not pass on the benchmark diagram")
    return {"sha256": w.sha256(text), "rel_tol": w.VERIFY_REL_TOL,
            "figures": w.verify_figures(report)}


def main():
    out_dir = BENCH / "goldens"
    out_dir.mkdir(exist_ok=True)
    for name, record in (("exact-corpus", exact_corpus), ("long-runs", long_runs),
                         ("tension-verify", tension_verify)):
        with open(out_dir / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(record(), fh, sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}")


if __name__ == "__main__":
    main()
