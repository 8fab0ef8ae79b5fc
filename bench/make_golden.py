"""Record bench/golden.json: the outputs every benchmark op is checked against.

Usage: python3 bench/make_golden.py

Run it only at a commit whose outputs are trusted; the committed file was
recorded before any optimisation.  It stores, for each corpus curve and each
scan bound the benchmark uses, the sha256 of ``records.jsonl`` and
``summary.json`` and the twist count; and the query pool: squarefree d with
|d| drawn log-uniformly from [10^6, 10^14], both signs, curves cycled, each
with the digest of its descent result and its trial-division reach.  A run's
--seed picks its queries from this pool, so any seed is checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import run

POOL_SEED = 1511
POOL_SIZE = 6000
D_MIN, D_MAX = 10**6, 10**14


def cli_json(pkg, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(buf.getvalue())


def scan_goldens(pkg) -> dict:
    out: dict = {}
    for curve in run.CURVES:
        out[curve] = {}
        for bound in (run.TINY_BOUND, run.BOUND):
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                summary = cli_json(pkg, ["scan", f"--curve={curve}", f"--bound={bound}", f"--out={tmp}"])
                if summary["parity_failures"]:
                    raise SystemExit(f"parity failures in the {curve} scan")
                digests = {
                    f"{name}_sha256": hashlib.sha256((Path(tmp) / f"{name}.{ext}").read_bytes()).hexdigest()
                    for name, ext in (("records", "jsonl"), ("summary", "json"))
                }
            out[curve][str(bound)] = {**digests, "twists": summary["records_count"]}
    return out


def trial_reach(factors) -> int:
    """max(second-largest prime factor, isqrt(largest prime factor)) of |d|.

    Trial division of |d| runs about this far before the cofactor is known to
    be prime, so it sorts d by how hard it is to factor.
    """
    primes = sorted(p for p, _ in factors)
    second = primes[-2] if len(primes) > 1 else 1
    return max(second, math.isqrt(primes[-1]))


def query_pool(pkg) -> list:
    from twoselmer.zarith import factorize, is_squarefree

    rng = random.Random(POOL_SEED)
    lo, hi = math.log(D_MIN), math.log(D_MAX)
    pool = []
    for i in range(POOL_SIZE):
        k = i % len(run.CURVES)
        while True:
            d = min(max(round(math.exp(rng.uniform(lo, hi))), D_MIN), D_MAX)
            if rng.random() < 0.5:
                d = -d
            if is_squarefree(d):
                break
        curve = run.CURVES[k]
        record = cli_json(pkg, ["descent", f"--curve={curve}", f"--twist={d}"])
        reach = trial_reach(factorize(d).factors)
        pool.append([k, d, run.query_digest(curve, d, record), reach])
    return pool


def main() -> None:
    pkg = run.load_package()
    run.WORK.mkdir(exist_ok=True)
    scan = scan_goldens(pkg)
    pool = query_pool(pkg)
    lines = [
        "{",
        f'"scan": {json.dumps(scan, sort_keys=True)},',
        f'"query": {{"pool_seed": {POOL_SEED}, "pool": [',
        ",\n".join(json.dumps(e) for e in pool),
        "]}",
        "}",
    ]
    run.GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
