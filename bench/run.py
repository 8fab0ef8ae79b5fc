"""The twoselmer benchmark: cold twist scans, warm rescans and large-d descents.

Usage:
  python3 bench/run.py --workload {scan,rescan,query} --seed N --seconds S --trace {0,1}
                       [--tiny]

Every workload is a closed loop with one client: the next op starts when the
previous one has finished.  An op is one twist in ``scan`` and ``rescan`` and
one ``descent`` call in ``query``.  ``--trace 0`` measures the end-to-end
metrics with nothing installed in the package; ``--trace 1`` is a separate
run of a fixed amount of work with span wrappers installed (see spans.py),
which reports the per-layer metrics.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any op failed its check.  See README.md in this directory for
what each workload loads and the predictions it is meant to test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

CURVES = ("-1,0,1", "0,1,2", "0,1,5")
BOUND = 1000
TINY_BOUND = 30
QUERIES_PER_CURVE = 200
TINY_QUERIES = 10
IMPORT_PROBES = 9
CALIB_LOOP = 10**6
CALIB_REPS = 5

clock = time.perf_counter

END_TO_END = {
    "twists_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; values come from per_layer_metrics().
PER_LAYER = {
    "local_descent.kummer_image.calls": "count",
    "local_descent.kummer_image.misses": "count",
    "local_descent.kummer_image.hit_ratio": "ratio",
    "local_descent.kummer_image.self_s": "s",
    "local_descent.kummer_image.local_class_per_miss": "count/miss",
    "local_descent.h_v.calls": "count",
    "padic.local_class.calls": "count",
    "padic.local_class.self_s": "s",
    "zarith.factorize.calls": "count",
    "zarith.factorize.self_s": "s",
    "zarith.is_squarefree.calls": "count",
    "zarith.legendre.calls": "count",
    "curve.sigma_set.calls": "count",
    "curve.sigma_set.self_s": "s",
    "curve.local_twist_classes.calls": "count",
    "curve.local_twist_classes.self_s": "s",
    "twist_lab.base_rank.calls": "count",
    "selmer.selmer_group.calls": "count",
    "selmer.selmer_group.self_s": "s",
    "selmer.width_mean": "columns",
    "gf2.kernel_basis.calls": "count",
    "gf2.self_s": "s",
    "twist_lab.parity_check.self_s": "s",
    "twist_lab.scan_records.self_s": "s",
    "cli.main.self_s": "s",
    "cli.records_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class MissingSource(RuntimeError):
    pass


def load_package() -> types.SimpleNamespace:
    """Import twoselmer from this checkout's src/ and nowhere else."""
    init = SRC / "twoselmer" / "__init__.py"
    if not init.is_file():
        raise MissingSource(f"no package source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import twoselmer
    from twoselmer import cli, curve, errors, local_descent, padic, twist_lab

    if Path(twoselmer.__file__).resolve() != init.resolve():
        raise MissingSource(f"twoselmer was imported from {twoselmer.__file__}, not {init}")
    return types.SimpleNamespace(
        package=twoselmer, cli=cli, curve=curve, local_descent=local_descent,
        padic=padic, twist_lab=twist_lab,
        op_errors=(errors.BudgetExceeded, errors.SoundnessAlarm),
    )


@dataclass
class Outcome:
    ops: int = 0
    failed: int = 0
    seconds: float = 0.0
    cycle_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    peak_rss_kb: int = 0
    records_bytes: int = 0
    traces: list = field(default_factory=list)


# -- checks -----------------------------------------------------------------


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def record_line(rec, schema_version: int) -> str:
    """One records.jsonl line, byte for byte as ``twoselmer scan`` writes it."""
    doc = {
        "d": rec.d,
        "rank": rec.rank,
        "parity_lhs": rec.parity_lhs,
        "parity_rhs": rec.parity_rhs,
        "sigma_prime": rec.sigma_prime_size,
        "ms": rec.ms,
        "schema_version": schema_version,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def query_digest(curve: str, d: int, record: dict) -> str:
    """Digest of one descent's (curve, d, dim, basis)."""
    text = json.dumps([curve, d, record["dim"], record["basis"]], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- set-up and context -----------------------------------------------------


def run_child(spec: dict) -> tuple[int, dict, float]:
    """Run scan_child.py in a fresh interpreter; (exit code, report, wall seconds)."""
    report_path = Path(spec["report"])
    t = clock()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "scan_child.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=False,
    )
    wall = clock() - t
    report = json.loads(report_path.read_text()) if report_path.is_file() else {}
    return proc.returncode, report, wall


def import_seconds() -> float:
    """Median package import time of a fresh interpreter."""
    samples = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for i in range(IMPORT_PROBES):
            spec = {"src": str(SRC), "import_only": True, "report": f"{tmp}/probe{i}.json"}
            rc, report, _ = run_child(spec)
            if rc != 0:
                raise MissingSource("the package failed to import in a fresh interpreter")
            samples.append(report["import_s"])
    return statistics.median(samples)


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: machine speed, for context only."""
    times = []
    for _ in range(CALIB_REPS):
        t = clock()
        x = 0
        for i in range(CALIB_LOOP):
            x += i
        times.append(clock() - t)
    return statistics.median(times)


def rotated(items, seed: int) -> list:
    k = seed % len(items)
    return list(items[k:]) + list(items[:k])


def own_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- workloads ----------------------------------------------------------------


def repeat(cycle, out: Outcome, seconds: float) -> None:
    """Run whole cycles (at least one) until ``seconds`` have passed."""
    t0 = t = clock()
    while True:
        cycle(out)
        now = clock()
        out.cycle_s.append(now - t)
        t = now
        if now - t0 >= seconds:
            return


def scan_once(curve: str, bound: int, golden: dict, out: Outcome, trace: bool) -> None:
    """One ``twoselmer scan`` in a fresh interpreter; all its twists fail on any mismatch."""
    expected = golden["scan"][curve][str(bound)]
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out_dir = Path(tmp) / "out"
        spec = {
            "src": str(SRC),
            "argv": ["scan", f"--curve={curve}", f"--bound={bound}", f"--out={out_dir}"],
            "report": f"{tmp}/report.json",
            "trace": trace,
            "spans": str(WORK / f"spans-scan-{CURVES.index(curve)}.bin"),
        }
        rc, report, wall = run_child(spec)
        records = out_dir / "records.jsonl"
        summary = out_dir / "summary.json"
        ok = (
            rc == 0
            and sha256_file(records) == expected["records_sha256"]
            and sha256_file(summary) == expected["summary_sha256"]
            and json.loads(summary.read_text())["parity_failures"] == 0
        )
        out.records_bytes += records.stat().st_size if records.is_file() else 0
    n = expected["twists"]
    out.ops += n
    out.failed += 0 if ok else n
    out.seconds += wall
    out.latencies_s += report.get("latencies_s", [])
    out.peak_rss_kb = max(out.peak_rss_kb, report.get("peak_rss_kb", 0))
    if "trace" in report:
        out.traces.append(report["trace"])


def run_scan(pkg, args, golden: dict) -> dict:
    bound = TINY_BOUND if args.tiny else BOUND
    order = rotated(CURVES, args.seed)
    setup_s = import_seconds()

    def cycle(out: Outcome, trace: bool = False) -> None:
        for curve in order:
            scan_once(curve, bound, golden, out, trace)

    if not args.trace:
        out = Outcome()
        repeat(cycle, out, args.seconds)
        return {"out": out, "setup_s": setup_s}
    plain, traced = Outcome(), Outcome()
    cycle(plain)
    cycle(traced, trace=True)
    return traced_result(plain, traced, spans.merge(traced.traces))


def rescan_pass(pkg, model, bound: int, expected: list | None, n: int,
                out: Outcome, tracer: spans.Tracer | None = None) -> None:
    """One warm pass over a curve's n twists, each checked against ``expected``.

    A record that differs from the warm-up's, or that the warm-up did not
    have, is a failed op; so is every twist the pass does not yield.
    """
    it = pkg.twist_lab.scan_records(model, bound)
    i = 0
    start = t = clock()
    while True:
        if tracer is not None:
            tracer.op += 1
        try:
            rec = next(it)
        except StopIteration:
            break
        except pkg.op_errors:
            break
        now = clock()
        out.latencies_s.append(now - t)
        t = now
        if expected is None or i >= len(expected) or rec != expected[i]:
            out.failed += 1
        i += 1
    out.seconds += clock() - start
    out.ops += max(i, n)
    out.failed += max(n - i, 0)


def run_rescan(pkg, args, golden: dict) -> dict:
    bound = TINY_BOUND if args.tiny else BOUND
    models = {c: pkg.curve.require_full_model(pkg.curve.parse_curve(c)) for c in CURVES}
    schema = pkg.cli.SCHEMA_VERSION
    # Warm-up: one pass per curve fills the image cache.  Its records must
    # match the scan goldens; the timed passes are then compared to them.
    expected: dict[str, list | None] = {}
    t = clock()
    for curve in CURVES:
        want = golden["scan"][curve][str(bound)]["records_sha256"]
        try:
            recs = list(pkg.twist_lab.scan_records(models[curve], bound))
        except pkg.op_errors:
            expected[curve] = None
            continue
        text = "".join(record_line(r, schema) for r in recs)
        ok = hashlib.sha256(text.encode()).hexdigest() == want
        expected[curve] = recs if ok else None
    warm_s = clock() - t
    setup_s = import_seconds() + warm_s
    order = rotated(CURVES, args.seed)
    counts = {c: golden["scan"][c][str(bound)]["twists"] for c in CURVES}

    def cycle(out: Outcome, tracer=None) -> None:
        for curve in order:
            rescan_pass(pkg, models[curve], bound, expected[curve], counts[curve], out, tracer)

    if not args.trace:
        out = Outcome()
        repeat(cycle, out, args.seconds)
        out.peak_rss_kb = own_rss_kb()
        return {"out": out, "setup_s": setup_s}
    plain, traced = Outcome(), Outcome()
    cycle(plain)
    tracer = spans.Tracer()
    tracer.install(pkg.package)
    try:
        cycle(traced, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / "spans-rescan.bin")
    return traced_result(plain, traced, tracer.aggregate())


def query_list(golden: dict, seed: int) -> list:
    """The seed's queries: QUERIES_PER_CURVE per curve from the golden pool, curves cycled.

    Each curve's pool entries are sorted by trial-division reach (how far
    factorize runs; make_golden.trial_reach) and cut into QUERIES_PER_CURVE
    equal groups, and the seed draws one entry from each group.  So every
    seed gets the same mix of factoring costs: on measured per-query times,
    plain random draws of 600 queries moved p90_ms by 27% (IQR over median)
    from seed to seed, these draws by 6%.
    """
    rng = random.Random(seed)
    per_curve = []
    for k in range(len(CURVES)):
        entries = sorted((e for e in golden["query"]["pool"] if e[0] == k),
                         key=lambda e: (e[3], e[1]))
        edges = [len(entries) * i // QUERIES_PER_CURVE for i in range(QUERIES_PER_CURVE + 1)]
        picked = [entries[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]
        rng.shuffle(picked)
        per_curve.append(picked)
    return [e for trio in zip(*per_curve) for e in trio]


def query_once(pkg, entry: list, out: Outcome, tracer=None) -> None:
    k, d, want = entry[:3]
    curve = CURVES[k]
    argv = ["descent", f"--curve={curve}", f"--twist={d}"]
    if tracer is not None:
        tracer.op += 1
    buf = io.StringIO()
    t = clock()
    try:
        with contextlib.redirect_stdout(buf):
            rc = pkg.cli.main(argv)
    except pkg.op_errors:
        rc = None
    out.latencies_s.append(clock() - t)
    text = buf.getvalue()
    out.records_bytes += len(text.encode())
    try:
        ok = rc == 0 and query_digest(curve, d, json.loads(text)) == want
    except (ValueError, KeyError):
        ok = False
    out.ops += 1
    out.failed += 0 if ok else 1


def run_query(pkg, args, golden: dict) -> dict:
    queries = query_list(golden, args.seed)
    if args.tiny:
        queries = queries[:TINY_QUERIES]
    setup_s = import_seconds()

    def cycle(out: Outcome, tracer=None) -> None:
        # Each pass over the list starts from the empty caches of a fresh
        # process, so every pass does the same work.
        pkg.local_descent.clear_image_cache()
        pkg.padic.nonresidue.cache_clear()
        t = clock()
        for entry in queries:
            query_once(pkg, entry, out, tracer)
        out.seconds += clock() - t

    if not args.trace:
        out = Outcome()
        repeat(cycle, out, args.seconds)
        out.peak_rss_kb = own_rss_kb()
        return {"out": out, "setup_s": setup_s}
    plain, traced = Outcome(), Outcome()
    cycle(plain)
    tracer = spans.Tracer()
    tracer.install(pkg.package)
    try:
        cycle(traced, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / "spans-query.bin")
    return traced_result(plain, traced, tracer.aggregate())


def traced_result(plain: Outcome, traced: Outcome, trace: dict) -> dict:
    traced.ops += plain.ops
    traced.failed += plain.failed
    return {"out": traced, "overhead": traced.seconds / plain.seconds, "trace": trace}


WORKLOADS = {"scan": run_scan, "rescan": run_rescan, "query": run_query}


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(result: dict) -> dict:
    """Throughput and latency quantiles over every op of the timed cycles."""
    out: Outcome = result["out"]
    lat = out.latencies_s
    return {
        "twists_per_s": out.ops / out.seconds,
        "p50_ms": statistics.median(lat) * 1e3,
        "p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "setup_s": result["setup_s"],
        "peak_rss_mb": out.peak_rss_kb / 1024,
    }


def per_layer_metrics(result: dict) -> dict:
    agg = result["trace"]
    calls, self_s = agg["calls"], agg["self_s"]
    kummer = calls.get(spans.KUMMER, 0)
    misses = agg["kummer_misses"]
    values = {
        "local_descent.kummer_image.misses": misses,
        "local_descent.kummer_image.hit_ratio": (kummer - misses) / kummer if kummer else 0.0,
        "local_descent.kummer_image.local_class_per_miss":
            agg["local_class_in_misses"] / misses if misses else 0.0,
        "selmer.width_mean": agg["width_sum"] / agg["width_n"] if agg["width_n"] else 0.0,
        "gf2.self_s": sum(s for n, s in self_s.items() if n.startswith("gf2.")),
        "cli.records_bytes": result["out"].records_bytes,
        "trace.overhead_ratio": result["overhead"],
    }
    for name in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s") and name not in values:
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
    return values


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help=f"bound {TINY_BOUND} and {TINY_QUERIES} queries, for the benchmark's tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pkg = load_package()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    WORK.mkdir(exist_ok=True)
    calib_s = calibrate()
    result = WORKLOADS[args.workload](pkg, args, golden)
    out: Outcome = result["out"]
    context = {"workload": args.workload, "seed": args.seed, "calib_s": calib_s,
               "samples": len(out.latencies_s), "timed_s": out.seconds,
               "failed_share": out.failed / out.ops, "cycle_s": out.cycle_s}
    print(json.dumps({"context": context}))
    if args.trace:
        values = per_layer_metrics(result)
        units = PER_LAYER
    else:
        values = end_to_end_metrics(result)
        units = END_TO_END
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.ops,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
