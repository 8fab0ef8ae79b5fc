"""In-process A/B timing of two ``src`` trees: a git ref against this checkout.

Usage:
  python3 tools/ab_inprocess.py --parent REF --workload {query,rescan}

The parent side is a ``git archive`` export of REF, made as
``tools/bench_pairs.py`` makes it; the change side is this checkout's ``src``
as it stands.  Both are imported into one interpreter as two packages, and
the two sides alternate op by op, so a drift in the machine's speed falls on
both alike.

- ``query``: five cycles of the seed-1 query list of ``bench/run.py`` (600
  ``descent`` calls through ``cli.main``).  The sides alternate which goes
  first from one query to the next, and both clear their caches at the
  start of each cycle, as the benchmark does.
- ``rescan``: after one warm-up pass per curve and side, five cycles of one
  warm ``twist_lab.scan_records`` pass per corpus curve at the benchmark's
  bound.  The two sides' passes run in step, and the sides alternate which
  computes the next twist first: alternating whole passes read up to 5 %
  apart A/A, twist by twist within 2 %.  One latency per twist.

An output that differs between the sides (a query's exit code, stdout or
stderr, a rescan record) is a failure, counted in ``mismatches``,
and the exit code is then 1.  The last stdout line is one JSON object with
each side's mean, p50 and p90 latency in ms and the parent/change ratio of
each (above 1 is a faster change).  An A/A run reads within about 2 %,
where 25 s ``bench/run.py`` pairs spread 5-25 %: the tool sizes a change
before the 10-pair ``tools/bench_pairs.py`` run, and never backs a claim.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
import types
from itertools import count
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
BENCH = ROOT / "bench"
CYCLES = 5
clock = time.perf_counter


def load_module(name: str, path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_side(name: str, src: Path) -> types.SimpleNamespace:
    """Import ``src/twoselmer`` as the package ``twoselmer_<name>``, beside any other copy."""
    pkg_dir = src / "twoselmer"
    package_name = f"twoselmer_{name}"
    spec = importlib.util.spec_from_file_location(
        package_name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[package_name] = package
    spec.loader.exec_module(package)
    mods = {m: importlib.import_module(f"{package_name}.{m}")
            for m in ("cli", "curve", "local_descent", "padic", "twist_lab")}
    return types.SimpleNamespace(name=name, **mods)


def load_bench() -> types.ModuleType:
    """``bench/run.py``, for its corpus, bound, golden file and query list."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))  # run.py imports spans.py beside it
    return load_module("bench_run", BENCH / "run.py")


def clear_caches(side) -> None:
    side.local_descent.clear_image_cache()
    side.padic.nonresidue.cache_clear()


def run_query(side, argv: list[str]) -> tuple[float, tuple]:
    out, err = io.StringIO(), io.StringIO()
    t = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = side.cli.main(argv)
    return clock() - t, (rc, out.getvalue(), err.getvalue())


def query_ab(sides: list, queries: list, curves: tuple[str, ...], cycles: int) -> dict:
    """Alternate the sides per query over ``queries`` (bench/run.py entries)."""
    lat: dict[str, list[float]] = {s.name: [] for s in sides}
    mismatches = 0
    for _ in range(cycles):
        for side in sides:
            clear_caches(side)
        for i, entry in enumerate(queries):
            argv = ["descent", f"--curve={curves[entry[0]]}", f"--twist={entry[1]}"]
            outputs = []
            for side in (sides if i % 2 == 0 else sides[::-1]):
                seconds, output = run_query(side, argv)
                lat[side.name].append(seconds)
                outputs.append(output)
            mismatches += outputs[0] != outputs[1]
    return report(lat, mismatches)


def rescan_ab(sides: list, curves: tuple[str, ...], bound: int, cycles: int) -> dict:
    """Warm ``scan_records`` passes, one per curve and cycle on both sides in
    step, the sides alternating which computes the next twist first."""
    models = [[s.curve.require_full_model(s.curve.parse_curve(c)) for c in curves]
              for s in sides]
    for side, side_models in zip(sides, models):
        for model in side_models:
            list(side.twist_lab.scan_records(model, bound))  # warm-up: fills the image cache
    lat: dict[str, list[float]] = {s.name: [] for s in sides}
    mismatches = 0
    for _ in range(cycles):
        for k in range(len(curves)):
            its = [s.twist_lab.scan_records(ms[k], bound) for s, ms in zip(sides, models)]
            for i in count():
                recs = [None, None]
                for j in ((0, 1) if i % 2 == 0 else (1, 0)):
                    t = clock()
                    recs[j] = next(its[j], None)
                    if recs[j] is not None:
                        lat[sides[j].name].append(clock() - t)
                if recs[0] is None and recs[1] is None:
                    break
                mismatches += recs[0] != recs[1]
    return report(lat, mismatches)


def report(lat: dict[str, list[float]], mismatches: int) -> dict:
    stats = {name: {"mean_ms": statistics.fmean(v) * 1e3,
                    "p50_ms": statistics.median(v) * 1e3,
                    "p90_ms": statistics.quantiles(v, n=10)[8] * 1e3,
                    "ops": len(v)}
             for name, v in lat.items()}
    first, second = (stats[name] for name in lat)
    ratios = {k: first[k] / second[k] for k in ("mean_ms", "p50_ms", "p90_ms")}
    return {**stats, "ratio": ratios, "mismatches": mismatches}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent side")
    p.add_argument("--workload", required=True, choices=("query", "rescan"))
    args = p.parse_args(argv)

    sys.dont_write_bytecode = True
    bench_pairs = load_module("bench_pairs", TOOLS / "bench_pairs.py")
    bench = load_bench()
    with tempfile.TemporaryDirectory() as tmp:
        sha = bench_pairs.export(args.parent, Path(tmp))
        sides = [load_side("parent", Path(tmp, "src")), load_side("change", ROOT / "src")]
        if args.workload == "query":
            golden = json.loads(bench.GOLDEN.read_text())
            queries = bench.query_list(golden, 1)
            result = query_ab(sides, queries, bench.CURVES, CYCLES)
        else:
            result = rescan_ab(sides, bench.CURVES, bench.BOUND, CYCLES)
    result = {"workload": args.workload, "parent_commit": sha,
              "change_commit": bench_pairs.change_label(), **result}
    print(json.dumps(result))
    return 1 if result["mismatches"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
