"""Alternating before/after runs of bench/run.py, written as one BENCH JSON file.

Usage:
  python3 tools/bench_pairs.py --parent REF --out BENCH_x.json

Both sides are ``git archive`` exports into one temporary directory: the
parent side of the git ref REF, the change side of this checkout's tracked
files as they stand (``git stash create``, or HEAD when nothing is changed).
Untracked files are not exported.  The change side is named in the file by
its commit id (marked when tracked files have uncommitted changes).  For each
of the workloads scan, rescan and query the script runs 10 pairs, one run at
a time: odd pairs run the parent first, even pairs the change first.  Each
run is ``python3 bench/run.py --workload W --seed 1 --seconds 25 --trace 0``
(the benchmark's own command) and its last stdout line is kept.  Then 3 more
alternating pairs run with ``--trace 1``, and each side reports every
per-layer metric as the median of its 3 traced runs, with each run kept: one
traced run per side cannot resolve a ``self_s`` change under about 20 %.
The file holds every run, and per workload and side the median and
quartiles of each end-to-end metric and of the ops attempted (``attempted``),
and the failed ops; ``ops_ratio`` is the change/parent ratio of median
``attempted``.  The harness keeps one latency per op, so a ``peak_rss_mb``
rise that tracks ``ops_ratio`` is the harness's, not the engine's.
Under ``gate`` it holds, for each end-to-end metric that ``BENCHMARK.json``
declares, the change/parent median ratio, on how many pairs the change won in
the metric's ``better`` direction, whether the change's median is within the
metric's ``bound`` of the parent's (each breach is also printed to stderr),
``parent_iqr`` (q3 - q1 of the parent's runs) and ``meets_claim_rule``: the
change wins at least 9 of the 10 pairs and its median is better than the
parent's by more than ``parent_iqr``, the rule a claimed gain must meet.
``src_lines`` gives each side's ``wc -l src/twoselmer/*.py`` total, the design
metric.

Every run has ``PYTHONDONTWRITEBYTECODE=1`` set, and neither export has a
``__pycache__``, so each side compiles ``src`` on every import, as a fresh
checkout does: ``setup_s`` compares like with like, and BENCH files written
before this rule compared bytecode imports.  Each run starts in a session of
its own.  On SIGTERM or Ctrl-C the script kills the running one with its
children, removes both exports and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
WORKLOADS = ("scan", "rescan", "query")
PAIRS = 10
TRACED_PAIRS = 3
CLAIM_WINS = 9
SEED = 1
SECONDS = 25


def bench(root: Path, workload: str, trace: int) -> dict:
    argv = ["python3", "bench/run.py", f"--workload={workload}", f"--seed={SEED}",
            f"--seconds={SECONDS}", f"--trace={trace}"]
    with subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:
            # the run's session: bench/run.py and the scan children it started
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            raise
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} printed nothing: {stderr}")
    return json.loads(lines[-1])


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(ref: str, dest: Path) -> str:
    """Extract the tree of ref into dest; returns the commit id."""
    sha = git("rev-parse", ref)
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def src_lines(root: Path) -> int:
    """The total of ``wc -l src/twoselmer/*.py`` in a checkout."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "twoselmer").glob("*.py"))


def machine() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return (f"{os.cpu_count()}-core {platform.machine()}, {cpu}, {platform.system()} "
            f"{platform.release()}, Python {platform.python_version()}")


def change_label() -> str:
    """This checkout's commit id, marked when tracked files differ from it."""
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "HEAD") + (" with uncommitted changes" if dirty else "")


def worktree_ref() -> str:
    """A commit of the tracked files as they stand, for ``export``."""
    return git("stash", "create") or "HEAD"


def stop(signum, frame):
    raise SystemExit(f"stopped by {signal.Signals(signum).name}")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def alternate(roots: dict[str, Path], workload: str, trace: int, pairs: int) -> list[dict]:
    """Runs in pairs, one at a time: odd pairs run the parent first, even pairs the change."""
    runs = []
    for pair in range(1, pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            result = bench(roots[side], workload, trace)
            runs.append({"pair": pair, "side": side, "result": result})
            print(f"{workload} --trace={trace} pair {pair} {side}: {result['attempted']} ops, "
                  f"{result['failed']} failed", file=sys.stderr)
    return runs


def traced_medians(results: list[dict]) -> dict:
    """One side's traced runs read as one: the median of each metric and of the ops."""
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": statistics.median(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(r["metrics"][name]["value"]
                                                      for r in results), "unit": m["unit"]}
                    for name, m in results[0]["metrics"].items()},
    }


def summarize(results: list[dict]) -> dict:
    out = {name: quartiles([r["metrics"][name]["value"] for r in results])
           for name in results[0]["metrics"]}
    out["attempted"] = quartiles([r["attempted"] for r in results])
    out["failed"] = sum(r["failed"] for r in results)
    return out


def workload_summary(workload: str, by_side: dict[str, list[dict]]) -> dict:
    """Each side's summary, the change/parent ratio of median ops, and the gate."""
    sides = {s: summarize(runs) for s, runs in by_side.items()}
    ops = {s: summary["attempted"]["median"] for s, summary in sides.items()}
    return {**sides, "ops_ratio": ops["change"] / ops["parent"],
            "gate": gate(workload, by_side)}


def gate(workload: str, by_side: dict[str, list[dict]]) -> dict:
    """The benchmark's per-metric check of the change against the parent."""
    out: dict = {}
    for metric in END_TO_END:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        values = {s: [r["metrics"][name]["value"] for r in runs] for s, runs in by_side.items()}
        wins = sum(sign * (c - q) > 0 for q, c in zip(values["parent"], values["change"]))
        parent, change = statistics.median(values["parent"]), statistics.median(values["change"])
        ratio = change / parent
        within = sign * (ratio - 1) >= -bound
        q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
        out[name] = {"better": metric["better"], "bound": bound, "ratio": ratio,
                     "change_wins": f"{wins}/{PAIRS}", "within_bound": within,
                     "parent_iqr": q3 - q1,
                     "meets_claim_rule": wins >= CLAIM_WINS and sign * (change - parent) > q3 - q1}
        if not within:
            print(f"breach: {workload} {name} change/parent median {ratio:.3f}, "
                  f"{metric['better']} is better, bound {bound}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent side")
    p.add_argument("--out", required=True, help="the BENCH JSON file to write")
    args = p.parse_args(argv)

    # the exits unwind through the runs and the temporary directory
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        sha = export(args.parent, roots["parent"])
        export(worktree_ref(), roots["change"])
        doc = {
            "command": f"python3 bench/run.py --workload W --seed {SEED} "
                       f"--seconds {SECONDS} --trace 0",
            "machine": machine(),
            "parent": sha,
            "change": change_label(),
            "src_lines": {s: src_lines(root) for s, root in roots.items()},
            "order": "pairs alternate: odd pairs run the parent first, even pairs the "
                     "change first; one run at a time",
            "summary": {},
            "runs": {},
        }
        for w in WORKLOADS:
            runs = alternate(roots, w, 0, PAIRS)
            by_side = {s: [r["result"] for r in runs if r["side"] == s] for s in roots}
            doc["summary"][w] = workload_summary(w, by_side)
            doc["runs"][w] = runs
            traced = alternate(roots, w, 1, TRACED_PAIRS)
            doc[f"traced_{w}"] = {
                "command": f"python3 bench/run.py --workload {w} --seed {SEED} "
                           f"--seconds {SECONDS} --trace 1",
                **{s: traced_medians([r["result"] for r in traced if r["side"] == s])
                   for s in roots},
                "runs": traced,
            }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
