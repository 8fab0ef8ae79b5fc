"""``tools/bench_pairs.py``: the claim rule of its ``gate`` and its op counts, fed
synthetic runs, and its exports and runs, in a throwaway checkout with a stand-in
``bench/run.py``."""

import contextlib
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


def load(path: Path):
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load(TOOL)
# a git that reads no user configuration and can commit
GIT_ENV = {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1",
           "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.org",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.org"}

PARENT_TPS = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75


def runs(tps: list[float], p50: list[float]) -> list[dict]:
    out = []
    for t, p in zip(tps, p50):
        values = {m["name"]: 1.0 for m in bench_pairs.END_TO_END}
        values.update(twists_per_s=t, p50_ms=p)
        out.append({"metrics": {name: {"value": v} for name, v in values.items()},
                    "attempted": round(t * 25), "failed": 0})
    return out


def gate(change_tps: list[float], change_p50: list[float]) -> dict:
    parent = runs(PARENT_TPS, [50.0 - i for i in range(10)])
    return bench_pairs.gate("rescan", {"parent": parent, "change": runs(change_tps, change_p50)})


def test_gate_meets_claim_rule_in_the_better_direction():
    g = gate([t + 20 for t in PARENT_TPS], [30.0 - i for i in range(10)])
    assert g["twists_per_s"]["parent_iqr"] == 4.5
    assert g["twists_per_s"]["change_wins"] == "10/10"
    assert g["twists_per_s"]["meets_claim_rule"]
    # lower is better for p50_ms: 20 ms less is a met claim too
    assert g["p50_ms"]["parent_iqr"] == 4.5
    assert g["p50_ms"]["meets_claim_rule"]
    # equal runs win no pair
    assert not g["peak_rss_mb"]["meets_claim_rule"]


def test_gate_claim_needs_nine_wins():
    g = gate([t + (20 if i < 8 else -1) for i, t in enumerate(PARENT_TPS)], [1.0] * 10)
    assert g["twists_per_s"]["change_wins"] == "8/10"
    assert not g["twists_per_s"]["meets_claim_rule"]


def test_gate_claim_needs_a_gap_past_the_parent_spread():
    g = gate([t + 1 for t in PARENT_TPS], [1.0] * 10)
    assert g["twists_per_s"]["change_wins"] == "10/10"
    assert g["twists_per_s"]["within_bound"]
    assert not g["twists_per_s"]["meets_claim_rule"]


def test_summary_reports_ops_next_to_rss():
    parent = runs(PARENT_TPS, [1.0] * 10)
    change = runs([t * 1.2 for t in PARENT_TPS], [1.0] * 10)
    summary = bench_pairs.workload_summary("rescan", {"parent": parent, "change": change})
    # 25 s of ops at each run's rate: 2500 ... 2725 ops on the parent side
    assert summary["parent"]["attempted"] == {"median": 2612.5, "q1": 2556.25, "q3": 2668.75}
    assert summary["change"]["attempted"]["median"] == 3135
    assert summary["ops_ratio"] == 3135 / 2612.5
    assert summary["parent"]["failed"] == summary["change"]["failed"] == 0
    assert summary["gate"]["twists_per_s"]["change_wins"] == "10/10"


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_bench(root, workload, trace):
        calls.append((root.name, workload, trace))
        return {"attempted": 1, "failed": 0}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    roots = {"parent": Path("parent"), "change": Path("change")}
    runs = bench_pairs.alternate(roots, "rescan", 1, bench_pairs.TRACED_PAIRS)
    assert [(r["pair"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent"), (3, "change")]
    assert calls == [(r["side"], "rescan", 1) for r in runs]


def test_traced_medians_read_each_metric_as_its_median():
    def traced(calls, self_s, attempted, failed):
        return {"correct": True, "attempted": attempted, "failed": failed,
                "metrics": {"gf2.kernel_basis.calls": {"value": calls, "unit": "count"},
                            "gf2.self_s": {"value": self_s, "unit": "s"}}}

    side = bench_pairs.traced_medians(
        [traced(3648, 0.0863, 7296, 0), traced(3648, 0.0715, 7300, 1),
         traced(3648, 0.0790, 7200, 0)])
    assert side == {"correct": True, "attempted": 7296, "failed": 1,
                    "metrics": {"gf2.kernel_basis.calls": {"value": 3648, "unit": "count"},
                                "gf2.self_s": {"value": 0.0790, "unit": "s"}}}


def checkout(tmp_path: Path, run_py: str) -> Path:
    """A git checkout holding the tool, BENCHMARK.json, src/mod.py and run_py as bench/run.py."""
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "bench").mkdir()
    (repo / "src").mkdir()
    shutil.copy(TOOL, repo / "tools")
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    (repo / "bench" / "run.py").write_text(run_py)
    (repo / "src" / "mod.py").write_text("VALUE = 1\n")
    env = {**os.environ, **GIT_ENV}
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "checkout"]):
        subprocess.run(["git", *argv], cwd=repo, env=env, check=True)
    return repo


REPORTING_RUN = """import json, sys
sys.path.insert(0, "src")
import mod
print(json.dumps({"value": mod.VALUE, "dont_write_bytecode": sys.flags.dont_write_bytecode}))
"""


def test_change_side_is_a_bytecode_free_export_of_the_tracked_files(tmp_path, monkeypatch):
    for name, value in GIT_ENV.items():
        monkeypatch.setenv(name, value)
    repo = checkout(tmp_path, REPORTING_RUN)
    tool = load(repo / "tools" / "bench_pairs.py")
    assert tool.worktree_ref() == "HEAD"
    head = tool.change_label()
    (repo / "src" / "mod.py").write_text("VALUE = 2\n")
    (repo / "src" / "untracked.py").write_text("")
    (repo / "src" / "__pycache__").mkdir()
    assert tool.change_label() == head + " with uncommitted changes"
    dest = tmp_path / "change"
    tool.export(tool.worktree_ref(), dest)
    assert sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*.py")) == [
        "bench/run.py", "src/mod.py", "tools/bench_pairs.py"]
    assert not list(dest.rglob("__pycache__"))
    assert tool.bench(dest, "scan", 0) == {"value": 2, "dont_write_bytecode": 1}
    assert not list(dest.rglob("__pycache__"))


@pytest.mark.parametrize("name", ["SIGTERM", "SIGINT"])
def test_stopped_run_ends_its_child_and_removes_its_exports(tmp_path, name):
    started = tmp_path / "started"
    repo = checkout(tmp_path, f"""import os, time
with open({str(started) + ".tmp"!r}, "w") as fh:
    fh.write(str(os.getpid()))
os.replace({str(started) + ".tmp"!r}, {str(started)!r})
time.sleep(60)
""")
    temp = tmp_path / "temp"
    temp.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "tools/bench_pairs.py", "--parent", "HEAD", "--out", "x.json"],
        cwd=repo, env={**os.environ, **GIT_ENV, "TMPDIR": str(temp)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not started.exists() and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
        child = int(started.read_text())
        assert list(temp.iterdir())
        proc.send_signal(signal.Signals[name])
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 1
        assert err == f"stopped by {name}\n"
        assert not list(temp.iterdir())
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        proc.kill()
        proc.wait()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
