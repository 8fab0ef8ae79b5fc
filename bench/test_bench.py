"""Tests of the benchmark itself, on tiny inputs (bound 30, 10 queries).

Run with: python3 -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--tiny", "--seed", "3", "--seconds", "0.5", *extra],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_runner():
    assert {w["name"] for w in DECLARED["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    rc, result = bench("--workload", workload, "--trace", trace)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "1":
        misses = result["metrics"]["local_descent.kummer_image.misses"]["value"]
        if workload == "rescan":
            assert misses == 0
        else:
            assert misses > 0


def test_tampered_golden_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    golden = json.loads(run.GOLDEN.read_text())
    golden["scan"]["0,1,2"][str(run.TINY_BOUND)]["records_sha256"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", path)
    rc = run.main(["--tiny", "--workload", "rescan", "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] > 0


def test_wrong_dim_is_a_failed_op(monkeypatch, capsys):
    pkg = run.load_package()
    original = pkg.cli.selmer_group

    def off_by_one(*args, **kwargs):
        result = original(*args, **kwargs)
        result.dim += 1
        return result

    monkeypatch.setattr(pkg.cli, "selmer_group", off_by_one)
    rc = run.main(["--tiny", "--workload", "query", "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("yielded, failed, attempted", [
    (lambda recs: recs[:-2], 2, 5),           # twists dropped
    (lambda recs: recs + recs[-1:], 1, 6),    # a twist duplicated
    (lambda recs: recs[1::-1] + recs[2:], 2, 5),  # two twists swapped
])
def test_rescan_pass_counts_missing_and_extra_twists(yielded, failed, attempted):
    expected = [("rec", i) for i in range(5)]
    pkg = types.SimpleNamespace(
        twist_lab=types.SimpleNamespace(scan_records=lambda model, bound: iter(yielded(expected))),
        op_errors=(),
    )
    out = run.Outcome()
    run.rescan_pass(pkg, None, 5, expected, len(expected), out)
    assert (out.failed, out.ops) == (failed, attempted)
