"""``tools/ab_inprocess.py``: two copies of ``src`` imported side by side, run A/A on a
few benchmark queries and a tiny rescan, and a difference between the sides caught."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inprocess.py"


def load(path: Path):
    spec = importlib.util.spec_from_file_location("ab_inprocess", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load(TOOL)


@pytest.fixture(scope="module")
def sides(tmp_path_factory):
    loaded = []
    for name in ("test_a", "test_b"):
        src = tmp_path_factory.mktemp(name) / "src"
        shutil.copytree(ROOT / "src" / "twoselmer", src / "twoselmer",
                        ignore=shutil.ignore_patterns("__pycache__"))
        loaded.append(ab.load_side(name, src))
    yield loaded
    for name in [m for m in sys.modules if m.startswith(("twoselmer_test_a", "twoselmer_test_b"))]:
        del sys.modules[name]


@pytest.fixture(scope="module")
def bench():
    return ab.load_bench()


def test_sides_are_separate_packages(sides):
    a, b = sides
    assert a.cli.__name__ == "twoselmer_test_a.cli"
    assert b.cli.__name__ == "twoselmer_test_b.cli"
    assert a.local_descent._image_cache is not b.local_descent._image_cache


def test_query_a_a_outputs_agree(sides, bench):
    queries = bench.query_list(json.loads(bench.GOLDEN.read_text()), 1)[:6]
    result = ab.query_ab(sides, queries, bench.CURVES, cycles=2)
    assert result["mismatches"] == 0
    assert result["test_a"]["ops"] == result["test_b"]["ops"] == 12
    assert set(result["ratio"]) == {"mean_ms", "p50_ms", "p90_ms"}


def test_rescan_a_a_outputs_agree(sides, bench):
    result = ab.rescan_ab(sides, bench.CURVES, bench.TINY_BOUND, cycles=1)
    assert result["mismatches"] == 0
    assert result["test_a"]["ops"] == result["test_b"]["ops"] > 0


def test_a_differing_output_is_a_mismatch(sides, bench, monkeypatch):
    queries = bench.query_list(json.loads(bench.GOLDEN.read_text()), 1)[:3]
    monkeypatch.setattr(sides[1].cli, "_dump", lambda obj: "{}")
    result = ab.query_ab(sides, queries, bench.CURVES, cycles=1)
    assert result["mismatches"] == 3
