"""The claim rule of ``tools/bench_pairs.py``'s ``gate`` and its op counts, fed synthetic runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

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
