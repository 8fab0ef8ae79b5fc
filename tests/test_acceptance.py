"""Acceptance gate: the twelve release criteria, each reported as a PASS/FAIL line.

The expensive computations run once in a session fixture; criterion 12 re-runs
the whole pipeline from a cold cache and demands byte-identical output.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from twoselmer.cli import main
from twoselmer.curve import FullTwoTorsionModel, sigma_set
from twoselmer.local_descent import (
    _image_cache,
    clear_image_cache,
    h_v,
    kummer_image,
)
from twoselmer.padic import REAL_PLACE, _name, _width, local_class, local_pairing
from twoselmer.selmer import collapse_masks, duality_check, selmer_group
from twoselmer.twist_lab import find_inc2, scan_records, summarize

CORPUS = [(-1, 0, 1), (0, 1, 2), (0, 1, 5)]
SIGN = 1  # the nontrivial class at the real place
SCAN_BOUND = 5000
SEED = 2026


def cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    lines = [ln for ln in buf.getvalue().strip().splitlines() if ln]
    return code, json.loads(lines[-1]) if lines else None


def is_local_square(r, place):
    return local_class(r, place) == 0


def bruteforce_base_oracle():
    """Exhaustive local check of all 16 pairs (d1,d2) over {±1,±2}² for (-1,0,1).

    A pair lies in the 2-Selmer group iff the torsor
    d1 w1² = x+1, d2 w2² = x, d1 d2 w3² = x-1 has points over R and Q_2;
    local points are found by direct search over rational sample points.
    """
    roots = (-1, 0, 1)
    real_xs = [Fraction(-2), Fraction(-1, 2), Fraction(1, 2), Fraction(2)]
    two_xs = []
    for a in range(-256, 257):
        two_xs.append(Fraction(a))
        for j in (1, 2, 3):
            two_xs.append(Fraction(a, 4**j))

    def solvable(place, xs, d1, d2):
        for x in xs:
            if x in (-1, 0, 1):
                continue
            if (
                is_local_square((x + 1) / d1, place)
                and is_local_square(x / d2, place)
                and is_local_square((x - 1) / (d1 * d2), place)
            ):
                return True
        return False

    found = set()
    for d1 in (1, -1, 2, -2):
        for d2 in (1, -1, 2, -2):
            if solvable(REAL_PLACE, real_xs, d1, d2) and solvable(
                2, two_xs, d1, d2
            ):
                found.add((d1, d2))
    return found


def span_of_selmer_basis(result):
    from twoselmer.zarith import squarefree_value

    vals = {(1, 1)}
    for a, b in result.basis_values():
        vals |= {(squarefree_value(x * a), squarefree_value(y * b)) for x, y in vals}
    return vals


def enumerate_span(rows):
    out = {0}
    for r in rows:
        out |= {x ^ r for x in out}
    return out


def run_pipeline():
    """Criteria 1-11 from a cold cache; returns (deterministic outputs, timings)."""
    clear_image_cache()
    out = {}
    timings = {}

    # --- criterion 1: base descent vs brute-force oracle -------------------
    t0 = time.monotonic()
    code, doc = cli("descent", "--curve=-1,0,1")
    timings["c1_s"] = time.monotonic() - t0
    oracle = bruteforce_base_oracle()
    result = selmer_group(FullTwoTorsionModel((-1, 0, 1)), {})
    out["c1"] = {
        "cli_exit": code,
        "cli_dim": doc["dim"] if doc else None,
        "oracle_pairs": sorted(oracle),
        "engine_pairs": sorted(span_of_selmer_basis(result)),
    }

    # --- criterion 2: parity scans over the corpus -------------------------
    t0 = time.monotonic()
    scans = {}
    for roots in CORPUS:
        m = FullTwoTorsionModel(roots)
        scans[roots] = list(scan_records(m, SCAN_BOUND))
    timings["c2_s"] = time.monotonic() - t0
    out["c2"] = {
        str(roots): {
            "records": len(recs),
            "parity_failures": sum(1 for r in recs if not r.parity_ok),
        }
        for roots, recs in scans.items()
    }

    # --- criterion 3: Poitou-Tate duality on seeded random T ---------------
    rng = random.Random(SEED)
    duality = {"trials": 0, "passed": 0, "failures": []}
    for i in range(50):
        m = FullTwoTorsionModel(CORPUS[i % 3])
        pool = list(sigma_set(m)) + [
            p
            for p in (3, 5, 7, 11, 13, 17)
            if p not in sigma_set(m)
        ]
        T = frozenset(rng.sample(pool, rng.randint(0, 2)))
        ok, rep = duality_check(m, T)
        duality["trials"] += 1
        if ok:
            duality["passed"] += 1
        else:
            duality["failures"].append(rep)
    out["c3"] = duality

    # --- criterion 4: isotropy + half dimension of every cached image ------
    checked = 0
    bad = []
    for (roots, place, c), img in sorted(
        _image_cache.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
    ):
        checked += 1
        iso = all(local_pairing(place, a, b) == 0 for a in img for b in img)
        half = 2 * len(img) == 2 * _width(place)
        if not (iso and half):
            bits = [(c >> i) & 1 for i in range(_width(place))]
            bad.append({"roots": roots, "place": _name(place), "bits": bits})
    out["c4"] = {"images_checked": checked, "violations": bad}

    # --- criterion 5: Lemma ramhv on seeded random ramified classes --------
    rng = random.Random(SEED + 1)
    ramhv = {"trials": 0, "passed": 0, "failures": []}
    for roots in CORPUS:
        m = FullTwoTorsionModel(roots)
        bad_p = sigma_set(m)
        primes = [p for p in range(3, 200) if p not in bad_p and is_prime_(p)]
        for _ in range(20):
            q = rng.choice(primes)
            place = q
            cls = 1 | rng.randint(0, 1) << 1
            a1 = kummer_image(m, 0, place)
            ax = kummer_image(m, cls, place)
            inter = enumerate_span(a1) & enumerate_span(ax)
            h = h_v(m, cls, place)
            ramhv["trials"] += 1
            if h == 2 and inter == {0}:
                ramhv["passed"] += 1
            else:
                ramhv["failures"].append({"roots": roots, "q": q, "h": h})
    out["c5"] = ramhv

    # --- criterion 6: h_inf(sign) = 1 --------------------------------------
    out["c6"] = {
        str(roots): h_v(FullTwoTorsionModel(roots), SIGN, REAL_PLACE) for roots in CORPUS
    }

    # --- criterion 7: inc2 witness and the chain to rank 6 -----------------
    t0 = time.monotonic()
    code7, w1 = cli("search", "inc2", "--curve=-1,0,1")
    m101 = FullTwoTorsionModel((-1, 0, 1))
    w2 = find_inc2(FullTwoTorsionModel(tuple(w1["q"] * e for e in m101.roots)))
    timings["c7_s"] = time.monotonic() - t0
    out["c7"] = {
        "cli_exit": code7,
        "q1": w1["q"],
        "ranks1": [w1["r_before"], w1["r_after"]],
        "q2": w2["q"],
        "ranks2": [w2["r_before"], w2["r_after"]],
    }

    # --- criterion 8: plus-one witness -------------------------------------
    code8, w = cli("search", "plus-one", "--curve=-1,0,1")
    out["c8"] = {
        "cli_exit": code8,
        "d": w["d"],
        "ranks": [w["r_before"], w["r_after"]],
        "masked_rank": w["masked_rank"],
    }

    # --- criterion 9: bounds at B = 2000 -----------------------------------
    c9 = {}
    for roots in CORPUS:
        m = FullTwoTorsionModel(roots)
        recs = [r for r in scans[roots] if abs(r.d) <= 2000]
        summary = summarize(m, 2000, recs)
        n = len(sigma_set(m))
        masked_ranks = []
        for v in sigma_set(m):
            for bits in range(1, 1 << _width(v)):
                dim = selmer_group(m, {v: bits}).dim
                masked_ranks.append({"place": _name(v), "bits": bits, "dim": dim})
        c9[str(roots)] = {
            "t_hat": summary["t_hat"],
            "n": n,
            "t_hat_in_range": 2 <= summary["t_hat"] <= n,
            "masked_ranks": masked_ranks,
            "all_le_2n": all(r["dim"] <= 2 * n for r in masked_ranks),
        }
    out["c9"] = c9

    # --- criterion 10: collapse by exactly 2k ------------------------------
    witness = None
    for rec in scans[(-1, 0, 1)]:
        if rec.d <= 0:
            continue
        tm = FullTwoTorsionModel(tuple(rec.d * e for e in m101.roots))
        n_prime = len(sigma_set(tm))
        k = rec.rank - n_prime
        if k >= 2:
            witness = (rec.d, rec.rank, n_prime, k)
            break
    d10, rank10, n10, k10 = witness
    tm = FullTwoTorsionModel(tuple(d10 * e for e in m101.roots))
    masks = collapse_masks(tm)
    collapsed = selmer_group(tm, {w: c for w, c in masks}, verify=True).dim
    out["c10"] = {
        "d": d10,
        "rank": rank10,
        "n_prime": n10,
        "k": k10,
        "mask_primes": [w for w, _ in masks],
        "collapsed_dim": collapsed,
        "drop": rank10 - collapsed,
    }

    # --- criterion 11: A_E parity coverage for (-1,0,1) at B = 2000 --------
    recs = [r for r in scans[(-1, 0, 1)] if abs(r.d) <= 2000]
    summary = summarize(m101, 2000, recs)
    hist = {int(r): count for r, count in summary["rank_histogram"].items()}
    parities = sorted({r % 2 for r in hist})
    missing = [
        r
        for parity in parities
        for r in range(summary["t_hat"], summary["r_max"] + 1)
        if r % 2 == parity and r not in hist
    ]
    out["c11"] = {
        "histogram": {str(k): v for k, v in hist.items()},
        "t_hat": summary["t_hat"],
        "r_max": summary["r_max"],
        "parities_observed": parities,
        "missing_by_parity": missing,
        "gaps": summary["gaps"],
    }

    return out, timings


def is_prime_(p):
    from twoselmer.zarith import is_prime

    return is_prime(p)


@pytest.fixture(scope="module")
def pipeline():
    return run_pipeline()


def report(capsys, criterion, ok, message):
    with capsys.disabled():
        print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {criterion}: {message}"


def test_criterion_1_base_descent(pipeline, capsys):
    out, timings = pipeline
    c = out["c1"]
    ok = (
        c["cli_exit"] == 0
        and c["cli_dim"] == 2
        and len(c["oracle_pairs"]) == 4
        and c["oracle_pairs"] == c["engine_pairs"]
    )
    report(
        capsys, 1, ok,
        f"descent dim {c['cli_dim']} matches brute-force oracle "
        f"({len(c['oracle_pairs'])} elements) in {timings['c1_s']:.2f}s",
    )


def test_criterion_2_parity(pipeline, capsys):
    out, timings = pipeline
    failures = sum(v["parity_failures"] for v in out["c2"].values())
    records = sum(v["records"] for v in out["c2"].values())
    ok = failures == 0 and timings["c2_s"] < 300
    report(
        capsys, 2, ok,
        f"parity exact on {records} twists of 3 curves (|d| <= {SCAN_BOUND}), "
        f"{failures} failures, {timings['c2_s']:.1f}s",
    )


def test_criterion_3_duality(pipeline, capsys):
    out, _ = pipeline
    c = out["c3"]
    ok = c["passed"] == c["trials"] == 50
    report(capsys, 3, ok, f"Poitou-Tate identity + orthogonality on {c['passed']}/{c['trials']} random T")


def test_criterion_4_local_structure(pipeline, capsys):
    out, _ = pipeline
    c = out["c4"]
    ok = c["images_checked"] > 0 and not c["violations"]
    report(
        capsys, 4, ok,
        f"isotropy + half dimension on {c['images_checked']} local images, "
        f"{len(c['violations'])} violations",
    )


def test_criterion_5_ramhv(pipeline, capsys):
    out, _ = pipeline
    c = out["c5"]
    ok = c["passed"] == c["trials"] == 60
    report(capsys, 5, ok, f"ramified good primes: intersection 0 and h=2 on {c['passed']}/{c['trials']}")


def test_criterion_6_real_place(pipeline, capsys):
    out, _ = pipeline
    ok = all(h == 1 for h in out["c6"].values())
    report(capsys, 6, ok, f"h_inf(sign) = {sorted(set(out['c6'].values()))} for all corpus curves")


def test_criterion_7_inc2(pipeline, capsys):
    out, timings = pipeline
    c = out["c7"]
    ok = (
        c["cli_exit"] == 0
        and c["ranks1"] == [2, 4]
        and c["ranks2"] == [4, 6]
        and timings["c7_s"] < 120
    )
    report(
        capsys, 7, ok,
        f"inc2 witnesses q={c['q1']} (2->4), q={c['q2']} (4->6) in {timings['c7_s']:.1f}s",
    )


def test_criterion_8_plus_one(pipeline, capsys):
    out, _ = pipeline
    c = out["c8"]
    ok = c["cli_exit"] == 0 and c["d"] < 0 and c["ranks"] == [2, 3] and c["masked_rank"] == 1
    report(capsys, 8, ok, f"plus-one witness d={c['d']} (2->3), sign-masked rank 1")


def test_criterion_9_bounds(pipeline, capsys):
    out, _ = pipeline
    ok = all(c["t_hat_in_range"] and c["all_le_2n"] for c in out["c9"].values())
    detail = ", ".join(
        f"{roots}: t_hat={c['t_hat']} n={c['n']}" for roots, c in out["c9"].items()
    )
    report(capsys, 9, ok, f"t_hat in [2,n] and masked ranks <= 2n ({detail})")


def test_criterion_10_collapse(pipeline, capsys):
    out, _ = pipeline
    c = out["c10"]
    ok = c["k"] >= 2 and c["drop"] == 2 * c["k"]
    report(
        capsys, 10, ok,
        f"twist d={c['d']} rank {c['rank']} = n'+k ({c['n_prime']}+{c['k']}); "
        f"masks at {c['mask_primes']} drop dim by {c['drop']} = 2k",
    )


def test_criterion_11_density(pipeline, capsys):
    out, _ = pipeline
    c = out["c11"]
    # non-fatal by contract: gaps are reported, only full parity coverage within
    # the observed range is asserted
    ok = not c["missing_by_parity"]
    report(
        capsys, 11, ok,
        f"ranks {sorted(int(k) for k in c['histogram'])} cover [t_hat,r_max]="
        f"[{c['t_hat']},{c['r_max']}] in both parities; gaps={c['gaps']} (reported)",
    )


def test_criterion_12_determinism(pipeline, capsys):
    out1, _ = pipeline
    out2, _ = run_pipeline()
    blob1 = json.dumps(out1, sort_keys=True)
    blob2 = json.dumps(out2, sort_keys=True)
    ok = blob1 == blob2
    report(capsys, 12, ok, f"criteria 1-11 rerun byte-identical ({len(blob1)} bytes)")
