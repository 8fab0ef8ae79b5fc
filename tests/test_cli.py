import json
import random

import pytest

import twoselmer.curve
import twoselmer.zarith
from twoselmer import cli
from twoselmer.cli import main
from twoselmer.local_descent import kummer_image
from twoselmer.padic import REAL_PLACE, parse_place
from twoselmer.selmer import duality_check


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    return json.loads(lines[-1])


def test_descent_base(capsys):
    code, out = run(capsys, "descent", "--curve=-1,0,1")
    assert code == 0
    doc = last_json(out)
    assert doc["dim"] == 2
    assert doc["sigma_prime"] == ["inf", "2"]
    assert doc["schema_version"] == 1


def test_descent_sign_mask(capsys):
    code, out = run(capsys, "descent", "--curve=-1,0,1", "--mask", "inf=sign")
    assert code == 0
    assert last_json(out)["dim"] == 1


def test_descent_twist(capsys):
    code, out = run(capsys, "descent", "--curve=-1,0,1", "--twist=17")
    assert code == 0
    assert last_json(out)["dim"] == 4


def test_descent_on_curves_past_the_corpus(capsys):
    # (-5^24, 0, 5^48 + 1): Sigma comes from the root differences, since rho
    # cannot split the discriminant within its budget
    curve = f"{-5**24},0,{5**48 + 1}"
    assert curve == "-59604644775390625,0,3552713678800500929355621337890626"
    code, _ = run(capsys, "descent", f"--curve={curve}", "--twist=1")
    assert code == 0
    # (0, 1, -3) with its roots scaled by 3^12 is the same curve: the sampler
    # climbs past the depth of the root differences at 3
    code, out = run(capsys, "descent", "--curve=0,531441,-1594323", "--twist=1")
    assert code == 0
    scaled = last_json(out)
    _, out = run(capsys, "descent", "--curve=0,1,-3", "--twist=1")
    base = last_json(out)
    assert (scaled["dim"], scaled["basis"]) == (base["dim"], base["basis"]) == (2, [[2, -1], [6, 3]])


def test_descent_twist_factors_d_once(capsys, monkeypatch):
    d = 1000000000039
    seen = []
    for module in (twoselmer.zarith, twoselmer.curve):
        def counting(n, _factorize=module.factorize):
            seen.append(n)
            return _factorize(n)

        monkeypatch.setattr(module, "factorize", counting)
    code, _ = run(capsys, "descent", "--curve=0,1,5", f"--twist={d}")
    assert code == 0
    assert seen.count(d) == 1


def test_descent_rejects_non_full_torsion(capsys):
    code = main(["descent", "--curve=[1,-128,0,-48,-4]"])
    assert code == 1
    err = capsys.readouterr().err
    assert "full 2-torsion" in err


def test_descent_usage_errors(capsys):
    assert main(["descent", "--curve=bogus"]) == 1
    capsys.readouterr()
    assert main(["descent", "--curve=-1,0,1", "--twist=12"]) == 1
    capsys.readouterr()
    assert main(["descent", "--curve=-1,0,1", "--twist=0"]) == 1
    capsys.readouterr()
    assert main(["descent", "--curve=-1,0,1", "--mask", "5"]) == 1
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["nosuch"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_keeps_no_state_between_calls(capsys):
    argv = ["descent", "--curve=-1,0,1", "--twist=17"]
    args = cli.build_parser.__wrapped__().parse_args(argv)
    assert cli.cmd_descent(args) == 0
    fresh = capsys.readouterr().out
    code, masked = run(capsys, *argv, "--mask", "inf=sign")
    assert code == 0 and "inf" in last_json(masked)["masks"]
    assert "inf" not in last_json(fresh)["masks"]
    assert run(capsys, *argv) == (0, fresh)
    # a usage error leaves nothing behind either
    assert main(["nosuch"]) == 1
    capsys.readouterr()
    assert run(capsys, *argv) == (0, fresh)


def test_main_looks_up_the_command_when_it_runs(capsys, monkeypatch):
    # a wrapper installed after the parser was cached is what runs
    cli.build_parser()
    seen = []

    def wrapped(args):
        seen.append(args.twist)
        return 0

    monkeypatch.setattr(cli, "cmd_descent", wrapped)
    assert main(["descent", "--curve=-1,0,1", "--twist=17"]) == 0
    assert seen == [17]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuch"], ["descent", "-h"], ["descent"],
    ["descent", "--curve=-1,0,1", "extra"], ["scan", "--curve=-1,0,1", "--bound=x"],
    ["verify", "nosuch"],
])
def test_main_parses_as_the_top_level_parser(capsys, argv):
    # main parses a known command with its subparser alone; every usage, help
    # and error text must stay the top-level parser's, byte for byte
    with pytest.raises(SystemExit) as exc:
        cli.build_parser.__wrapped__().parse_args(argv)
    want = (cli.EXIT_USAGE if exc.value.code else cli.EXIT_OK, *capsys.readouterr())
    assert (main(argv), *capsys.readouterr()) == want


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["descent", "--curve=-1,0,1", "--twist=17"]
    want = run(capsys, *argv)
    monkeypatch.setattr("sys.argv", ["twoselmer", *argv])
    assert (main(None), capsys.readouterr().out) == want
    monkeypatch.setattr("sys.argv", ["twoselmer", "nosuch"])
    assert main() == 1
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err


def test_scan_runs_the_module_level_scan_records(tmp_path, capsys, monkeypatch):
    # bench/scan_child.py times a scan by wrapping cli.scan_records
    import twoselmer.twist_lab

    seen = []

    def wrapped(*args, **kwargs):
        for rec in twoselmer.twist_lab.scan_records(*args, **kwargs):
            seen.append(rec.d)
            yield rec

    monkeypatch.setattr(cli, "scan_records", wrapped)
    assert main(["scan", "--curve=-1,0,1", "--bound=10", f"--out={tmp_path}"]) == 0
    capsys.readouterr()
    assert seen == [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10]


def test_real_place_is_spelled_inf(capsys, m101):
    code, out = run(capsys, "descent", "--curve=-1,0,1", "--mask", "inf=sign")
    doc = last_json(out)
    assert code == 0
    assert doc["sigma_prime"] == ["inf", "2"] and doc["masks"] == {"inf": [1]}
    _, report = duality_check(m101, frozenset({REAL_PLACE}))
    assert report["T"] == ["inf"]
    with pytest.raises(ValueError, match="^class 2 out of range at inf$"):
        kummer_image(m101, 2, REAL_PLACE)
    # -1 generates the square classes at inf, but it is no prime to name a place by
    with pytest.raises(ValueError, match="^-1 is not prime$"):
        parse_place("-1")
    assert main(["descent", "--curve=-1,0,1", "--mask=-1=3"]) == 1
    assert "-1 is not prime" in capsys.readouterr().err
    assert main(["descent", "--curve=-1,0,1", "--mask", "-1=3"]) == 1
    capsys.readouterr()


def test_scan_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["scan", "--curve=-1,0,1", "--bound=60", f"--out={out1}"]) == 0
    capsys.readouterr()
    assert main(["scan", "--curve=-1,0,1", "--bound=60", f"--out={out2}"]) == 0
    capsys.readouterr()
    rec1 = (out1 / "records.jsonl").read_bytes()
    assert rec1 == (out2 / "records.jsonl").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["t_hat"] == 2
    assert summary["parity_failures"] == 0
    records = [json.loads(ln) for ln in rec1.decode().splitlines()]
    assert [r["d"] for r in records[:4]] == [1, -1, 2, -2]
    for r in records:
        assert set(r) == {"d", "rank", "parity_lhs", "parity_rhs", "sigma_prime", "ms", "schema_version"}
        assert r["ms"] == 0  # deterministic default


def test_scan_resume(tmp_path, capsys):
    full = tmp_path / "full"
    assert main(["scan", "--curve=-1,0,1", "--bound=60", f"--out={full}"]) == 0
    capsys.readouterr()
    records = (full / "records.jsonl").read_bytes()
    lines = records.decode().splitlines()
    cases = {
        "clean": ("\n".join(lines[:31]) + "\n").encode(),
        # a crash mid-write leaves a last line without its newline
        "torn": records[:-20],
    }
    for name, kept in cases.items():
        part = tmp_path / name
        part.mkdir()
        (part / "scan.json").write_bytes((full / "scan.json").read_bytes())
        (part / "records.jsonl").write_bytes(kept)
        assert main(["scan", "--curve=-1,0,1", "--bound=60", f"--out={part}", "--resume"]) == 0
        capsys.readouterr()
        assert (part / "records.jsonl").read_bytes() == records, name
        assert (part / "summary.json").read_bytes() == (full / "summary.json").read_bytes(), name


def test_scan_resume_computes_only_the_appended_twists(tmp_path, capsys, monkeypatch):
    # a resume ran parity_check on every |d| and then skipped the finished ones
    import twoselmer.twist_lab

    out = tmp_path / "p"
    assert main(["scan", "--curve=0,1,5", "--bound=200", f"--out={out}"]) == 0
    capsys.readouterr()
    records = (out / "records.jsonl").read_bytes()
    torn = records[:-20]
    # the resume computes every twist after the last complete line
    complete = torn.count(b"\n")
    ds = [json.loads(ln)["d"] for ln in records.decode().splitlines()]
    appended = ds[complete:]
    (out / "records.jsonl").write_bytes(torn)

    calls = []
    parity_check = twoselmer.twist_lab.parity_check

    def counting(model, d):
        calls.append(d)
        return parity_check(model, d)

    monkeypatch.setattr(twoselmer.twist_lab, "parity_check", counting)
    assert main(["scan", "--curve=0,1,5", "--bound=200", f"--out={out}", "--resume"]) == 0
    capsys.readouterr()
    assert (out / "records.jsonl").read_bytes() == records
    assert calls == appended and 0 < len(calls) < len(ds)


def test_scan_resume_from_every_cut(tmp_path, capsys, monkeypatch):
    # n complete lines end on a d (n odd) or on a -d (n even), or the file is empty
    import twoselmer.twist_lab

    full = tmp_path / "full"
    argv = ["scan", "--curve=-1,0,1", "--bound=20"]
    assert main([*argv, f"--out={full}"]) == 0
    capsys.readouterr()
    records = (full / "records.jsonl").read_bytes()
    lines = records.splitlines(keepends=True)
    ds = [json.loads(ln)["d"] for ln in lines]
    cuts = {f"n={n}": (n, b"".join(lines[:n])) for n in range(len(lines) + 1)}
    cuts["torn"] = (len(lines) - 1, records[:-20])

    calls = []
    parity_check = twoselmer.twist_lab.parity_check

    def counting(model, d):
        calls.append(d)
        return parity_check(model, d)

    monkeypatch.setattr(twoselmer.twist_lab, "parity_check", counting)
    for name, (n, kept) in cuts.items():
        part = tmp_path / name
        part.mkdir()
        (part / "scan.json").write_bytes((full / "scan.json").read_bytes())
        (part / "records.jsonl").write_bytes(kept)
        calls.clear()
        assert main([*argv, f"--out={part}", "--resume"]) == 0
        capsys.readouterr()
        assert (part / "records.jsonl").read_bytes() == records, name
        assert (part / "summary.json").read_bytes() == (full / "summary.json").read_bytes(), name
        assert calls == ds[n:], name


def test_scan_resume_rejects_corrupt_line(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["scan", "--curve=-1,0,1", "--bound=5", f"--out={out}"]) == 0
    capsys.readouterr()
    (out / "records.jsonl").write_text('{"d": 1\n{"d": 2}\n')
    assert main(["scan", "--curve=-1,0,1", "--bound=5", f"--out={out}", "--resume"]) == 1
    assert "Expecting" in capsys.readouterr().err


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


NOT_RECORDS = [
    "{}",
    "[1]",
    '{"d": 11, "rank": 2, "parity_lhs": 0, "parity_rhs": 0, "sigma_prime": "3", "ms": 0}',
]


@pytest.mark.parametrize("line", NOT_RECORDS, ids=["empty", "list", "string-field"])
def test_scan_resume_rejects_line_that_is_no_record(tmp_path, capsys, line):
    # unchecked, a JSON line without the record keys ended in a KeyError traceback
    out = tmp_path / "k"
    assert main(["scan", "--curve=-1,0,1", "--bound=10", f"--out={out}"]) == 0
    with open(out / "records.jsonl", "a") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    before = snapshot(out)
    assert main(["scan", "--curve=-1,0,1", "--bound=10", f"--out={out}", "--resume"]) == 1
    assert capsys.readouterr().err.startswith("error: not a scan record")
    assert snapshot(out) == before


def test_scan_writes_manifest(tmp_path, capsys):
    out = tmp_path / "m"
    assert main(["scan", "--curve=0,5,1", "--bound=3", f"--out={out}"]) == 0
    capsys.readouterr()
    from twoselmer import __version__

    assert json.loads((out / "scan.json").read_text()) == {
        "curve": "0,1,5", "bound": 3, "schema_version": 1, "version": __version__,
    }


@pytest.mark.parametrize(
    "first, second",
    [
        # another curve: unchecked, resume exits 0 with 26 records of both curves
        (["--curve=-1,0,1", "--bound=20"], ["--curve=0,1,5", "--bound=20"]),
        # a smaller bound: unchecked, the summary counts 50 records instead of 14
        (["--curve=-1,0,1", "--bound=40"], ["--curve=-1,0,1", "--bound=10"]),
    ],
)
def test_scan_resume_rejects_other_arguments(tmp_path, capsys, first, second):
    out = tmp_path / "r"
    assert main(["scan", *first, f"--out={out}"]) == 0
    before = snapshot(out)
    assert main(["scan", *second, f"--out={out}", "--resume"]) == 1
    assert "cannot resume" in capsys.readouterr().err
    assert snapshot(out) == before


@pytest.mark.parametrize("case", ["duplicated", "missing"])
def test_scan_resume_rejects_records_not_the_scans_first_twists(tmp_path, capsys, case):
    # unchecked, the resume exits 0 with records_count 40 or 36 instead of 38
    out = tmp_path / "s"
    assert main(["scan", "--curve=0,1,5", "--bound=30", f"--out={out}"]) == 0
    capsys.readouterr()
    lines = (out / "records.jsonl").read_text().splitlines(keepends=True)
    # lines 4 and 5 are the block d = 3, -3
    kept = lines[:6] + lines[4:] if case == "duplicated" else lines[:4] + lines[6:]
    (out / "records.jsonl").write_text("".join(kept))
    before = snapshot(out)
    assert main(["scan", "--curve=0,1,5", "--bound=30", f"--out={out}", "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot resume: ") and "is not the scan's first" in err
    assert snapshot(out) == before


def test_scan_resume_requires_manifest(tmp_path, capsys):
    out = tmp_path / "n"
    assert main(["scan", "--curve=-1,0,1", "--bound=20", f"--out={out}"]) == 0
    (out / "scan.json").unlink()
    before = snapshot(out)
    assert main(["scan", "--curve=-1,0,1", "--bound=20", f"--out={out}", "--resume"]) == 1
    assert "cannot resume" in capsys.readouterr().err
    assert snapshot(out) == before


def test_scan_resume_keeps_records_on_write_error(tmp_path, capsys, monkeypatch):
    from twoselmer import cli

    out = tmp_path / "w"
    assert main(["scan", "--curve=-1,0,1", "--bound=20", f"--out={out}"]) == 0
    capsys.readouterr()
    before = snapshot(out)

    def failing(rec):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_record_line", failing)
    assert main(["scan", "--curve=-1,0,1", "--bound=20", f"--out={out}", "--resume"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert snapshot(out) == before


def test_scan_summary_sorts_ranks_past_nine_as_text(tmp_path, capsys, monkeypatch):
    # json.dumps(sort_keys=True) sorts int keys numerically but str keys as text
    import twoselmer.twist_lab

    ranks = {1: 2, -1: 3, 2: 10, -2: 10, 3: 11, -3: 2, 5: 2}

    def fixed(model, d):
        return twoselmer.twist_lab.TwistRecord(d, ranks.get(d, 3), 0, 0, 3, 0)

    monkeypatch.setattr(twoselmer.twist_lab, "parity_check", fixed)
    out = tmp_path / "h"
    assert main(["scan", "--curve=-1,0,1", "--bound=5", f"--out={out}"]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["rank_histogram"].items()) == [("10", 2), ("11", 1), ("2", 3), ("3", 2)]
    assert summary["gaps"] == [4, 5, 6, 7, 8, 9]


def test_scan_crash_keeps_flushed_lines(tmp_path, capsys, monkeypatch):
    import twoselmer.twist_lab
    from twoselmer.errors import BudgetExceeded

    full = tmp_path / "full"
    assert main(["scan", "--curve=-1,0,1", "--bound=60", f"--out={full}"]) == 0
    capsys.readouterr()

    k = 10
    calls = []
    parity_check = twoselmer.twist_lab.parity_check

    def crashing(model, d):
        calls.append(d)
        if len(calls) == k:
            raise BudgetExceeded("crash")
        return parity_check(model, d)

    monkeypatch.setattr(twoselmer.twist_lab, "parity_check", crashing)
    out = tmp_path / "crash"
    assert main(["scan", "--curve=-1,0,1", "--bound=60", f"--out={out}"]) == 3
    capsys.readouterr()
    assert len((out / "records.jsonl").read_text().splitlines()) == k - 1
    assert not (out / "summary.json").exists()

    monkeypatch.setattr(twoselmer.twist_lab, "parity_check", parity_check)
    assert main(["scan", "--curve=-1,0,1", "--bound=60", f"--out={out}", "--resume"]) == 0
    capsys.readouterr()
    for name in ("records.jsonl", "summary.json"):
        assert (out / name).read_bytes() == (full / name).read_bytes(), name


def test_scan_timing_is_a_usage_error(tmp_path, capsys):
    # scan.json names every argument that shapes a record, so a resume cannot mix records
    assert main(["scan", "--curve=-1,0,1", "--bound=5", f"--out={tmp_path}", "--timing"]) == 1
    assert "unrecognized arguments: --timing" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_scan_rank_below_two_is_a_soundness_alarm(tmp_path, capsys, monkeypatch):
    # Sel2(E^d) holds the image of E^d(Q)[2], of dimension 2; parity is kept
    import twoselmer.twist_lab

    def lowered(*args, **kwargs):
        for rec in twoselmer.twist_lab.scan_records(*args, **kwargs):
            yield rec._replace(rank=rec.rank - 2) if rec.d == 5 else rec

    monkeypatch.setattr(cli, "scan_records", lowered)
    assert main(["scan", "--curve=-1,0,1", "--bound=20", f"--out={tmp_path}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "soundness alarm: d=5 has 2-Selmer rank 1 < 2\n"
    assert captured.out == ""
    assert not (tmp_path / "summary.json").exists()


def test_scan_resume_alarms_on_a_kept_rank_below_two(tmp_path, capsys, monkeypatch):
    import twoselmer.twist_lab

    argv = ["scan", "--curve=-1,0,1", "--bound=20", f"--out={tmp_path}"]
    assert main(argv) == 0
    capsys.readouterr()
    lines = (tmp_path / "records.jsonl").read_text().splitlines(keepends=True)
    doc = json.loads(lines[6])
    assert (doc["d"], doc["rank"]) == (5, 3)
    lines[6] = lines[6].replace('"rank":3', '"rank":1')
    (tmp_path / "records.jsonl").write_text("".join(lines[:8]))
    (tmp_path / "summary.json").unlink()

    calls = []
    monkeypatch.setattr(twoselmer.twist_lab, "parity_check", lambda model, d: calls.append(d))
    assert main([*argv, "--resume"]) == 2
    assert capsys.readouterr().err == "soundness alarm: d=5 has 2-Selmer rank 1 < 2\n"
    assert calls == []
    assert not (tmp_path / "summary.json").exists()


def test_scan_bound_zero_usage_error(tmp_path, capsys):
    assert main(["scan", "--curve=-1,0,1", "--bound=0", f"--out={tmp_path/'z'}"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["parity", "duality", "isotropy", "ramhv", "babo"])
def test_verify_suites(capsys, suite):
    code, out = run(capsys, "verify", suite, "--curve=-1,0,1", "--trials=5", "--seed=1")
    assert code == 0
    doc = last_json(out)
    assert doc["passed"] == 5 and doc["failures"] == []


def test_verify_ramhv_checks_closed_form_against_sampler(capsys, monkeypatch):
    import twoselmer.local_descent

    # a wrong unramified closed form: (u, 1) and (1, p u) instead of (1, u)
    monkeypatch.setattr(twoselmer.local_descent, "_image_cache", {})
    monkeypatch.setattr(twoselmer.local_descent, "_UNRAMIFIED", (0b10, 0b11 << 2))
    code, out = run(capsys, "verify", "ramhv", "--curve=-1,0,1", "--trials=3", "--seed=1")
    assert code == 2
    doc = last_json(out)
    assert doc["passed"] == 0
    assert [f["closed_form"] for f in doc["failures"]] == [False] * 3


def test_random_good_prime_draws_every_good_prime_below_200():
    # the pool is the odd primes below 200 that divide no root difference, 3 included
    for roots in ((-1, 0, 1), (-7, 1, 20)):
        model = twoselmer.curve.FullTwoTorsionModel(roots)
        e1, e2, e3 = roots
        disc = (e2 - e1) * (e3 - e1) * (e3 - e2)
        good = {q for q in range(3, 200, 2) if all(q % r for r in range(3, q, 2)) and disc % q}
        rng = random.Random(7)
        assert {cli._random_good_prime(rng, model) for _ in range(2000)} == good, roots


def test_verify_ramhv_without_a_good_prime_is_a_usage_error(capsys):
    # Sigma holds every odd prime below 200, so ramhv has no prime to draw
    p = 1
    for q in range(3, 200, 2):
        if all(q % r for r in range(3, q, 2)):
            p *= q
    assert main(["verify", "ramhv", f"--curve=0,{p},{2 * p}", "--trials=2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: no good prime below 200 is left: Sigma of 0,{p},{2 * p} "
                            "holds every one\n")


def test_verify_rejects_nonpositive_trials(capsys):
    # unchecked, --trials 0 exits 0 having verified nothing and --trials -3 exits 2
    for trials in ("0", "-3"):
        assert main(["verify", "parity", "--curve=-1,0,1", f"--trials={trials}"]) == 1
        assert "--trials" in capsys.readouterr().err


def test_verify_unknown_suite(capsys, m101):
    assert main(["verify", "nosuch", "--curve=-1,0,1"]) == 1
    capsys.readouterr()
    # the parser rejects it first; the library call names it
    with pytest.raises(ValueError, match="^unknown suite 'nosuch'$"):
        cli.run_verify_suite(m101, "nosuch", 1, 0)


def test_search_inc2(capsys):
    code, out = run(capsys, "search", "inc2", "--curve=-1,0,1")
    assert code == 0
    doc = last_json(out)
    assert doc["q"] % 8 == 1 and (doc["r_before"], doc["r_after"]) == (2, 4)


def test_search_plus_one(capsys):
    code, out = run(capsys, "search", "plus-one", "--curve=-1,0,1")
    assert code == 0
    doc = last_json(out)
    assert doc["d"] < 0 and (doc["r_before"], doc["r_after"]) == (2, 3)
    assert doc["masked_rank"] == 1


def test_search_rejects_non_full_torsion(capsys):
    assert main(["search", "inc2", "--curve=[1,-128,0,-48,-4]"]) == 1
    capsys.readouterr()


def test_soundness_alarm_exits_2(capsys, monkeypatch):
    import twoselmer.cli
    import twoselmer.twist_lab
    from twoselmer.errors import SoundnessAlarm

    def alarm(*args, **kwargs):
        raise SoundnessAlarm("injected")

    monkeypatch.setattr(twoselmer.cli, "selmer_group", alarm)
    monkeypatch.setattr(twoselmer.twist_lab, "find_plus_one", alarm)
    for argv in (["descent", "--curve=-1,0,1"], ["search", "plus-one", "--curve=-1,0,1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "soundness alarm: injected\n"


def test_search_inc2_soundness_alarm_exits_2(capsys, monkeypatch):
    import twoselmer.twist_lab

    # a progression prime that does not raise the rank by 2 stops the search
    monkeypatch.setattr(twoselmer.twist_lab, "rank_of_twist", lambda model, d: 2)
    assert main(["search", "inc2", "--curve=-1,0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "soundness alarm: q=17 met all conditions but r went 2 -> 2\n"


def test_factoring_past_the_primality_bound_exits_3(capsys):
    # 2^89 - 1 is prime, but above the deterministic Miller-Rabin bound
    assert main(["descent", "--curve=-1,0,1", f"--twist={2**89 - 1}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exhausted: ") and "Miller-Rabin bound" in err


def test_search_budget_exhaustion_exit_code(capsys, monkeypatch):
    import twoselmer.twist_lab

    # inc2 checks its one progression prime; neither search takes a budget option
    code, out = run(capsys, "search", "inc2", "--curve=-1,0,1")
    assert code == 0 and last_json(out)["q"] == 17
    monkeypatch.setattr(twoselmer.twist_lab, "DEFAULT_PRIME_BUDGET", 2)
    assert main(["search", "plus-one", "--curve=-1,0,1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exhausted: character prime search budget exceeded\n"
    assert main(["search", "plus-one", "--curve=-1,0,1", "--budget=0"]) == 1
    capsys.readouterr()


def test_bound_command(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["scan", "--curve=-1,0,1", "--bound=60", f"--out={out}"]) == 0
    capsys.readouterr()
    code, text = run(capsys, "bound", "--summary", str(out / "summary.json"))
    assert code == 0
    doc = last_json(text)
    assert doc["n"] == 2 and doc["two_n_cap"] == 4 and doc["t_hat"] == 2
    assert all(doc["bound_checks"].values())


def test_descent_rejects_zero_denominator_in_curve(capsys):
    assert main(["descent", "--curve=[0,0,0,1/0,0]"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_descent_rejects_zero_denominator_in_mask(capsys):
    assert main(["descent", "--curve=-1,0,1", "--mask", "inf=2/0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3},
        [1, 2],
        # the three keys with other types: a TypeError and an AttributeError unchecked
        {"n": None, "t_hat": 2, "bound_checks": {}},
        {"n": 2, "t_hat": 2, "bound_checks": [1]},
        # a check that is not a boolean: unchecked, "no" counted as passed
        {"n": 2, "t_hat": 2, "bound_checks": {"t_hat_ge_2": "no"}},
    ],
)
def test_bound_rejects_malformed_summary(tmp_path, capsys, doc):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", "--summary", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value, product, bits", [
    ("trivial", "1", [0, 0]),
    # a/b has the class of ab
    ("2/3", "6", [0, 0]),
    ("2/5", "10", [1, 1]),
])
def test_descent_mask_values(capsys, value, product, bits):
    code, out = run(capsys, "descent", "--curve=0,1,5", "--mask", f"5={value}")
    assert code == 0
    assert last_json(out)["masks"] == {"5": bits}
    assert run(capsys, "descent", "--curve=0,1,5", "--mask", f"5={product}") == (0, out)


@pytest.mark.parametrize("argv, message", [
    (["--curve=-1,0,1", "--mask", "5=sign"], "'sign' only makes sense at inf"),
    (["--curve=[1,2,3"], "malformed long model: '[1,2,3'"),
    (["--curve=[1,2,3]"], "long model needs exactly [a1,a2,a3,a4,a6]"),
    (["--curve=1,2"], "full 2-torsion curve needs exactly e1,e2,e3"),
])
def test_descent_input_errors(capsys, argv, message):
    assert main(["descent", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scan_counts_parity_failures(tmp_path, capsys, monkeypatch):
    import twoselmer.twist_lab

    # one more at 2 flips the parity sum of each twist with a non-trivial class there
    h_v = twoselmer.twist_lab.h_v
    monkeypatch.setattr(twoselmer.twist_lab, "h_v", lambda m, c, v: h_v(m, c, v) + (v == 2))
    out = tmp_path / "s"
    code, text = run(capsys, "scan", "--curve=-1,0,1", "--bound=10", f"--out={out}")
    assert code == 2
    records = [json.loads(ln) for ln in (out / "records.jsonl").read_text().splitlines()]
    failed = sum(r["parity_lhs"] != r["parity_rhs"] for r in records)
    assert (len(records), failed) == (14, 12)
    summary = (out / "summary.json").read_text()
    assert summary == text
    assert json.loads(summary)["parity_failures"] == 12


def test_verify_duality_reports_a_counterexample(capsys, monkeypatch, m101):
    import twoselmer.selmer

    # a pairing that is 1 everywhere breaks orthogonality for every odd-sized T
    monkeypatch.setattr(twoselmer.selmer, "local_pairing", lambda v, a, b: 1)
    ok, report = duality_check(m101, frozenset({5}))
    assert not ok and report["gap_ok"] and not report["orthogonal"]
    assert report["counterexample"] == {"x": [2, 1], "y": [2, 1]}
    code, out = run(capsys, "verify", "duality", "--curve=-1,0,1", "--trials=4", "--seed=1")
    assert code == 2
    doc = last_json(out)
    assert doc["passed"] == 2
    assert [(f["T"], f["counterexample"]) for f in doc["failures"]] == [
        (["inf"], {"x": [2, 1], "y": [2, 1]}),
        (["13"], {"x": [2, 1], "y": [2, 1]}),
    ]
