import json

import pytest

import twoselmer.curve
import twoselmer.zarith
from twoselmer.cli import main


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


def test_scan_bound_zero_usage_error(tmp_path, capsys):
    assert main(["scan", "--curve=-1,0,1", "--bound=0", f"--out={tmp_path/'z'}"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["parity", "duality", "isotropy", "ramhv", "babo"])
def test_verify_suites(capsys, suite):
    code, out = run(capsys, "verify", suite, "--curve=-1,0,1", "--trials=5", "--seed=1")
    assert code == 0
    doc = last_json(out)
    assert doc["passed"] == 5 and doc["failures"] == []


def test_verify_rejects_nonpositive_trials(capsys):
    # unchecked, --trials 0 exits 0 having verified nothing and --trials -3 exits 2
    for trials in ("0", "-3"):
        assert main(["verify", "parity", "--curve=-1,0,1", f"--trials={trials}"]) == 1
        assert "--trials" in capsys.readouterr().err


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nosuch", "--curve=-1,0,1"]) == 1
    capsys.readouterr()


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


def test_search_budget_exhaustion_exit_code(capsys):
    code, out = run(capsys, "search", "inc2", "--curve=-1,0,1", "--budget=0")
    assert code == 3


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
