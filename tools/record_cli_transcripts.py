"""Record ``tests/cli_transcripts.json``: the bytes of a fixed set of CLI runs.

Usage: python3 tools/record_cli_transcripts.py

Each entry runs ``twoselmer.cli.main(argv)`` in-process, from this
checkout's ``src``, in an empty temporary directory that holds only the
entry's input files.  The file stores the argv, the input files, the exit
code, stdout, stderr and every file the directory holds afterwards, all as
text, so a failing replay (``tests/test_cli_transcripts.py``) shows the
bytes that changed.  argparse's usage texts stay out: they vary between
Python versions, and ``tests/test_cli.py`` compares them with the live parser.

Re-recording is a test-data change: record from the commit whose outputs the
corpus pins, and name the entries that moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "cli_transcripts.json"

DEEP = f"{-5**24},0,{5**48 + 1}"
SCANNED = ("-1,0,1", "0,1,2", "0,1,5", "-7,1,20")
# the odd primes below 200: Sigma of (0, P, 2P) leaves verify ramhv no good prime
ODD_PRIMORIAL = prod(q for q in range(3, 200, 2) if all(q % r for r in range(3, q, 2)))
# odd, so the kept prefix ends on a d and the resume starts at its -d
RESUME_LINES = 301

PLAIN = [
    ["descent", "--curve=-1,0,1"],
    ["descent", "--curve=0,1,5"],
    ["descent", "--curve=[0,0,0,-1,0]"],
    ["descent", "--curve=[0,0,0,-1/4,0]"],
    ["descent", "--curve=-1,0,1", "--mask", "inf=sign", "--mask", "5=2/3"],
    ["descent", "--curve=0,1,2", "--mask=2=trivial", "--mask=3=3"],
    ["descent", "--curve=-1,0,1", "--twist=17"],
    ["descent", "--curve=0,1,5", "--twist=-105"],
    ["descent", "--curve=0,1,5", "--twist=1000000000039"],
    ["descent", f"--curve={DEEP}"],
    ["descent", "--curve=0,531441,-1594323"],
    ["verify", "parity"],
    ["verify", "duality", "--curve=0,1,5", "--trials=20", "--seed=2"],
    ["verify", "isotropy", "--curve=-7,1,20", "--trials=20"],
    ["verify", "babo", "--curve=0,4,9", "--trials=20", "--seed=1"],
    ["verify", "ramhv", "--trials=20"],
    ["verify", "ramhv", "--curve=0,1,5", "--trials=20", "--seed=3"],
    ["verify", "ramhv", "--curve=-3,0,3", "--trials=20", "--seed=4"],
    ["search", "inc2", "--curve=-1,0,1"],
    ["search", "inc2", "--curve=0,4,9"],
    ["search", "plus-one", "--curve=-1,0,1"],
    ["search", "plus-one", "--curve=0,1,2"],
    ["search", "plus-one", "--curve=0,1,5"],
    *(["scan", f"--curve={curve}", "--bound=1000", "--out=out"] for curve in SCANNED),
    # rejected inputs, and the edges of verify ramhv's good-prime draw
    ["descent", "--curve=bogus"],
    ["descent", "--curve=[1,-128,0,-48,-4]"],
    ["descent", "--curve=-1,0,1", "--twist=12"],
    ["descent", "--curve=-1,0,1", "--twist=0"],
    ["descent", "--curve=-1,0,1", "--mask", "5"],
    ["descent", "--curve=-1,0,1", "--mask=-1=3"],
    ["descent", "--curve=-1,0,1", "--mask=5=sign"],
    ["descent", "--curve=-1,0,1", f"--twist={2**89 - 1}"],
    ["verify", "parity", "--trials=0"],
    ["verify", "ramhv", f"--curve=0,{ODD_PRIMORIAL},{2 * ODD_PRIMORIAL}", "--trials=2"],
    # 3 is the one good prime below 200 left, so every trial draws it
    ["verify", "ramhv", f"--curve=0,{ODD_PRIMORIAL // 3},{2 * ODD_PRIMORIAL // 3}", "--trials=2"],
    ["search", "inc2", "--curve=[1,-128,0,-48,-4]"],
    ["scan", "--curve=-1,0,1", "--bound=0", "--out=out"],
    ["bound", "--summary=missing.json"],
]


def transcribe(argv: list[str], inputs: dict[str, str]) -> dict:
    """One in-process run of ``cli.main(argv)`` in a directory holding ``inputs``."""
    from twoselmer import cli  # at the call: main puts this checkout's src on the path first

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            path = Path(tmp, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        files = {p.relative_to(tmp).as_posix(): p.read_bytes().decode()
                 for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
    return {"argv": argv, "inputs": inputs, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


def record() -> list[dict]:
    entries = [transcribe(argv, {}) for argv in PLAIN]
    scans = {e["argv"][1]: e["files"] for e in entries if e["argv"][0] == "scan" and not e["exit"]}
    scan = scans["--curve=-1,0,1"]
    lines = scan["out/records.jsonl"].splitlines(keepends=True)
    resume = ["scan", "--curve=-1,0,1", "--bound=1000", "--out=out", "--resume"]
    summary = scans["--curve=0,1,5"]["out/summary.json"]
    failing = json.loads(summary)
    failing["bound_checks"]["t_hat_le_n"] = False
    more = [
        (resume, {"out/scan.json": scan["out/scan.json"],
                  "out/records.jsonl": "".join(lines[:RESUME_LINES])}),
        # the prefix skips a twist, so it is not the scan's first lines
        (resume, {"out/scan.json": scan["out/scan.json"],
                  "out/records.jsonl": "".join(lines[:4] + lines[5:8])}),
        (resume, {"out/records.jsonl": "".join(lines[:3])}),
        (["scan", "--curve=0,1,5", "--bound=1000", "--out=out", "--resume"],
         {"out/scan.json": scan["out/scan.json"], "out/records.jsonl": "".join(lines[:3])}),
        (["bound", "--summary=out/summary.json"], {"out/summary.json": summary}),
        (["bound", "--summary=out/summary.json"], {"out/summary.json": json.dumps(failing)}),
        (["bound", "--summary=out/records.jsonl"],
         {"out/records.jsonl": "".join(lines[:2])}),
    ]
    return entries + [transcribe(argv, inputs) for argv, inputs in more]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    entries = record()
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} entries, {OUT.stat().st_size} bytes -> {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
