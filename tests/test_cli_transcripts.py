"""The CLI transcript corpus: every recorded run replays byte for byte.

``tests/cli_transcripts.json`` is written by ``tools/record_cli_transcripts.py``.
Each entry's argv runs through ``cli.main`` in-process, in a directory holding
only the entry's input files, and must give the recorded exit code, stdout,
stderr and files.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = ROOT / "tests" / "cli_transcripts.json"


def load_recorder():
    spec = importlib.util.spec_from_file_location(
        "record_cli_transcripts", ROOT / "tools" / "record_cli_transcripts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_transcripts_replay():
    transcribe = load_recorder().transcribe
    entries = json.loads(TRANSCRIPTS.read_text())
    assert len(entries) == 48
    for entry in entries:
        assert transcribe(entry["argv"], entry["inputs"]) == entry, entry["argv"]
