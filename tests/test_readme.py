"""The README's Library snippet runs and prints what its comments say."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    tokens = tokenize.generate_tokens(io.StringIO(block).readline)
    comments = {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        try:
            expected = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            exec(code, namespace)  # no literal to compare: run it for its effect
            continue
        assert eval(code, namespace) == expected, code
        checked += 1
    assert checked
