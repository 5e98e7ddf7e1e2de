"""The README's Python API example runs, and each line that ends in a
``# <python literal>`` comment evaluates to that literal."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_block() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Python API"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def _split_comment(line: str) -> tuple[str, str | None]:
    """The code of one line and the text of its trailing comment, if any."""
    for token in tokenize.generate_tokens(io.StringIO(line).readline):
        if token.type == tokenize.COMMENT:
            return line[: token.start[1]].rstrip(), token.string[1:].strip()
    return line, None


def test_python_api_example_matches_its_comments():
    namespace: dict = {}
    compared = 0
    for line in _api_block():
        code, comment = _split_comment(line)
        try:
            expected = ast.literal_eval(comment) if comment else None
        except (ValueError, SyntaxError):
            comment = None  # prose, not a value
        if comment is None:
            exec(code, namespace)
            continue
        assert eval(code, namespace) == expected, line
        compared += 1
    assert compared >= 3
