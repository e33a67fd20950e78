"""The README's library quickstart runs as written and prints what its
comments say."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs(capsys) -> None:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "variation.negativity pass" in out
    # `print(...)  # value (remark)`: the quickstart opens with two such
    # lines, and each must print exactly the value its comment quotes.
    quoted = [c.split(" (")[0] for c in re.findall(r"^print\(.*?\)[ \t]+# (.*)$", blocks[0], re.M)]
    assert len(quoted) == 2
    assert out.splitlines()[:2] == quoted
