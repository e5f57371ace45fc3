"""The README's library quickstart runs as written, so a renamed public
name cannot break it unnoticed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out
