"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    closed, mean, std_error = map(float, capsys.readouterr().out.split())
    assert 0.0 < closed < 1.0
    assert abs(mean - closed) <= 3.0 * std_error
