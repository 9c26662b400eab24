"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "100 points certified"
    converged, distance = lines[2].split()
    assert converged == "True" and float(distance) < 1e-8
