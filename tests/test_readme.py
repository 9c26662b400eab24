"""The README's library quick start and command-line example run as written."""

import re
from pathlib import Path

from psdlandscape.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, lang: str) -> str:
    text = README.read_text().split(f"## {section}", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def test_library_quick_start_runs(capsys):
    code = _block("Library quick start", "python")
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "100 points certified"
    converged, distance = lines[2].split()
    assert converged == "True" and float(distance) < 1e-8


def test_command_line_example_runs(tmp_path):
    # each command of the example, on its config, writes under tmp_path
    (tmp_path / "cfg.json").write_text(_block("Command line", "json"))
    commands = _block("Command line", "sh").splitlines()
    assert len(commands) == 4
    for line in commands:
        prog, *argv = line.split("#")[0].split()
        assert prog == "psdlandscape"
        argv = [str(tmp_path / a) if a == "cfg.json" else a for a in argv]
        assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    written = {"instance.json", "scan_report.csv", "thresholds.json", "trajectory.csv",
               "final_report.json", "verify_norm-sandwich.json"}
    assert written <= {path.name for path in tmp_path.iterdir()}
