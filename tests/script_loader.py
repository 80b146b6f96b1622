"""Run a file of the top-level ``scripts/`` directory in the test's own process."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """``scripts/<name>`` as a fresh module, so patches made in this process reach it."""
    path = SCRIPTS_DIR / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def script_stdout(command, monkeypatch, capsys):
    """``scripts/<command>``'s stdout; its ``main`` must return 0 and write no stderr."""
    name, *args = command.split()
    script = load_script(name)
    monkeypatch.setattr(sys, "argv", [script.__file__, *args])
    assert script.main() == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out
