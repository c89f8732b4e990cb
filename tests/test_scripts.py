"""Every script under scripts/ imports, and find_pingpong_power certifies
the Jordan ping-pong data bundled in jordan_diag.json."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _import(path, monkeypatch):
    """Import a script as a module, writing no bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.stem)
def test_script_imports(path, monkeypatch):
    before = sorted(SCRIPTS.iterdir())
    assert callable(_import(path, monkeypatch).main)
    assert sorted(SCRIPTS.iterdir()) == before


def test_find_pingpong_power_passes_at_the_bundled_point(monkeypatch, capsys):
    script = _import(SCRIPTS / "find_pingpong_power.py", monkeypatch)
    script.main(["--powers", "24", "--radii", "0.25"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k= 24 radius=0.25 eps=0.02 ") and "[PASS]" in lines[0]
    assert lines[2].startswith("best: k=24 radius=0.25 ")

