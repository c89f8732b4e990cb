"""Every script under scripts/ imports, find_pingpong_power certifies
the Jordan ping-pong data bundled in jordan_diag.json, and
modular_synthesis runs end to end."""

import importlib.util
import os
import re
import subprocess
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



def test_modular_synthesis_runs_end_to_end():
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(SCRIPTS / "modular_synthesis.py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("synthesized 279 vertices (4 parabolic), 2845 edges ")
    assert lines[1] == "certificate: PASS min margin 0.012248"
    tracked = [re.match(r"path (.+): Hausdorff D = (\d+) \(farthest prefix at distance (\d+),",
                        line).groups() for line in lines[2:]]
    assert tracked == [
        ("t^-1 r t^-1|t^-1 r t^-1|r t^-1 r t^-1|r t^-3", "3", "10"),
        ("r t^3|t r t^2|t r t|r t^2", "3", "9"),
    ]
