"""Every script under scripts/ still imports and parses its arguments, and
``run_all_regimes.py`` reports a failed run in its exit status."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(script), "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_run_all_regimes_exits_1_when_a_run_fails(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "run_all_regimes", ROOT / "scripts" / "run_all_regimes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "bad.json").write_text('{"regime": "low"}')
    monkeypatch.setattr(script, "CONFIG_DIR", configs)
    monkeypatch.setattr(sys, "argv", ["run_all_regimes.py", "--out", str(tmp_path / "runs")])
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    assert script.main() == 1
    assert "bad  exit 2" in capsys.readouterr().out
