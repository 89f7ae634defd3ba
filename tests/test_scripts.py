"""Every script under scripts/ still imports and parses its arguments, and
``run_all_regimes.py`` reports a failed run or an aborted row in its exit status."""

import importlib.util
import json
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


def _run_all_regimes(tmp_path, monkeypatch, configs: dict) -> int:
    """``run_all_regimes.main()`` over the given {name: config text}."""
    spec = importlib.util.spec_from_file_location(
        "run_all_regimes", ROOT / "scripts" / "run_all_regimes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    folder = tmp_path / "configs"
    folder.mkdir()
    for name, text in configs.items():
        (folder / f"{name}.json").write_text(text)
    monkeypatch.setattr(script, "CONFIG_DIR", folder)
    monkeypatch.setattr(sys, "argv", ["run_all_regimes.py", "--out", str(tmp_path / "runs")])
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    return script.main()


def test_run_all_regimes_exits_1_when_a_run_fails(tmp_path, monkeypatch, capsys):
    assert _run_all_regimes(tmp_path, monkeypatch, {"bad": '{"regime": "low"}'}) == 1
    assert "bad  exit 2" in capsys.readouterr().out


def test_run_all_regimes_exits_1_when_a_row_aborts(tmp_path, monkeypatch, capsys):
    # a K = 1 box (two centres a cell, so solved densely): the last row's
    # M = 2 * 17^3 = 9,826 centres need a 1.44 GiB dense system, over the
    # dense budget: converge aborts that row and exits 0
    low_box = {"geometry": {"kind": "box", "size": [1, 1, 1],
                            "density": {"kind": "constant", "value": 1.0}},
               "bubble": {"shape": "sphere"},
               "contrast": {"gamma": 1.0, "s": 0.5, "t": 0.2, "omega_ratio": 0.8},
               "regime": "Low", "a_sequence": [0.02, 0.01, 4e-8], "directions": 30,
               "tolerances": {"d_min": 0.1}}
    assert _run_all_regimes(tmp_path, monkeypatch, {"capped": json.dumps(low_box)}) == 1
    out = capsys.readouterr().out
    assert "capped  slope skipped" in out and "1 aborted row(s)" in out
