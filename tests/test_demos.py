"""Smoke test of the scripts under demos/: each runs to its end and prints."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SLOW = "leader_stability.py"  # about 11 s at its default trial count


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py") if p.name != SLOW))
def test_demo_script_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_leader_stability_demo_runs_on_fewer_trials(capsys):
    spec = importlib.util.spec_from_file_location("leader_stability", DEMOS / SLOW)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(trials=300)
    assert capsys.readouterr().out.strip()
