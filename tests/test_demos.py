"""Smoke test of the scripts under demos/: each runs to its end and prints."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mpo.channels import model_from_spec, model_to_spec

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


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), DEMOS / name)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def test_leader_stability_demo_runs_on_fewer_trials(capsys):
    _load(SLOW).main(trials=300)
    assert capsys.readouterr().out.strip()


def test_channel_demo_labels_are_specs(capsys):
    _load("channel_adversaries.py").main()
    rows = [line for line in capsys.readouterr().out.splitlines() if " delivered " in line]
    assert len(rows) == 6
    for row in rows:
        label = row.partition(" delivered ")[0].strip()
        assert model_to_spec(model_from_spec(label)) == label
