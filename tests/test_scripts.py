"""The experiment scripts in scripts/ still run: each is started as README
shows it, with small arguments, and must exit 0."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script: str, args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("existence_sweep.py", ("--genus", "2", "--tau", "3", "--gram", "4", "--hom", "1", "--c2=-1:1")),
        ("quotient_profile.py", ("--tau", "2j", "--samples", "20")),
        ("reply_digest.py", ("--workload", "lattice-ladder", "--seeds", "1")),
        ("quotient_profile.py", ("--tau", "1.003", "--samples", "20")),
        ("existence_sweep.py", ("--genus", "2", "--tau", "3", "--gram", "4", "--hom", "1", "--d", "1", "--c2=-3:1")),
        ("quotient_profile.py", ("--tau", "-2", "--samples", "20")),
        ("quotient_profile.py", ("--tau", "1e10", "--samples", "20")),
        ("reply_digest.py", ("--workload", "cover-verify", "--seeds", "1")),
        ("reply_digest.py", ("--workload", "verdict-batch", "--seeds", "1")),
        ("reply_digest.py", ("--mutated", "30")),
    ],
)
def test_script_runs(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()


def test_existence_sweep_reports_an_out_of_window_degree_as_a_usage_error():
    proc = run_script("existence_sweep.py", ("--genus", "2", "--tau", "3", "--gram", "4", "--hom", "1", "--d", "0"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "error: bisection degree 0 is outside the admissible window [1, 2]" in proc.stderr
    assert "Traceback" not in proc.stderr
