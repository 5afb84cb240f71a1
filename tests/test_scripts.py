"""The experiment scripts in scripts/ still run: each is started as README
shows it, with small arguments, and must exit 0.  The reply digests of the
benchmark's CLI workloads and of the mutated golden requests are pinned."""

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
    if script == "reply_digest.py" and args[0] == "--workload":
        assert proc.stdout.strip() == WORKLOAD_DIGESTS[args[1]], moved(
            "replies to benchmark requests", " ".join(args), "WORKLOAD_DIGESTS"
        )


def test_existence_sweep_reports_an_out_of_window_degree_as_a_usage_error():
    proc = run_script("existence_sweep.py", ("--genus", "2", "--tau", "3", "--gram", "4", "--hom", "1", "--d", "0"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "error: bisection degree 0 is outside the admissible window [1, 2]" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (("--tau", "0.5"), "curve multiplier must satisfy |tau| > 1"),
        (("--gram", "1/3"), "generator degrees (gram diagonal) must be integers"),
        (("--gram", "x"), "Invalid literal for Fraction: 'x'"),
        (
            ("--genus", "1", "--tau", "3", "--gram", "1", "--exponents", "1,2"),
            "one power-map exponent per lattice generator",
        ),
    ],
)
def test_existence_sweep_reports_a_malformed_surface_as_a_usage_error(args, message):
    proc = run_script("existence_sweep.py", args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert f"error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


def moved(what: str, args: str, name: str) -> str:
    return (
        f"{what} moved: rerun `scripts/reply_digest.py {args}` on the parent commit, "
        f"list the replies that moved in CHANGES.md, and update {name}"
    )


# The digest of each CLI benchmark workload's seed-1 requests
# (perfbench/workloads.py): commands, exit codes and stdout.  A change that
# moves a reply, or one that changes the workloads, moves it.
WORKLOAD_DIGESTS = {
    "verdict-batch": "verdict-batch seed 1 61be5a6abb60131a2f540bb3b9133ac8bd29eb4c4228fe093ebb5b4342e73027",
    "lattice-ladder": "lattice-ladder seed 1 270fe2105cc0ccb628a778dffb57fbfccf4db90d3dc4c45f54f7bd16630668d4",
    "cover-verify": "cover-verify seed 1 30d24d22a604c8a72ccd7cec7129022546ec9b8f79069a4e93e282a046e4adbe",
}

# The digest of the first 1,000 mutated golden requests: exit codes, stdout
# and stderr.  A change that moves a reply or an error message moves it.
MUTATED_1000 = "mutated 1000 4c65a7233a19b3f92538bd4b096128ce7b8cc12f5bfbe2c8831aecc3a932d11a"


def test_mutated_golden_replies_do_not_move():
    proc = run_script("reply_digest.py", ("--mutated", "1000"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == MUTATED_1000, moved(
        "replies to mutated golden requests", "--mutated 1000", "MUTATED_1000"
    )
