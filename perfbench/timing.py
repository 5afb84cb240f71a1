"""Calibrated clocks for a machine whose speed drifts.

On a shared machine the same code runs 30-50% slower in some minutes than
in others, and a fixed pure-Python loop slows in step with the program.
So every raw time is paired with a control measured right next to it and
reported in reference-machine seconds:

    reported = raw * NOMINAL / control

In-process work is paired with the control loop, a fixed stdlib-only loop
of Fraction arithmetic, tuple and dict churn and a sort, run just before
and just after each timed block (see Round).  A fresh process is paired with REFERENCE_CHILD,
a fresh interpreter importing a fixed set of stdlib modules, run just
before and just after it.  Neither control touches ellspec, so a change
to the program moves the reported numbers and a change in machine speed
mostly does not.  The nominal values are the controls' times on a quiet
2-core Xeon machine (Python 3.11).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from fractions import Fraction

CAL_NOMINAL_S = 0.0030
REFERENCE_NOMINAL_S = 0.130
REFERENCE_CHILD = (
    "import argparse, asyncio, dataclasses, decimal, email.parser, fractions, "
    "http.client, json, unittest, xml.dom.minidom"
)


def pin_to_one_core() -> int:
    """Run this process, and every child it starts, on a single CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _kernel() -> None:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1) * Fraction(3, 2)
    table = {}
    for i in range(3000):
        table[(i, i % 7)] = (i, str(i))
    sorted(table.items(), key=lambda kv: kv[1][1])


def calibrate() -> float:
    """Seconds one run of the control loop takes now (garbage collector paused)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Round:
    """A chain of control-loop runs with timed blocks between them.

    Each block is scaled by the mean of the control runs on either side of
    it, so it is paired with the machine's speed at that moment.
    """

    def __init__(self) -> None:
        self._last = calibrate()
        self.raw = 0.0
        self.calibrated = 0.0

    def control(self) -> float:
        """Run the control loop; the scale for the block that just ended."""
        now = calibrate()
        scale = CAL_NOMINAL_S / ((self._last + now) / 2.0)
        self._last = now
        return scale

    def time(self, block) -> float:
        """Calibrated seconds of block(); the round keeps raw and calibrated totals."""
        start = time.perf_counter()
        block()
        raw = time.perf_counter() - start
        seconds = raw * self.control()
        self.raw += raw
        self.calibrated += seconds
        return seconds


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    return env


def run_child(argv: list[str], env: dict, cwd: str):
    """Wall time, exit code, stdout and stderr of one child run to its end."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def reference_child(env: dict, cwd: str) -> float:
    seconds, code, _, err = run_child(["-c", REFERENCE_CHILD], env, cwd)
    if code != 0:
        raise RuntimeError(f"reference child failed: {err.decode(errors='replace')}")
    return seconds


def fresh_process_samples(jobs, count: int, env: dict, cwd: str) -> list[list[float]]:
    """Calibrated wall times of fresh processes, one at a time.

    jobs is a list of callables, each running one child and returning its
    raw wall time.  The children of all jobs are interleaved with the
    reference child, so each sample has a reference run on both sides.
    """
    samples: list[list[float]] = [[] for _ in jobs]
    before = reference_child(env, cwd)
    for _ in range(count):
        for k, job in enumerate(jobs):
            raw = job()
            after = reference_child(env, cwd)
            samples[k].append(raw * REFERENCE_NOMINAL_S / ((before + after) / 2.0))
            before = after
    return samples
