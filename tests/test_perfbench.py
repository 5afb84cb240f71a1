"""The benchmark's oracles and hooks stay checked: perfbench/selftest.py
plants wrong verdicts, covers and preimages and exits 0 only when every one
is caught, and every function the per-layer metrics name still exists."""

from __future__ import annotations

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _literals(path: Path, *names: str) -> dict:
    """Top-level literal assignments of a benchmark script, read without running it."""
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    assert sorted(found) == sorted(names)
    return found


def _traced(module, name: str) -> bool:
    """Whether the tracer wraps module.name: a public function defined there."""
    obj = vars(module).get(name)
    return not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__


def _resolves(key: str) -> bool:
    short, *path = key.split(".")
    module = importlib.import_module(f"ellspec.{short}")
    if len(path) == 2:  # Class.method, counted only
        return inspect.isfunction(vars(getattr(module, path[0], object)).get(path[1]))
    # a span name, or a group such as schemas.decode over every schemas.decode_*
    (name,) = path
    return _traced(module, name) or any(_traced(module, a) for a in vars(module) if a.startswith(name + "_"))


# Per-layer metrics whose functions were deleted on purpose, with the
# wrappers that turned the fibre plan's numbers into points: they read 0
# until the benchmark drops or renames them (ROADMAP item 1).
RETIRED_METRICS = ["bundles.restrict_to_fibre_calls", "jacobian.cover_fibre_values_s", "jacobian.sample_base_points_s"]


def test_benchmark_hooks_name_live_functions():
    """The tracer finds functions by name, so a deleted or renamed one would
    make its per-layer metric read 0 without any error."""
    run = _literals(ROOT / "perfbench" / "run.py", "PER_LAYER_TIMES", "PER_LAYER_COUNTS")
    tracer = _literals(ROOT / "perfbench" / "tracer.py", "COUNTED_METHODS")
    hooks = {metric: (key,) for metric, _, key in run["PER_LAYER_TIMES"]}
    hooks.update(run["PER_LAYER_COUNTS"])
    assert sorted(metric for metric, keys in hooks.items() if not all(map(_resolves, keys))) == RETIRED_METRICS
    counted = [".".join(entry) for entry in tracer["COUNTED_METHODS"]]
    assert [key for key in counted if not _resolves(key)] == []
