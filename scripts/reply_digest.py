#!/usr/bin/env python3
"""Print one sha256 digest of the CLI replies per benchmark workload and seed.

The requests come from perfbench/workloads.py, which is imported as it
is.  Each request is written to a file and run through `cli.main`
in-process, one call per request; the digest covers, in order, every
request's command, exit code and exact stdout bytes.  Two trees that
should give the same replies must print the same lines:

    PYTHONPATH=src python3 scripts/reply_digest.py --seeds 1 2 3

Only the CLI workloads are accepted; fibre-inverse makes library calls.

With --mutated N it prints instead one digest over the first N mutated
golden requests of the request fuzz in tests/test_golden.py, drawn by
its own _mutate from seed 25 as the fuzz test draws them: every
request's exit code, exact stdout and exact stderr, in order.

    PYTHONPATH=src python3 scripts/reply_digest.py --mutated 7000
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import test_golden  # noqa: E402
import workloads  # noqa: E402

from ellspec.cli import main  # noqa: E402

CLI_WORKLOADS = ("verdict-batch", "lattice-ladder", "cover-verify")


def digest(name: str, seed: int, scratch: Path) -> str:
    h = hashlib.sha256()
    path = scratch / "request.json"
    for req in workloads.build(name, seed).requests:
        path.write_text(json.dumps(req.doc), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([req.cmd, str(path)])
        h.update(f"{req.cmd}\0{code}\0".encode())
        h.update(out.getvalue().encode("utf-8"))
    return h.hexdigest()


def mutated_digest(count: int, scratch: Path) -> str:
    h = hashlib.sha256()
    path = scratch / "request.json"
    golden = test_golden.GOLDEN
    requests = {
        case["name"]: json.loads((golden / f"{case['name']}.request.json").read_text(encoding="utf-8"))
        for case in test_golden.CASES
    }
    rng = random.Random(25)
    for _ in range(count):
        case = rng.choice(test_golden.CASES)
        path.write_text(json.dumps(test_golden._mutate(requests[case["name"]], rng)), encoding="utf-8")
        argv = case["argv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        h.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode("utf-8"))
    return h.hexdigest()


def cli(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=CLI_WORKLOADS, default=list(CLI_WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--mutated", type=int, metavar="N", help="digest N mutated golden requests instead")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.mutated is not None:
            print(f"mutated {args.mutated} {mutated_digest(args.mutated, Path(tmp))}")
            return 0
        for name in args.workload:
            for seed in args.seeds:
                print(f"{name} seed {seed} {digest(name, seed, Path(tmp))}")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
