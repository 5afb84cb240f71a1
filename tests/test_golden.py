"""Golden replies: every fixture under tests/golden/ replays byte for byte.

Each case stores a request, the flags it runs with, the exact stdout of
`ellspec <command> <request> <flags>` and the exit code.  A change that
should leave replies alone must pass these unchanged; a change that
means to move a reply regenerates the fixture with scripts/make_golden.py
and names it in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ellspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_every_subcommand_has_golden_cases():
    commands = {case["argv"][0] for case in CASES}
    assert commands == {"exists", "recipe", "spectral-cover", "intersect", "genus", "check"}
    assert any("--batch" in case["argv"] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_reply(case, capsys):
    request = GOLDEN / f"{case['name']}.request.json"
    argv = case["argv"]
    code = main([argv[0], str(request), *argv[1:]])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{case['name']}.reply.json").read_text(encoding="utf-8")
    assert code == case["exit_code"]
