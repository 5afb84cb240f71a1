"""Golden replies: every fixture under tests/golden/ replays byte for byte.

Each case stores a request, the flags it runs with, the exact stdout of
`ellspec <command> <request> <flags>` and the exit code.  A change that
should leave replies alone must pass these unchanged; a change that
means to move a reply regenerates the fixture with scripts/make_golden.py
and names it in CHANGES.md.  Mutations of the same requests, drawn from a
fixed seed, must each end in bounded time with a documented exit code.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import random
import time
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


def test_the_golden_generator_writes_these_fixtures():
    # scripts/make_golden.py is the one source of the fixtures: its cases
    # give cases.json's names and command lines, in order, and write each
    # committed request byte for byte (imported, not run: write() is not called)
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN.parent.parent / "scripts" / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    assert [(name, argv) for name, argv, _ in make_golden.CASES] == [(c["name"], c["argv"]) for c in CASES]
    for name, _, request in make_golden.CASES:
        committed = (GOLDEN / f"{name}.request.json").read_text(encoding="utf-8")
        assert committed == json.dumps(request, indent=2) + "\n", name


# ------------------------------------------------------------ request fuzz

# Mutations of the golden requests in type, magnitude, finiteness and
# nesting, a bundle wrapped in an elementary modification among them.
# Each mutated request must end, within the bound, with a documented exit
# code and a reply rather than an exception.
FUZZ_MUTATIONS = 2000
FUZZ_SECONDS = 2.0
EXIT_CODES = {0, 1, 2, 64, 70}
OTHER_TYPES = [None, True, False, "", "x", "1/0", "inf", [], {}, [0], {"x": 1}]
MAGNITUDES = [0, -1, 2, 10**6, -(10**9), 2**63, 10**400, 1e308, -1e308, 5e-324, -0.0, 1e-300, 0.5]
NON_FINITE = [math.nan, math.inf, -math.inf]  # written as NaN and Infinity
FIBRES = [[0.4, 0.3], [1.7, 0.4], [0, 0], "inf", [1e308, 1e308], [-1.2, 1.1]]
STEPS = [1, 2, 0, -1, 10**6, 10**400, 1.5, "1"]


def _paths(node, path=()):
    """The path of every node of a JSON tree, the root's first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(doc, rng: random.Random):
    """A copy of doc with one node changed, or each bundle modified once."""
    doc = copy.deepcopy(doc)
    kind = rng.choice(["type", "magnitude", "finiteness", "nesting", "drop", "elem_mod"])
    if kind == "elem_mod":
        for item in doc if isinstance(doc, list) else [doc]:
            if isinstance(item, dict) and "bundle" in item:
                fibre, steps = rng.choice(FIBRES), rng.choice(STEPS)
                item["bundle"] = {"elem_mod": {"parent": item["bundle"], "fibre": fibre, "steps": steps}}
        return doc
    path = rng.choice(list(_paths(doc)))
    if not path:
        parent, key, node = None, None, doc
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        node = parent[key]
    if kind == "type":
        new = copy.deepcopy(rng.choice(OTHER_TYPES))
    elif kind == "magnitude":
        new = rng.choice(MAGNITUDES)
        if type(node) in (int, float) and rng.random() < 0.5:
            new = node * rng.choice([-1, 10, 10**6]) + rng.choice([0, 1, -1])
    elif kind == "finiteness":
        new = rng.choice(NON_FINITE)
    elif kind == "nesting":
        new = rng.choice([[node], {"x": node}, [node, node]])
    else:  # drop the node
        if parent is not None:
            del parent[key]
        return doc
    if parent is None:
        return new
    parent[key] = new
    return doc


def test_mutated_golden_requests_end_with_a_documented_exit_code(tmp_path, capsys):
    rng = random.Random(25)
    requests = {
        case["name"]: json.loads((GOLDEN / f"{case['name']}.request.json").read_text(encoding="utf-8"))
        for case in CASES
    }
    path = tmp_path / "request.json"
    seen = set()
    for _ in range(FUZZ_MUTATIONS):
        case = rng.choice(CASES)
        doc = _mutate(requests[case["name"]], rng)
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = case["argv"]
        start = time.perf_counter()
        code = main([argv[0], str(path), *argv[1:]])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        where = f"{case['name']}: {json.dumps(doc)[:300]}"
        assert code in EXIT_CODES, where
        assert "Traceback" not in out + err, where
        assert elapsed < FUZZ_SECONDS, where
        seen.add(code)
    # the mutations reach past the schema into the computation
    assert {0, 64, 70} <= seen
