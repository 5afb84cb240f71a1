#!/usr/bin/env python3
"""Write the golden CLI fixtures under tests/golden/.

Each case is one `ellspec` invocation: a subcommand, a JSON request and
optional flags.  The script runs every case through `cli.main` in-process
and stores the request, the exact stdout bytes of the reply and the exit
code.  tests/test_golden.py replays them and compares bytes, so a change
that is meant to leave replies alone can prove it.

Run from the repository root, only when a reply is meant to change:

    PYTHONPATH=src python3 scripts/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from ellspec.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

G0 = {"genus": 0, "tau": [4.0, 0.0], "lattice": {"rank": 0, "gram": []}}
G1 = {
    "genus": 1,
    "tau": [3.0, 0.0],
    "sigma": [3.0, 0.0],
    "lattice": {"rank": 1, "gram": [[1]]},
    "hom_exponents": [1],
}
G2 = {"genus": 2, "tau": [3.0, 0.0], "lattice": {"rank": 2, "gram": [[4, "1/2"], ["1/2", 3]]}}
G1_EVEN = {"genus": 1, "tau": [3.0, 0.0], "sigma": [3.0, 0.0], "lattice": {"rank": 1, "gram": [[2]]}}
G2_FOUR = {"genus": 2, "tau": [3.0, 0.0], "lattice": {"rank": 1, "gram": [[4]]}}
G3_FIBRES = {
    "genus": 3,
    "tau": [1.5, 1.5],
    "lattice": {"rank": 1, "gram": [[2]]},
    "multiple_fibres": [[[0.25, -0.5], 3]],
}


def chern(surface: dict, torsion: list, hom: list, c2: int, **extra) -> dict:
    return {"schema": 1, "surface": surface, "chern": {"c1": {"torsion": torsion, "hom": hom}, "c2": c2}, **extra}


CASES: list[tuple[str, list[str], object]] = [
    ("exists-g0-affirmative", ["exists"], chern(G0, [0], [], 0)),
    ("exists-g2-negative", ["exists"], chern(G2, [0], [1, 1], -5)),
    ("exists-g3-d-flag", ["exists", "--d", "1", "--c2", "-1"], chern(G3_FIBRES, [0, 1], [1], 0)),
    ("recipe-g0-transcript", ["recipe"], chern(G0, [0], [], 2)),
    ("recipe-g0-none", ["recipe"], chern(G0, [0], [], -2)),
    ("recipe-g1-c1-flag", ["recipe", "--c1", '{"torsion":[1],"hom":[1]}'], chern(G1, [0], [0], 3)),
    (
        "spectral-cover-reducible",
        ["spectral-cover"],
        {
            "schema": 1,
            "surface": G0,
            "bundle": {
                "extension": {
                    "D": {"section": {"constant": [2.5, 0.0], "hom": []}},
                    "delta": {"section": {"constant": [1.0, 0.0], "hom": []}},
                    "Z": [[[0.5, 0.0], 1]],
                }
            },
        },
    ),
    (
        "spectral-cover-irreducible",
        ["spectral-cover", "--verify", "30", "--seed", "7"],
        {
            "schema": 1,
            "surface": G0,
            "bundle": {
                "spectral_push": {
                    "bisection": {"irreducible": {"trace": {"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}}},
                    "delta": {"section": {"constant": [2.0, 0.0], "hom": []}},
                }
            },
        },
    ),
    (
        "spectral-cover-g1-elem-mod-verify",
        ["spectral-cover"],
        {
            "schema": 1,
            "surface": G1,
            "bundle": {
                "elem_mod": {
                    "parent": {
                        "extension": {
                            "D": {"section": {"constant": [1.5, 0.5], "hom": [1]}, "base_twist": 1},
                            "delta": {"section": {"constant": [2.0, -0.3], "hom": [0]}},
                            "Z": [[[1.7, 0.4], 1]],
                            "nonsplit_at": [[-1.2, 1.1]],
                        }
                    },
                    "fibre": [2.1, -0.6],
                    "steps": 2,
                }
            },
            "options": {"verify": 50, "seed": 5},
        },
    ),
    (
        "spectral-cover-g0-push-chain-verify",
        ["spectral-cover"],
        {
            "schema": 1,
            "surface": G0,
            "bundle": {
                "elem_mod": {
                    "parent": {
                        "elem_mod": {
                            "parent": {
                                "spectral_push": {
                                    "bisection": {
                                        "irreducible": {"trace": {"num": [[0.3, 0], [0.2, 0], [1, 0]], "den": [[1, 0]]}}
                                    },
                                    "delta": {"section": {"constant": [1.5, 0.0], "hom": []}},
                                }
                            },
                            "fibre": [0.4, 0.3],
                            "steps": 1,
                        }
                    },
                    "fibre": [-0.6, 0.2],
                    "steps": 2,
                }
            },
            "options": {"verify": 50, "seed": 3},
        },
    ),
    (
        # the push-chain request at a coarse tol: sampled fibres within 0.3
        # of a modified fibre are unstable, and coincident values glue
        "spectral-cover-g0-coarse-tol-verify",
        ["spectral-cover"],
        {
            "schema": 1,
            "surface": G0,
            "bundle": {
                "elem_mod": {
                    "parent": {
                        "elem_mod": {
                            "parent": {
                                "spectral_push": {
                                    "bisection": {
                                        "irreducible": {"trace": {"num": [[0.3, 0], [0.2, 0], [1, 0]], "den": [[1, 0]]}}
                                    },
                                    "delta": {"section": {"constant": [1.5, 0.0], "hom": []}},
                                }
                            },
                            "fibre": [0.4, 0.3],
                            "steps": 1,
                        }
                    },
                    "fibre": [-0.6, 0.2],
                    "steps": 2,
                }
            },
            "options": {"verify": 200, "seed": 3, "tol": 0.3},
        },
    ),
    (
        # points on both sides of the annulus seam |z| = 1 ~ |z| = 3: the
        # fibres 2.95 - 0.03i and 3.03 (the class of 1.01) lie within tol
        # 0.3 of the cycle point 1.02 + 0.01i as classes, and so do the two
        # marks of each other; delta is the square of D, so sub and
        # quotient agree and every marked fibre glues
        "spectral-cover-g1-seam-verify",
        ["spectral-cover"],
        {
            "schema": 1,
            "surface": G1,
            "bundle": {
                "elem_mod": {
                    "parent": {
                        "elem_mod": {
                            "parent": {
                                "extension": {
                                    "D": {"section": {"constant": [1.5, 0.5], "hom": [1]}},
                                    "delta": {"section": {"constant": [2.0, 1.5], "hom": [2]}},
                                    "Z": [[[1.02, 0.01], 1], [[1.6, 1.2], 2]],
                                    "nonsplit_at": [[-1.01, 0.05], [-2.95, 0.2]],
                                }
                            },
                            "fibre": [2.95, -0.03],
                            "steps": 1,
                        }
                    },
                    "fibre": [3.03, 0.0],
                    "steps": 2,
                }
            },
            "options": {"verify": 200, "seed": 4, "tol": 0.3},
        },
    ),
    (
        # sub and quotient coincide (1.5 squared is delta), so every
        # sampled fibre glues to the non-split type
        "spectral-cover-g0-nonsplit-everywhere-verify",
        ["spectral-cover", "--verify", "50", "--seed", "2"],
        {
            "schema": 1,
            "surface": G0,
            "bundle": {
                "extension": {
                    "D": {"section": {"constant": [1.5, 0.0], "hom": []}},
                    "delta": {"section": {"constant": [2.25, 0.0], "hom": []}},
                    "Z": [[[0.5, 0.0], 1]],
                    "nonsplit_everywhere": True,
                }
            },
        },
    ),
    (
        "intersect-g1",
        ["intersect"],
        {"schema": 1, "surface": G1, "classes": [{"torsion": [0], "hom": [1]}, {"torsion": [0], "hom": [1]}]},
    ),
    (
        "intersect-g2",
        ["intersect"],
        {"schema": 1, "surface": G2, "classes": [{"torsion": [1], "hom": [1, -2]}, {"torsion": [0], "hom": [3, 1]}]},
    ),
    ("genus-g0", ["genus"], chern(G0, [0], [], 1)),
    ("genus-g2", ["genus", "--c2", "5"], chern(G2, [0], [1, 1], 0)),
    ("check-g1-enum", ["check", "--enum-radius", "4"], {"schema": 1, "surface": G1}),
    ("check-g3-seed", ["check", "--seed", "3"], {"schema": 1, "surface": G3_FIBRES}),
    ("check-g3-near-unit", ["check", "--seed", "3"], {"schema": 1, "surface": {**G3_FIBRES, "tau": [1.003, 0.0]}}),
    (
        "exists-batch",
        ["exists", "--batch"],
        [
            chern(G0, [0], [], 0),
            chern(G2, [0], [1, 1], -4),
            chern(G3_FIBRES, [0, 1], [1], -1, d=0),
            chern(G3_FIBRES, [0, 1], [1], -1, d=2),
            chern(G0, [0], [], -1),
            {"schema": 1, "surface": G0, "chern": {"c1": {"torsion": [0], "hom": []}, "c2": "two"}},
        ],
    ),
    (
        "recipe-batch-transcripts",
        ["recipe", "--batch"],
        [
            chern(G0, [0], [], 7),
            chern(G1, [1], [1], 3),
            chern(G0, [0], [], -2),
            {"schema": 1, "surface": G0, "chern": {"c1": {"torsion": [0], "hom": []}, "c2": "two"}},
            chern(G2, [0], [1, 1], 4),
        ],
    ),
    (
        "exists-non-ascii-gram",
        ["exists"],
        chern({"genus": 2, "tau": [3.0, 0.0], "lattice": {"rank": 1, "gram": [["½"]]}}, [0], [1], 0),
    ),
    # the three verdicts below m that only the genus >= 2 window, a stated
    # degree and the quantized corner of genus 1 reach
    ("exists-g2-window-exists", ["exists"], chern(G2_FOUR, [0], [1], -1)),
    ("exists-g2-d-not-exists", ["exists", "--d", "1", "--c2", "-2"], chern(G2_FOUR, [0], [1], -1)),
    ("recipe-g1-quantized-corner", ["recipe"], chern(G1_EVEN, [0], [1], -1)),
    # a multiple fibre at the first draw of seed 0 blocks it, so the
    # recipe's generic fibre is the second draw
    (
        "recipe-g0-first-draw-blocked",
        ["recipe"],
        chern(dict(G0, multiple_fibres=[[[1.3776874061001925, 1.03181761176121], 2]]), [1, 0], [], 3),
    ),
]


def run(argv: list[str], request_path: Path) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], str(request_path), *argv[1:]])
    return out.getvalue(), code


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = []
    for name, argv, request in CASES:
        request_path = GOLDEN / f"{name}.request.json"
        request_path.write_text(json.dumps(request, indent=2) + "\n", encoding="utf-8")
        reply, code = run(argv, request_path)
        (GOLDEN / f"{name}.reply.json").write_text(reply, encoding="utf-8")
        manifest.append({"name": name, "argv": argv, "exit_code": code})
        print(f"{name}: exit {code}, {len(reply)} bytes", file=sys.stderr)
    (GOLDEN / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write()
