"""Self-test of the benchmark's oracles: they accept right answers and catch planted wrong ones.

    python3 perfbench/selftest.py

Exits 0 when every check holds.  The closed forms for the lattice
minimum are compared with plain enumeration over a wide box, and each
reply checker is given a reply from the program and then the same reply
with one planted fault.
"""

from __future__ import annotations

import cmath
import contextlib
import copy
import io
import itertools
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent


class Failures(list):
    """What went wrong, one line per failed expectation."""

    def expect(self, condition: bool, what: str) -> None:
        if not condition:
            self.append(what)


def naive_min(g2, c, radius: int = 12) -> int:
    return min(
        oracles.form(g2, [x - 2 * m for x, m in zip(c, mu)])
        for mu in itertools.product(range(-radius, radius + 1), repeat=len(c))
    )


def test_lattice_minimum(failures: Failures) -> None:
    rng = random.Random(7)
    for _ in range(300):
        gram = workloads._small_gram(rng, 2)
        g2 = oracles.twice_gram(gram)
        c = [rng.randint(-5, 5), rng.randint(-5, 5)]
        failures.expect(
            oracles.min_form_brute(g2, c) == naive_min(g2, c), f"brute minimum on {gram}, {c}"
        )
    for n in (1, 2, 7, 40):
        for c in itertools.product(range(-3, 4), repeat=2):
            g2 = oracles.twice_gram([[n, 0], [0, 1]])
            failures.expect(
                oracles.min_form_diagonal(n, c) == naive_min(g2, c), f"diagonal minimum n={n}, {c}"
            )
    for (p, q), n in itertools.product(((1, 1), (1, 2), (0, 1), (2, 1)), (1, 3)):
        gram = [[n * p * p, n * p * q], [n * p * q, n * q * q]]
        g2 = oracles.twice_gram(gram)
        for c in itertools.product(range(-3, 4), repeat=2):
            failures.expect(
                oracles.min_form_degenerate(g2, c) == naive_min(g2, c),
                f"degenerate minimum {gram}, {c}",
            )


def run_cli(cmd: str, doc: dict) -> tuple[dict, int]:
    from ellspec import cli

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        path = Path(tmp) / "request.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([cmd, str(path)])
    return json.loads(out.getvalue()), code


def test_verdict_checks(failures: Failures) -> None:
    work = workloads.build("verdict-batch", 3)
    seen = set()
    for req in work.requests[:300]:
        reply, code = run_cli(req.cmd, req.doc)
        failures.expect(
            req.check(reply) is None and code == req.exit_code, f"right {req.cmd} reply rejected"
        )
        verdict = reply.get("verdict")
        seen.add(verdict)
        wrong = copy.deepcopy(reply)
        if req.cmd == "exists":
            wrong["verdict"] = "unknown" if verdict != "unknown" else "exists"
            failures.expect(req.check(wrong) is not None, "planted wrong verdict accepted")
            wrong = copy.deepcopy(reply)
            wrong["lattice_minimum"] = str(Fraction(reply["lattice_minimum"]) + Fraction(1, 4))
            failures.expect(req.check(wrong) is not None, "planted wrong lattice minimum accepted")
            wrong = copy.deepcopy(reply)
            wrong["delta"] = str(Fraction(reply["delta"]) - Fraction(1, 2))
            failures.expect(req.check(wrong) is not None, "planted wrong discriminant accepted")
        elif reply.get("transcript"):
            wrong["transcript"][-1]["c2"] += 1
            failures.expect(req.check(wrong) is not None, "planted wrong transcript accepted")
            wrong = copy.deepcopy(reply)
            wrong["recipe"]["modification_steps"] += 1
            failures.expect(req.check(wrong) is not None, "planted wrong step count accepted")
    failures.expect(
        {"exists", "not-exists", "unknown"} <= seen, f"verdict branches reached: {sorted(map(str, seen))}"
    )


def test_cover_checks(failures: Failures) -> None:
    work = workloads.build("cover-verify", 3)
    for req in work.requests[:40]:
        reply, code = run_cli(req.cmd, req.doc)
        failures.expect(req.check(reply) is None and code == 0, "right cover reply rejected")
        wrong = copy.deepcopy(reply)
        wrong["dual_determinant"]["constant"][1] += 1e-3
        failures.expect(req.check(wrong) is not None, "planted wrong dual determinant accepted")
        wrong = copy.deepcopy(reply)
        wrong["verification"]["max_residual"] = 1e-6
        failures.expect(req.check(wrong) is not None, "planted residual above the bound accepted")
        if reply["jump_fibres"]:
            wrong = copy.deepcopy(reply)
            wrong["jump_fibres"][0][1] += 1
            failures.expect(req.check(wrong) is not None, "planted wrong jump multiplicity accepted")
        if "reducible" in reply["bisection"]:
            wrong = copy.deepcopy(reply)
            wrong["jump_fibres"].append([[9.0, 9.0], 1])
            failures.expect(req.check(wrong) is not None, "planted extra jump fibre accepted")


def test_preimage_checks(failures: Failures) -> None:
    from ellspec.tate import CurveParam, TatePoint, quotient_x, x_preimages

    tau = 3.0
    u = cmath.rect(1.5, 1.0)
    curve = CurveParam(tau)
    found = [p.rep for p in x_preimages(quotient_x(TatePoint(u, curve)), curve)]
    target = oracles.x_mp(u, tau)
    check = oracles.check_preimages
    failures.expect(check(found, target, tau) is None, "right preimages rejected")
    failures.expect(check(found[:1], target, tau) is not None, "half of a pair accepted")
    failures.expect(
        check([found[0], found[0] * 1.01], target, tau) is not None, "pair that is not {u, 1/u} accepted"
    )
    failures.expect(check(found + [1.7], target, tau) is not None, "three classes accepted")
    # the known fault: two distinct two-torsion classes for one value
    fault_u = cmath.rect(1.2, 2.5)
    failures.expect(
        check([-1.0, -(2.0**0.5)], oracles.x_mp(fault_u, 2.0), 2.0) is not None,
        "two-torsion pair accepted",
    )


def main() -> int:
    if not (ROOT / "src" / "ellspec" / "__init__.py").is_file():
        print("error: no program source under src/ellspec", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    failures = Failures()
    for test in (test_lattice_minimum, test_verdict_checks, test_cover_checks, test_preimage_checks):
        before = len(failures)
        test(failures)
        print(f"{test.__name__}: {'ok' if len(failures) == before else 'FAILED'}")
    for line in failures[:20]:
        print("  " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
