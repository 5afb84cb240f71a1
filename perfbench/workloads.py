"""Seeded inputs of the four workloads, each with its expected answer.

Every input comes from random.Random(f"{workload}:{seed}"), so one seed
always gives the same inputs.  Work per request is kept independent of
the seed where it would otherwise swing the run: lattice-ladder shifts c1
only by multiples of 4, which moves the program's rounded search centre by
whole even steps (round() goes to even on halves, so a shift by 2 could
flip it) and leaves its search box unchanged; fibre-inverse fixes how many
targets each curve gets.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

WORKLOADS = ("verdict-batch", "lattice-ladder", "cover-verify", "fibre-inverse")


@dataclass
class Request:
    """One CLI request with the check its reply must pass."""

    cmd: str
    doc: dict
    check: Callable[[dict], str | None]
    exit_code: int = 0


@dataclass
class Inversion:
    """One x_preimages(quotient_x(TatePoint(u))) call on the curve tau."""

    tau: complex
    u: complex
    target: object = None
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    requests: list = field(default_factory=list)
    batch_chunk: int = 1
    single_stride: int = 1
    single_group: int = 1
    reference: object = None


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {
        "verdict-batch": _verdict_batch,
        "lattice-ladder": _lattice_ladder,
        "cover-verify": _cover_verify,
        "fibre-inverse": _fibre_inverse,
    }[name](rng)


def _fraction_json(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _verdict_request(cmd: str, surface: dict, chern: dict, genus: int, g2, m, d=None) -> Request:
    delta = oracles.delta_of(g2, chern["c1"]["hom"], chern["c2"])
    want = oracles.expected_verdict(genus, delta, m, d)
    doc = {"schema": 1, "surface": surface, "chern": chern}
    if d is not None:
        doc["d"] = d
    if cmd == "exists":
        check = lambda reply: oracles.check_exists_reply(reply, want)  # noqa: E731
    else:
        check = lambda reply: oracles.check_recipe_reply(reply, want, chern)  # noqa: E731
    return Request(cmd, doc, check, oracles.EXIT_CODES[want["verdict"]])


# ---------------------------------------------------------------------------
# verdict-batch: many small distinct requests across every verdict branch

VERDICT_REQUESTS = 2400
TAUS = ([3.0, 0.0], [0.0, 2.0], [1.5, 1.5], [2.0, 0.0], [4.0, 0.5])
GENERA = (0, 1, 2, 2, 3, 5)


def _small_gram(rng: random.Random, rank: int) -> list:
    if rank == 0:
        return []
    if rank == 1:
        return [[rng.randint(0, 6)]]
    if rng.random() < 0.15:
        p, q, k = rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 2)
        return [[k * p * p, k * p * q], [k * p * q, k * q * q]]
    while True:
        a, c, b2 = rng.randint(0, 6), rng.randint(0, 6), rng.randint(-3, 3)
        if 4 * a * c - b2 * b2 >= 0:
            b = _fraction_json(Fraction(b2, 2))
            return [[a, b], [b, c]]


def _verdict_batch(rng: random.Random) -> Workload:
    work = Workload("verdict-batch", batch_chunk=200, single_stride=2, single_group=25)
    for i in range(VERDICT_REQUESTS):
        # the kind of each request cycles, so every seed has the same mix
        cmd = ("exists", "recipe")[i % 2]
        rank = (0, 1, 2, 2)[(i // 2) % 4]
        genus = GENERA[(i // 8) % len(GENERA)]
        fibres = (0, 0, 1, 2)[(i // 48) % 4]
        surface = {
            "genus": genus,
            "tau": rng.choice(TAUS),
            "lattice": {"rank": rank, "gram": _small_gram(rng, rank)},
        }
        if genus == 1:
            surface["sigma"] = rng.choice(TAUS)
        if fibres:
            surface["multiple_fibres"] = [
                [[round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3) + k], rng.randint(2, 4)]
                for k in range(fibres)
            ]
        g2 = oracles.twice_gram(surface["lattice"]["gram"])
        hom = [rng.randint(-4, 4) for _ in range(rank)]
        m = Fraction(oracles.min_form_brute(g2, hom), 8)
        big_d = oracles.form(g2, hom)
        lo = math.floor(Fraction(-8 - big_d, 4))
        hi = math.ceil(Fraction(8 * m + 32 - big_d, 4))
        chern = {
            "c1": {"torsion": [rng.randint(-3, 3) for _ in range(1 + fibres)], "hom": hom},
            "c2": rng.randint(lo, hi),
        }
        d = None
        window = oracles.d_window(genus, m)
        if genus >= 2 and window is not None and rng.random() < 0.1:
            d = rng.randint(*window)
        work.requests.append(_verdict_request(cmd, surface, chern, genus, g2, m, d))
    ref_surface = {"genus": 2, "tau": [3.0, 0.0], "lattice": {"rank": 2, "gram": [[4, "1/2"], ["1/2", 3]]}}
    ref_g2 = oracles.twice_gram(ref_surface["lattice"]["gram"])
    ref_m = Fraction(oracles.min_form_brute(ref_g2, [1, 1]), 8)
    ref_chern = {"c1": {"torsion": [0], "hom": [1, 1]}, "c2": 3}
    work.reference = _verdict_request("exists", ref_surface, ref_chern, 2, ref_g2, ref_m)
    return work


# ---------------------------------------------------------------------------
# lattice-ladder: rank-2 forms of climbing size and skew

# diag(N, 1) and its images U^T diag(N, 1) U under unimodular U.  Skew
# widens the program's search box, so each family stops near the N where
# one request costs about a second on the diagonal and a few tenths skewed.
LADDER = (
    (((1, 0), (0, 1)), (10, 30, 100, 300, 1000, 3000, 10_000, 30_000)),
    (((1, 1), (0, 1)), (10, 30, 100, 300, 1000)),
    (((2, 1), (1, 1)), (10, 30, 100, 300)),
    (((1, 3), (0, 1)), (10, 30)),
)
DEGENERATE = ((1, 1), (1, 2))


def _transform(n: int, u) -> list:
    """U^T diag(n, 1) U."""
    (a, b), (c, d) = u
    return [[n * a * a + c * c, n * a * b + c * d], [n * a * b + c * d, n * b * b + d * d]]


def _inverse_apply(u, v):
    (a, b), (c, d) = u
    det = a * d - b * c
    return [det * (d * v[0] - b * v[1]), det * (-c * v[0] + a * v[1])]


def _ladder_request(rng: random.Random, gram: list, hom: list, m: Fraction) -> Request:
    surface = {"genus": 2, "tau": [3.0, 0.0], "lattice": {"rank": 2, "gram": gram}}
    g2 = oracles.twice_gram(gram)
    big_d = oracles.form(g2, hom)
    lo = math.floor(Fraction(-8 - big_d, 4))
    hi = math.ceil(Fraction(8 * m + 24 - big_d, 4))
    chern = {"c1": {"torsion": [rng.randint(-3, 3)], "hom": hom}, "c2": rng.randint(lo, hi)}
    return _verdict_request("exists", surface, chern, 2, g2, m)


def _lattice_ladder(rng: random.Random) -> Workload:
    work = Workload("lattice-ladder", batch_chunk=1, single_stride=1, single_group=1)
    for u, sizes in LADDER:
        for n in sizes:
            gram = _transform(n, u)
            # (odd, odd) in diagonal coordinates is the costly coset, (even, odd) the cheap one
            for base in ((1, 1), (0, 1)):
                shift = (4 * rng.randint(-20, 20), 4 * rng.randint(-20, 20))
                original = [base[0] + shift[0], base[1] + shift[1]]
                m = Fraction(oracles.min_form_diagonal(n, original), 8)
                work.requests.append(_ladder_request(rng, gram, _inverse_apply(u, original), m))
    for n in LADDER[0][1]:
        for p, q in DEGENERATE:
            gram = [[n * p * p, n * p * q], [n * p * q, n * q * q]]
            hom = [rng.randint(-40, 40), rng.randint(-40, 40)]
            m = Fraction(oracles.min_form_degenerate(oracles.twice_gram(gram), hom), 8)
            work.requests.append(_ladder_request(rng, gram, hom, m))
    ref_rng = random.Random("lattice-ladder:reference")
    work.reference = _ladder_request(ref_rng, _transform(1000, ((1, 0), (0, 1))), [1, 1], Fraction(1001, 4))
    return work


# ---------------------------------------------------------------------------
# cover-verify: spectral-cover requests with verification at 50 fibres

COVER_REQUESTS = 150
VERIFY = 50
G0_TAUS = ([4.0, 0.0], [3.0, 0.0], [2.5, 1.0])
G1_TAUS = ([3.0, 0.0], [2.0, 1.0])


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _annulus_point(rng: random.Random, tau: list) -> complex:
    r = abs(complex(*tau)) ** rng.uniform(0.1, 0.9)
    return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))


def _base_point(rng: random.Random, surface: dict) -> list:
    if surface["genus"] == 0:
        return _pair(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    return _pair(_annulus_point(rng, surface["sigma"]))


def _line_bundle(rng: random.Random, surface: dict) -> dict:
    rank = surface["lattice"]["rank"]
    return {
        "section": {
            "constant": _pair(_annulus_point(rng, surface["tau"])),
            "hom": [rng.randint(-2, 2) for _ in range(rank)],
        },
        "base_twist": rng.randint(-2, 2),
    }


def _extension(rng: random.Random, surface: dict) -> dict:
    g2 = oracles.twice_gram(surface["lattice"]["gram"])
    while True:
        inner = {"D": _line_bundle(rng, surface), "delta": _line_bundle(rng, surface)}
        cycle = [[_base_point(rng, surface), rng.randint(1, 2)] for _ in range(rng.randint(0, 2))]
        if cycle:
            inner["Z"] = cycle
        if rng.random() < 0.3:
            inner["nonsplit_at"] = [_base_point(rng, surface)]
        bundle = {"extension": inner}
        _, hom, c2 = oracles.bundle_chern(bundle, g2, 1)
        if oracles.delta_of(g2, hom, c2) >= 0:
            return bundle


def _modify(rng: random.Random, bundle: dict, surface: dict, times: int) -> dict:
    fibre = _base_point(rng, surface)
    for _ in range(times):
        if rng.random() >= 0.3:
            fibre = _base_point(rng, surface)
        bundle = {"elem_mod": {"parent": bundle, "fibre": fibre, "steps": rng.randint(1, 3)}}
    return bundle


def _g0_surface(rng: random.Random) -> dict:
    return {"genus": 0, "tau": rng.choice(G0_TAUS), "lattice": {"rank": 0, "gram": []}}


def _g1_surface(rng: random.Random) -> dict:
    tau = rng.choice(G1_TAUS)
    return {
        "genus": 1,
        "tau": tau,
        "sigma": tau,
        "lattice": {"rank": 1, "gram": [[rng.randint(1, 2)]]},
        "hom_exponents": [rng.randint(1, 2)],
    }


def _push(rng: random.Random, surface: dict) -> dict:
    degree = rng.randint(1, 3)
    num = [_pair(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(degree)]
    num.append(_pair(cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))))
    return {
        "spectral_push": {
            "bisection": {"irreducible": {"trace": {"num": num, "den": [[1.0, 0.0]]}}},
            "delta": {"section": {"constant": _pair(_annulus_point(rng, surface["tau"])), "hom": []}},
        }
    }


def _cover_request(surface: dict, bundle: dict, seed: int) -> Request:
    doc = {"schema": 1, "surface": surface, "bundle": bundle, "options": {"verify": VERIFY, "seed": seed}}
    check = lambda reply: oracles.check_cover_reply(reply, doc, 1e-9, VERIFY)  # noqa: E731
    return Request("spectral-cover", doc, check)


def _cover_verify(rng: random.Random) -> Workload:
    work = Workload("cover-verify", batch_chunk=25, single_stride=2, single_group=10)
    for _ in range(COVER_REQUESTS):
        kind = rng.random()
        if kind < 0.40:
            surface = _g0_surface(rng)
            bundle = _extension(rng, surface)
        elif kind < 0.65:
            surface = _g1_surface(rng)
            bundle = _extension(rng, surface)
        elif kind < 0.85:
            surface = _g0_surface(rng) if rng.random() < 0.5 else _g1_surface(rng)
            bundle = _modify(rng, _extension(rng, surface), surface, rng.randint(1, 3))
        else:
            surface = _g0_surface(rng)
            bundle = _push(rng, surface)
            if rng.random() < 0.3:
                bundle = _modify(rng, bundle, surface, 1)
        work.requests.append(_cover_request(surface, bundle, rng.randint(0, 999)))
    ref_rng = random.Random("cover-verify:reference")
    ref_surface = _g1_surface(ref_rng)
    work.reference = _cover_request(ref_surface, _extension(ref_rng, ref_surface), 0)
    return work


# ---------------------------------------------------------------------------
# fibre-inverse: x_preimages on curves from far to near |tau| = 1

# No seeded targets on tau = 1.2 or 1.05: there x_preimages fails on some
# well-separated targets as well (it finds no class), so whether a run
# fails would depend on the seed.
SEEDED_PER_TAU = ((3.0, 3), (2j, 3), (1.5 + 1.5j, 3), (2.0, 3), (1.5, 3))
# Real tau <= 2 near arg u = pi, where x is flat to within the series
# tolerance and x_preimages answers with two distinct two-torsion classes.
KNOWN_FAULT = ((2.0, 1.2), (1.5, 1.2), (1.2, 1.1), (1.05, 1.02))
FAULT_ARG = 2.5
# Seeded targets keep their x-value this far (relative) from every
# branch value, well clear of the 4 eps window where the fault lives.
SEPARATION = 1e-6


def _branch_values(tau: complex) -> list:
    s = cmath.sqrt(tau)
    return [oracles.x_mp(z, tau) for z in (-1.0, s, -s)]


def _fibre_inverse(rng: random.Random) -> Workload:
    work = Workload("fibre-inverse")
    for tau, count in SEEDED_PER_TAU:
        branch = _branch_values(tau)
        for _ in range(count):
            while True:
                u = _annulus_point(rng, [complex(tau).real, complex(tau).imag])
                target = oracles.x_mp(u, tau)
                scale = 1.0 + float(abs(target))
                if min(float(abs(target - b)) for b in branch) > SEPARATION * scale:
                    break
            work.requests.append(Inversion(tau, u, target))
    for tau, radius in KNOWN_FAULT:
        u = cmath.rect(radius, FAULT_ARG)
        work.requests.append(Inversion(tau, u, oracles.x_mp(u, tau), known_fault=True))
    u = cmath.rect(1.5, 1.0)
    work.reference = Inversion(3.0, u, oracles.x_mp(u, 3.0))
    return work
