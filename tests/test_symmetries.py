"""The paper's symmetries of the existence problem, as properties.

Twisting a bundle by a line bundle lambda takes its Chern data
(c1, c2) to (c1 + 2 lambda, c2 + c1.lambda + lambda^2), and a unimodular
change of basis U of the hom lattice takes the Gram matrix G to U^T G U
and the coordinates of c1 to U^-1 c1.  Neither moves the discriminant,
the lattice minimum or the admissible window of bisection degrees, so
existence_verdict must return the same status, delta, lattice minimum,
filtrability, threshold interval and degree interval on both sides, and
the exists and recipe replies through cli.main the same exit code and
the same fields for them.  The recipe is not compared: it is built on the
transformed classes, and each one a reply emits must replay from its JSON
to its own request's Chern data.

Two symmetries of spectral-cover requests are checked through cli.main on
the golden requests, where the numerics answer (|tau| <= 1e7): complex
conjugation of every complex number keeps the exit code, and on a genus-1
base moving a point p of a zero cycle, a nonsplit_at list or an elem_mod
fibre to p sigma^k, another name of its class, keeps the exit code, the
verification residual and the jump fibres as classes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellspec.cli import main
from ellspec.existence import existence_verdict, replay_recipe
from ellspec.jacobian import ruled_invariant_bounds
from ellspec.schemas import decode_complex, decode_recipe, decode_surface, encode_chern
from ellspec.surface import (
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    filtrable_bound,
    pairing,
    same_base_point,
    self_intersection,
)
from ellspec.tate import CurveParam

TAU = CurveParam(3.0)
# base numbers in the annulus 1 <= |z| < 3, distinct as numbers and as
# classes on the genus-1 base C*/<3>
FIBRE_POINTS = (1.5, 2.0j, -1.3 + 0.4j)

# every 2x2 integer matrix with entries in [-3, 3] and determinant +-1
UNIMODULAR_2 = tuple(
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4)
    if abs(a * d - b * c) == 1
)


def compared(verdict) -> tuple:
    return (
        verdict.status,
        verdict.delta,
        verdict.lattice_minimum,
        verdict.filtrable,
        verdict.threshold_interval,
        verdict.d_interval,
    )


@st.composite
def gram_matrices(draw, rank: int) -> tuple:
    """A positive-definite Gram matrix: integer diagonal, half-integer off it."""
    if rank == 0:
        return ()
    a = draw(st.integers(1, 6))
    if rank == 1:
        return ((Fraction(a),),)
    c = draw(st.integers(1, 6))
    room = math.isqrt(4 * a * c - 1)  # B^2 < 4AC
    b = draw(st.integers(-room, room))
    return ((Fraction(a), Fraction(b, 2)), (Fraction(b, 2), Fraction(c)))


@st.composite
def surfaces(draw) -> SurfaceData:
    """Genus 2-5 with a rank-1 or rank-2 lattice, or genus 0-1 with rank 0;
    0-2 multiple fibres either way."""
    genus = draw(st.integers(0, 5))
    rank = draw(st.sampled_from((1, 2))) if genus >= 2 else 0
    gram = draw(gram_matrices(rank))
    count = draw(st.integers(0, 2))
    fibres = tuple((p, draw(st.integers(2, 5))) for p in FIBRE_POINTS[:count])
    base = BaseCurve(genus, TAU if genus == 1 else None)
    return SurfaceData(base, TAU, fibres, lattice=HomLattice(rank, gram))


def ns_classes(surface: SurfaceData, bound: int = 6):
    coords = st.integers(-bound, bound)
    return st.builds(
        NSClass,
        st.tuples(*[coords] * surface.torsion_rank),
        st.tuples(*[coords] * surface.lattice.rank),
    )


@st.composite
def requests(draw) -> tuple[SurfaceData, ChernData, int | None]:
    """A surface, Chern data on it, and for genus >= 2 a degree d drawn
    from the admissible window of c1's lattice minimum, or none.  c2 is
    drawn so that the discriminant (4 c2 - c1^2) / 8 lies in about
    [-2, 4]: past every lattice minimum m <= 3 of the forms drawn."""
    surface = draw(surfaces())
    c1 = draw(ns_classes(surface))
    cd = ChernData(c1, self_intersection(c1, surface.lattice) // 4 + draw(st.integers(-4, 8)))
    d = None
    if surface.base.genus >= 2 and draw(st.booleans()):
        bounds = ruled_invariant_bounds(surface.base.genus, filtrable_bound(c1, surface.lattice)[0])
        d = draw(st.integers(bounds.d_min, bounds.d_max))
    return surface, cd, d


def twisted(surface: SurfaceData, cd: ChernData, twist: NSClass) -> ChernData:
    """The Chern data of the twist by the line bundle of class twist."""
    lattice = surface.lattice
    return ChernData(
        cd.c1 + twist.scale(2),
        cd.c2 + pairing(cd.c1, twist, lattice) + self_intersection(twist, lattice),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_twisting_by_a_line_bundle_keeps_the_verdict(data):
    surface, cd, d = data.draw(requests())
    twist = data.draw(ns_classes(surface, 4))
    before = existence_verdict(cd, surface, d=d)
    after = existence_verdict(twisted(surface, cd, twist), surface, d=d)
    assert compared(after) == compared(before)


# the unimodular matrices drawn for each lattice rank
UNIMODULAR = {0: ((),), 1: (((1,),), ((-1,),)), 2: UNIMODULAR_2}


def gram_of(lattice: HomLattice) -> tuple:
    """The Gram matrix of the lattice's integer form (A, B, C), (A,) or ()."""
    if lattice.rank == 2:
        a, b, c = lattice.form
        return ((a, Fraction(b, 2)), (Fraction(b, 2), c))
    return tuple((x,) for x in lattice.form)


def transpose_times(u: tuple, gram: tuple) -> tuple:
    """U^T G U."""
    n = len(u)
    return tuple(
        tuple(sum(u[k][i] * gram[k][l] * u[l][j] for k in range(n) for l in range(n)) for j in range(n))
        for i in range(n)
    )


def inverse(u: tuple) -> tuple:
    """The inverse of a unimodular matrix of size at most 2, with integer entries."""
    if len(u) < 2:
        return u
    (a, b), (c, d) = u
    det = a * d - b * c
    return ((det * d, -det * b), (-det * c, det * a))


def basis_changed(surface: SurfaceData, cd: ChernData, u: tuple) -> tuple[SurfaceData, ChernData]:
    """The surface with Gram matrix U^T G U, and cd with hom part U^-1 c1."""
    lattice = HomLattice(surface.lattice.rank, transpose_times(u, gram_of(surface.lattice)))
    moved = SurfaceData(surface.base, surface.fibre, surface.multiple_fibres, lattice=lattice)
    hom = tuple(sum(x * y for x, y in zip(row, cd.c1.hom)) for row in inverse(u))
    return moved, ChernData(NSClass(cd.c1.torsion, hom), cd.c2)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_unimodular_change_of_basis_keeps_the_verdict(data):
    surface, cd, d = data.draw(requests())
    u = data.draw(st.sampled_from(UNIMODULAR[surface.lattice.rank]))
    moved, changed = basis_changed(surface, cd, u)
    before = existence_verdict(cd, surface, d=d)
    after = existence_verdict(changed, moved, d=d)
    assert compared(after) == compared(before)


# ------------------------------------------------------------ through cli.main


def run_cli(argv: list[str], doc: dict) -> tuple[int, dict]:
    """cli.main on the request doc, read from stdin; the exit code and reply."""
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], "-", *argv[1:]])
    finally:
        sys.stdin = stdin
    return code, json.loads(out.getvalue())


def complex_doc(z: complex) -> list[float]:
    return [complex(z).real, complex(z).imag]


def surface_doc(surface: SurfaceData) -> dict:
    gram = [[int(x) if x.denominator == 1 else str(x) for x in row] for row in gram_of(surface.lattice)]
    doc = {
        "genus": surface.base.genus,
        "tau": complex_doc(surface.fibre.tau),
        "lattice": {"rank": surface.lattice.rank, "gram": gram},
        "multiple_fibres": [[complex_doc(p), mult] for p, mult in surface.multiple_fibres],
    }
    if surface.base.tate is not None:
        doc["sigma"] = complex_doc(surface.base.tate.tau)
    return doc


# the reply fields that both symmetries keep; a recipe reply carries only the first
KEPT = ("verdict", "delta", "lattice_minimum", "filtrable", "threshold_interval", "d_interval")


def replies(surface: SurfaceData, cd: ChernData, d: int | None) -> list[tuple]:
    """The exit code and kept fields of the exists and the recipe reply to
    the request, after replaying every recipe they emit from its JSON on
    the request's decoded surface to the request's Chern data."""
    doc = {"schema": 1, "surface": surface_doc(surface), "chern": encode_chern(cd)}
    if d is not None:
        doc["d"] = d
    decoded = decode_surface(doc["surface"])
    seen = []
    for command in ("exists", "recipe"):
        code, reply = run_cli([command], doc)
        if reply.get("recipe") is not None:
            assert replay_recipe(decode_recipe(reply["recipe"], decoded), decoded) == cd
        seen.append((code,) + tuple(reply.get(key) for key in KEPT))
    return seen


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_twisting_by_a_line_bundle_keeps_the_cli_replies(data):
    surface, cd, d = data.draw(requests())
    twist = data.draw(ns_classes(surface, 4))
    assert replies(surface, twisted(surface, cd, twist), d) == replies(surface, cd, d)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_unimodular_change_of_basis_keeps_the_cli_replies(data):
    surface, cd, d = data.draw(requests())
    u = data.draw(st.sampled_from(UNIMODULAR[surface.lattice.rank]))
    assert replies(*basis_changed(surface, cd, u), d) == replies(surface, cd, d)


# ------------------------------------------------- spectral-cover goldens

GOLDEN = Path(__file__).resolve().parent / "golden"
COVER_CASES = [
    case
    for case in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    if case["argv"][0] == "spectral-cover"
]


def golden_request(case: dict) -> dict:
    return json.loads((GOLDEN / f"{case['name']}.request.json").read_text(encoding="utf-8"))


# integer vectors, whose pairs are not complex numbers
INTEGER_KEYS = {"hom", "torsion", "gram", "hom_exponents"}


def conjugated(doc, key: str | None = None):
    """The request with every complex number, a pair of JSON numbers, conjugated."""
    if key in INTEGER_KEYS:
        return doc
    if isinstance(doc, dict):
        return {k: conjugated(v, k) for k, v in doc.items()}
    if isinstance(doc, list):
        if len(doc) == 2 and all(type(x) in (int, float) for x in doc):
            return [doc[0], -doc[1]]
        return [conjugated(x) for x in doc]
    return doc


# the domain map's moduli of tau (ROADMAP item 11) up to 1e7, where the
# numerics answer, each at three arguments
TAU_GRID = [
    complex_doc(r * complex(math.cos(arg), math.sin(arg)))
    for r in (1.0001, 1.001, 1.01, 1.1, 2, 10, 1e3, 1e5, 1e7)
    for arg in (0, 1, 2.5)
]


@pytest.mark.parametrize("case", COVER_CASES, ids=lambda case: case["name"])
def test_complex_conjugation_keeps_the_spectral_cover_exit_code(case):
    request = golden_request(case)
    for tau in TAU_GRID:
        doc = copy.deepcopy(request)
        doc["surface"]["tau"] = tau
        if "sigma" in doc["surface"]:
            doc["surface"]["sigma"] = tau
        code, _ = run_cli(case["argv"], doc)
        assert run_cli(case["argv"], conjugated(doc))[0] == code, tau


def moved_points(bundle: dict, move) -> dict:
    """The bundle with every zero-cycle, nonsplit_at and elem_mod point moved."""
    (kind, body), = bundle.items()
    body = dict(body)
    if kind == "elem_mod":
        body["parent"] = moved_points(body["parent"], move)
        body["fibre"] = move(body["fibre"])
    elif kind == "extension":
        if "Z" in body:
            body["Z"] = [[move(p), length] for p, length in body["Z"]]
        if "nonsplit_at" in body:
            body["nonsplit_at"] = [move(p) for p in body["nonsplit_at"]]
    return {kind: body}


def genus_1_elem_mod(case: dict) -> bool:
    doc = golden_request(case)
    return doc["surface"]["genus"] == 1 and "elem_mod" in doc["bundle"]


GENUS_1_ELEM_MOD = [case for case in COVER_CASES if genus_1_elem_mod(case)]


@pytest.mark.parametrize("k", (1, -1, 2))
@pytest.mark.parametrize("case", GENUS_1_ELEM_MOD, ids=lambda case: case["name"])
def test_another_class_representative_keeps_the_spectral_cover(case, k):
    request = golden_request(case)
    surface = decode_surface(request["surface"])
    sigma_k = surface.base.tate.tau ** k
    moved = dict(request, bundle=moved_points(request["bundle"], lambda p: complex_doc(decode_complex(p) * sigma_k)))
    code, reply = run_cli(case["argv"], request)
    moved_code, moved_reply = run_cli(case["argv"], moved)
    assert moved_code == code == 0
    assert moved_reply["verification"]["max_residual"] == reply["verification"]["max_residual"]
    jumps, moved_jumps = reply["jump_fibres"], moved_reply["jump_fibres"]
    assert len(moved_jumps) == len(jumps)
    for (p, mult), (q, moved_mult) in zip(jumps, moved_jumps):
        assert moved_mult == mult
        assert same_base_point(surface, decode_complex(p), decode_complex(q)), (p, q)
