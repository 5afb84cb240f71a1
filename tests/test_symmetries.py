"""The paper's symmetries of the existence problem, as properties.

Twisting a bundle by a line bundle lambda takes its Chern data
(c1, c2) to (c1 + 2 lambda, c2 + c1.lambda + lambda^2), and a unimodular
change of basis U of the hom lattice takes the Gram matrix G to U^T G U
and the coordinates of c1 to U^-1 c1.  Neither moves the discriminant,
the lattice minimum or the admissible window of bisection degrees, so
existence_verdict must return the same status, delta, lattice minimum,
filtrability, threshold interval and degree interval on both sides.
The recipe is not compared: it is built on the transformed classes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ellspec.existence import existence_verdict
from ellspec.jacobian import ruled_invariant_bounds
from ellspec.surface import (
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    filtrable_bound,
    pairing,
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_twisting_by_a_line_bundle_keeps_the_verdict(data):
    surface, cd, d = data.draw(requests())
    twist = data.draw(ns_classes(surface, 4))
    lattice = surface.lattice
    twisted = ChernData(
        cd.c1 + twist.scale(2),
        cd.c2 + pairing(cd.c1, twist, lattice) + self_intersection(twist, lattice),
    )
    before = existence_verdict(cd, surface, d=d)
    after = existence_verdict(twisted, surface, d=d)
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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_unimodular_change_of_basis_keeps_the_verdict(data):
    surface, cd, d = data.draw(requests())
    u = data.draw(st.sampled_from(UNIMODULAR[surface.lattice.rank]))
    lattice = HomLattice(surface.lattice.rank, transpose_times(u, gram_of(surface.lattice)))
    moved = SurfaceData(surface.base, surface.fibre, surface.multiple_fibres, lattice=lattice)
    hom = tuple(sum(x * y for x, y in zip(row, cd.c1.hom)) for row in inverse(u))
    changed = ChernData(NSClass(cd.c1.torsion, hom), cd.c2)
    before = existence_verdict(cd, surface, d=d)
    after = existence_verdict(changed, moved, d=d)
    assert compared(after) == compared(before)
