"""Exact lattice arithmetic and the filtrable lower bound.

Oracle written before the assertions: brute_bound enumerates lattice
vectors in a cube of radius 25 and minimises deg(c1 - 2 mu) exactly,
with the same lexicographic tie-break on the witness.  box_bound is the
earlier box search of filtrable_bound, kept as the oracle for the
reduced closest-vector search that replaced it.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ellspec import surface as surface_module
from ellspec.bundles import ElemModBundle, ExtensionBundle, _FibrePlan, trivial_line_bundle
from ellspec.surface import (
    UNIT_LATTICE,
    ZERO_LATTICE,
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    _BaseIndex,
    _base_tau,
    _same_base_number,
    _sample_base_numbers,
    as_fraction,
    base_point,
    discriminant,
    distinct_base_points,
    eight_discriminant,
    filtrable_bound,
    pairing,
    same_base_point,
    self_intersection,
    spectral_support_count,
)
from ellspec.tate import CurveParam, Tolerance, _point_rep

POLARIZED = HomLattice(2, ((1, "1/2"), ("1/2", 1)))
DEGENERATE = HomLattice(2, ((1, 1), (1, 1)))
EVEN = HomLattice(1, ((2,),))


# ----------------------------------------------------------------- oracle


def gram_matrix(lattice: HomLattice) -> tuple[tuple[Fraction, ...], ...]:
    """The Gram matrix of B, as Fractions, rebuilt from the form."""
    if lattice.rank == 2:
        a, b, c = lattice.form
        return ((Fraction(a), Fraction(b, 2)), (Fraction(b, 2), Fraction(c)))
    return tuple((Fraction(x),) for x in lattice.form)


def gram_determinant(lattice: HomLattice) -> Fraction:
    """The determinant of the Gram matrix, 1 in rank 0."""
    if lattice.rank == 2:
        a, b, c = lattice.form
        return Fraction(4 * a * c - b * b, 4)
    return Fraction(lattice.form[0]) if lattice.rank == 1 else Fraction(1)


def brute_bound(c1: NSClass, lattice: HomLattice, radius: int = 25):
    """Exhaustive minimum of deg(c1 - 2 mu)/4 over the cube |mu_i| <= radius."""
    rank = lattice.rank
    if rank == 0:
        return Fraction(0), NSClass(c1.torsion, ())
    best_val = None
    best_wit = None
    for mu in itertools.product(range(-radius, radius + 1), repeat=rank):
        wit = tuple(a - 2 * b for a, b in zip(c1.hom, mu))
        v = lattice.degree(wit)
        if best_val is None or v < best_val or (v == best_val and wit < best_wit):
            best_val, best_wit = v, wit
    return Fraction(best_val, 4), NSClass(c1.torsion, best_wit)


def box_bound(c1: NSClass, lattice: HomLattice):
    """The box search that filtrable_bound used before Gauss reduction.

    Definite forms: every mu in a box around c1/2 whose half-side comes
    from lambda_min >= det/trace.  Degenerate forms: the two nearest
    multiples of a Bezout complement of the primitive kernel vector.
    Ties go to the lexicographically smallest witness.
    """
    w, g, rank = c1.hom, gram_matrix(lattice), lattice.rank
    if rank == 0:
        return Fraction(0), NSClass(c1.torsion, ())
    a2 = [[int(2 * x) for x in row] for row in g]  # twice the gram: integers

    def degree(v):
        return sum(a2[i][j] * v[i] * v[j] for i in range(rank) for j in range(rank)) // 2

    if all(x == 0 for row in g for x in row):
        candidates = [(0,) * rank]
    elif rank == 1:
        candidates = [(w[0] // 2,), (w[0] // 2 + 1,)]
    elif g[0][0] * g[1][1] == g[0][1] ** 2:
        a, b = g[0][0], g[0][1]
        kx, ky = (1, 0) if a == 0 else (-b.numerator * a.denominator, a.numerator * b.denominator)
        k = math.gcd(kx, ky)
        kx, ky = kx // k, ky // k
        # Bezout: s kx + t ky = 1, complement (-t, s)
        old_r, r, old_s, s_, old_t, t = kx, ky, 1, 0, 0, 1
        while r:
            qu = old_r // r
            old_r, r = r, old_r - qu * r
            old_s, s_ = s_, old_s - qu * s_
            old_t, t = t, old_t - qu * t
        if old_r < 0:
            old_s, old_t = -old_s, -old_t
        comp = (-old_t, old_s)
        bw = sum(g[i][j] * w[i] * comp[j] for i in range(2) for j in range(2))
        lo = math.floor(bw / (2 * degree(comp)))
        candidates = [(k * comp[0], k * comp[1]) for k in (lo, lo + 1)]
    else:
        det = g[0][0] * g[1][1] - g[0][1] ** 2
        tr = g[0][0] + g[1][1]
        rounded = tuple(int(round(Fraction(x, 2))) for x in w)
        best0 = Fraction(degree(tuple(a - 2 * b for a, b in zip(w, rounded))))
        half = math.isqrt(math.ceil(best0 * tr / det / 4)) + 1
        candidates = [
            (rounded[0] + i, rounded[1] + j)
            for i in range(-half, half + 1)
            for j in range(-half, half + 1)
        ]
    witnesses = [tuple(a - 2 * b for a, b in zip(w, mu)) for mu in candidates]
    best = min(witnesses, key=lambda z: (degree(z), z))
    return Fraction(degree(best), 4), NSClass(c1.torsion, best)


def form_lattice(a: int, b: int, c: int) -> HomLattice:
    """The rank-2 lattice of a x^2 + b x y + c y^2."""
    return HomLattice(2, ((a, Fraction(b, 2)), (Fraction(b, 2), c)))


def transformed(n: int, k: int, u) -> tuple[int, int, int]:
    """(A, B, C) of u^T diag(n, k) u."""
    (p, q), (r, s) = u
    return (n * p * p + k * r * r, 2 * (n * p * q + k * r * s), n * q * q + k * s * s)


# ------------------------------------------------------------- validation


def test_as_fraction():
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(3) == 3
    with pytest.raises(ValueError):
        as_fraction(0.3)
    with pytest.raises(TypeError):
        as_fraction(object())


def test_lattice_validation():
    with pytest.raises(ValueError):
        HomLattice(1, ((-1,),))  # negative degree
    with pytest.raises(ValueError):
        HomLattice(2, ((1, 2), (2, 1)))  # indefinite: det < 0
    with pytest.raises(ValueError):
        HomLattice(2, ((1, 0), (1, 1)))  # not symmetric
    with pytest.raises(ValueError):
        HomLattice(2, ((1, 0),))  # wrong shape
    with pytest.raises(ValueError):
        HomLattice(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))  # rank too large
    with pytest.raises(ValueError):
        HomLattice(1, (("1/2",),))  # fractional generator degree
    with pytest.raises(ValueError):
        HomLattice(2, ((1, "1/4"), ("1/4", 1)))  # quarter-integral pairing
    # degenerate but semidefinite forms are fine
    HomLattice(2, ((1, 1), (1, 1)))
    HomLattice(2, ((0, 0), (0, 0)))


def reference_lattice(rank, gram):
    """(form, gram) as HomLattice built them with Fraction arithmetic
    before it checked integer entries as they stand; raises as it did."""
    if rank not in (0, 1, 2):
        raise ValueError("lattice rank must be 0, 1 or 2")
    g = tuple(tuple(as_fraction(x) for x in row) for row in gram)
    if len(g) != rank or any(len(row) != rank for row in g):
        raise ValueError("gram matrix shape does not match the rank")
    for i in range(rank):
        if g[i][i].denominator != 1:
            raise ValueError("generator degrees (gram diagonal) must be integers")
        for j in range(rank):
            if g[i][j] != g[j][i]:
                raise ValueError("gram matrix must be symmetric")
            if (2 * g[i][j]).denominator != 1:
                raise ValueError("gram entries must be half-integers")
    if rank == 2:
        form = (int(g[0][0]), int(2 * g[0][1]), int(g[1][1]))
        determinant = Fraction(4 * form[0] * form[2] - form[1] ** 2, 4)
    else:
        form = tuple(int(g[i][i]) for i in range(rank))
        determinant = Fraction(form[0]) if rank == 1 else Fraction(1)
    if any(x < 0 for x in form[::2]) or determinant < 0:
        raise ValueError("degree form is indefinite")
    return form, g


def _outcome(build, rank, gram):
    try:
        return build(rank, gram)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


_HALVES = st.integers(-7, 7).map(lambda k: Fraction(k, 2))
_WELL_FORMED = st.one_of(st.integers(-6, 6), _HALVES, _HALVES.map(str), _HALVES.map(float))
_ENTRIES = st.one_of(
    _WELL_FORMED,
    _WELL_FORMED,
    _WELL_FORMED,
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
    st.sampled_from(["1/3", "-5/4", "1/0", "abc", "", "2.5", " 3 ", "7/-2", 0.3, float("nan")]),
    st.sampled_from([float("inf"), True, None, 10**30, -(10**30)]),
)


@st.composite
def _grams(draw):
    rank = draw(st.sampled_from([2, 2, 2, 2, 1, 1, 0, 3]))
    size = rank if draw(st.integers(0, 5)) else draw(st.sampled_from([max(rank - 1, 0), rank + 1]))
    # an integer diagonal more often than not, so later checks are reached
    diagonal = st.one_of(st.integers(0, 6), st.integers(0, 6).map(str), _ENTRIES)
    rows = [[draw(diagonal if i == j else _ENTRIES) for j in range(size)] for i in range(size)]
    if draw(st.integers(0, 3)):  # mostly symmetric
        for i in range(size):
            for j in range(i):
                rows[i][j] = rows[j][i]
    if size and not draw(st.integers(0, 7)):  # a ragged row
        rows[draw(st.integers(0, size - 1))].append(draw(_ENTRIES))
    return rank, tuple(tuple(row) for row in rows)


@settings(max_examples=400, deadline=None)
@given(case=_grams())
def test_lattice_check_matches_the_fraction_reference(case):
    rank, gram = case
    want = _outcome(reference_lattice, rank, gram)
    got = _outcome(HomLattice, rank, gram)
    event(f"rank {rank} accepted" if isinstance(got, HomLattice) else got[1][:30])
    if isinstance(got, HomLattice):
        assert got.form == want[0]
        assert got.rank == rank and got == HomLattice(rank, want[1])
        assert hash(got) == hash(HomLattice(rank, want[1]))
    else:
        assert got == want


def test_lattice_identity_is_its_form():
    assert HomLattice(2, ((1, "1/2"), ("1/2", 1))) == HomLattice(2, ((1.0, 0.5), (Fraction(1, 2), 1)))
    assert HomLattice(2, ((2, 1), (1, 2))).form == (2, 2, 2)
    assert HomLattice(2, ((2, 1), (1, 2))) != HomLattice(2, ((2, 0), (0, 2)))
    assert len({HomLattice(1, ((4,),)), HomLattice(1, ((Fraction(4),),)), HomLattice(1, (("4",),))}) == 1


def test_base_curve_validation():
    with pytest.raises(ValueError):
        BaseCurve(genus=-1)
    with pytest.raises(ValueError):
        BaseCurve(genus=1)  # needs a concrete model
    with pytest.raises(ValueError):
        BaseCurve(genus=0, tate=CurveParam(2.0))


def test_surface_validation():
    base = BaseCurve(genus=0)
    fib = CurveParam(3.0)
    with pytest.raises(ValueError):
        SurfaceData(base, fib, multiple_fibres=((1.0, 2), (1.0, 3)))
    with pytest.raises(ValueError):
        SurfaceData(base, fib, multiple_fibres=((1.0, 1),))
    with pytest.raises(ValueError):
        SurfaceData(base, fib, theta_degree=0)
    with pytest.raises(ValueError):
        SurfaceData(base, fib, multiple_fibres=((1.0, 2),), theta_degree=1)
    with pytest.raises(ValueError):
        SurfaceData(base, fib, lattice=UNIT_LATTICE, hom_exponents=(1, 2))
    with pytest.raises(ValueError):
        # nonzero power maps need a genus-1 base
        SurfaceData(base, fib, lattice=UNIT_LATTICE, hom_exponents=(1,))
    with pytest.raises(ValueError):
        # base multiplier must equal the fibre multiplier
        SurfaceData(
            BaseCurve(genus=1, tate=CurveParam(2.0)),
            fib,
            lattice=UNIT_LATTICE,
            hom_exponents=(1,),
        )
    ok = SurfaceData(
        BaseCurve(genus=1, tate=fib), fib, lattice=UNIT_LATTICE, hom_exponents=(1,)
    )
    assert ok.torsion_rank == 1
    assert SurfaceData(base, fib, multiple_fibres=((0.0, 2), (1.0, 3))).torsion_rank == 3


# ------------------------------------------------------ base-point identity


def pairwise_distinct(surface, points) -> bool:
    """The pairwise scan that distinct_base_points replaced: the reference."""
    return not any(same_base_point(surface, p, q) for p, q in itertools.combinations(points, 2))


def pairwise_merge(surface, eps, points):
    """The pairwise merge that the keyed jump merge of bundles._FibrePlan replaced: the reference."""
    tau = _base_tau(surface)
    out = []
    for p, m in points:
        p = base_point(surface, p)
        for i, (q, n) in enumerate(out):
            if _same_base_number(tau, eps, q, p):
                out[i] = (q, n + m)
                break
        else:
            out.append((p, m))
    return tuple(out)


NEAR_TAUS = [1.0000001, 3.0, 2j, 1e8, 1e300]
NEAR_EPS = [5e-324, 1e-9, 1e-3, 0.5]
# offsets in units of eps: on it, within it and just beyond it
NEAR_FACTORS = [0.0, 0.5, 1.0 - 2.0**-52, 1.0, 1.0 + 2.0**-52, 1.0 + 1e-9, 1.5, 4.0]
EXTREME = [
    complex(1.7e308, -1.7e308),
    complex(-1.7e308, 1.0),
    complex(1e308, 1e308),
    complex(math.inf, 0.0),
    complex(0.0, -math.inf),
    complex(math.inf, math.nan),
    complex(math.nan, 0.0),
    complex(math.nan, math.nan),
    complex(5e-324, -5e-324),
    0j,
]


@st.composite
def near_points(draw):
    """(surface, eps, base numbers) drawn as clusters of near-coincident
    points: within and just beyond eps of an anchor, and on a genus-1 base
    also carried across the annulus seam by the multiplier; on genus 0
    anchors include points near +-1e308, at infinity and NaN."""
    eps = draw(st.sampled_from(NEAR_EPS))
    tau = draw(st.sampled_from([None, *NEAR_TAUS]))
    if tau is None:
        surface = SurfaceData(BaseCurve(0), CurveParam(4.0))
        anchor = st.one_of(
            st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)), st.sampled_from(EXTREME)
        )
    else:
        surface = SurfaceData(BaseCurve(1, CurveParam(tau)), CurveParam(tau))
        # moduli on the seam, on either side of it, and inside the annulus
        modulus = st.sampled_from([1.0, 1.0 + 1e-12, abs(tau), abs(tau) * (1 - 1e-12), abs(tau) ** 0.5])
        anchor = st.builds(cmath.rect, modulus, st.floats(0, 2 * math.pi))
    points = []
    for a in draw(st.lists(anchor, min_size=1, max_size=4)):
        points.append(a)
        for factor, angle, shift in draw(
            st.lists(
                st.tuples(st.sampled_from(NEAR_FACTORS), st.floats(0, 2 * math.pi), st.sampled_from([-1, 0, 1])),
                max_size=3,
            )
        ):
            z = a + cmath.rect(eps * factor, angle) if cmath.isfinite(a) else a
            points.append(z if tau is None else z * tau**shift)
    try:
        points = [base_point(surface, p) for p in points]
    except ValueError:  # no class on C*/<tau>: zero, or a product past the float range
        assume(False)
    return surface, eps, draw(st.permutations(points))


def _or_overflow(f, *args):
    """f(*args), or OverflowError where a difference's modulus leaves the float range."""
    try:
        return f(*args)
    except OverflowError:
        return OverflowError


@settings(max_examples=400, deadline=None)
@given(case=near_points())
def test_keyed_identity_matches_the_pairwise_reference(case):
    surface, eps, points = case
    tau = _base_tau(surface)
    event(f"tau={tau}, eps={eps}")
    # distinctness, at the default tolerance
    want = _or_overflow(pairwise_distinct, surface, points)
    if want is not OverflowError:
        assert distinct_base_points(surface, points) == want
    # merging keeps the earliest representative and adds multiplicities:
    # the first pair as a zero cycle, the rest as a modification chain
    pairs = [(p, i + 1) for i, p in enumerate(points)]
    want = _or_overflow(pairwise_merge, surface, eps, pairs)
    if want is not OverflowError:
        trivial = trivial_line_bundle(surface)
        bundle = ExtensionBundle(trivial, trivial, zero_cycle=tuple(pairs[:1]))
        if pairs[1:]:
            bundle = ElemModBundle(bundle, pairs[1:])
        assert repr(_FibrePlan(bundle, surface, Tolerance(eps)).jumps) == repr(want)
    # lookup: every filed number that agrees with the query, in filing order
    index = _BaseIndex(surface, eps)
    for i, p in enumerate(points):
        index.add(p, i)
    for x in points:
        want = _or_overflow(lambda: [i for i, p in enumerate(points) if _same_base_number(tau, eps, x, p)])
        if want is not OverflowError:
            assert index.matches(x) == want, (x, want)


@pytest.mark.parametrize("tau", [3.0, 1e8, 1e300, 1.5 + 1.5j])
def test_a_point_meets_its_rounded_image_across_the_seam(tau):
    # x on the inner edge of the annulus and y = x tau, rounded, on the outer
    # edge: the class distance |x tau - y| is 0, so they agree even at the
    # least eps, though y / tau is not x to the last bit
    surface = SurfaceData(BaseCurve(1, CurveParam(tau)), CurveParam(tau))
    rng = random.Random(1)
    met = 0
    for _ in range(3000):
        x = cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi))
        y = x * tau
        if not (abs(x) >= 1.0 and abs(y) < abs(tau)) or y / tau == x:
            continue
        met += 1
        for first, second in ((x, y), (y, x)):
            index = _BaseIndex(surface, 5e-324)
            index.add(first, "first")
            assert index.matches(second) == ["first"], (x, y)
    assert met > 0


def test_base_index_keys_stay_exact_past_the_float_range():
    # with the least eps a cell is 2**-1069 wide, so x / side overflows a
    # float; the cell number is still exact and neighbours stay apart
    index = _BaseIndex(None, 5e-324)
    index.add(1.5 + 0j, "a")
    index.add(complex(1.5, 1e-323), "b")
    index.add(complex(1.7e308, -1.7e308), "c")
    assert index.matches(1.5 + 0j) == ["a"]
    assert index.matches(complex(1.5, 5e-324)) == ["a", "b"]
    assert index.matches(complex(1.7e308, -1.7e308)) == ["c"]
    index.add(complex(math.inf, 1.0), "inf")
    assert index.matches(complex(0.0, -math.inf)) == ["inf"]
    # NaN is never filed and matches nothing
    nan = _BaseIndex(None, 1e-9)
    nan.add(complex(math.nan, 0.0), "nan")
    assert not nan and nan.matches(complex(math.nan, 0.0)) == []


# ------------------------------------------------------ generic base numbers

TAU4 = CurveParam(4.0)
TAU3 = CurveParam(3.0)
S0 = SurfaceData(BaseCurve(0), TAU4)
S1 = SurfaceData(BaseCurve(1, tate=TAU3), TAU3, lattice=HomLattice(1, ((4,),)), hom_exponents=(2,))


def test_sample_base_points():
    pts = _sample_base_numbers(S0, 5, seed=3, avoid=(0.5 + 0.5j,))
    assert len(pts) == 5
    assert all(abs(p - (0.5 + 0.5j)) > 1e-3 for p in pts)
    assert pts == _sample_base_numbers(S0, 5, seed=3, avoid=(0.5 + 0.5j,))
    assert _sample_base_numbers(S0, 0, seed=3, avoid=(0.5 + 0.5j,)) == []
    # annulus representatives on a genus-1 base
    g1pts = _sample_base_numbers(S1, 3, seed=1)
    assert all(1.0 <= abs(p) < abs(TAU3.tau) for p in g1pts)
    # formal markers on an abstract base, from the square a rational base uses
    assert _sample_base_numbers(SurfaceData(BaseCurve(2), TAU4), 5, seed=3) == _sample_base_numbers(S0, 5, seed=3)


def test_sampling_a_blocked_base_raises():
    # on |tau| = 1.0001 the annulus is 1e-4 wide, so avoided numbers 1.5e-3
    # apart round the unit circle leave no number at clearance to draw
    tate = CurveParam(1.0001)
    surface = SurfaceData(BaseCurve(1, tate=tate), tate)
    avoid = tuple(cmath.rect(1.00005, 1.5e-3 * k) for k in range(4200))
    for count in (1, 2):
        with pytest.raises(RuntimeError, match="could not sample enough generic base points"):
            _sample_base_numbers(surface, count, 0, avoid)


def sampled_by_loop(surface: SurfaceData, count: int, seed: int = 0, avoid=()) -> list[complex]:
    """The seeded loop alone, drawing through rng.uniform: the reference for
    _sample_base_numbers, whose single number skips the loop unless blocked."""
    rng = random.Random(seed)
    avoided = [(base_point(surface, p), None) for p in avoid] + list(surface.multiple_fibres)
    forbidden = _BaseIndex(surface, math.nextafter(1e-3, 0.0), avoided) if avoided else None
    tate = surface.base.tate
    out = []
    while len(out) < count:
        if tate is None:
            b = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        else:
            r = abs(tate.tau) ** rng.uniform(0.0, 1.0)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            b = _point_rep(r * cmath.exp(1j * theta), tate)
        if forbidden and forbidden.matches(b):
            continue
        out.append(b)
    return out


_SAMPLED_BASES = [(0, None), (2, None)] + [(1, CurveParam(t)) for t in (3.0, 2j, 1e8, complex(3.0, -0.0))]


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(_SAMPLED_BASES),
    seed=st.integers(0, 999),
    # how far the blocking point lies from the seed's first draw, and in
    # which direction; None leaves the draw free
    gap=st.sampled_from([None, 0.0, 1e-3, math.nextafter(1e-3, 0.0)]),
    angle=st.sampled_from([0.0, 0.5 * math.pi, 0.75 * math.pi, -1.0]),
    as_avoid=st.booleans(),
)
def test_one_number_is_the_seeded_loops_first(base, seed, gap, angle, as_avoid):
    genus, tate = base
    fibre = tate or TAU4
    bare = SurfaceData(BaseCurve(genus, tate=tate), fibre)
    first = sampled_by_loop(bare, 1, seed)[0]
    avoid, fibres = (), ()
    if gap is not None:
        near = first + gap * cmath.exp(1j * angle)
        avoid, fibres = ((base_point(bare, near),), ()) if as_avoid else ((), ((near, 2),))
    surface = SurfaceData(BaseCurve(genus, tate=tate), fibre, multiple_fibres=fibres)
    want = sampled_by_loop(surface, 1, seed, avoid)
    if gap == 0.0:
        assert want != [first]
    assert _sample_base_numbers(surface, 1, seed, avoid) == want
    surface_module._first_uniforms.cache_clear()
    assert _sample_base_numbers(surface, 1, seed, avoid) == want
    # more numbers come from the loop, whose first is the same draw
    assert _sample_base_numbers(surface, 3, seed, avoid) == sampled_by_loop(surface, 3, seed, avoid)


# seeds whose first draw lies where b + gap - b is exactly gap along the
# given direction, found by search, so the clearance test meets its bound
@pytest.mark.parametrize(
    "genus, tate, seed, direction",
    [(0, None, 8136, 1), (0, None, 2289, 1j), (2, None, 8136, 1), (1, TAU3, 336, 1), (1, TAU3, 309, 1j)],
)
def test_the_first_draw_is_blocked_only_below_the_clearance(genus, tate, seed, direction):
    bare = SurfaceData(BaseCurve(genus, tate=tate), tate or TAU4)
    first = sampled_by_loop(bare, 1, seed)[0]
    tau = None if tate is None else tate.tau
    below = math.nextafter(1e-3, 0.0)
    assert _same_base_number(tau, 1e-3, first, first + direction * 1e-3)
    assert not _same_base_number(tau, below, first, first + direction * 1e-3)
    for gap, blocked in ((1e-3, False), (below, True)):
        near = first + direction * gap
        surface = SurfaceData(BaseCurve(genus, tate=tate), tate or TAU4, multiple_fibres=((near, 2),))
        want = sampled_by_loop(surface, 1, seed)
        assert (want != [first]) == blocked
        assert _sample_base_numbers(surface, 1, seed) == want


def test_one_number_far_from_a_huge_multiple_fibre():
    # |draw - fibre| leaves the float range: the pairwise test cannot
    # decide, and the keyed loop, which never compares far points, does
    surface = SurfaceData(BaseCurve(0), TAU4, multiple_fibres=((complex(1.7e308, 1.7e308), 2),))
    with pytest.raises(OverflowError):
        abs(sampled_by_loop(S0, 1)[0] - surface.multiple_fibres[0][0])
    assert _sample_base_numbers(surface, 1) == sampled_by_loop(surface, 1) == sampled_by_loop(S0, 1)


# ------------------------------------------------------- pairing arithmetic


def test_degree_and_self_intersection_frozen():
    assert POLARIZED.degree((1, 1)) == 3
    assert self_intersection(NSClass((0,), (1, 1)), POLARIZED) == -6
    assert UNIT_LATTICE.degree((3,)) == 9
    assert self_intersection(NSClass((0,), (0,)), UNIT_LATTICE) == 0


def test_pairing_frozen():
    a = NSClass((0,), (1,))
    b = NSClass((0,), (2,))
    assert pairing(a, b, UNIT_LATTICE) == -4
    x = NSClass((0,), (1, 0))
    y = NSClass((0,), (0, 1))
    assert pairing(x, y, POLARIZED) == -1


def test_pairing_ignores_torsion():
    a = NSClass((5,), (1,))
    b = NSClass((-3,), (2,))
    assert pairing(a, b, UNIT_LATTICE) == -4
    assert pairing(NSClass((7,), ()), NSClass((1,), ()), ZERO_LATTICE) == 0


def test_ns_class_arithmetic():
    a = NSClass((1, 2), (3,))
    b = NSClass((0, 1), (-1,))
    assert a + b == NSClass((1, 3), (2,))
    assert a.scale(2) == NSClass((2, 4), (6,))
    with pytest.raises(ValueError):
        a + NSClass((1,), (1,))


@settings(max_examples=60, deadline=None)
@given(
    va=st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    vb=st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    vc=st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
)
def test_pairing_symmetric_bilinear(va, vb, vc):
    t = (0,)
    a, b, c = NSClass(t, va), NSClass(t, vb), NSClass(t, vc)
    assert pairing(a, b, POLARIZED) == pairing(b, a, POLARIZED)
    assert pairing(a + b, c, POLARIZED) == pairing(a, c, POLARIZED) + pairing(b, c, POLARIZED)
    assert self_intersection(a, POLARIZED) == pairing(a, a, POLARIZED)


# ----------------------------------------------------------- discriminant


def test_discriminant_frozen():
    z = NSClass((0,), ())
    assert discriminant(ChernData(z, 4), ZERO_LATTICE) == 2
    assert discriminant(ChernData(z, 0), ZERO_LATTICE) == 0
    odd = NSClass((0,), (1,))
    assert discriminant(ChernData(odd, 0), UNIT_LATTICE) == Fraction(1, 4)
    assert discriminant(ChernData(odd, -1), UNIT_LATTICE) == Fraction(-1, 4)
    assert eight_discriminant(ChernData(odd, -1), UNIT_LATTICE) == -2


def test_spectral_support_count():
    z = NSClass((0,), ())
    assert spectral_support_count(ChernData(z, 2), ZERO_LATTICE) == 2
    odd = NSClass((0,), (1,))
    assert spectral_support_count(ChernData(odd, 0), UNIT_LATTICE) == 1


@settings(max_examples=60, deadline=None)
@given(
    hom=st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
    c2=st.integers(-20, 20),
)
def test_four_delta_integral(hom, c2):
    cd = ChernData(NSClass((0,), hom), c2)
    assert (4 * discriminant(cd, POLARIZED)).denominator == 1
    eight = eight_discriminant(cd, POLARIZED)
    assert type(eight) is int and eight == 4 * c2 - self_intersection(cd.c1, POLARIZED)


# --------------------------------------------------- filtrable lower bound


def test_filtrable_bound_frozen():
    m, wit = filtrable_bound(NSClass((0,), (1,)), UNIT_LATTICE)
    assert m == Fraction(1, 4)
    assert wit == NSClass((0,), (-1,))
    m, wit = filtrable_bound(NSClass((0,), (1,)), EVEN)
    assert m == Fraction(1, 2)
    assert wit == NSClass((0,), (-1,))
    m, wit = filtrable_bound(NSClass((3,), (0,)), UNIT_LATTICE)
    assert m == 0
    assert wit == NSClass((3,), (0,))
    m, wit = filtrable_bound(NSClass((0,), ()), ZERO_LATTICE)
    assert m == 0


def test_filtrable_bound_witness_relations():
    cases = [
        (UNIT_LATTICE, (7,)),
        (EVEN, (-3,)),
        (POLARIZED, (5, -4)),
        (DEGENERATE, (2, 3)),
        (HomLattice(2, ((0, 0), (0, 0))), (1, 1)),
        (HomLattice(2, ((0, 0), (0, 5))), (3, 4)),
    ]
    for lattice, hom in cases:
        c1 = NSClass((0,), hom)
        m, wit = filtrable_bound(c1, lattice)
        assert self_intersection(wit, lattice) == -8 * m
        assert all((a - b) % 2 == 0 for a, b in zip(c1.hom, wit.hom))
        assert wit.torsion == c1.torsion


def test_filtrable_bound_matches_brute_force():
    rng = random.Random(19)
    lattices = [
        UNIT_LATTICE,
        EVEN,
        POLARIZED,
        DEGENERATE,
        HomLattice(1, ((0,),)),
        HomLattice(2, ((0, 0), (0, 0))),
        HomLattice(2, ((2, "1/2"), ("1/2", 1))),
        HomLattice(2, ((0, 0), (0, 3))),
    ]
    count = 0
    while count < 40:
        lattice = rng.choice(lattices)
        hom = tuple(rng.randint(-10, 10) for _ in range(lattice.rank))
        c1 = NSClass((rng.randint(-3, 3),), hom)
        got_m, got_wit = filtrable_bound(c1, lattice)
        want_m, want_wit = brute_bound(c1, lattice)
        assert got_m == want_m
        if gram_determinant(lattice) > 0:
            # definite: the lex-minimal witness is globally well defined
            assert got_wit == want_wit
        else:
            # degenerate: minimisers form an infinite family along the
            # kernel, so only witness validity is checkable
            assert self_intersection(got_wit, lattice) == -8 * got_m
            assert all((a - b) % 2 == 0 for a, b in zip(c1.hom, got_wit.hom))
        count += 1


def test_filtrable_bound_random_definite_lattices():
    rng = random.Random(23)
    count = 0
    while count < 25:
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        c = rng.randint(-3, 3)
        d = rng.randint(-3, 3)
        # gram of A^T A is always positive semidefinite with integer entries
        gram = ((a * a + c * c, a * b + c * d), (a * b + c * d, b * b + d * d))
        lattice = HomLattice(2, gram)
        hom = (rng.randint(-10, 10), rng.randint(-10, 10))
        c1 = NSClass((0,), hom)
        got_m, got_wit = filtrable_bound(c1, lattice)
        want_m, want_wit = brute_bound(c1, lattice)
        assert got_m == want_m
        if gram_determinant(lattice) > 0:
            assert got_wit == want_wit
        else:
            assert self_intersection(got_wit, lattice) == -8 * got_m
            assert all((a - b) % 2 == 0 for a, b in zip(c1.hom, got_wit.hom))
        count += 1


@st.composite
def unimodular(draw, steps: int = 3):
    """A product of shears and swaps with entries in [-3, 3]."""
    p, q, r, s = 1, 0, 0, 1
    for k in draw(st.lists(st.integers(-2, 2), max_size=steps)):
        p, q, r, s = q, -p + k * q, s, -r + k * s
    return ((p, q), (r, s))


@st.composite
def definite_forms(draw):
    a = draw(st.integers(1, 30))
    c = draw(st.integers(1, 30))
    room = math.isqrt(4 * a * c - 1)
    return (a, draw(st.integers(-room, room)), c)


skewed_forms = st.builds(
    transformed, st.integers(1, 30), st.just(1), unimodular().filter(
        lambda u: max(abs(x) for row in u for x in row) <= 3
    )
)
# forms with symmetries, where several vectors share the least degree
tie_forms = st.builds(
    lambda k, base, u: transformed(1, 1, u) if base is None else tuple(k * x for x in base),
    st.integers(1, 5),
    st.sampled_from([(1, 0, 1), (1, 1, 1), (1, -1, 1), (2, 2, 2), (2, 0, 1), None]),
    unimodular(2),
)
degenerate_forms = st.one_of(
    st.just((0, 0, 0)),
    st.builds(transformed, st.integers(1, 12), st.just(0), unimodular(2)),
)


@settings(max_examples=300, deadline=None)
@given(
    form=st.one_of(definite_forms(), skewed_forms, tie_forms, degenerate_forms),
    hom=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    torsion=st.integers(-3, 3),
)
def test_filtrable_bound_matches_box_search(form, hom, torsion):
    lattice = form_lattice(*form)
    c1 = NSClass((torsion,), hom)
    assert filtrable_bound(c1, lattice) == box_bound(c1, lattice)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 12), w=st.integers(-40, 40))
def test_filtrable_bound_rank_one_matches_box_search(a, w):
    lattice = HomLattice(1, ((a,),))
    c1 = NSClass((0,), (w,))
    assert filtrable_bound(c1, lattice) == box_bound(c1, lattice)


def test_filtrable_bound_ladder_is_fast():
    """diag(N, 1) and two skewed images up to N = 10^12, against the closed
    form m = (N (c1_0 mod 2) + (c1_1 mod 2)) / 4 in diagonal coordinates."""
    shears = (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)))
    for e in range(1, 13):
        n = 10**e
        for u in shears:
            lattice = form_lattice(*transformed(n, 1, u))
            for hom in ((1, 1), (2, 1), (1, 2), (0, 0), (3, -5), (-7, 4)):
                c1 = NSClass((0,), hom)
                elapsed = []
                for _ in range(3):
                    start = time.perf_counter()
                    m, wit = filtrable_bound(c1, lattice)
                    elapsed.append(time.perf_counter() - start)
                assert min(elapsed) < 0.01, (n, u, hom, elapsed)
                (p, q), (r, s) = u
                x, y = p * hom[0] + q * hom[1], r * hom[0] + s * hom[1]
                assert m == Fraction(n * (x % 2) + y % 2, 4)
                assert self_intersection(wit, lattice) == -8 * m
                assert all((a - b) % 2 == 0 for a, b in zip(hom, wit.hom))
