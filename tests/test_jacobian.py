"""Sections, bisections, the determinant involution and the folded ruled
surface.

Oracle written before the assertions: coincidence_classes enumerates all
solutions of z^n = tau^k exactly and deduplicates them into annulus
classes — the independent count behind the power-map pairing example.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import zip_longest

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellspec import jacobian
from ellspec.jacobian import (
    _cover_evaluator,
    _poly_roots,
    _section_evaluator,
    DoubleCoverData,
    RationalMap,
    SectionOfJ,
    branch_point_count,
    branch_points_numeric,
    genus_and_branching,
    graph_self_intersection,
    involution_on_section,
    irreducible_bisection,
    is_invariant_bisection,
    reducible_bisection,
    ruled_invariant_bounds,
    section_for_class,
    section_pairing,
    sections_equal,
    zero_section,
)
from ellspec.surface import (
    UNIT_LATTICE,
    ZERO_LATTICE,
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    filtrable_bound,
)
from ellspec.tate import (
    INF,
    CurveParam,
    TatePoint,
    Tolerance,
    class_distance,
    distance_to_identity,
    identity,
    points_equal,
)

TAU4 = CurveParam(4.0)
TAU3 = CurveParam(3.0)

S0 = SurfaceData(BaseCurve(0), TAU4)
S0U = SurfaceData(BaseCurve(0), TAU4, lattice=UNIT_LATTICE)
S1 = SurfaceData(
    BaseCurve(1, tate=TAU3),
    TAU3,
    lattice=HomLattice(1, ((4,),)),
    hom_exponents=(2,),
)
S1U = SurfaceData(
    BaseCurve(1, tate=TAU3), TAU3, lattice=UNIT_LATTICE, hom_exponents=(1,)
)


# ----------------------------------------------------------------- oracle


def coincidence_classes(n: int, tau: complex) -> list[TatePoint]:
    """All annulus classes with z^n in the multiplier orbit: solutions of
    z^n = tau^k for k = 0..n-1, deduplicated."""
    curve = CurveParam(tau)
    out: list[TatePoint] = []
    for k in range(n):
        target = tau**k
        r = abs(target) ** (1.0 / n)
        base_arg = cmath.phase(target) / n
        for j in range(n):
            z = r * cmath.exp(1j * (base_arg + 2.0 * cmath.pi * j / n))
            pt = TatePoint(z, curve)
            if all(class_distance(pt, other) > 1e-6 for other in out):
                out.append(pt)
    return out


# ------------------------------------------------------------ evaluation


def section_point(section: SectionOfJ, b, surface: SurfaceData) -> TatePoint:
    """The section's value over the base point b, as a point of the fibre."""
    x = b.rep if isinstance(b, TatePoint) else b
    return TatePoint(_section_evaluator(section, surface)(x), surface.fibre)


def test_section_value_constant_g0():
    s = SectionOfJ(TatePoint(-2.0, S0.fibre), ())
    v = section_point(s, 0.7 + 0.1j, S0)
    assert points_equal(v, TatePoint(-2.0 + 0j, TAU4))


def test_section_value_power_map_g1():
    s = section_for_class(S1, NSClass((0,), (1,)))
    b = TatePoint(1.4 + 0.2j, TAU3)
    v = section_point(s, b, S1)
    assert points_equal(v, TatePoint(b.rep**2, TAU3), Tolerance(1e-9))


@pytest.mark.parametrize("exp", [1000, -1000000])
def test_section_value_of_a_huge_power_stays_in_its_class(exp):
    # x**exp leaves the float range, so exp log x is reduced modulo log tau;
    # the value is the class of x**exp, computed in full by mpmath
    tau = CurveParam(3.0 + 0.4j)
    surface = SurfaceData(BaseCurve(1, tate=tau), tau, lattice=UNIT_LATTICE, hom_exponents=(exp,))
    b = 2.9 + 0.2j
    got = section_point(SectionOfJ(TatePoint(1.5, tau), (1,)), b, surface)
    with mpmath.workdps(40):
        w = exp * mpmath.log(mpmath.mpc(b))
        log_tau = mpmath.log(mpmath.mpc(tau.tau))
        want = 1.5 * mpmath.exp(w - mpmath.floor(w.real / log_tau.real) * log_tau)
    assert class_distance(got, TatePoint(complex(want), tau)) < 1e-15 * abs(exp)


def test_section_value_errors():
    with pytest.raises(ValueError):
        section_point(SectionOfJ(identity(TAU4), (1,)), 0.0, S0U)
    s_abs = SurfaceData(BaseCurve(2), TAU4, lattice=UNIT_LATTICE)
    with pytest.raises(ValueError):
        section_point(zero_section(s_abs), 0.0, s_abs)
    with pytest.raises(ValueError):
        # no concrete generators declared for the hom part
        bare = SurfaceData(BaseCurve(1, tate=TAU3), TAU3, lattice=UNIT_LATTICE)
        section_point(SectionOfJ(identity(TAU3), (1,)), 1.0, bare)


# ------------------------------------------------------- section pairing


def test_section_pairing_frozen():
    z = zero_section(S0U)
    assert section_pairing(z, z, UNIT_LATTICE) == 0
    s1 = SectionOfJ(identity(TAU4), (2,))
    s2 = SectionOfJ(identity(TAU4), (1,))
    assert section_pairing(s1, s2, UNIT_LATTICE) == 1
    pol = HomLattice(2, ((1, "1/2"), ("1/2", 1)))
    a = SectionOfJ(identity(TAU4), (1, 1))
    b = SectionOfJ(identity(TAU4), (0, 0))
    assert section_pairing(a, b, pol) == 3
    with pytest.raises(ValueError):
        section_pairing(s1, a, UNIT_LATTICE)


def test_power_map_pairing_matches_coincidence_count():
    # the exponent-2 generator meets the zero section in deg(mult-by-2)
    # classes; enumerate them independently
    classes = coincidence_classes(2, 3.0)
    assert len(classes) == 4
    s = section_for_class(S1, NSClass((0,), (1,)))
    zero = zero_section(S1)
    assert section_pairing(s, zero, S1.lattice) == len(classes)
    # each enumerated class really is a coincidence point
    for b in classes:
        v = section_point(s, b, S1)
        assert distance_to_identity(v) < 1e-9


# ----------------------------------------------------------- involution


def test_involution_sends_zero_section_to_determinant():
    delta = SectionOfJ(TatePoint(2.5 + 0j, TAU4), ())
    img = involution_on_section(zero_section(S0), delta)
    assert sections_equal(img, delta)


def test_involution_idempotent():
    delta = SectionOfJ(TatePoint(1.3 + 0.8j, TAU3), (1,))
    s = SectionOfJ(TatePoint(2.2 - 0.1j, TAU3), (4,))
    twice = involution_on_section(involution_on_section(s, delta), delta)
    assert sections_equal(twice, s)


@settings(max_examples=40, deadline=None)
@given(
    hs=st.integers(-6, 6),
    hd=st.integers(-6, 6),
    cs=st.floats(1.05, 2.8),
    cd=st.floats(1.05, 2.8),
)
def test_involution_idempotent_property(hs, hd, cs, cd):
    delta = SectionOfJ(TatePoint(cd + 0.1j, TAU3), (hd,))
    s = SectionOfJ(TatePoint(cs - 0.2j, TAU3), (hs,))
    twice = involution_on_section(involution_on_section(s, delta), delta)
    assert sections_equal(twice, s, Tolerance(1e-9))


# ------------------------------------------------------------ invariance


def test_invariant_pair_zero_and_determinant():
    delta = SectionOfJ(TatePoint(2.5 + 0j, TAU4), ())
    bis = reducible_bisection(zero_section(S0), delta)
    assert is_invariant_bisection(bis, delta, S0)


def test_doubled_zero_section_not_invariant_for_nontrivial_determinant():
    delta = SectionOfJ(TatePoint(2.5 + 0j, TAU4), ())
    bis = reducible_bisection(zero_section(S0), zero_section(S0))
    assert not is_invariant_bisection(bis, delta, S0)


def test_componentwise_fixed_pair_invariant():
    # each component individually fixed: s and delta/s with s^2 = delta
    delta = SectionOfJ(TatePoint(4.0 + 0j, TAU4), ())  # class of 1
    s = SectionOfJ(TatePoint(2.0 + 0j, TAU4), ())  # square root class
    bis = reducible_bisection(s, involution_on_section(s, delta))
    assert is_invariant_bisection(bis, delta, S0)


def test_concrete_cover_invariant_by_construction():
    cover = DoubleCoverData(trace=RationalMap((0.0, 1.0)))
    bis = irreducible_bisection(cover)
    delta = SectionOfJ(TatePoint(1.0, S0.fibre), ())
    assert is_invariant_bisection(bis, delta, S0)


def test_cover_norm_decides_invariance():
    # by Vieta the fibre values multiply to the norm, so l -> delta/l swaps
    # them exactly when the norm is a constant in delta's class
    s03 = SurfaceData(BaseCurve(0), TAU3)
    delta = SectionOfJ(TatePoint(1.5, s03.fibre), ())
    trace = RationalMap((0.3, 0.2, 1.0))
    for norm, invariant in [
        (None, True),
        (RationalMap((1.5,)), True),
        (RationalMap((4.5,)), True),  # 1.5 tau
        (RationalMap((2.5,)), False),
        (RationalMap((1.5, 1.0)), False),
        (RationalMap((0.0,)), False),
    ]:
        bis = irreducible_bisection(DoubleCoverData(trace=trace, norm=norm))
        assert is_invariant_bisection(bis, delta, s03) is invariant, norm


def test_cover_invariance_samples_no_fibre(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("invariance sampled a fibre")

    monkeypatch.setattr(jacobian, "_cover_evaluator", never)
    delta = SectionOfJ(TatePoint(1.5, S0.fibre), ())
    for norm in (None, RationalMap((1.5,)), RationalMap((2.5,))):
        bis = irreducible_bisection(DoubleCoverData(trace=RationalMap((0.3, 0.2, 1.0)), norm=norm))
        is_invariant_bisection(bis, delta, S0)


def test_declared_cover_trusted():
    cover = DoubleCoverData(declared_self_intersection=Fraction(2))
    s_abs = SurfaceData(BaseCurve(2), TAU4, lattice=UNIT_LATTICE)
    assert is_invariant_bisection(irreducible_bisection(cover), zero_section(s_abs), s_abs)


# ---------------------------------------------- folded self-intersection


def test_graph_self_intersection_values():
    delta = zero_section(S0U)
    doubled = reducible_bisection(zero_section(S0U), zero_section(S0U))
    assert graph_self_intersection(doubled, delta, S0U) == 0

    d1 = SectionOfJ(identity(TAU3), (1,))
    bis = reducible_bisection(zero_section(S1U), d1)
    assert graph_self_intersection(bis, d1, S1U) == 1

    cover = DoubleCoverData(trace=RationalMap((0.0, 1.0)))
    got = graph_self_intersection(irreducible_bisection(cover), SectionOfJ(TatePoint(1.0, S0.fibre), ()), S0)
    assert got == 1

    declared = DoubleCoverData(declared_self_intersection=Fraction(3))
    s_abs = SurfaceData(BaseCurve(3), TAU4, lattice=UNIT_LATTICE)
    got = graph_self_intersection(irreducible_bisection(declared), zero_section(s_abs), s_abs)
    assert got == 3


def test_graph_self_intersection_rejects_non_invariant():
    delta = zero_section(S0)
    skew = reducible_bisection(zero_section(S0), SectionOfJ(TatePoint(1.5 + 0.7j, S0.fibre), ()))
    with pytest.raises(ValueError):
        graph_self_intersection(skew, delta, S0)


def test_declared_cover_without_data_errors():
    cover = DoubleCoverData()
    s_abs = SurfaceData(BaseCurve(2), TAU4)
    with pytest.raises(ValueError):
        graph_self_intersection(irreducible_bisection(cover), zero_section(s_abs), s_abs)


# -------------------------------------------------------- rational maps


def test_rational_map_evaluation():
    r = RationalMap((1.0, 0.0, 1.0))  # 1 + b^2
    assert r(2.0) == 5.0
    assert r.degree == 2
    assert cmath.isinf(r(INF))
    quot = RationalMap((0.0, 1.0), (1.0, 1.0))  # b / (1 + b)
    assert quot(1.0) == 0.5
    assert quot(INF) == 1.0
    assert cmath.isinf(quot(-1.0))
    lowered = RationalMap((1.0,), (0.0, 1.0))  # 1 / b
    assert lowered(INF) == 0.0
    assert RationalMap((2.0, 3.0, 0.0)).num == (2.0 + 0j, 3.0 + 0j)
    with pytest.raises(ValueError):
        RationalMap((1.0,), (0.0,))


def test_cover_fibre_values_product_is_determinant():
    cover = DoubleCoverData(trace=RationalMap((0.0, 1.0)))
    bis = irreducible_bisection(cover)
    delta = SectionOfJ(TatePoint(1.3 + 0.4j, S0.fibre), ())
    values = _cover_evaluator(bis, delta, S0)
    for b in (0.3 + 0.2j, -1.1 + 0.8j, 2.0 - 0.5j):
        v1, v2 = values(b)
        prod = v1 * v2
        want = section_point(delta, b, S0)
        assert points_equal(TatePoint(prod, TAU4), want, Tolerance(1e-9))


def test_cover_fibre_values_errors():
    pole = DoubleCoverData(trace=RationalMap((1.0,), (0.0, 1.0)))
    with pytest.raises(ValueError):
        _cover_evaluator(irreducible_bisection(pole), SectionOfJ(TatePoint(1.0, S0.fibre), ()), S0)(0.0)
    declared = DoubleCoverData(declared_self_intersection=Fraction(1))
    with pytest.raises(ValueError):
        _cover_evaluator(irreducible_bisection(declared), SectionOfJ(TatePoint(1.0, S0.fibre), ()), S0)


# --------------------------------------------------------- branch points


def test_branch_points_quadratic_trace():
    cover = DoubleCoverData(trace=RationalMap((0.0, 0.0, 1.0)))  # t(b) = b^2
    delta = SectionOfJ(TatePoint(1.0, S0.fibre), ())
    roots = sorted(
        branch_points_numeric(cover, delta, S0), key=lambda z: (round(z.real, 6), round(z.imag, 6))
    )
    assert len(roots) == 4
    # roots of b^4 = 4: +-sqrt(2), +-i sqrt(2)
    s2 = 2.0**0.5
    want = sorted(
        [complex(s2), complex(-s2), complex(0, s2), complex(0, -s2)],
        key=lambda z: (round(z.real, 6), round(z.imag, 6)),
    )
    for g, w in zip(roots, want):
        assert abs(g - w) < 1e-8
    assert branch_point_count(cover, delta, S0) == 4


def test_branch_points_linear_trace():
    cover = DoubleCoverData(trace=RationalMap((0.0, 1.0)))
    delta = SectionOfJ(TatePoint(1.0, S0.fibre), ())
    roots = sorted(branch_points_numeric(cover, delta, S0), key=lambda z: z.real)
    assert len(roots) == 2
    assert abs(roots[0] - (-2.0)) < 1e-9 and abs(roots[1] - 2.0) < 1e-9
    assert branch_point_count(cover, delta, S0) == 2


def test_branch_points_constant_trace():
    cover = DoubleCoverData(trace=RationalMap((3.0,)))
    delta = SectionOfJ(TatePoint(1.0, S0.fibre), ())
    assert branch_points_numeric(cover, delta, S0) == []
    assert branch_point_count(cover, delta, S0) == 0


def test_branch_points_degenerate_square():
    cover = DoubleCoverData(trace=RationalMap((2.0,)))  # t^2 - 4 = 0 identically
    delta = SectionOfJ(TatePoint(1.0, S0.fibre), ())
    with pytest.raises(ValueError):
        branch_points_numeric(cover, delta, S0)


def test_branch_points_need_constant_determinant():
    cover = DoubleCoverData(trace=RationalMap((0.0, 1.0)))
    with pytest.raises(ValueError):
        branch_points_numeric(cover, SectionOfJ(identity(TAU4), (1,)), S0U)


# ----------------------------------------------------------- root finder
#
# Oracles: mpmath.polyroots at 20 digits where the roots are unknown, the
# constructed roots themselves where they are known exactly.  A simple
# root is only as accurate as its condition allows, so roots of random
# polynomials are compared where sum |a_k||r|^k / (|p'(r)| (1 + |r|)) is at
# most 1e4: rounding then moves them by about 1e4 * eps = 2e-12, well
# inside the 1e-9 asserted.  A
# double root r moves by sqrt(eps * sum |a_k||r|^k / |p''(r)/2|) under
# rounding, so exact double roots sit on the Gaussian integers of the
# unit square, where that is below 3e-7.  (Four double roots packed into
# one corner of the half-integer grid give 2.5e-6 here and 2.0e-6 from
# numpy.roots.)


def _from_roots(roots, lead=1.0):
    """Ascending coefficients of lead * prod (z - r)."""
    coeffs = [complex(lead)]
    for r in roots:
        coeffs = [s - r * c for s, c in zip([0j] + coeffs, coeffs + [0j])]
    return coeffs


def _mp_roots(coeffs):
    """Exact zero roots, then mpmath.polyroots on the rest (it needs a nonzero constant)."""
    zeros = next(k for k, c in enumerate(coeffs) if c != 0)
    if zeros == len(coeffs) - 1:
        return [0j] * zeros
    with mpmath.workdps(20):
        roots = mpmath.polyroots(
            [mpmath.mpc(c) for c in reversed(coeffs[zeros:])], maxsteps=400, extraprec=40
        )
    return [0j] * zeros + [complex(r) for r in roots]


def _well_conditioned(coeffs, r):
    size = sum(abs(c) * abs(r) ** k for k, c in enumerate(coeffs))
    slope = abs(sum(k * c * r ** (k - 1) for k, c in enumerate(coeffs) if k))
    return size <= 1e4 * slope * (1 + abs(r))


def _distance(found, r, rank=0):
    return sorted(abs(z - r) for z in found)[rank]


_real = st.floats(-4, 4).map(lambda x: round(x, 6))
_coefficient = st.builds(complex, _real, _real)
_tiny = st.floats(-1e-3, 1e-3, allow_subnormal=False)
_unit_grid = st.builds(complex, st.integers(-1, 1), st.integers(-1, 1))
_lead = st.sampled_from([1.0, -2.0, 0.5j, 3.0 + 1.0j])


@settings(max_examples=80, deadline=None)
@given(coeffs=st.lists(_coefficient, min_size=2, max_size=9))
def test_roots_of_random_coefficients_match_mpmath(coeffs):
    assume(abs(coeffs[-1]) > 1e-3)
    found = _poly_roots(coeffs)
    assert len(found) == len(coeffs) - 1
    for r in _mp_roots(coeffs):
        if _well_conditioned(coeffs, r):
            assert _distance(found, r) <= 1e-9 * (1 + abs(r))


@settings(max_examples=60, deadline=None)
@given(
    centre=_unit_grid,
    offsets=st.lists(st.builds(complex, _tiny, _tiny), min_size=2, max_size=4),
    others=st.lists(_unit_grid, max_size=4, unique=True),
    lead=_lead,
)
def test_roots_of_clustered_polynomials(centre, offsets, others, lead):
    others = [r for r in others if r != centre]
    found = _poly_roots(_from_roots([centre + d for d in offsets] + others, lead))
    assert len(found) == len(offsets) + len(others)
    assert sum(abs(z - centre) < 0.25 for z in found) == len(offsets)
    for r in others:
        assert _distance(found, r) <= 1e-9 * (1 + abs(r))


@settings(max_examples=80, deadline=None)
@given(
    doubles=st.lists(_unit_grid, min_size=1, max_size=4, unique=True),
    simples=st.lists(_unit_grid, max_size=6, unique=True),
    lead=_lead,
)
def test_roots_of_exact_double_roots(doubles, simples, lead):
    simples = [r for r in simples if r not in doubles][: 8 - 2 * len(doubles)]
    found = _poly_roots(_from_roots(doubles + doubles + simples, lead))
    assert len(found) == 2 * len(doubles) + len(simples)
    for r in simples:
        assert _distance(found, r) <= 1e-9 * (1 + abs(r))
    for r in doubles:
        assert _distance(found, r, rank=1) <= 1e-6


def test_roots_out_of_float_range_raise():
    # the roots 0 and 2.2e-311j: the second is subnormal
    with pytest.raises(ValueError, match="floating-point range"):
        _poly_roots([0j, -2.225073858507e-311j, 1.0])


@pytest.mark.parametrize("lead", [1.0, -2.0, 0.5j, 3.0 + 1.0j])
def test_roots_whose_product_is_subnormal(lead):
    # both roots are normal floats but their product, the constant
    # coefficient, is subnormal: at the tiny root p(z) is subnormal, the
    # rounding bound underflows to 0 and the Aberth step leaves the float
    # range, so the root stops at its last finite value
    tiny, other = -2.2250738585072014e-308j, 0.000527759468981431 + 0.0004538868892961492j
    found = _poly_roots(_from_roots([tiny, other], lead))
    assert len(found) == 2
    assert _distance(found, other) <= 1e-12 * abs(other)
    assert _distance(found, tiny) <= 1e-9 * abs(tiny)


def _square(a):
    return [
        sum(a[i] * a[k - i] for i in range(len(a)) if 0 <= k - i < len(a))
        for k in range(2 * len(a) - 1)
    ]


_small = st.sampled_from([0.0, 0.5, -1.0, 1.0, 2.0, -3.0, 1.5j, 1.0 - 1.0j])


@settings(max_examples=80, deadline=None)
@given(
    num=st.lists(_small, min_size=1, max_size=5),
    den=st.lists(_small, min_size=1, max_size=5).filter(any),
    d0=st.sampled_from([1.0, 0.25, 4.0, -1.0, 1.0j, 2.25]),
)
def test_branch_point_count_is_trimmed_degree(num, den, d0):
    """The count is the degree of num^2 - 4 d0 den^2 once leading terms below
    1e-10 of the largest are dropped; small dyadic data make exact
    cancellation in those terms common."""
    cover = DoubleCoverData(trace=RationalMap(tuple(num), tuple(den)), norm=RationalMap((d0,)))
    with mpmath.workdps(60):  # exact for these inputs
        top = _square([mpmath.mpc(c) for c in num])
        bottom = _square([mpmath.mpc(c) for c in den])
        disc = [x - 4 * mpmath.mpc(d0) * y for x, y in zip_longest(top, bottom, fillvalue=0)]
        scale = max(abs(c) for c in disc)
        assume(scale > 0)
        kept = [k for k, c in enumerate(disc) if abs(c) > 1e-10 * scale]
        disc = [complex(c) for c in disc[: kept[-1] + 1]]
    found = branch_points_numeric(cover, SectionOfJ(TatePoint(1.0, S0.fibre), ()), S0)
    assert len(found) == len(disc) - 1
    for z in found:  # each is a root of a polynomial within 1e-12 of disc
        residual = abs(sum(c * z**k for k, c in enumerate(disc)))
        assert residual <= 1e-12 * sum(abs(c) * abs(z) ** k for k, c in enumerate(disc))


# --------------------------------------------------------- ruled bounds


def test_ruled_invariant_bounds_frozen():
    b = ruled_invariant_bounds(0, 1)
    assert (b.d_min, b.d_max, b.e_min, b.e_max) == (2, 2, 0, 0)
    b = ruled_invariant_bounds(2, 1)
    assert (b.d_min, b.d_max, b.e_min, b.e_max) == (1, 2, -2, 0)
    b = ruled_invariant_bounds(0, 0)
    assert (b.d_min, b.d_max) == (0, 0) and not b.empty
    assert ruled_invariant_bounds(0, Fraction(1, 4)).empty
    with pytest.raises(ValueError):
        ruled_invariant_bounds(0, -1)
    with pytest.raises(ValueError):
        ruled_invariant_bounds(0, Fraction(1, 8))
    with pytest.raises(ValueError):
        ruled_invariant_bounds(-1, 0)


@settings(max_examples=60, deadline=None)
@given(genus=st.integers(0, 5), four_m=st.integers(0, 12))
def test_ruled_bounds_windows(genus, four_m):
    m = Fraction(four_m, 4)
    b = ruled_invariant_bounds(genus, m)
    if b.empty:
        return
    assert -genus <= b.e_min <= b.e_max <= 0
    assert max(0, 2 * m - Fraction(genus, 2)) <= b.d_min
    assert b.d_max <= 2 * m
    assert b.e_min == 2 * b.d_min - four_m
    assert b.e_max == 2 * b.d_max - four_m


@settings(max_examples=200, deadline=None)
@given(genus=st.integers(2, 10_000), four_m=st.integers(0, 10**6))
def test_ruled_bounds_never_empty_from_genus_two(genus, four_m):
    # ceil(2m - g/2) <= ceil(2m) - 1 <= floor(2m) once g >= 2
    assert not ruled_invariant_bounds(genus, Fraction(four_m, 4)).empty


def test_ruled_surface_data():
    # the fold along a minimising determinant class: the class, a section
    # realising it, and the window of the folded ruled surface
    c1 = NSClass((0,), (1,))
    m, delta_class = filtrable_bound(c1, S0U.lattice)
    assert m == Fraction(1, 4)
    assert delta_class == NSClass((0,), (-1,))
    assert section_for_class(S0U, delta_class).hom == (-1,)
    assert ruled_invariant_bounds(S0U.base.genus, m).empty  # g=0 with quarter-integral m has no window


# -------------------------------------------------- genus and branching


def test_genus_and_branching_frozen():
    z = NSClass((0,), ())
    assert genus_and_branching(ChernData(z, 1), 0, ZERO_LATTICE) == (1, 4)
    assert genus_and_branching(ChernData(z, 2), 1, ZERO_LATTICE) == (5, 8)
    assert genus_and_branching(ChernData(z, 0), 0, ZERO_LATTICE) == (-1, 0)


@settings(max_examples=80, deadline=None)
@given(
    genus=st.integers(0, 2),
    c2=st.integers(-6, 6),
    hom=st.integers(-2, 2),
)
def test_hurwitz_identity(genus, c2, hom):
    cd = ChernData(NSClass((0,), (hom,)), c2)
    g_cover, branch = genus_and_branching(cd, genus, UNIT_LATTICE)
    assert 2 * g_cover - 2 == 2 * (2 * genus - 2) + branch
