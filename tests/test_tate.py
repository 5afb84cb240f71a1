"""Curve arithmetic and quotient x-coordinate: oracles and frozen values.

Oracles used to freeze expected values, written before the assertions:
  - brute_canonical: exhaustive power search over k in [-64, 64].
  - mp_quotient_x: bilateral sum at 25 decimal digits (mpmath), summed
    until the geometric tail is below 1e-24, so it also holds near |tau| = 1;
    it needs about 1 s per point at tau = 1.01.
  - mp_dual_x: the cosecant-square sum of DLMF 23.8.1 at 30 digits in a
    Lagrange-reduced period basis, for |tau| below 1.01; checked against
    mp_quotient_x at tau = 1.05 and 1.2.
"""

from __future__ import annotations

import cmath
import functools
import math
import random

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellspec import tate
from ellspec.tate import (
    DEFAULT_TOL,
    INF,
    CurveParam,
    TatePoint,
    Tolerance,
    class_distance,
    distance_to_identity,
    group_inv,
    identity,
    points_equal,
    quotient_x,
    quotient_x_at,
    two_torsion,
    x_preimages,
)


# ----------------------------------------------------------------- oracles


def brute_canonical(z: complex, tau: complex) -> complex:
    """Exhaustive search for the annulus representative of z."""
    at = abs(tau)
    for k in range(-64, 65):
        w = z * tau**k
        if 1.0 <= abs(w) < at:
            return w
    raise AssertionError("no representative found in the searched power range")


def mp_quotient_x(u: complex, tau: complex) -> complex:
    """High-precision bilateral series for the quotient x-coordinate."""
    with mpmath.workdps(25):
        q = 1 / mpmath.mpmathify(tau)
        uu = mpmath.mpmathify(u)
        total = uu / (1 - uu) ** 2
        qn = mpmath.mpc(1)
        while abs(qn) * (abs(uu) + 1 / abs(uu) + 2) > mpmath.mpf(10) ** -24:
            qn *= q
            total += qn * uu / (1 - qn * uu) ** 2 + uu / qn / (1 - uu / qn) ** 2
            total -= 2 * qn / (1 - qn) ** 2
        return complex(total)


def mp_reduced_basis(tau: complex):
    """A Lagrange-reduced basis (a, b) of 2 pi i Z + log(tau) Z, Im(b/a) > 0."""
    a, b = mpmath.log(mpmath.mpmathify(tau)), 2j * mpmath.pi
    while True:
        b -= mpmath.nint(mpmath.re(b / a)) * a
        if not abs(b) < abs(a):
            return a, b
        a, b = b, -a


def mp_dual_x(u: complex, tau: complex) -> complex:
    """x = P(log u) - 1/12 from DLMF 23.8.1 with 2 omega_1 = a, 2 omega_3 = b:

        P(w) = -eta_1/omega_1 + (pi/a)^2 sum_m csc^2(pi (w/a + m b/a)),
        eta_1/omega_1 = (pi/a)^2 (1 - 24 sum_{n>=1} p^n/(1 - p^n)^2) / 3,

    with p = exp(2 pi i b/a), summed until the terms are below 1e-40."""
    with mpmath.workdps(30):
        a, b = mp_reduced_basis(tau)
        tr = b / a
        t = mpmath.log(mpmath.mpmathify(u)) / a
        t -= mpmath.nint(mpmath.im(t) / mpmath.im(tr)) * tr
        p = mpmath.exp(2j * mpmath.pi * tr)
        tiny = mpmath.mpf(10) ** -40
        eisen = mpmath.mpf(1)
        n = 1
        while abs(p) ** n > tiny:
            eisen -= 24 * p**n / (1 - p**n) ** 2
            n += 1
        csc2 = mpmath.csc(mpmath.pi * t) ** 2
        m = 1
        while True:
            term = mpmath.csc(mpmath.pi * (t + m * tr)) ** 2 + mpmath.csc(mpmath.pi * (t - m * tr)) ** 2
            csc2 += term
            if abs(term) < tiny * abs(csc2):
                break
            m += 1
        return complex((mpmath.pi / a) ** 2 * (csc2 - eisen / 3) - mpmath.mpf(1) / 12)


TAU4 = CurveParam(4.0)
TAU2 = CurveParam(2.0)
TAU3 = CurveParam(3.0)
TAU2I = CurveParam(2j)


# ------------------------------------------------- canonical representatives


def test_canonical_rep_frozen_values():
    assert TatePoint(8.0 + 0j, TAU4).rep == pytest.approx(2.0 + 0j)
    assert TatePoint(0.1 + 0j, TAU2).rep == pytest.approx(1.6 + 0j)
    assert TatePoint(1.0 + 0j, TAU4).rep == 1.0 + 0j
    # |tau| itself wraps back to 1
    assert TatePoint(4.0 + 0j, TAU4).rep == pytest.approx(1.0 + 0j)


def test_canonical_rep_matches_brute_force():
    rng = random.Random(7)
    for curve in (TAU4, TAU2, TAU2I, CurveParam(1.5 + 1.5j)):
        for _ in range(50):
            z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
            if abs(z) < 1e-3:
                continue
            got = TatePoint(z, curve).rep
            want = brute_canonical(z, curve.tau)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_rejects_zero_and_infinite_points():
    with pytest.raises(ValueError):
        TatePoint(0.0 + 0j, TAU4)
    with pytest.raises(ValueError):
        TatePoint(INF, TAU4)


@pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.inf, math.nan)])
def test_rejects_nan_points(z):
    with pytest.raises(ValueError, match="nonzero finite"):
        TatePoint(z, TAU4)


def mp_canonical(z: complex, tau: complex) -> complex:
    """z times the power of tau that takes it into the annulus, at 40 digits."""
    with mpmath.workdps(40):
        zz, tt = mpmath.mpmathify(z), mpmath.mpmathify(tau)
        k = -int(mpmath.floor(mpmath.log(abs(zz)) / mpmath.log(abs(tt))))
        return complex(zz * tt**k)


@pytest.mark.parametrize("tau", [3.0, 1.001, 1.5 + 1.5j, 2j])
@pytest.mark.parametrize("z", [5e-324, 5e-324j, 1.7e308, -1.7e308 + 1e308j])
def test_canonical_rep_reaches_the_annulus_from_float_extremes(z, tau):
    # a subnormal |z| overflows tau**k in one power, and the last modulus
    # overflows abs(); every nonzero finite z still has a representative
    curve = CurveParam(tau)
    rep = TatePoint(z, curve).rep
    assert 1.0 <= abs(rep) < abs(tau)
    assert class_distance(TatePoint(rep, curve), TatePoint(mp_canonical(z, tau), curve)) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(
    radial=st.floats(0.0, 1.0, exclude_max=True),
    angle=st.floats(-math.pi, math.pi),
    tau=st.sampled_from([2.0, 4.0, 2j, -2.0, 3.0, 1.5 + 1.5j, 1.05]),
)
def test_canonical_rep_keeps_annulus_points(radial, angle, tau):
    z = abs(tau) ** radial * cmath.exp(1j * angle)
    assume(1.0 <= abs(z) < abs(tau))
    # within an ulp of |tau|, z tau^-1 may round onto |w| = 1 as well, and
    # brute_canonical then returns that second float representative
    assume(abs(z * tau**-1) < 1.0)
    assert tate._canonical_rep(z, CurveParam(tau)) == z == brute_canonical(z, tau)


def test_rejects_small_multiplier():
    with pytest.raises(ValueError):
        CurveParam(0.5)
    with pytest.raises(ValueError):
        CurveParam(1.0)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eps=0.0)


def test_tolerance_rejects_a_non_finite_eps():
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance eps must be positive"):
            Tolerance(eps)


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-30, 30, allow_nan=False),
    im=st.floats(-30, 30, allow_nan=False),
    tau=st.sampled_from([2.0, 4.0, 2j, 1.5 + 1.5j]),
)
def test_canonical_rep_lies_in_annulus(re, im, tau):
    z = complex(re, im)
    if abs(z) < 1e-6:
        return
    curve = CurveParam(tau)
    rep = TatePoint(z, curve).rep
    assert 1.0 <= abs(rep) < abs(tau)



def test_canonical_rep_is_a_fixed_point_at_the_float_fence():
    # |z| rounds below 1 while |z tau| rounds onto |tau|, so no power of tau
    # takes z inside the annulus in floats; the reduction once returned a
    # modulus below 1 there, which a second reduction moved again
    curve = CurveParam(2.5 + 1j)
    z = 0.9968017063026192 - 0.07991469396917264j
    assert abs(z) < 1.0 and abs(z * curve.tau) >= abs(curve.tau)
    rep = TatePoint(z, curve).rep
    assert 1.0 <= abs(rep) < abs(curve.tau)
    assert TatePoint(rep, curve).rep == rep and abs(rep - z) < 1e-15


def test_reductions_by_many_powers_land_in_the_annulus():
    # reductions by tau**k for |k| up to 40, then by some 6.9e6 powers
    # (|z| = 1e300 and 1e-300 on |tau| = 1.0001): each lands in the annulus
    # as a fixed point, the first ones on the number they were built from,
    # and a curve built again gives the same bits
    curve = CurveParam(1.0001 * cmath.exp(0.7j))
    w = cmath.rect(curve.abs_tau**0.5, 1.0)
    numbers = [curve.tau**-k * w for k in range(-40, 41)]
    for z in numbers + [1e300 + 0j, -1e-300j]:
        rep = tate._canonical_rep(z, curve)
        assert 1.0 <= abs(rep) < curve.abs_tau
        assert tate._canonical_rep(rep, curve) == rep
        assert repr(tate._canonical_rep(z, CurveParam(curve.tau))) == repr(rep)
        assert z not in numbers or abs(rep - w) < 1e-12


# -------------------------------------------------------- group operations


def test_group_inverse_and_identity():
    a = TatePoint(2.5 + 0j, TAU4)
    assert points_equal(TatePoint(a.rep * group_inv(a).rep, TAU4), identity(TAU4))
    assert identity(TAU4).rep == 1.0 + 0j
    assert points_equal(TatePoint(a.rep**-2, TAU4), group_inv(TatePoint(a.rep**2, TAU4)))


def test_group_requires_same_curve():
    with pytest.raises(ValueError):
        class_distance(TatePoint(1.5, TAU4), TatePoint(1.5, TAU2))


def test_class_distance_wraps_boundary():
    a = TatePoint(1.0 + 0j, TAU4)
    b = TatePoint(3.9 + 0j, TAU4)
    assert class_distance(a, b) == pytest.approx(0.1)
    assert points_equal(a, TatePoint(3.9999999999 + 0j, TAU4))


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-30, 30, allow_nan=False),
    im=st.floats(-30, 30, allow_nan=False),
    tau=st.sampled_from([2.0, 4.0, 2j, 1.5 + 1.5j, 1.05]),
)
def test_distance_to_identity_is_class_distance_to_identity(re, im, tau):
    assume(complex(re, im) != 0)
    curve = CurveParam(tau)
    p = TatePoint(complex(re, im), curve)
    assert distance_to_identity(p) == class_distance(p, identity(curve))


# ------------------------------------------------------------- two-torsion


def test_two_torsion_frozen_tau4():
    reps = sorted((t.rep.real, t.rep.imag) for t in two_torsion(TAU4))
    want = sorted([(1.0, 0.0), (-1.0, 0.0), (2.0, 0.0), (-2.0, 0.0)])
    for (gr, gi), (wr, wi) in zip(reps, want):
        assert gr == pytest.approx(wr, abs=1e-12)
        assert gi == pytest.approx(wi, abs=1e-12)


def test_two_torsion_frozen_tau2i():
    # sqrt(2i) = 1 + i
    reps = {complex(round(t.rep.real, 9), round(t.rep.imag, 9)) for t in two_torsion(TAU2I)}
    assert 1 + 0j in reps
    assert -1 + 0j in reps
    assert 1 + 1j in reps
    assert -1 - 1j in reps


def test_two_torsion_squares_to_identity():
    for curve in (TAU4, TAU2I, CurveParam(1.5 + 1.5j)):
        for t in two_torsion(curve):
            assert points_equal(TatePoint(t.rep**2, curve), identity(curve), Tolerance(1e-9))


# -------------------------------------------------- quotient x-coordinate


def test_quotient_x_against_high_precision_oracle():
    got = quotient_x(TatePoint(-1.0 + 0j, TAU4), Tolerance(1e-12))
    want = mp_quotient_x(-1.0 + 0j, 4.0)
    assert got == pytest.approx(want, abs=1e-10)
    # frozen value from the oracle
    assert got.real == pytest.approx(-1.7952176096702789, abs=1e-10)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_quotient_x_random_points_match_oracle():
    rng = random.Random(3)
    for _ in range(5):
        u = cmath.rect(rng.uniform(1.2, 2.4), rng.uniform(0.3, 6.0))
        got = quotient_x(TatePoint(u, TAU3), Tolerance(1e-12))
        want = mp_quotient_x(u, 3.0)
        assert got == pytest.approx(want, abs=1e-9)


def test_quotient_x_identity_is_infinite():
    assert cmath.isinf(quotient_x(identity(TAU4)))
    # near-identity at tolerance also maps to infinity
    assert cmath.isinf(quotient_x(TatePoint(1.0 + 1e-12j, TAU4)))


def test_quotient_x_invariances():
    curve = TAU3
    tol = Tolerance(1e-12)
    rng = random.Random(11)
    worst = 0.0
    for _ in range(100):
        u = cmath.rect(rng.uniform(1.05, 2.8), rng.uniform(0.05, 2 * math.pi))
        if abs(u - 1) < 0.05 or abs(u - 3) < 0.15 or abs(u - 1 / 3) < 0.05:
            continue
        x0 = quotient_x_at(u, curve, tol)
        worst = max(worst, abs(x0 - quotient_x_at(1 / u, curve, tol)))
        worst = max(worst, abs(x0 - quotient_x_at(u / 3, curve, tol)))
    assert worst < 2e-9


@pytest.mark.parametrize("tau", [1.001, -1.001, 1.001 * cmath.exp(1j * math.pi / 3)])
def test_quotient_x_near_the_unit_circle(tau):
    # |q| = 1/1.001: the q-series would need thousands of terms here
    want = mp_dual_x(-1.0, tau)
    got = quotient_x_at(-1.0 + 0j, CurveParam(tau))
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_non_finite_arguments():
    with pytest.raises(ValueError, match="finite"):
        quotient_x_at(complex(math.nan, 1.0), TAU3)
    assert x_preimages(complex(math.nan, 0.0), TAU3) == []
    # Newton from every start overflows to a non-finite u, which fails that start
    assert x_preimages(1e200, TAU2I) == []


@pytest.mark.parametrize("tau", [3.0, 1e4, -2.0])
def test_x_preimages_of_a_huge_finite_value_is_a_list(tau):
    # a Newton step overflows u to infinity; reducing it into the annulus
    # must fail that start like a failed series evaluation, not raise
    assert isinstance(x_preimages(1e300, CurveParam(tau)), list)


def test_x_preimages_with_every_class_inside_the_identity_radius_is_a_list():
    # eps = 3 puts -1 and both square roots of tau = 3 within eps of the
    # identity, so no branch value is tested and Newton alone answers
    curve, tol = TAU3, Tolerance(3.0)
    found = x_preimages(0.3, curve, tol)
    assert isinstance(found, list) and 1 <= len(found) <= 2
    for f in found:
        assert abs(quotient_x_at(f.rep, curve, tol) - 0.3) <= 3e-3 * 1.3


# ------------------------------------------------------------- preimages


def test_x_preimages_generic_value():
    u = TatePoint(1.7 + 0.4j, TAU4)
    val = quotient_x(u)
    found = x_preimages(val, TAU4)
    assert len(found) == 2
    targets = {0: u, 1: group_inv(u)}
    for pt in found:
        assert any(class_distance(pt, t) < 1e-6 for t in targets.values())


def test_x_preimages_branch_value():
    t = TatePoint(-1.0 + 0j, TAU4)
    val = quotient_x(t)
    found = x_preimages(val, TAU4)
    assert len(found) == 1
    assert class_distance(found[0], t) < 1e-6


def test_x_preimages_infinite_value():
    found = x_preimages(INF, TAU4)
    assert len(found) == 1
    assert distance_to_identity(found[0]) == 0.0


@pytest.mark.parametrize("u", [1.1615 + 0.0320j, 1.0608 - 0.2615j])
def test_x_preimages_tau_1_2_returns_the_pair(u):
    # targets well away from every branch value, on a curve near |tau| = 1
    curve = CurveParam(1.2)
    p = TatePoint(u, curve)
    found = x_preimages(quotient_x(p), curve)
    assert len(found) == 2
    for want in (p, group_inv(p)):
        assert min(class_distance(f, want) for f in found) < 1e-6


@pytest.mark.parametrize("tau, radius", [(2.0, 1.2), (1.5, 1.2), (1.2, 1.1), (1.05, 1.02)])
def test_x_preimages_flat_value_returns_the_nearest_branch_class(tau, radius):
    # near arg u = pi on real tau <= 2, x is flat to within the branch test's
    # window: x(-1) and x(-sqrt(tau)) both match, and one class comes back
    curve = CurveParam(tau)
    u = cmath.rect(radius, 2.5)
    want = mp_quotient_x(u, tau)
    found = x_preimages(quotient_x(TatePoint(u, curve)), curve)
    assert len(found) == 1
    assert points_equal(TatePoint(found[0].rep**2, curve), identity(curve))
    assert abs(mp_quotient_x(found[0].rep, tau) - want) <= 1e-7 * (1.0 + abs(want))


@pytest.mark.parametrize("tau", [3.0, 2j, -2.0])
def test_x_preimages_at_the_dual_constant(tau):
    # at value = C the closed-form start asin(inf) has no finite value
    curve = CurveParam(tau)
    frame = curve.frame
    p = frame.nome
    k2 = (2j * math.pi / frame.a) ** 2
    value = k2 * (1.0 / 12.0 - 2.0 * sum(p**n / (1.0 - p**n) ** 2 for n in range(1, 40))) - 1.0 / 12.0
    found = x_preimages(value, curve)
    assert len(found) == 2
    for f in found:
        assert abs(mp_quotient_x(f.rep, tau) - value) <= 1e-7 * (1.0 + abs(value))


PREIMAGE_TAUS = [3.0, 2j, 1.5 + 1.5j, 2.0, 1.5, 1.2, 1.05, 100.0, -2.0]


@functools.lru_cache(maxsize=None)
def mp_branch_values(tau: complex) -> tuple[complex, ...]:
    s = cmath.sqrt(tau)
    return tuple(mp_quotient_x(z, tau) for z in (-1.0, s, -s))


@settings(max_examples=50, deadline=None)
@given(
    tau=st.sampled_from(PREIMAGE_TAUS),
    radial=st.floats(0.0, 1.0, exclude_max=True),
    angular=st.floats(-1.0, 1.0),
)
# near the identity class across the seam Newton's step falls below an ulp
# of u while the residual stays above the convergence bound
@example(tau=100.0, radial=0.99999, angular=0.0)
def test_x_preimages_returns_the_inversion_pair(tau, radial, angular):
    # arg u = pi angular^3 spends most draws near arg u = 0, where x on a
    # curve close to |tau| = 1 is not yet flat
    curve = CurveParam(tau)
    p = TatePoint(abs(tau) ** radial * cmath.exp(1j * math.pi * angular**3), curve)
    assume(distance_to_identity(p) > 1e-3 and class_distance(p, group_inv(p)) > 1e-3)
    want = quotient_x(p)
    scale = 1.0 + abs(want)
    assume(min(abs(want - b) for b in mp_branch_values(tau)) > 1e-6 * scale)
    found = x_preimages(want, curve)
    assert len(found) == 2
    # x fixes the class only to about eps (1 + |x|) / |x'(u)|, which near
    # the flat region is far above eps
    _, slope = tate._x_series(p.rep, curve, DEFAULT_TOL, want_derivative=True)
    radius = 10.0 * DEFAULT_TOL.eps * scale / abs(slope) + 1e-12
    for q in (p, group_inv(p)):
        assert min(class_distance(f, q) for f in found) <= radius
    for f in found:
        assert abs(mp_quotient_x(f.rep, tau) - want) <= 1e-7 * scale


def test_x_preimages_inverts_a_point_closer_to_the_identity_across_the_seam():
    # the property test's own assumptions keep this point out: it is within
    # 1e-3 of the identity class, and its x is at the rounding floor near u
    curve = CurveParam(100.0)
    p = TatePoint(100.0**0.999999, curve)
    found = x_preimages(quotient_x(p), curve)
    assert len(found) == 2
    for q in (p, group_inv(p)):
        assert min(class_distance(f, q) for f in found) <= 1e-12


@pytest.mark.parametrize("tau", [3.0, 2j, 1.5])
def test_x_preimages_series_work_is_bounded(tau, monkeypatch):
    # a closed-form start needs a few Newton steps; any scan of the annulus
    # for starts would need hundreds of series evaluations
    curve = CurveParam(tau)
    points = [
        TatePoint(abs(tau) ** r * cmath.exp(1j * a), curve)
        for r, a in ((0.3, 0.7), (0.6, 0.25), (0.45, -0.4))
    ]
    values = [quotient_x(p) for p in points]
    calls = []
    series = tate._x_series
    monkeypatch.setattr(tate, "_x_series", lambda *a, **k: calls.append(1) or series(*a, **k))
    for value in values:
        calls.clear()
        assert len(x_preimages(value, curve)) == 2
        assert len(calls) <= 40


def _count_preimage_work(monkeypatch) -> dict:
    """Count series, frame-sum and two_torsion calls and TatePoint constructions."""
    counts = dict.fromkeys(("_x_series", "_frame_sums", "two_torsion", "TatePoint"), 0)
    for name in ("_x_series", "_frame_sums", "two_torsion"):
        def counted(*a, _f=getattr(tate, name), _name=name, **k):
            counts[_name] += 1
            return _f(*a, **k)
        monkeypatch.setattr(tate, name, counted)
    init = TatePoint.__init__

    def counted_init(self, *args):
        counts["TatePoint"] += 1
        init(self, *args)

    monkeypatch.setattr(TatePoint, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("tau", [3.0, 2j, 1.5])
def test_x_preimages_of_a_generic_value_builds_no_two_torsion(tau, monkeypatch):
    # the branch values and C come from one pass at the exact half periods:
    # no two-torsion points and no frame sum outside a series evaluation
    curve = CurveParam(tau)
    values = [
        quotient_x(TatePoint(abs(tau) ** r * cmath.exp(1j * a), curve))
        for r, a in ((0.3, 0.7), (0.6, 0.25), (0.45, -0.4))
    ]
    counts = _count_preimage_work(monkeypatch)
    for value in values:
        counts.update(dict.fromkeys(counts, 0))
        assert len(x_preimages(value, curve)) == 2
        assert counts["two_torsion"] == 0
        assert counts["_frame_sums"] == counts["_x_series"]
        assert counts["TatePoint"] <= 2


@pytest.mark.parametrize("tau", [3.0, 2j, 1.5])
def test_x_preimages_of_a_branch_value_sums_no_series(tau, monkeypatch):
    # a point is built only for the class that is returned
    curve = CurveParam(tau)
    values = [quotient_x(t) for t in two_torsion(curve)[1:]]
    counts = _count_preimage_work(monkeypatch)
    for value in values:
        counts.update(dict.fromkeys(counts, 0))
        assert len(x_preimages(value, curve)) == 1
        assert counts["_x_series"] == 0
        assert counts["TatePoint"] == 1


@pytest.mark.parametrize(
    "tau", PREIMAGE_TAUS + [600.0, 1e10, -1.001, 1.02 * cmath.exp(0.5j)]
)
def test_branch_values_match_the_oracle_and_invert_to_their_class(tau):
    # tau = 100 and 600 lie on either side of exp(2 pi) ~ 535, where the
    # reduced frame swaps and -1 moves from the half period b/2 to a/2
    curve, tol = CurveParam(tau), Tolerance(1e-14)
    values, _ = tate._branch_values(curve, tol)
    if abs(tau) < 1.01:
        s = cmath.sqrt(tau)
        want = [mp_dual_x(z, tau) for z in (-1.0, s, -s)]
    else:
        want = mp_branch_values(tau)
    classes = two_torsion(curve)[1:]
    for i, (value, w) in enumerate(zip(values, want)):
        assert abs(value - w) <= 1e-12 * (1.0 + abs(w))
        # an earlier class whose branch value is the same float wins the tie;
        # the oracle cannot tell those two values apart either
        first = min(j for j in range(3) if values[j] == value)
        assert abs(want[first] - w) <= 1e-12 * (1.0 + abs(w))
        found = x_preimages(value, curve, tol)
        assert len(found) == 1
        assert class_distance(found[0], classes[first]) <= 1e-12


@pytest.mark.parametrize(
    "tau", [1.0001, -1.001, 1j * cmath.exp(0.001), 1.05, 2j, 535.0, 536.0, 1e12, 1e300]
)
def test_x_series_term_count_is_bounded(tau, monkeypatch):
    # the reduced nome has |p| <= exp(-pi sqrt 3), so a handful of terms
    # meets the default eps, and fewer than 150 meet any eps > 0
    curve = CurveParam(tau)
    points = [abs(tau) ** r * cmath.exp(1j * a) for r, a in ((0.3, 0.7), (0.6, 2.5), (0.95, -0.4))]
    terms = []
    term = tate._term
    monkeypatch.setattr(tate, "_term", lambda *a: terms.append(1) or term(*a))
    for u in points:
        for tol, most in ((DEFAULT_TOL, 8), (Tolerance(5e-324), 149)):
            terms.clear()
            assert cmath.isfinite(quotient_x_at(u, curve, tol))
            assert 1 <= len(terms) <= most


MP_SERIES_TAUS = [1.01, 1.05, 1.2, 2.0, 100.0, 1e4, 2j, -2.0, 1.5 + 1.5j, 1.02 * cmath.exp(0.5j)]
MP_DUAL_TAUS = [1.001, -1.001, 1.001 * cmath.exp(1j * math.pi / 3), 1j * cmath.exp(0.001)]


def oracle_points(tau: complex, count: int) -> list[complex]:
    """Points exp(a t) with t off every half period, in the reduced frame."""
    with mpmath.workdps(30):
        a, _ = mp_reduced_basis(tau)
    ts = [0.3 + 0.1j, -0.2 + 0.25j, 0.45 - 0.05j][:count]
    return [complex(mpmath.exp(a * t)) for t in ts]


@pytest.mark.parametrize("tau", [1.05, 1.2])
def test_mp_dual_oracle_matches_the_q_series(tau):
    for u in oracle_points(tau, 2):
        want = mp_quotient_x(u, tau)
        assert abs(mp_dual_x(u, tau) - want) <= 1e-20 * (1.0 + abs(want))


@pytest.mark.parametrize("tau", MP_SERIES_TAUS + MP_DUAL_TAUS)
def test_quotient_x_and_preimages_match_the_oracle(tau):
    curve = CurveParam(tau)
    oracle = mp_dual_x if tau in MP_DUAL_TAUS else mp_quotient_x
    for u in oracle_points(tau, 2 if abs(tau) < 1.03 else 3):
        want = oracle(u, tau)
        scale = 1.0 + abs(want)
        assert abs(quotient_x_at(u, curve, Tolerance(1e-14)) - want) <= 1e-12 * scale
        p = TatePoint(u, curve)
        found = x_preimages(quotient_x(p), curve)
        assert len(found) == 2
        _, slope = tate._x_series(p.rep, curve, DEFAULT_TOL, want_derivative=True)
        radius = 10.0 * DEFAULT_TOL.eps * scale / abs(slope) + 1e-12
        for q in (p, group_inv(p)):
            assert min(class_distance(f, q) for f in found) <= radius
        for f in found:
            assert abs(mp_dual_x(f.rep, tau) - want) <= 1e-7 * scale
