"""Arithmetic on a multiplicative elliptic curve C*/<tau> and its degree-2 quotient.

The curve is the quotient of C* by the subgroup generated by a multiplier
tau with |tau| > 1.  Every class has a unique representative in the
half-open fundamental annulus 1 <= |z| < |tau|; all point arithmetic is
done on these canonical representatives.  The x-coordinate of the
quotient by inversion (z ~ 1/z) is computed from the bilateral series

    x(u) = sum_{n in Z} q^n u / (1 - q^n u)^2  -  2 sum_{n >= 1} q^n / (1 - q^n)^2

with q = 1/tau, which converges geometrically since |q| < 1 and has its
only pole (in the annulus) at the identity class u = 1.  This series is
the one definition of x.

Inversion (x_preimages) works in the dual frame.  With w = log u and
L = log tau, the Jacobi imaginary transformation (DLMF 23.8.1 with the
periods swapped) gives

    x(u) = C(tau) + (pi/L)^2 sum_{m in Z} csc^2(pi (w + 2 pi i m) / L),

where C(tau) follows from x(-1).  Inverting the m = 0 term gives a
closed-form start that Newton iteration on the series polishes.  A value
within the branch-test window of several branch values resolves to the
nearest two-torsion class alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

INF = complex(math.inf, 0.0)


def is_infinite(z: complex) -> bool:
    return math.isinf(z.real) or math.isinf(z.imag)


class SeriesCapError(RuntimeError):
    """Raised when the series term cap is hit before the tail bound is met."""


_SERIES_CAP = 4096  # terms a series may take to meet its tail bound


@dataclass(frozen=True)
class CurveParam:
    """Multiplier of the curve C*/<tau>; requires |tau| > 1."""

    tau: complex

    def __post_init__(self) -> None:
        if not abs(complex(self.tau)) > 1.0:
            raise ValueError(f"curve multiplier must satisfy |tau| > 1, got {self.tau!r}")

    @property
    def q(self) -> complex:
        return 1.0 / self.tau


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerance: an absolute comparison radius."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not self.eps > 0.0:
            raise ValueError("tolerance eps must be positive")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class TatePoint:
    """A point of C*/<tau>, stored by its canonical annulus representative.

    Construction normalises any nonzero finite complex number into the
    fundamental annulus; a number already inside it is kept as it is,
    with no logarithm taken.  NaN and infinite parts are rejected.
    """

    rep: complex
    curve: CurveParam

    def __post_init__(self) -> None:
        z = complex(self.rep)
        if z == 0 or not cmath.isfinite(z):
            raise ValueError("points of C*/<tau> come from nonzero finite complex numbers")
        object.__setattr__(self, "rep", _canonical_rep(z, self.curve))


def _canonical_rep(z: complex, curve: CurveParam) -> complex:
    """The representative of z in 1 <= |z| < |tau|, for nonzero finite z."""
    tau = curve.tau
    at = abs(tau)
    try:
        az = abs(z)
        if 1.0 <= az < at:
            return z
        log_az = math.log(az)
    except OverflowError:  # finite parts whose modulus exceeds the float range
        log_az = math.log(abs(0.5 * z)) + math.log(2.0)
    # initial guess from logs, then fix float fences at the annulus boundary
    k = -math.floor(log_az / math.log(at))
    if k:
        try:
            z = z * tau**k
        except OverflowError:  # |z| so near the float floor that tau**k overflows
            return _canonical_rep(z * tau ** (k // 2), curve)
    while abs(z) < 1.0:
        z *= tau
    while abs(z) >= at:
        z /= tau
    return z


def identity(curve: CurveParam) -> TatePoint:
    return TatePoint(1.0 + 0.0j, curve)


def _require_same_curve(a: TatePoint, b: TatePoint) -> None:
    if a.curve is not b.curve and a.curve != b.curve:
        raise ValueError("points lie on curves with different multipliers")


def group_mul(a: TatePoint, b: TatePoint) -> TatePoint:
    _require_same_curve(a, b)
    return TatePoint(a.rep * b.rep, a.curve)


def group_inv(a: TatePoint) -> TatePoint:
    return TatePoint(1.0 / a.rep, a.curve)


def group_pow(a: TatePoint, n: int) -> TatePoint:
    if n == 0:
        return identity(a.curve)
    return TatePoint(a.rep**n, a.curve)


def _class_distance(x: complex, y: complex, tau: complex) -> float:
    """Distance between the classes of two canonical representatives x, y."""
    return min(abs(x - y), abs(x * tau - y), abs(x - y * tau))


def class_distance(a: TatePoint, b: TatePoint) -> float:
    """Distance between classes; wraps across the annulus boundary."""
    _require_same_curve(a, b)
    return _class_distance(a.rep, b.rep, a.curve.tau)


def distance_to_identity(a: TatePoint) -> float:
    return _class_distance(a.rep, 1.0 + 0.0j, a.curve.tau)


def points_equal(a: TatePoint, b: TatePoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    return class_distance(a, b) <= tol.eps


def two_torsion(curve: CurveParam) -> list[TatePoint]:
    """The four classes killed by doubling: 1, -1 and both square roots of tau."""
    s = cmath.sqrt(curve.tau)
    return [
        identity(curve),
        TatePoint(-1.0 + 0.0j, curve),
        TatePoint(s, curve),
        TatePoint(-s, curve),
    ]


@lru_cache(maxsize=256)
def _inversion_constant(tau: complex, eps: float) -> complex:
    """The u-independent part 2 sum_{n>=1} q^n/(1-q^n)^2, to absolute error eps."""
    q = 1.0 / tau
    aq = abs(q)
    total = 0.0 + 0.0j
    qn = 1.0 + 0.0j
    for n in range(1, _SERIES_CAP + 1):
        qn *= q
        total += qn / (1.0 - qn) ** 2
        rho = aq ** (n + 1)
        if rho < 0.9 and rho / ((1.0 - aq) * (1.0 - rho) ** 2) < eps / 2.0:
            return 2.0 * total
    raise SeriesCapError(f"series cap {_SERIES_CAP} hit before tail bound {eps} was met")


def _x_series(u: complex, curve: CurveParam, tol: Tolerance, want_derivative: bool = False):
    """Bilateral sum for the quotient x-coordinate at a raw representative u.

    Converges on all of C* away from the identity orbit u in <tau>.  Terms
    for +n and -n are added in pairs; the loop stops once the geometric
    tail bound for both half-sums drops below eps/2.
    """
    if u == 0:
        raise ValueError("x-series needs a nonzero argument")
    q = curve.q
    aq = abs(q)
    au = abs(u)
    value = u / (1.0 - u) ** 2
    deriv = (1.0 + u) / (1.0 - u) ** 3
    qn = 1.0 + 0.0j
    for n in range(1, _SERIES_CAP + 1):
        qn *= q
        for g in (qn, 1.0 / qn):
            gu = g * u
            value += gu / (1.0 - gu) ** 2
            if want_derivative:
                deriv += g * (1.0 + gu) / (1.0 - gu) ** 3
        rho_p = aq ** (n + 1) * au
        rho_m = aq ** (n + 1) / au
        if rho_p < 0.9 and rho_m < 0.9:
            bound = rho_p / ((1.0 - aq) * (1.0 - rho_p) ** 2) + rho_m / (
                (1.0 - aq) * (1.0 - rho_m) ** 2
            )
            if bound < tol.eps / 2.0:
                break
    else:
        raise SeriesCapError(
            f"series cap {_SERIES_CAP} hit before tail bound {tol.eps} was met"
        )
    const = _inversion_constant(curve.tau, tol.eps)
    if want_derivative:
        return value - const, deriv
    return value - const


def quotient_x(alpha: TatePoint, tol: Tolerance = DEFAULT_TOL) -> complex:
    """x-coordinate of the inversion quotient; infinity exactly at the identity class."""
    if distance_to_identity(alpha) <= tol.eps:
        return INF
    return _x_series(alpha.rep, alpha.curve, tol)


def quotient_x_at(u: complex, curve: CurveParam, tol: Tolerance = DEFAULT_TOL) -> complex:
    """x evaluated at an arbitrary raw representative (no canonicalisation).

    Used to probe the invariances x(u) = x(1/u) = x(qu) off the canonical
    annulus.  The caller is responsible for staying away from the pole
    orbit u in <tau>.
    """
    return _x_series(u, curve, tol)


def h1_indicator(alpha: TatePoint, tol: Tolerance = DEFAULT_TOL) -> int:
    """1 when the class is trivial at tolerance (the cohomology jump), else 0."""
    return 1 if distance_to_identity(alpha) <= tol.eps else 0


_NEWTON_STEPS = 90
_SIN_LIMIT = 700.0  # |Im z| beyond which cmath.sin(z) overflows; csc^2 z < 1e-600 there


def _dual_constant(x_minus_one: complex, k: complex) -> complex:
    """C(tau) = x(-1) - k^2 sum_m csc^2(k (i pi + 2 pi i m)), with k = pi / log tau.

    The summand is even in 2m + 1, so the sum is twice the sum over m >= 0.
    Terms shrink geometrically in m; one whose |Im| would overflow
    cmath.sin is negligible, and so is every later one.
    """
    total = 0.0 + 0.0j
    for m in range(_SERIES_CAP):
        z = k * (1j * math.pi * (2 * m + 1))
        if abs(z.imag) > _SIN_LIMIT:
            break
        term = (1.0 / cmath.sin(z)) ** 2
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return x_minus_one - 2.0 * k * k * total


def x_preimages(value: complex, curve: CurveParam, tol: Tolerance = DEFAULT_TOL) -> list[TatePoint]:
    """Numerically find all annulus classes with x = value.

    The quotient by inversion is 2:1, so the preimage set of a finite
    value is an inversion pair {u, u^{-1}}, collapsing to a single class
    exactly at the four branch values: the images of the two-torsion
    classes, with infinity (the identity class) among them.

    Branch values first.  A value within 4 eps (1 + |value|) of a branch
    value resolves to that two-torsion class directly: near a double root
    x is locally quadratic, and residual-based root finding cannot tell
    one class from two there.  When several branch values match (on real
    tau <= 2, x(-1) and x(-sqrt(tau)) agree to within about 1e-8), only
    the class whose x is nearest is returned, so the answer is never two
    two-torsion classes.  Such a value is not resolvable at this
    tolerance, yet the nearest class maps to it within the tolerance;
    no error is raised for it.

    Elsewhere the root comes from the dual frame.  With w = log u and
    L = log tau, DLMF 23.8.1 with the periods swapped gives

        x(u) = C(tau) + (pi/L)^2 sum_{m in Z} csc^2(pi (w + 2 pi i m) / L),

    whose m = 0 term dominates while |Im w| < pi.  C is fixed by the
    value x(-1) that the branch test has already computed.  Inverting
    the m = 0 term gives the closed-form start

        w0 = (L/pi) asin((pi/L) / sqrt(value - C)),

    tried in turn with its half-period shifts w0 + L/2 and -w0 + L/2.
    Newton iteration on the Tate series itself polishes the start until
    the residual is below max(eps 1e-3, 1e-13) (1 + |value|); the root is
    then completed with its inverse.  An empty list means no start
    converged.
    """
    at = abs(curve.tau)
    if is_infinite(value):
        return [identity(curve)]

    # the identity's value is the pole, never a finite target; -1 comes next
    branch = [
        (t, _x_series(t.rep, curve, tol))
        for t in two_torsion(curve)
        if distance_to_identity(t) > tol.eps
    ]
    nearest, x_nearest = min(branch, key=lambda b: abs(b[1] - value))
    if abs(x_nearest - value) <= 4.0 * tol.eps * (1.0 + abs(value)):
        return [nearest]

    log_tau = cmath.log(curve.tau)
    k = math.pi / log_tau
    gap_c = value - _dual_constant(branch[0][1], k)
    if gap_c:
        w0 = cmath.asin(k / cmath.sqrt(gap_c)) / k
    else:  # the m = 0 and m = -1 terms cancel near w = i pi + L/4
        w0 = 1j * math.pi + 0.25 * log_tau
    conv = max(tol.eps * 1e-3, 1e-13)
    for w in (w0, w0 + 0.5 * log_tau, -w0 + 0.5 * log_tau):
        u = cmath.exp(w)
        ok = False
        for _ in range(_NEWTON_STEPS):
            if abs(u) < 0.5 or abs(u) > 2.0 * at:
                u = _canonical_rep(u, curve)
            try:
                x, dx = _x_series(u, curve, tol, want_derivative=True)
            except (ZeroDivisionError, OverflowError):
                break
            f = x - value
            if abs(f) <= conv * (1.0 + abs(value)):
                ok = True
                break
            if dx == 0:
                break
            u = u - f / dx
        if not ok:
            continue
        pt = TatePoint(u, curve)
        inv = group_inv(pt)
        if class_distance(pt, inv) <= max(10.0 * math.sqrt(tol.eps), 1e-6):
            return [pt]
        return [pt, inv]
    return []
