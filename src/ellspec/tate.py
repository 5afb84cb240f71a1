"""Arithmetic on a multiplicative elliptic curve C*/<tau> and its degree-2 quotient.

The curve is the quotient of C* by the subgroup generated by a multiplier
tau with |tau| > 1.  Every class has a unique representative in the
half-open fundamental annulus 1 <= |z| < |tau|; all point arithmetic is
done on these canonical representatives.  The x-coordinate of the
quotient by inversion (z ~ 1/z) is defined by the bilateral series

    x(u) = sum_{n in Z} q^n u / (1 - q^n u)^2  -  2 sum_{n >= 1} q^n / (1 - q^n)^2

with q = 1/tau, which converges since |q| < 1 and has its only pole (in
the annulus) at the identity class u = 1.  This series is the one
definition of x: with w = log u it is x = P(w) - 1/12, where P is the
Weierstrass function of the period lattice 2 pi i Z + log(tau) Z
(DLMF 23.8.1).

It is summed in the reduced frame of that lattice, where it converges
fast for every |tau| > 1.  The basis (a, b) is Lagrange-reduced: a is a
shortest period and tau_r = b / a has |Re tau_r| <= 1/2, |tau_r| >= 1 and
Im tau_r > 0, so the reduced nome p = exp(2 pi i tau_r) satisfies
|p| <= exp(-pi sqrt 3) < 0.0044.  With t = w / a shifted by periods so
that 0 <= Im t <= Im tau_r / 2 (x is even in w), U = exp(2 pi i t) and
k = 2 pi i / a, the same series in the frame reads

    x(u) = k^2 (X_p(U) + 1/12) - 1/12,

where X_p is the series above with q -> p and u -> U.  Every term has the
shape e / (1 - e)^2 with |e| <= 1, the powers of p come from running
products, and no power of U is ever divided by.  When a = 2 pi i (real
tau > exp(2 pi)) this is the q-series itself, term for term.  The number
of terms comes from a tail bound scaled by |k|^2, so Tolerance.eps bounds
the truncation error of x itself: about five terms at the default eps,
and fewer than 150 for any eps > 0.

Inversion (x_preimages) first compares the value with the three branch
values: x at the nonzero half periods 1/2, tau_r/2 and (1 + tau_r)/2 of
the frame, where U and V are -1 and -p, s and s, -s and -s (s =
exp(pi i tau_r)), so one loop over the powers of p sums all three and
the constant C beside them.  A value within the branch-test window of
several branch values resolves to the nearest two-torsion class alone.
Any other value is found by inverting the leading term of the frame's
series in closed form and polishing the start by Newton iteration.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .records import Record, computed_once, set_field

INF = complex(math.inf, 0.0)
_TWO_PI_I = 2j * math.pi


class PeriodFrame(NamedTuple):
    """The reduced basis (a, b) of the period lattice 2 pi i Z + log(tau) Z."""

    a: complex  # a shortest period
    tau_r: complex  # b / a: |Re| <= 1/2, |tau_r| >= 1, Im > 0
    nome: complex  # p = exp(2 pi i tau_r)
    k: complex  # 2 pi i / a; x = k^2 (X_p(U) + 1/12) - 1/12
    decay: float  # -log|p| = 2 pi Im tau_r >= pi sqrt 3
    log_tail: float  # log(1.1 |k|^2): log of the bound on x's tail after zero terms


class CurveParam(Record):
    """Multiplier of the curve C*/<tau>; requires |tau| > 1.

    For the annulus reduction (_canonical_rep) the curve keeps, beside its
    one field, |tau| and log|tau| (abs_tau, log_abs_tau), taken when it is
    built; they are not fields.  A request decodes its curves once, so a
    reduction at one of its fibres pays the log of its number and a power
    of tau, not a modulus or log of tau.
    """

    _fields = ("tau",)
    tau: complex
    abs_tau: float
    log_abs_tau: float

    def __init__(self, tau: complex) -> None:
        at = abs(complex(tau))
        if not at > 1.0:
            raise ValueError(f"curve multiplier must satisfy |tau| > 1, got {tau!r}")
        set_field(self, "tau", tau)
        state = vars(self)  # derived values, written directly: a curve is often built per call
        state["abs_tau"], state["log_abs_tau"] = at, math.log(at)

    @property
    def q(self) -> complex:
        return 1.0 / self.tau

    @computed_once
    def frame(self) -> PeriodFrame:
        """The reduced period basis that the x series is summed in.

        Computed on first use, so curves that never evaluate x pay nothing.
        (log tau, 2 pi i) is positively oriented since Re log tau > 0, and
        |a| strictly falls at every swap, so the loop ends in floating point.
        """
        a, b = cmath.log(self.tau), _TWO_PI_I
        while True:
            b -= round((b / a).real) * a
            if not abs(b) < abs(a):
                break
            a, b = b, -a
        tau_r = b / a
        k = _TWO_PI_I / a
        # after n terms, each |e| <= |p| and the rest of
        # sum |f(p^m U)| + |f(p^m V)| + 2 |f(p^(m+1))| is at most
        # |p|^n (1 + |p|^(1/2) + 2|p|) / (1 - |p|)^3 < 1.1 |p|^n
        log_tail = math.log(1.1 * abs(k) ** 2)
        return PeriodFrame(a, tau_r, cmath.exp(_TWO_PI_I * tau_r), k, 2.0 * math.pi * tau_r.imag, log_tail)


class Tolerance(Record):
    """Numeric tolerance: an absolute comparison radius."""

    __slots__ = _fields = ("eps",)
    eps: float

    def __init__(self, eps: float = 1e-9) -> None:
        if not 0.0 < eps < math.inf:
            raise ValueError("tolerance eps must be positive")
        set_field(self, "eps", eps)


DEFAULT_TOL = Tolerance()


class TatePoint(Record):
    """A point of C*/<tau>, stored by its canonical annulus representative.

    Construction normalises any nonzero finite complex number into the
    fundamental annulus; a number already inside it is kept as it is,
    with no logarithm taken.  NaN and infinite parts are rejected.
    """

    __slots__ = _fields = ("rep", "curve")
    rep: complex
    curve: CurveParam

    def __init__(self, rep: complex, curve: CurveParam) -> None:
        set_field(self, "rep", _point_rep(rep, curve))
        set_field(self, "curve", curve)


def _point_rep(z, curve: CurveParam) -> complex:
    """The canonical representative of the point that z stands for.

    The one normaliser of point values: TatePoint keeps its result, and
    code that needs only the number (fibre values under verification)
    calls it directly.  NaN, infinite parts and zero raise ValueError.
    """
    z = complex(z)
    if z == 0 or not cmath.isfinite(z):
        raise ValueError("points of C*/<tau> come from nonzero finite complex numbers")
    return _canonical_rep(z, curve)


def _canonical_rep(z: complex, curve: CurveParam) -> complex:
    """The representative of z in 1 <= |z| < |tau|, for nonzero finite z."""
    at = curve.abs_tau
    try:
        az = abs(z)
        if 1.0 <= az < at:
            return z
        log_az = math.log(az)
    except OverflowError:  # finite parts whose modulus exceeds the float range
        log_az = math.log(abs(0.5 * z)) + math.log(2.0)
    # initial guess from logs, then fix float fences at the annulus boundary
    k = -math.floor(log_az / curve.log_abs_tau)
    tau = curve.tau
    if k:
        try:
            z = z * tau**k
        except OverflowError:  # |z| so near the float floor that tau**k overflows
            return _canonical_rep(z * tau ** (k // 2), curve)
    az = abs(z)
    while az < 1.0:
        z *= tau
        az = abs(z)
    while az >= at:
        z /= tau
        az = abs(z)
    while az < 1.0:  # |z| rounded below 1 and |z tau| onto |tau|: nudge it inside
        z *= 1.0 + 2.0**-52
        az = abs(z)
    return z


def identity(curve: CurveParam) -> TatePoint:
    return TatePoint(1.0 + 0.0j, curve)


def _require_same_curve(a: TatePoint, b: TatePoint) -> None:
    if a.curve is not b.curve and a.curve != b.curve:
        raise ValueError("points lie on curves with different multipliers")


def group_inv(a: TatePoint) -> TatePoint:
    return TatePoint(1.0 / a.rep, a.curve)


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


def _reduce(t: complex, tau_r: complex) -> complex:
    """t shifted by Z + tau_r Z into |Re t| <= 1/2, |Im t| <= Im tau_r / 2."""
    t -= round(t.imag / tau_r.imag) * tau_r
    return t - round(t.real)


def _term(plus: complex, minus: complex, pn: complex, want_derivative: bool):
    """The n-th term of the frame's series: f(plus) + f(minus), f(pn) and
    the slope g(plus) - g(minus), with f(e) = e / (1 - e)^2 and
    g(e) = e f'(e).  Every argument has modulus at most 1."""
    dp = 1.0 - plus
    dm = 1.0 - minus
    fp = plus / (dp * dp)
    fm = minus / (dm * dm)
    dc = 1.0 - pn
    if want_derivative:
        return fp + fm, pn / (dc * dc), fp * (1.0 + plus) / dp - fm * (1.0 + minus) / dm
    return fp + fm, pn / (dc * dc), 0j


def _term_count(frame: PeriodFrame, tol: Tolerance) -> int:
    """Terms after which the tail of x drops below tol.eps."""
    return max(1, math.floor((frame.log_tail - math.log(tol.eps)) / frame.decay) + 1)


def _frame_sums(plus: complex, minus: complex, curve: CurveParam, tol: Tolerance, want_derivative: bool):
    """Sums over n >= 0 of f(p^n plus) + f(p^n minus), of f(p^(n+1)) and of
    the slope, truncated where the tail of x drops below tol.eps."""
    p = curve.frame.nome
    value = const = slope = 0j
    pn = p
    for _ in range(_term_count(curve.frame, tol)):
        v, c, s = _term(plus, minus, pn, want_derivative)
        value += v
        const += c
        slope += s
        plus *= p
        minus *= p
        pn *= p
    return value, const, slope


def _x_series(u: complex, curve: CurveParam, tol: Tolerance, want_derivative: bool = False):
    """The quotient x-coordinate at a raw representative u, and dx/du on request.

    Converges on all of C* away from the identity orbit u in <tau>, with
    truncation error below tol.eps.  With t reduced into the frame's strip
    0 <= Im t <= Im tau_r / 2, U = exp(2 pi i t) and V = p / U both have
    modulus at most 1, and X_p(U) sums f(p^n U) + f(p^n V) - 2 f(p^(n+1))
    over n >= 0.
    """
    if u == 0 or not cmath.isfinite(u):
        raise ValueError("x-series needs a nonzero finite argument")
    frame = curve.frame
    t = _reduce(cmath.log(u) / frame.a, frame.tau_r)
    sign = 1.0
    if t.imag < 0:  # x is even in t; its slope is odd
        t, sign = -t, -1.0
    value, const, slope = _frame_sums(
        cmath.exp(_TWO_PI_I * t), cmath.exp(_TWO_PI_I * (frame.tau_r - t)), curve, tol, want_derivative
    )
    k = frame.k
    kk = k * k
    x = kk * (value - 2.0 * const) + (kk - 1.0) / 12.0
    if want_derivative:
        return x, sign * kk * k * slope / u
    return x


def _period_parity(z: complex, frame: PeriodFrame) -> int:
    """Which half period z / 2 is, for a period z = m a + n b: (m mod 2) + 2 (n mod 2)."""
    r = z / frame.a
    n = round(r.imag / frame.tau_r.imag)
    return round(r.real - n * frame.tau_r.real) % 2 + 2 * (n % 2)


def _branch_values(curve: CurveParam, tol: Tolerance):
    """x at the classes -1, sqrt(tau), -sqrt(tau), and the constant C, so
    that x = C + k^2 (f(U) + f(V) + ...) at each of them.

    The three are the nonzero half periods of the reduced frame, where
    U and V are known in closed form: U = -1, V = -p at t = 1/2; U = V = s
    at t = tau_r/2 and U = V = -s at t = (1 + tau_r)/2, with s = exp(pi i
    tau_r).  One pass over the powers of p, with the term count of
    _frame_sums, gives all three sums and sum_{n >= 1} f(p^n) for C.  A
    class is matched to its half period by the parity of the coordinates
    of 2 pi i and log(tau) in the basis (a, b).
    """
    frame = curve.frame
    p = frame.nome
    s = cmath.exp(1j * math.pi * frame.tau_r)
    pn = 1.0 + 0j
    f_minus = -0.25  # f(-p^n), starting at f(-1)
    half_a = half_b = half_ab = const = 0j
    for _ in range(_term_count(frame, tol)):
        e = s * pn
        d = 1.0 - e
        half_b += e / (d * d)  # f(s p^n)
        d = 1.0 + e
        half_ab -= e / (d * d)  # f(-s p^n)
        pn *= p
        d = 1.0 + pn
        f_next = -pn / (d * d)
        half_a += f_minus + f_next  # f(-p^n) + f(-p^(n+1))
        f_minus = f_next
        d = 1.0 - pn
        const += pn / (d * d)  # f(p^(n+1))
    kk = frame.k * frame.k
    const_c = kk * (1.0 / 12.0 - 2.0 * const) - 1.0 / 12.0
    # indexed by the parity (m mod 2) + 2 (n mod 2) of the half period
    at_half = (None, const_c + kk * half_a, const_c + 2.0 * kk * half_b, const_c + 2.0 * kk * half_ab)
    minus_one = _period_parity(_TWO_PI_I, frame)
    sqrt_tau = _period_parity(cmath.log(curve.tau), frame)
    # -sqrt(tau) sits at pi i + log(tau) / 2, whose parity is the sum mod 2
    return (at_half[minus_one], at_half[sqrt_tau], at_half[minus_one ^ sqrt_tau]), const_c


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


_NEWTON_STEPS = 90


def x_preimages(value: complex, curve: CurveParam, tol: Tolerance = DEFAULT_TOL) -> list[TatePoint]:
    """Numerically find all annulus classes with x = value.

    The quotient by inversion is 2:1, so the preimage set of a finite
    value is an inversion pair {u, u^{-1}}, collapsing to a single class
    exactly at the four branch values: the images of the two-torsion
    classes, with infinity (the identity class) among them.

    Branch values first.  x(-1), x(sqrt(tau)) and x(-sqrt(tau)) are summed
    in one loop at the exact half periods of the reduced frame, each class
    matched to its half period by the parity of the coordinates of 2 pi i
    and log(tau) in the basis (a, b); no point is built for a class that
    is not returned.  A class within eps of the identity is not a
    candidate; when eps is so coarse that none is left, only Newton
    answers.  A value within 4 eps (1 + |value|) of a branch value
    resolves to that two-torsion class directly: near a double root x is
    locally quadratic, and residual-based root finding cannot tell one
    class from two there.  When several branch values match (on real
    tau <= 2, x(-1) and x(-sqrt(tau)) agree to within about 1e-8), only
    the class whose x is nearest is returned, the first of -1, sqrt(tau),
    -sqrt(tau) on a tie, so the answer is never two two-torsion classes.
    Such a value is not resolvable at this tolerance, yet the nearest
    class maps to it within the tolerance; no error is raised for it.

    Elsewhere the root comes from the reduced frame (see the module
    docstring).  Summed over the periods of tau_r, f(U) is a cosecant
    square (DLMF 23.8.1), so

        x(u) = C + (pi/a)^2 sum_{m in Z} csc^2(pi (t + m tau_r)),
        C = k^2 (1/12 - 2 sum_{n >= 1} p^n / (1 - p^n)^2) - 1/12,

    whose m = 0 term dominates while |Im t| < Im tau_r / 2.  Inverting it
    gives the closed-form start

        w0 = a asin((pi/a) / sqrt(value - C)) / pi,

    reduced into the frame's period cell and tried in turn with its
    half-period shifts w0 + b/2 and -w0 + b/2.  Newton iteration on the
    series itself polishes the start until the residual is below
    max(eps 1e-3, 1e-13) (1 + |value|); the root is then completed with
    its inverse.  A start that never meets that bound is kept if its last
    residual is within 4 |x'(u)| |u| 2^-52, the rounding floor of x near
    u, where a step falls below an ulp of u (near the identity class
    across the seam on tau = 100).  An empty list means no start
    converged, or a NaN value.
    """
    at = abs(curve.tau)
    if cmath.isinf(value):
        return [identity(curve)]
    if cmath.isnan(value):
        return []

    # the identity's value is the pole, never a finite target; -1 comes next
    values, const_c = _branch_values(curve, tol)
    s = cmath.sqrt(curve.tau)
    branch = [
        (rep, x)
        for rep, x in zip((-1.0 + 0.0j, s, -s), values)
        if _class_distance(rep, 1.0 + 0.0j, curve.tau) > tol.eps
    ]
    if branch:  # a coarse eps can put every class inside the identity's radius
        rep, x_nearest = min(branch, key=lambda b: abs(b[1] - value))
        if abs(x_nearest - value) <= 4.0 * tol.eps * (1.0 + abs(value)):
            return [TatePoint(rep, curve)]

    frame = curve.frame
    tau_r = frame.tau_r
    gap_c = value - const_c
    if gap_c:
        t0 = _reduce(cmath.asin((math.pi / frame.a) / cmath.sqrt(gap_c)) / math.pi, tau_r)
    else:  # the m = 0 and m = -1 terms cancel near t = tau_r/2 + 1/4
        t0 = 0.5 * tau_r + 0.25
    conv = max(tol.eps * 1e-3, 1e-13)
    for start in (t0, t0 + 0.5 * tau_r, -t0 + 0.5 * tau_r):
        u = cmath.exp(frame.a * start)
        ok = False
        for _ in range(_NEWTON_STEPS):
            try:
                if abs(u) < 0.5 or abs(u) > 2.0 * at:
                    u = _canonical_rep(u, curve)
                x, dx = _x_series(u, curve, tol, want_derivative=True)
            except (ZeroDivisionError, OverflowError, ValueError):  # a step onto the pole or out of C*
                break
            f = x - value
            if abs(f) <= conv * (1.0 + abs(value)):
                ok = True
                break
            if dx == 0:
                break
            u = u - f / dx
        else:  # no step converged: a residual at the rounding floor of x near u is a root
            ok = abs(f) <= 4.0 * abs(dx) * abs(u) * 2.0**-52
        if not ok:
            continue
        pt = TatePoint(u, curve)
        inv = group_inv(pt)
        if class_distance(pt, inv) <= max(10.0 * math.sqrt(tol.eps), 1e-6):
            return [pt]
        return [pt, inv]
    return []
