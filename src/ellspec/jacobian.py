"""Sections and bisections of the relative Jacobian B x T*.

Sections are translates of homomorphisms: a constant in T* together with
an integer vector in the hom lattice.  Two distinct sections meet in
deg(hom difference) points, the degree of the covering map induced by
the difference.  The determinant involution (b, l) -> (b, delta_b / l)
folds the Jacobian onto a ruled surface; a bisection invariant under it
is either a pair of sections exchanged by the involution, held as a plain
tuple, or a genuine double cover of the base, held as a DoubleCoverData
and stored over a rational base by the trace map of its fibrewise
quadratic relation l^2 - t(b) l + delta_b = 0.  Every reading of a
bisection's internals lives here: its fibre values, its invariance and
a push's fit, its dual (the spectral cover of a push or an extension),
its self-intersection and its branch fibres.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable
from fractions import Fraction
from itertools import zip_longest

from .records import Record, set_field
from .tate import (
    DEFAULT_TOL,
    INF,
    TatePoint,
    Tolerance,
    _canonical_rep,
    _point_rep,
    group_inv,
    identity,
    points_equal,
)
from .surface import ChernData, HomLattice, NSClass, SurfaceData, eight_discriminant, self_intersection


class SectionOfJ(Record):
    """Section of the Jacobian: constant part in T* plus a hom vector."""

    __slots__ = _fields = ("constant", "hom")
    constant: TatePoint
    hom: tuple[int, ...]

    def __init__(self, constant: TatePoint, hom: tuple[int, ...]) -> None:
        set_field(self, "constant", constant)
        set_field(self, "hom", hom)


def zero_section(surface: SurfaceData) -> SectionOfJ:
    return SectionOfJ(identity(surface.fibre), (0,) * surface.lattice.rank)


def section_for_class(surface: SurfaceData, cls: NSClass, constant: complex = 1.0) -> SectionOfJ:
    """A section whose hom part realises the given NS class."""
    if len(cls.hom) != surface.lattice.rank:
        raise ValueError("class does not match the lattice rank")
    return SectionOfJ(TatePoint(constant, surface.fibre), cls.hom)


def _power_exponent(surface: SurfaceData, hom: tuple[int, ...]) -> int:
    if surface.hom_exponents is None:
        if any(hom):
            raise ValueError("surface carries no concrete generators for hom sections")
        return 0
    return sum(v * n for v, n in zip(hom, surface.hom_exponents))


def _section_evaluator(section: SectionOfJ, surface: SurfaceData) -> Callable[[complex], complex]:
    """A section's value as a function of the base number, resolved once.

    The base number is the annulus representative of the base point on a
    genus-1 base and the point as given on a rational one; the value is
    the canonical representative of the section there.  Raises ValueError
    for a section the base cannot evaluate: a hom part over a rational
    base or without power maps, or any section of an abstract base.
    """
    g = surface.base.genus
    if g == 0:
        if any(section.hom):
            raise ValueError("over a rational base every section is constant")
        const = section.constant.rep
        return lambda x: const
    if g == 1:
        const = section.constant.rep
        exp = _power_exponent(surface, section.hom)
        fibre = surface.fibre
        if not exp:
            value = _point_rep(const * 1.0, fibre)
            return lambda x: value

        def at(x: complex) -> complex:
            try:  # a finite product with a normal power is nonzero
                p = x**exp
                q = const * p
                if abs(p) >= _NORMAL_MIN and cmath.isfinite(q):
                    return _canonical_rep(q, fibre)
            except OverflowError:  # x**exp, or abs of a finite power, past the float range
                pass
            # the few bits left would be read as a point: take one of the power's
            # class, exp log x reduced modulo log tau into real part [0, log|tau|),
            # which loses about exp times the rounding of log x
            w = exp * cmath.log(x)
            w -= math.floor(w.real / fibre.log_abs_tau) * cmath.log(fibre.tau)
            return _point_rep(const * cmath.exp(w), fibre)

        return at
    raise ValueError("abstract bases (g >= 2) have no point arithmetic")


_NORMAL_MIN = sys.float_info.min


def sections_equal(s1: SectionOfJ, s2: SectionOfJ, tol: Tolerance = DEFAULT_TOL) -> bool:
    return s1.hom == s2.hom and points_equal(s1.constant, s2.constant, tol)


def section_pairing(s1: SectionOfJ, s2: SectionOfJ, lattice: HomLattice) -> int:
    """Intersection number of two sections: deg of the hom difference.

    Parallel translates (equal hom parts) are disjoint or equal and pair
    to zero; otherwise the count is the degree of the difference map,
    kernel directions included.
    """
    if len(s1.hom) != len(s2.hom):
        raise ValueError("sections live in different lattices")
    diff = tuple(a - b for a, b in zip(s1.hom, s2.hom))
    return lattice.degree(diff)


def involution_on_section(section: SectionOfJ, delta: SectionOfJ) -> SectionOfJ:
    """Image of a section under (b, l) -> (b, delta_b / l)."""
    const = TatePoint(delta.constant.rep / section.constant.rep, delta.constant.curve)
    hom = tuple(d - s for d, s in zip(delta.hom, section.hom))
    return SectionOfJ(const, hom)


def _dual_section(s: SectionOfJ) -> SectionOfJ:
    return SectionOfJ(group_inv(s.constant), tuple(-h for h in s.hom))


class RationalMap(Record):
    """Rational function of the base coordinate; coefficients low to high."""

    __slots__ = _fields = ("num", "den")
    num: tuple[complex, ...]
    den: tuple[complex, ...]

    def __init__(self, num: tuple[complex, ...], den: tuple[complex, ...] = (1.0 + 0.0j,)) -> None:
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ValueError("zero denominator")
        set_field(self, "num", num)
        set_field(self, "den", den)

    @property
    def degree(self) -> int:
        return max(len(self.num) - 1 if self.num else 0, len(self.den) - 1)

    def __call__(self, b: complex) -> complex:
        if cmath.isinf(b):
            dn = len(self.num) - 1 if self.num else -1
            dd = len(self.den) - 1
            if dn > dd:
                return INF
            if dn < dd:
                return 0.0 + 0.0j
            return self.num[-1] / self.den[-1]
        p = q = 0.0 + 0.0j  # Horner's rule on each
        for c in reversed(self.num):
            p = p * b + c
        for c in reversed(self.den):
            q = q * b + c
        if q == 0:
            return INF
        return p / q


def _trim(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    out = [complex(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class DoubleCoverData(Record):
    """An irreducible bisection, with no wrapper around it: fibre values
    over b are the roots of l^2 - trace(b) l + norm(b) = 0.

    When the norm coefficient map is omitted, the constant term is read
    off the accompanying determinant section's canonical representative.
    A cover built by inverting another one needs the explicit map: the
    honest constant is the reciprocal of the original representative,
    which generally falls outside the fundamental annulus, and rescaling
    it back in would shift the root classes by a half period.

    The coefficient maps are concrete only over a rational base; for
    g >= 1 the cover is declared through its branch points and
    self-intersection, an integer: an int or an integral Fraction is stored
    as an int, and anything else raises ValueError.
    """

    __slots__ = _fields = ("trace", "branch_points", "declared_self_intersection", "norm")
    trace: RationalMap | None
    branch_points: tuple[complex, ...]
    declared_self_intersection: int | None
    norm: RationalMap | None

    def __init__(
        self,
        trace: RationalMap | None = None,
        branch_points: tuple[complex, ...] = (),
        declared_self_intersection: int | Fraction | None = None,
        norm: RationalMap | None = None,
    ) -> None:
        declared = declared_self_intersection
        if declared is not None:
            if type(declared) is Fraction and declared.denominator == 1:
                declared = declared.numerator
            elif type(declared) is not int:
                raise ValueError(f"declared self-intersection must be an integer, got {declared!r}")
        set_field(self, "trace", trace)
        set_field(self, "branch_points", branch_points)
        set_field(self, "declared_self_intersection", declared)
        set_field(self, "norm", norm)


# A bisection is a pair of sections (reducible, the filtrable case) or a
# DoubleCoverData (irreducible); readers test isinstance(bis, tuple).
Bisection = tuple[SectionOfJ, SectionOfJ] | DoubleCoverData


def reducible_bisection(s1: SectionOfJ, s2: SectionOfJ) -> Bisection:
    return s1, s2


def irreducible_bisection(cover: DoubleCoverData) -> Bisection:
    return cover


def _constant_norm(cover: DoubleCoverData, delta: SectionOfJ) -> complex:
    """A concrete rational-base cover's norm: its map at 0, else delta's."""
    return cover.norm(0j) if cover.norm is not None else delta.constant.rep


def _dual_bisection(bis: Bisection, delta: SectionOfJ, surface: SurfaceData) -> Bisection:
    """The inverse classes of an invariant bisection of delta: the dual
    sections of a pair; over a rational base a concrete cover's trace and
    norm divided by its norm n, whose reciprocal usually leaves the
    fundamental annulus, hence the explicit norm map; any other cover."""
    if isinstance(bis, tuple):
        return reducible_bisection(*map(_dual_section, bis))
    if bis.trace is None or surface.base.genus != 0:
        return bis
    n, branch, declared = _constant_norm(bis, delta), bis.branch_points, bis.declared_self_intersection
    inv_trace = RationalMap(tuple(c / n for c in bis.trace.num), bis.trace.den)
    return DoubleCoverData(inv_trace, branch, declared, RationalMap((1.0 / n,)))


def _cover_evaluator(
    bis: Bisection, delta: SectionOfJ, surface: SurfaceData
) -> Callable[[complex], tuple[complex, complex]]:
    """The two fibre values of an invariant bisection as a function of the
    base number, resolved once (see _section_evaluator); the values are
    canonical representatives.

    The caller guarantees invariance (_check_push_fit), so a
    given norm map is a nonzero finite constant, and without one the
    determinant is constant over the rational base; the norm is read once,
    at 0, when the evaluator is built.
    """
    if isinstance(bis, tuple):
        first, second = (_section_evaluator(s, surface) for s in bis)
        if surface.base.genus == 0:  # constant sections: the pair does not move
            pair = first(0j), second(0j)
            return lambda x: pair
        return lambda x: (first(x), second(x))
    if bis.trace is None:
        raise ValueError("declared cover carries no trace map to evaluate")
    if surface.base.genus != 0:
        raise ValueError("trace maps are concrete only over a rational base")
    fibre = surface.fibre
    d = bis.norm(0j) if bis.norm is not None else _section_evaluator(delta, surface)(0j)

    def values(b) -> tuple[complex, complex]:
        t = bis.trace(complex(b))
        if cmath.isinf(t):
            raise ValueError(f"trace map has a pole at {b!r}")
        disc = t * t - 4.0 * d
        s = cmath.sqrt(disc)
        r1 = (t + s) / 2.0 if abs(t + s) >= abs(t - s) else (t - s) / 2.0
        if r1 == 0:
            raise ValueError("degenerate quadratic relation (zero root)")
        r2 = d / r1
        return _point_rep(r1, fibre), _point_rep(r2, fibre)

    return values


def is_invariant_bisection(
    bis: Bisection,
    delta: SectionOfJ,
    surface: SurfaceData,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Whether the bisection is carried to itself by the involution of delta.

    Reducible: the involution swaps the two sections or fixes each.
    Irreducible over a rational base with a concrete trace: the fibre
    values over b solve l^2 - t(b) l + n(b) = 0, so by Vieta their
    product is n(b) and l -> delta/l swaps them exactly when n is delta's
    value.  Without a norm map n is delta by construction; with one, the
    cover is invariant only when the norm is a nonzero constant in the
    class of delta's (constant) value, and otherwise this returns False.
    No fibre is sampled.  Declared covers (abstract base) are trusted,
    since their fibrewise relation has delta as its norm by construction.
    _check_push_fit runs this test for every spectral push, and
    graph_self_intersection for every bisection it measures.
    """
    if isinstance(bis, tuple):
        s1, s2 = bis
        i1 = involution_on_section(s1, delta)
        if sections_equal(i1, s2, tol):
            return True
        i2 = involution_on_section(s2, delta)
        return sections_equal(i1, s1, tol) and sections_equal(i2, s2, tol)
    norm = bis.norm
    if bis.trace is None or surface.base.genus != 0 or norm is None:
        return True
    n = _constant_norm(bis, delta)
    if norm.degree > 0 or any(delta.hom) or n == 0 or not cmath.isfinite(n):
        return False
    return points_equal(TatePoint(n, surface.fibre), delta.constant, tol)


def _check_push_fit(bis: Bisection, delta: SectionOfJ, surface: SurfaceData, tol: Tolerance) -> None:
    """ValueError unless a push of the irreducible bis with determinant delta
    fits the surface: over a rational base delta is constant and the cover
    has a trace map, and bis is invariant (is_invariant_bisection)."""
    if surface.base.genus == 0:
        if any(delta.hom):
            raise ValueError("over a rational base the determinant section is constant")
        if bis.trace is None:
            raise ValueError("over a rational base the bisection needs a trace map, not a declared cover")
    if not is_invariant_bisection(bis, delta, surface, tol):
        raise ValueError("bisection is not invariant under the involution")


def graph_self_intersection(
    bis: Bisection,
    delta: SectionOfJ,
    surface: SurfaceData,
    tol: Tolerance = DEFAULT_TOL,
) -> int:
    """Self-intersection of the folded image of an invariant bisection.

    For a pair of sections this is their intersection number; for an
    irreducible cover over a rational base it is the trace-map degree
    (half the branch count), and for a declared cover the declared value.
    Always nonnegative.
    """
    if not is_invariant_bisection(bis, delta, surface, tol):
        raise ValueError("bisection is not invariant under the involution")
    if isinstance(bis, tuple):
        return section_pairing(*bis, surface.lattice)
    if bis.trace is not None and surface.base.genus == 0:
        return bis.trace.degree
    if bis.declared_self_intersection is None:
        raise ValueError("declared cover carries no self-intersection data")
    return bis.declared_self_intersection


_ABERTH_STEPS = 100


def _poly_roots(coeffs: list[complex]) -> list[complex]:
    """All roots of sum coeffs[k] z^k (coeffs[-1] != 0), with multiplicity.

    Aberth-Ehrlich simultaneous iteration (Aberth, Math. Comp. 27, 1973;
    Bini, Numer. Algorithms 13, 1996).  Exact zero roots are split off
    first; the rest start on a circle of radius max_k (n|a_k/a_n|)^(1/(n-k)),
    a Cauchy bound on the root moduli.  Each approximation stops once
    |p(z)| is within the rounding error of Horner's rule,
    eps * sum |a_k||z|^k, or once its correction falls below eps*|z|; at
    most _ABERTH_STEPS sweeps run.  A step that leaves the float range
    (near a root whose neighbours multiply to a subnormal number, p(z) is
    subnormal and the bound has underflowed to 0) also stops the root, at
    its last finite value.  That value is kept only in the normal range:
    a root stopped so below sys.float_info.min raises ValueError.
    """
    zeros = 0
    while coeffs[zeros] == 0:
        zeros += 1
    a = coeffs[zeros:]
    moduli = [abs(c) for c in a]
    n = len(a) - 1
    if n == 0:
        return [0j] * zeros
    eps = sys.float_info.epsilon
    radius = max((n * m / moduli[-1]) ** (1.0 / (n - k)) for k, m in enumerate(moduli[:-1]))
    roots = [radius * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4)) for k in range(n)]
    done = [False] * n
    stopped_by_range = [False] * n
    for _ in range(_ABERTH_STEPS):
        if all(done):
            break
        for k, zk in enumerate(roots):
            if done[k]:
                continue
            p = dp = 0j
            bound = 0.0
            for c, m in zip(reversed(a), reversed(moduli)):
                dp = dp * zk + p
                p = p * zk + c
                bound = bound * abs(zk) + m
            if abs(p) <= eps * bound:
                done[k] = True
                continue
            repel = sum(1.0 / (zk - zj) for j, zj in enumerate(roots) if j != k)
            step = 1.0 / (dp / p - repel)
            z = zk - step
            if not cmath.isfinite(z):
                done[k] = stopped_by_range[k] = True
                continue
            roots[k] = z
            done[k] = abs(step) <= eps * abs(z)
    tiny = sys.float_info.min
    if not all(map(cmath.isfinite, roots)) or any(
        stop and 0 < abs(z) < tiny for z, stop in zip(roots, stopped_by_range)
    ):
        raise ValueError("polynomial roots out of floating-point range")
    return roots + [0j] * zeros


def branch_points_numeric(cover: DoubleCoverData, delta: SectionOfJ, surface: SurfaceData) -> list[complex]:
    """Finite branch points of a concrete cover: roots of trace^2 - 4 delta.

    Only for a rational base with constant delta.  The numerator of the
    discriminant, num^2 - 4 delta den^2, loses leading coefficients below
    1e-10 of its largest one.  Its roots come from Aberth-Ehrlich
    iteration (_poly_roots), which stops each root once |p(z)| is within
    Horner's rounding bound or its correction is below eps*|z|.  They are
    in no particular order, with multiplicity.
    """
    if cover.trace is None or surface.base.genus != 0:
        raise ValueError("branch points are computed only for concrete rational-base covers")
    if any(delta.hom):
        raise ValueError("over a rational base the determinant section is constant")
    if cover.norm is not None and cover.norm.degree > 0:
        raise ValueError("branch analysis needs a constant norm map")
    d0 = _constant_norm(cover, delta)
    disc = [
        x - 4.0 * d0 * y
        for x, y in zip_longest(_poly_square(cover.trace.num), _poly_square(cover.trace.den), fillvalue=0j)
    ]
    if not all(cmath.isfinite(c) for c in disc):
        raise ValueError("cover coefficients leave the floating-point range")
    scale = max((abs(c) for c in disc), default=0.0)
    if scale == 0.0:
        raise ValueError("degenerate cover: the quadratic relation has square discriminant")
    while abs(disc[-1]) <= 1e-10 * scale:
        disc.pop()
    return _poly_roots(disc)


def _branch_fibres(bis: Bisection, delta: SectionOfJ, surface: SurfaceData) -> list[complex]:
    """The base numbers a bisection of delta branches over: a concrete cover's
    over a rational base (branch_points_numeric), else none."""
    if isinstance(bis, tuple) or bis.trace is None or surface.base.genus != 0:
        return []
    return branch_points_numeric(bis, delta, surface)


def _poly_square(a: tuple[complex, ...]) -> list[complex]:
    """Coefficients of the square of sum a[k] z^k."""
    out = [0j] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return out


def branch_point_count(cover: DoubleCoverData, delta: SectionOfJ, surface: SurfaceData) -> int:
    """Branch count with multiplicity, the point at infinity included."""
    finite = branch_points_numeric(cover, delta, surface)
    at_infinity = 2 * cover.trace.degree - len(finite)
    assert at_infinity >= 0
    return len(finite) + at_infinity


class RuledBounds(Record):
    """Integer window for the maximal sub-line-bundle degree d of the folded
    ruled surface, and the matching window for its invariant e = 2d - 4m."""

    __slots__ = _fields = ("d_min", "d_max", "e_min", "e_max")
    d_min: int
    d_max: int
    e_min: int
    e_max: int

    def __init__(self, d_min: int, d_max: int, e_min: int, e_max: int) -> None:
        set_field(self, "d_min", d_min)
        set_field(self, "d_max", d_max)
        set_field(self, "e_min", e_min)
        set_field(self, "e_max", e_max)

    @property
    def empty(self) -> bool:
        return self.d_min > self.d_max


def ruled_invariant_bounds(genus: int, m: Fraction | int) -> RuledBounds:
    """Window max{0, 2m - g/2} <= d <= 2m, with e = 2d - 4m in [-g, 0].

    m must be a nonnegative quarter-integer; an empty window means no
    surface realises this (genus, m) combination.  The window is computed
    from the integer 4m: ceil((4m - g)/2) <= d <= floor(4m/2).
    """
    if m < 0:
        raise ValueError("the filtrable bound m is nonnegative")
    if 4 % m.denominator:
        raise ValueError("4m must be an integer")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    four_m = 4 * m.numerator // m.denominator
    d_min = max(0, -((genus - four_m) // 2))
    d_max = four_m // 2
    return RuledBounds(d_min, d_max, 2 * d_min - four_m, 2 * d_max - four_m)


def genus_and_branching(cd: ChernData, genus: int, lattice: HomLattice) -> tuple[int, int]:
    """Genus 4*Delta + 2g - 1 and branch order 4c2 - c1^2 of a smooth
    irreducible spectral bisection; the two satisfy the Hurwitz relation
    for a double cover of the base.  Values are formal: a negative genus
    means no smooth cover exists."""
    four_delta, odd = divmod(eight_discriminant(cd, lattice), 2)
    if odd:
        raise ValueError("no smooth irreducible spectral cover with these invariants")
    g_cover = four_delta + 2 * genus - 1
    branch = 4 * cd.c2 - self_intersection(cd.c1, lattice)
    assert 2 * g_cover - 2 == 2 * (2 * genus - 2) + branch
    return g_cover, branch
