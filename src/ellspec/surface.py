"""Surface data and exact Chern arithmetic.

The Neron-Severi group modulo torsion of the surfaces handled here is a
lattice of homomorphisms of rank at most two, carrying a positive
semidefinite degree form; curve classes pair through

    c . c' = -2 B(c, c')        c^2 = -2 deg(c)

where B is the polarisation of deg.  Torsion is spanned by the fibre
class and one class per multiple fibre, and pairs to zero against
everything.  All bookkeeping is exact.  The Gram matrix of B has integer
diagonal and half-integer off-diagonal entries, so a lattice is held as
the integer binary form (A, B, C) = (g00, 2 g01, g11), with
deg(x, y) = A x^2 + B x y + C y^2, and the form is its identity.  A Gram
matrix is checked on the numerators and denominators of its entries, and
the form is built from the numerators, so a matrix of ints builds no
Fraction; degrees, pairings and the lattice minimum are computed from the
form in integers only.  So is the discriminant Delta = (c2 - c1^2/4)/2
wherever it is only compared: eight_discriminant returns the integer
8 Delta = 4 c2 + 2 deg(c1), and discriminant is that integer over 8.  A
Fraction is built only for a value returned as one: Delta from
discriminant and m from filtrable_bound.

Base points are numbers, and they are normalised, compared, filed and
drawn here alone.  base_point normalises a number where it enters, and
all below it read its numbers: _same_base_number compares two,
_BaseIndex files a list by grid cell, so a lookup replaces a scan, and
_sample_base_numbers draws seeded generic fibres clear of given numbers
and of the multiple fibres.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from numbers import Rational

from .records import Record, set_field
from .tate import DEFAULT_TOL, CurveParam, Tolerance, _class_distance, _point_rep


# Fraction's decimal form with an exponent: whole digits, fraction digits, exponent
_DECIMAL = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d+(?:_\d+)*)?(?:\.(\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _bounded_decimal(text: str) -> str:
    """text, unless Fraction(text) would spend seconds expanding its decimal
    exponent into a power of ten or a numerator of more than
    sys.get_int_max_str_digits() digits, which no reply could print."""
    limit, m = sys.get_int_max_str_digits(), _DECIMAL.match(text)
    if limit and m:
        whole, tail = (m[1] or "").replace("_", ""), (m[2] or "").replace("_", "")
        try:
            shift = int(m[3]) - len(tail)
        except ValueError:  # the exponent's own digits pass the limit: Fraction refuses it too
            return text
        if max(len((whole + tail).lstrip("0")) + shift, abs(shift) + 1) > limit:
            raise ValueError(f"rational {text!r} has more than {limit} digits")
    return text


def as_fraction(x) -> Fraction:
    """Exact conversion; floats are accepted only when they are exact halves,
    and strings only within _bounded_decimal.  A Fraction is returned as it is."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        f = Fraction(x)
        if f.denominator in (1, 2):
            return f
        raise ValueError(f"non-exact gram entry {x!r}; use 'p/q' strings")
    if isinstance(x, str):
        return Fraction(_bounded_decimal(x))
    raise TypeError(f"cannot read {x!r} as an exact rational")


class HomLattice(Record):
    """Rank <= 2 lattice with a positive-semidefinite degree form.

    Built from the Gram matrix of the polarisation B, so that
    deg(v) = v . gram . v: diagonal entries are integers (degrees of the
    generators) and off-diagonal entries are half-integers.  Entries may be
    ints, Fractions, 'p/q' strings or floats that are exact halves; each is
    checked through its numerator and denominator, so an int or a Fraction
    is read as it stands and only a string or a float builds a Fraction.
    The lattice keeps the integer binary form (A, B, C) = (g00, 2 g01, g11)
    in rank 2, (g00,) in rank 1 and () in rank 0; the form fixes the rank,
    so (rank, form) compares as the form alone would.
    """

    __slots__ = _fields = ("rank", "form")
    rank: int
    form: tuple[int, ...]

    def __init__(self, rank: int, gram) -> None:
        if rank not in (0, 1, 2):
            raise ValueError("lattice rank must be 0, 1 or 2")
        # ints and Fractions both carry numerator and denominator and
        # compare exactly with each other, so the checks below read either
        g = tuple(tuple(x if type(x) is int else as_fraction(x) for x in row) for row in gram)
        if len(g) != rank or any(len(row) != rank for row in g):
            raise ValueError("gram matrix shape does not match the rank")
        for i in range(rank):
            if g[i][i].denominator != 1:
                raise ValueError("generator degrees (gram diagonal) must be integers")
            for j in range(rank):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
                if g[i][j].denominator > 2:
                    raise ValueError("gram entries must be half-integers")
        if rank == 2:
            b = g[0][1]
            form = (g[0][0].numerator, b.numerator * (2 // b.denominator), g[1][1].numerator)
        else:
            form = tuple(g[i][i].numerator for i in range(rank))
        # positive semidefinite, exactly: A, C >= 0 and 4AC - B^2 >= 0
        if any(x < 0 for x in form[::2]) or (rank == 2 and 4 * form[0] * form[2] < form[1] ** 2):
            raise ValueError("degree form is indefinite")
        set_field(self, "rank", rank)
        set_field(self, "form", form)

    def _check_vec(self, v: tuple[int, ...]) -> None:
        if len(v) != self.rank:
            raise ValueError(f"vector length {len(v)} does not match lattice rank {self.rank}")

    def bilinear(self, v: tuple[int, ...], w: tuple[int, ...]) -> int:
        """deg(v + w) - deg(v) - deg(w), that is 2 B(v, w): always an integer."""
        rank = self.rank
        if len(v) != rank or len(w) != rank:
            self._check_vec(v)
            self._check_vec(w)
        if rank == 2:
            a, b, c = self.form
            return 2 * a * v[0] * w[0] + b * (v[0] * w[1] + v[1] * w[0]) + 2 * c * v[1] * w[1]
        if rank == 1:
            return 2 * self.form[0] * v[0] * w[0]
        return 0

    def degree(self, v: tuple[int, ...]) -> int:
        """deg(v) = A x^2 + B x y + C y^2 at v = (x, y), read off the form."""
        rank = self.rank
        if len(v) != rank:
            self._check_vec(v)
        if rank == 2:
            a, b, c = self.form
            x, y = v
            return a * x * x + b * x * y + c * y * y
        if rank == 1:
            return self.form[0] * v[0] * v[0]
        return 0


UNIT_LATTICE = HomLattice(1, ((1,),))
ZERO_LATTICE = HomLattice(0, ())


class BaseCurve(Record):
    """Base of the fibration: rational (g=0), a concrete Tate model (g=1),
    or abstract (g >= 2, no point arithmetic)."""

    __slots__ = _fields = ("genus", "tate")
    genus: int
    tate: CurveParam | None

    def __init__(self, genus: int, tate: CurveParam | None = None) -> None:
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if genus == 1 and tate is None:
            raise ValueError("a genus-1 base needs a concrete multiplier (Tate model)")
        if genus != 1 and tate is not None:
            raise ValueError("only a genus-1 base carries a Tate model")
        set_field(self, "genus", genus)
        set_field(self, "tate", tate)


def base_point(surface: SurfaceData | None, b: complex) -> complex:
    """The complex number that stands for the base point given by the number b.

    On a genus-1 base this is the annulus representative of b's class on
    the Tate base curve; on any other base, or with no surface at hand, it
    is b itself.
    """
    if surface is not None and surface.base.genus == 1:
        return _point_rep(b, surface.base.tate)
    return complex(b)


def same_base_point(surface: SurfaceData | None, a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether two base points agree within tol.eps (see _same_base_number)."""
    return _same_base_number(_base_tau(surface), tol.eps, base_point(surface, a), base_point(surface, b))


def _base_tau(surface: SurfaceData | None) -> complex | None:
    """The multiplier of a genus-1 base, whose numbers stand for classes; else None."""
    return None if surface is None or surface.base.tate is None else surface.base.tate.tau


def _same_base_number(tau: complex | None, eps: float, a: complex, b: complex) -> bool:
    """Whether two numbers from base_point agree within eps: by class distance
    on a base of multiplier tau, else by modulus, infinity being one point."""
    if cmath.isinf(a) and cmath.isinf(b):
        return True
    return (abs(a - b) if tau is None else _class_distance(a, b, tau)) <= eps


class _BaseIndex(dict):
    """Base numbers filed by grid cell: fixed-radius near neighbours
    (Bentley and Friedman, ACM Computing Surveys 11, 1979).  A cell's side
    is a power of two, at least 4r for r below 2**1021, r being eps widened
    by rounding.  A number goes into each cell its r-box meets, and on
    genus 1 near the annulus seam as p tau and p / tau too, so a query's
    own cell holds all its matches and _same_base_number picks them.  Cell
    numbers are exact integers; infinite numbers share the key (), and NaN
    is never filed."""

    __slots__ = ("tau", "eps", "r", "shift", "side")

    def __init__(self, surface: SurfaceData | None, eps: float, pairs: Sequence = ()) -> None:
        self.tau, self.eps = _base_tau(surface), eps
        # the predicate rounds |a - b| within a relative 2**-52 of eps, and a
        # product with tau within a few ulps of a number of modulus ~1 at the seam
        self.r = min(eps * (1.0 + 2.0**-40) + (0.0 if self.tau is None else 2.0**-40), sys.float_info.max)
        self.shift = min(math.frexp(self.r)[1] + 2, 1023)
        self.side = 2.0**self.shift
        for p, item in pairs:
            self.add(p, item)

    def _cell(self, v: float) -> int:
        """floor(v / side), exactly; an infinite v counts as the largest float."""
        try:
            return math.floor(v / self.side)
        except OverflowError:  # the quotient left the float range: the same floor, in integers
            n, d = max(-sys.float_info.max, min(v, sys.float_info.max)).as_integer_ratio()
            return (n << -self.shift) // d if self.shift < 0 else n // (d << self.shift)

    def add(self, p: complex, item: object = None) -> None:
        """File the base number p, to be answered as item."""
        entry, r, tau = (p, item), self.r, self.tau
        if cmath.isinf(p):
            self.setdefault((), []).append(entry)
        images = [p] if cmath.isfinite(p) else []
        if tau is not None and abs(p) <= 1.0 + 2.0 * r:
            images.append(p * tau)
        if tau is not None and abs(p) >= abs(tau) * (1.0 - 2.0**-40) - r:
            images.append(p / tau)
        for q in images:
            if cmath.isfinite(q):  # an image past the float range meets nothing
                ys = range(self._cell(q.imag - r), self._cell(q.imag + r) + 1)
                for cx in range(self._cell(q.real - r), self._cell(q.real + r) + 1):
                    for cy in ys:
                        cell = self.setdefault((cx, cy), [])
                        if not cell or cell[-1] is not entry:
                            cell.append(entry)

    def matches(self, x: complex) -> list:
        """The items of the filed numbers that agree with x, in filing order."""
        try:
            key = (math.floor(x.real / self.side), math.floor(x.imag / self.side))
        except (OverflowError, ValueError):  # an infinite or NaN part, or a quotient past the float range
            key = () if cmath.isinf(x) else (self._cell(x.real), self._cell(x.imag)) if x == x else None
        cell = self.get(key)
        return [item for p, item in cell if _same_base_number(self.tau, self.eps, x, p)] if cell else []


def distinct_base_points(surface: SurfaceData | None, numbers: Sequence[complex]) -> bool:
    """Whether no two base_point numbers are the same point (one lookup each)."""
    if len(numbers) < 2:
        return True
    seen = _BaseIndex(surface, DEFAULT_TOL.eps)
    for p in numbers:
        if seen.matches(p):
            return False
        seen.add(p)
    return True


_CLEARANCE = 1e-3


def _candidate(tate: CurveParam | None, u: float, v: float) -> complex:
    """The base number drawn from two uniforms u, v in [0, 1): exactly what
    rng.uniform(-2, 2) twice, or rng.uniform(0, 1) then rng.uniform(0, 2 pi)
    on a genus-1 base, makes of the same two draws."""
    if tate is None:
        return complex(-2.0 + 4.0 * u, -2.0 + 4.0 * v)
    return _point_rep(tate.abs_tau**u * cmath.exp(1j * (2.0 * math.pi * v)), tate)


@functools.lru_cache(maxsize=256)
def _first_uniforms(seed) -> tuple[float, float]:
    """The first two uniforms of random.Random(seed)."""
    rng = random.Random(seed)
    return rng.random(), rng.random()


def _sample_base_numbers(
    surface: SurfaceData,
    count: int,
    seed: int = 0,
    avoid: tuple[complex, ...] = (),
) -> list[complex]:
    """Seeded generic base numbers, at least _CLEARANCE from the avoided
    numbers (each a base_point number) and the multiple fibres, with no
    point object built: annulus representatives on genus 1, and on any
    other base complex numbers from the square |Re|, |Im| <= 2, which on an
    abstract base (g >= 2) are formal markers.

    Every draw is tested with one lookup in one _BaseIndex of the avoided
    numbers.  One number (a recipe's generic fibre) is the seed's first
    draw, read from a cache of the last 256 seeds (_first_uniforms); more
    numbers, and one whose first draw is blocked, come from a seeded loop.
    Both ways give the same numbers."""
    # a distance is below _CLEARANCE exactly when it is at most the float below it
    near = math.nextafter(_CLEARANCE, 0.0)
    avoided = list(avoid) + [p for p, _ in surface.multiple_fibres]
    forbidden = _BaseIndex(surface, near, [(p, None) for p in avoided]) if avoided else None
    tate = surface.base.tate
    if count == 1:
        b = _candidate(tate, *_first_uniforms(seed))
        if not (forbidden and forbidden.matches(b)):
            return [b]
    rng = random.Random(seed)
    out: list[complex] = []
    trials = 0
    while len(out) < count:
        trials += 1
        if trials > 100 * count + 100:
            raise RuntimeError("could not sample enough generic base points")
        b = _candidate(tate, rng.random(), rng.random())
        if forbidden and forbidden.matches(b):
            continue
        out.append(b)
    return out


class SurfaceData(Record):
    """An elliptic quotient surface over the base, with fibre C*/<tau>.

    multiple_fibres lists (base point, multiplicity >= 2) pairs over
    distinct base points, each stored as its base_point number; a
    positive theta degree marks the principal case and excludes multiple
    fibres.  hom_exponents optionally realises the lattice generators as
    power maps z -> z^n on a genus-1 base whose multiplier equals tau.
    """

    __slots__ = _fields = ("base", "fibre", "multiple_fibres", "theta_degree", "lattice", "hom_exponents")
    base: BaseCurve
    fibre: CurveParam
    multiple_fibres: tuple[tuple[complex, int], ...]
    theta_degree: int | None
    lattice: HomLattice
    hom_exponents: tuple[int, ...] | None

    def __init__(
        self,
        base: BaseCurve,
        fibre: CurveParam,
        multiple_fibres: tuple[tuple[complex, int], ...] = (),
        theta_degree: int | None = None,
        lattice: HomLattice = ZERO_LATTICE,
        hom_exponents: tuple[int, ...] | None = None,
    ) -> None:
        set_field(self, "base", base)  # base_point reads it
        try:
            fibres = tuple((base_point(self, b), mult) for b, mult in multiple_fibres)
        except ValueError as exc:
            raise ValueError(f"multiple fibre point: {exc}") from exc
        if not distinct_base_points(self, [b for b, _ in fibres]):
            raise ValueError("multiple fibres must sit over distinct base points")
        for _, mult in fibres:
            if mult < 2:
                raise ValueError("multiple-fibre multiplicities are at least 2")
        if theta_degree is not None:
            if theta_degree <= 0:
                raise ValueError("theta degree must be positive when present")
            if fibres:
                raise ValueError("theta degree applies only without multiple fibres")
        if hom_exponents is not None:
            if len(hom_exponents) != lattice.rank:
                raise ValueError("one power-map exponent per lattice generator")
            if any(hom_exponents):
                if base.genus != 1:
                    raise ValueError("power-map generators need a genus-1 base")
                if base.tate != fibre:
                    raise ValueError(
                        "power maps z -> z^n are defined only when the base multiplier equals tau"
                    )
        set_field(self, "fibre", fibre)
        set_field(self, "multiple_fibres", fibres)
        set_field(self, "theta_degree", theta_degree)
        set_field(self, "lattice", lattice)
        set_field(self, "hom_exponents", hom_exponents)

    @property
    def torsion_rank(self) -> int:
        return 1 + len(self.multiple_fibres)


class NSClass(Record):
    """Class in NS(X): torsion coordinates (fibre, then one per multiple fibre)
    and coordinates in the hom lattice."""

    __slots__ = _fields = ("torsion", "hom")
    torsion: tuple[int, ...]
    hom: tuple[int, ...]

    def __init__(self, torsion: tuple[int, ...], hom: tuple[int, ...]) -> None:
        set_field(self, "torsion", torsion)
        set_field(self, "hom", hom)

    def __add__(self, other: "NSClass") -> "NSClass":
        _same_shape(self, other)
        return NSClass(
            tuple(a + b for a, b in zip(self.torsion, other.torsion)),
            tuple(a + b for a, b in zip(self.hom, other.hom)),
        )

    def scale(self, k: int) -> "NSClass":
        return NSClass(tuple(k * a for a in self.torsion), tuple(k * a for a in self.hom))


def _same_shape(a: NSClass, b: NSClass) -> None:
    if len(a.torsion) != len(b.torsion) or len(a.hom) != len(b.hom):
        raise ValueError("NS classes have mismatched coordinate shapes")


class ChernData(Record):
    __slots__ = _fields = ("c1", "c2")
    c1: NSClass
    c2: int

    def __init__(self, c1: NSClass, c2: int) -> None:
        set_field(self, "c1", c1)
        set_field(self, "c2", c2)


def self_intersection(c: NSClass, lattice: HomLattice) -> int:
    """c^2 = -2 deg(hom part); torsion contributes nothing."""
    return -2 * lattice.degree(c.hom)


def pairing(a: NSClass, b: NSClass, lattice: HomLattice) -> int:
    """Intersection number via the polarisation of the degree form."""
    return -lattice.bilinear(a.hom, b.hom)


def eight_discriminant(cd: ChernData, lattice: HomLattice) -> int:
    """8 Delta = 4 c2 - c1^2 = 4 c2 + 2 deg(c1): the discriminant in integers."""
    return 4 * cd.c2 + 2 * lattice.degree(cd.c1.hom)


def discriminant(cd: ChernData, lattice: HomLattice) -> Fraction:
    """(c2 - c1^2/4) / 2, exactly."""
    return Fraction(eight_discriminant(cd, lattice), 8)


def spectral_support_count(cd: ChernData, lattice: HomLattice) -> int:
    """c2 - c1^2/2: the total multiplicity of the spectral support."""
    c1sq = self_intersection(cd.c1, lattice)
    assert c1sq % 2 == 0
    return cd.c2 - c1sq // 2


def filtrable_bound(c1: NSClass, lattice: HomLattice) -> tuple[Fraction, NSClass]:
    """Minimum of deg(c1 - 2 mu)/4 over lattice vectors mu, with a witness.

    Returns (m, w) where w = c1 - 2 mu* attains the minimum; its
    self-intersection is -8m.  Ties go to the lexicographically smallest
    witness coordinates.  The minimiser is found exactly, in integers.  A
    definite rank-2 form is Lagrange-Gauss reduced; in the reduced basis
    the Babai nearest-plane point bounds the minimum, and completing the
    square, first in y and then in x, lists every lattice point within
    that bound: at most four, whatever the form.  All minimisers are
    mapped back and compared.  A degenerate form is constant along its
    kernel, so the search runs along a unimodular complement of the
    kernel and the witness has kernel coordinate zero.
    """
    w = c1.hom
    lattice._check_vec(w)
    if not any(lattice.form):
        witnesses = [w]  # rank 0 or the zero form: every mu is a minimiser
    elif lattice.rank == 1:
        r = w[0] % 2
        witnesses = [(r,), (r - 2,)]
    elif 4 * lattice.form[0] * lattice.form[2] == lattice.form[1] ** 2:
        a, b, _ = lattice.form
        g = math.gcd(b, 2 * a)
        kernel = (1, 0) if a == 0 else (-b // g, 2 * a // g)
        _, x, y = _xgcd(*kernel)
        comp = (-y, x)  # det(kernel, comp) = 1: a unimodular complement
        # deg(w - 2k comp) is least at k = bilinear(w, comp) / (4 deg(comp))
        lo = lattice.bilinear(w, comp) // (4 * lattice.degree(comp))
        witnesses = [(w[0] - 2 * k * comp[0], w[1] - 2 * k * comp[1]) for k in (lo, lo + 1)]
    else:
        witnesses = _closest_witnesses(w, lattice.form)
    best = min(witnesses, key=lambda z: (lattice.degree(z), z))
    return Fraction(lattice.degree(best), 4), NSClass(c1.torsion, best)


def _closest_witnesses(w: tuple[int, ...], form: tuple[int, ...]) -> list[tuple[int, int]]:
    """Every w - 2 mu of least degree under a positive definite binary form."""
    a, b, c, u = _gauss_reduce(*form)
    (p, q), (r, s) = u
    e = p * s - q * r  # +-1, so u^-1 = e [[s, -q], [-r, p]]
    t0, t1 = e * (s * w[0] - q * w[1]), e * (p * w[1] - r * w[0])
    # 4a deg(x, y) = (2a x + b y)^2 + disc y^2, with x = t0, y = t1 (mod 2)
    disc = 4 * a * c - b * b
    # Babai nearest plane: the least |y| of the right parity, then the x
    # of the right parity nearest -b y / 2a; 4a times its degree bounds
    # every (2a x + b y)^2 + disc y^2 to be listed
    y0 = t1 % 2
    x0 = t0 - 2 * ((2 * a * t0 + b * y0 + 2 * a) // (4 * a))
    bound = 4 * a * (a * x0 * x0 + b * x0 * y0 + c * y0 * y0)
    ymax = math.isqrt(bound // disc)
    best, found = None, []
    for y in range(-ymax + (ymax + t1) % 2, ymax + 1, 2):
        room = math.isqrt(bound - disc * y * y)
        lo = -((room + b * y) // (2 * a))
        for x in range(lo + (lo - t0) % 2, (room - b * y) // (2 * a) + 1, 2):
            val = a * x * x + b * x * y + c * y * y
            if best is None or val < best:
                best, found = val, []
            if val == best:
                found.append((p * x + q * y, r * x + s * y))
    return found


def _gauss_reduce(a: int, b: int, c: int) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """Lagrange-Gauss reduction of the definite form a x^2 + b x y + c y^2.

    Returns (a', b', c', u) with |b'| <= a' <= c' and u unimodular, such
    that the form at u z is a' z0^2 + b' z0 z1 + c' z1^2.
    """
    p, q, r, s = 1, 0, 0, 1
    while True:
        k = (b + a) // (2 * a)  # nearest integer to b / 2a
        b, c = b - 2 * a * k, c - k * (b - a * k)
        q, s = q - k * p, s - k * r
        if a <= c:
            return a, b, c, ((p, q), (r, s))
        a, b, c = c, -b, a
        p, q, r, s = q, -p, s, -r


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qu = old_r // r
        old_r, r = r, old_r - qu * r
        old_s, s = s, old_s - qu * s
        old_t, t = t, old_t - qu * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
