"""Rank-2 bundle presentations and their spectral covers.

A bundle is presented as an extension of a twisted ideal sheaf by a line
bundle, as the direct image of a line bundle on an irreducible spectral
bisection, or as a chain of elementary modifications along smooth
fibres.  A chain is one flat record, its root (an extension or a push)
and its (fibre, steps) pairs, innermost first; _unwind reads that split
off any presentation, and every consumer works from it.
Each presentation determines Chern data exactly; restriction to a smooth
fibre determines a split, non-split, or unstable isomorphism type whose
determinant is the fibre value of the determinant bundle.  Whether a
spectral push fits its surface (constant determinant and a trace map
over a rational base, invariant bisection) is decided by
check_spectral_push on the root of a presentation.  chern_data and
spectral_cover each run it before any other work (the command line also
runs it first, to report a misfit as a schema error); fibre evaluation
compares nothing.

A spectral-cover request resolves once what no fibre changes.  One plan
(_FibrePlan) files each base point, normalised once, with its tag in one
surface._BaseIndex and merges the jump fibres in that pass; each section
evaluator binds its constant and power exponent, or its value where the
exponent is 0; over a rational base an extension's two values, their
class distance and the cover's two classes are taken once.  A fibre then
pays one index lookup and the complex arithmetic of what moves (power and
trace maps, twists), and verification reuses its residuals while the next
fibres repeat its values and cover classes, so a bundle whose values and
classes stay put (every extension over a rational base) is scored once.

The spectral cover of a presentation records, per fibre, the classes
whose twist makes first cohomology jump: these are the inverses of the
restriction's sub-line-bundle values.  The cover therefore has the
inverse determinant as its norm, and is invariant under the involution
of that dual section by construction.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable, Sequence
from functools import cached_property

from .jacobian import (
    Bisection,
    DoubleCoverData,
    RationalMap,
    SectionOfJ,
    _cover_evaluator,
    _section_evaluator,
    branch_points_numeric,
    graph_self_intersection,
    involution_on_section,
    irreducible_bisection,
    is_invariant_bisection,
    reducible_bisection,
    section_pairing,
    zero_section,
)
from .records import Record
from .surface import (
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    _BaseIndex,
    _sample_base_numbers,
    base_point,
    distinct_base_points,
    eight_discriminant,
    pairing,
    same_base_point,
    self_intersection,
    spectral_support_count,
)
from .tate import (
    DEFAULT_TOL,
    CurveParam,
    TatePoint,
    Tolerance,
    _canonical_rep,
    _class_distance,
    group_inv,
)


class LineBundleOnX(Record):
    """Line bundle on the surface: a section of the Jacobian plus twists by
    pulled-back base divisors and by multiple fibres."""

    __slots__ = _fields = ("section", "base_twist", "fibre_twists")
    section: SectionOfJ
    base_twist: int
    fibre_twists: tuple[int, ...]

    def __init__(self, section: SectionOfJ, base_twist: int = 0, fibre_twists: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "base_twist", base_twist)
        object.__setattr__(self, "fibre_twists", fibre_twists)

    def chern_class(self, torsion_rank: int) -> NSClass:
        twists = self.fibre_twists + (0,) * (torsion_rank - 1 - len(self.fibre_twists))
        if len(twists) != torsion_rank - 1:
            raise ValueError("more fibre twists than the surface has multiple fibres")
        return NSClass((self.base_twist,) + twists, self.section.hom)


def trivial_line_bundle(surface: SurfaceData) -> LineBundleOnX:
    return LineBundleOnX(zero_section(surface))


class ExtensionBundle(Record):
    """Extension of delta (x) sub^-1 (x) I_Z by sub.

    zero_cycle lists (point, length) with positive lengths over distinct
    points, told apart here as numbers and by class where the surface is
    known; nonsplit_at marks fibres where the extension class does not
    restrict to zero, so coincident values glue to the non-split type.
    quotient is the section of the quotient line bundle, the image of
    sub's section under the involution of the determinant's; it is
    worked out once, here, for the Chern data, every fibre restriction
    and the spectral cover.  It is derived, so it is not a field.
    """

    _fields = ("sub", "determinant", "zero_cycle", "nonsplit_at", "nonsplit_everywhere")
    __slots__ = _fields + ("quotient",)
    sub: LineBundleOnX
    determinant: LineBundleOnX
    zero_cycle: tuple[tuple[complex, int], ...]
    nonsplit_at: tuple[complex, ...]
    nonsplit_everywhere: bool
    quotient: SectionOfJ

    def __init__(
        self,
        sub: LineBundleOnX,
        determinant: LineBundleOnX,
        zero_cycle: tuple[tuple[complex, int], ...] = (),
        nonsplit_at: tuple[complex, ...] = (),
        nonsplit_everywhere: bool = False,
    ) -> None:
        if not distinct_base_points(None, [p for p, _ in zero_cycle]):
            raise ValueError("zero-cycle points must be distinct")
        if any(length <= 0 for _, length in zero_cycle):
            raise ValueError("zero-cycle lengths are positive")
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "determinant", determinant)
        object.__setattr__(self, "zero_cycle", zero_cycle)
        object.__setattr__(self, "nonsplit_at", nonsplit_at)
        object.__setattr__(self, "nonsplit_everywhere", nonsplit_everywhere)
        object.__setattr__(self, "quotient", involution_on_section(sub.section, determinant.section))

    @property
    def cycle_length(self) -> int:
        return sum(length for _, length in self.zero_cycle)


class SpectralPushBundle(Record):
    """Direct image of a line bundle on an irreducible invariant bisection."""

    __slots__ = _fields = ("cover", "determinant")
    cover: Bisection
    determinant: LineBundleOnX

    def __init__(self, cover: Bisection, determinant: LineBundleOnX) -> None:
        if cover.is_reducible:
            raise ValueError("spectral push bundles need an irreducible bisection")
        object.__setattr__(self, "cover", cover)
        object.__setattr__(self, "determinant", determinant)


ChainRoot = ExtensionBundle | SpectralPushBundle


class ElemModBundle(Record):
    """Elementary modifications of root (an extension or a push): steps
    successive ones along the fibre of each (fibre, steps) pair of chain,
    innermost (first applied) first.  No chain nests inside another."""

    __slots__ = _fields = ("root", "chain")
    root: ChainRoot
    chain: tuple[tuple[complex, int], ...]

    def __init__(self, root: ChainRoot, chain: Sequence[tuple[complex, int]]) -> None:
        if not isinstance(root, ChainRoot) or not chain:
            raise ValueError("a modification chain needs a root (an extension or a push) and a pair")
        if any(steps <= 0 for _, steps in chain):
            raise ValueError("modification step count must be positive")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "chain", tuple(chain))


RankTwoBundle = ExtensionBundle | SpectralPushBundle | ElemModBundle


def chern_of_extension(bundle: ExtensionBundle, lattice: HomLattice, torsion_rank: int) -> ChernData:
    """Chern data of the extension, with the discriminant identity checked.

    c1 = c1(determinant), c2 = c1(sub).(c1(determinant) - c1(sub)) + len(Z);
    equivalently Delta = pairing(sub section, bundle.quotient)/4 + len(Z)/2,
    the quotient section being the one stored on the bundle.  The identity
    is checked on 8 Delta, in integers.
    """
    length = bundle.cycle_length
    c1_sub = bundle.sub.chern_class(torsion_rank)
    c1_det = bundle.determinant.chern_class(torsion_rank)
    c2 = pairing(c1_sub, c1_det - c1_sub, lattice) + length
    cd = ChernData(c1_det, c2)
    cross = section_pairing(bundle.sub.section, bundle.quotient, lattice)
    assert eight_discriminant(cd, lattice) == 2 * cross + 4 * length, "discriminant identity failed"
    return cd


def _unwind(bundle: RankTwoBundle) -> tuple[ChainRoot, tuple[tuple[complex, int], ...]]:
    """The root presentation of a modification chain and its (fibre, steps)
    pairs, innermost (first applied) first; a root has an empty chain."""
    if isinstance(bundle, ElemModBundle):
        return bundle.root, bundle.chain
    return bundle, ()


def check_spectral_push(bundle: RankTwoBundle, surface: SurfaceData, tol: Tolerance = DEFAULT_TOL) -> None:
    """Raise ValueError unless a presentation whose root is a spectral push
    fits the surface: over a rational base the determinant is constant and
    the cover has a trace map, and is_invariant_bisection holds (a given
    norm map is a constant in the class of the determinant's value).  Any
    other root passes."""
    push, _ = _unwind(bundle)
    if not isinstance(push, SpectralPushBundle):
        return
    if surface.base.genus == 0:
        if any(push.determinant.section.hom):
            raise ValueError("over a rational base the determinant section is constant")
        if push.cover.cover.trace is None:
            raise ValueError("over a rational base the bisection needs a trace map, not a declared cover")
    if not is_invariant_bisection(push.cover, push.determinant.section, surface, tol):
        raise ValueError("bisection is not invariant under the involution")


def chern_data(bundle: RankTwoBundle, surface: SurfaceData, tol: Tolerance = DEFAULT_TOL) -> ChernData:
    """Chern data of a presentation: the root's, moved by the ledger for
    the chain's total steps.  Every step raises 8 Delta, so the sign is
    checked on the root alone."""
    root, chain = _unwind(bundle)
    if isinstance(root, ExtensionBundle):
        cd = chern_of_extension(root, surface.lattice, surface.torsion_rank)
    else:
        check_spectral_push(root, surface, tol)
        c1 = root.determinant.chern_class(surface.torsion_rank)
        a2 = graph_self_intersection(root.cover, root.determinant.section, surface, tol)
        # Delta = a2/4, an eighth of the bisection self-intersection upstairs,
        # so c2 = 2 Delta + c1^2/4 = (2 a2 + c1^2)/4
        c2, rem = divmod(2 * a2 + self_intersection(c1, surface.lattice), 4)
        if rem:
            raise ValueError("cover data is incompatible with integral second Chern class")
        cd = ChernData(c1, c2)
    if eight_discriminant(cd, surface.lattice) < 0:
        raise ValueError("presentation has negative discriminant")
    if chain:
        cd = apply_modification_ledger(cd, sum(steps for _, steps in chain), surface.lattice)
    return cd


def apply_modification_ledger(cd: ChernData, steps: int, lattice: HomLattice) -> ChernData:
    """Ledger arithmetic for elementary modifications along a smooth fibre.

    Each forward step raises c2 by one and lowers the fibre-torsion
    coefficient of c1 by one, so the discriminant rises by exactly 1/2
    (8 Delta by 4, the integer form checked here); negative steps replay
    the formal inverse.
    """
    torsion = (cd.c1.torsion[0] - steps,) + cd.c1.torsion[1:]
    out = ChernData(NSClass(torsion, cd.c1.hom), cd.c2 + steps)
    assert eight_discriminant(out, lattice) == eight_discriminant(cd, lattice) + 4 * steps
    return out


class _FibrePlan:
    """A presentation resolved against (surface, tol), once per request.

    Each base point is normalised once (zero cycle, modified fibres, then
    marks; multiple fibres are stored normalised) and filed in one
    _BaseIndex as (tag, jump): its cycle length, "modified", "multiple" or
    "mark", and the [number, multiplicity] jump it heads, else None.  A
    cycle point or modified fibre joins the earliest head it matches, else
    heads a new jump.  The glue tolerance, and whether a fibre must be
    marked to glue, are taken here; the root's evaluator, and the values of
    an extension over a rational base with their class distance
    (fixed_values), at the first fibre that needs them.  A fibre then costs
    one lookup and the complex arithmetic of the values that move.
    """

    def __init__(self, bundle: RankTwoBundle, surface: SurfaceData, tol: Tolerance) -> None:
        self.root, chain = _unwind(bundle)
        self.surface, self.tol = surface, tol
        self.points = points = _BaseIndex(surface, tol.eps)
        extension = isinstance(self.root, ExtensionBundle)
        self.fixed = extension and surface.base.genus == 0  # every section is constant there
        self.glue_eps = tol.eps if extension else max(tol.eps, tol.eps**0.5)
        self.glues_unmarked = not extension or self.root.nonsplit_everywhere
        cycle = self.root.zero_cycle if extension else ()
        jumps: list[list] = []
        for p, m, tag in [(p, m, m) for p, m in cycle] + [(f, steps, "modified") for f, steps in chain]:
            p = base_point(surface, p)
            head = next((jump for _, jump in points.matches(p) if jump), None)
            if head:  # the earliest jump that p agrees with
                head[1] += m
            else:
                jumps.append([p, m])
            points.add(p, (tag, None if head else jumps[-1]))
        marks = [base_point(surface, p) for p in self.root.nonsplit_at] if extension else []
        for p, tag in [(p, "multiple") for p, _ in surface.multiple_fibres] + [(p, "mark") for p in marks]:
            points.add(p, (tag, None))
        self.jumps = tuple(map(tuple, jumps))

    @cached_property
    def evaluate(self) -> Callable[[complex], tuple[complex, complex]]:
        root, surface = self.root, self.surface
        if isinstance(root, ExtensionBundle):
            sub = _section_evaluator(root.sub.section, surface)
            quotient = _section_evaluator(root.quotient, surface)
            return lambda x: (sub(x), quotient(x))
        return _cover_evaluator(root.cover, root.determinant.section, surface)

    @cached_property
    def fixed_values(self) -> tuple[complex, complex, float]:
        """The two values of an extension over a rational base and their class distance."""
        v1, v2 = self.evaluate(0j)
        return v1, v2, _class_distance(v1, v2, self.surface.fibre.tau)

    def restrict(self, x) -> int | tuple[complex, complex, bool]:
        """The restriction to the smooth fibre over the base number x: the
        sub-degree if it is unstable, else the two value representatives
        and whether they glue to the non-split type.

        One lookup finds the points at x: a multiple fibre raises
        ValueError, a modified fibre is unstable, and elsewhere the root
        decides.  An extension is unstable on its zero cycle and glues
        its sub and quotient values where they coincide on a marked fibre.
        A cover's values glue at square-root tolerance, the sensitivity of
        a double root at a branch point.  The caller checks a spectral push
        against its surface first (check_spectral_push).
        """
        hits = self.points.matches(x) if self.points else ()
        if hits:
            hits = [tag for tag, _ in hits]
            if "multiple" in hits:
                raise ValueError("restriction to a multiple fibre is unsupported")
            if "modified" in hits:
                return 1
            k = sum(h for h in hits if not isinstance(h, str))
            if k >= 1:
                return k
        if self.fixed:
            v1, v2, close = self.fixed_values
        else:
            v1, v2 = self.evaluate(x)
            close = _class_distance(v1, v2, self.surface.fibre.tau)
        return v1, v2, close <= self.glue_eps and (self.glues_unmarked or "mark" in hits)


class SpectralCover(Record):
    """Spectral data of a bundle: the bisection of cohomology-jump classes,
    the jump fibres with multiplicity, and the dual determinant section
    whose involution preserves the bisection."""

    __slots__ = _fields = (
        "bisection", "jump_fibres", "dual_determinant", "verification_samples", "max_residual"
    )
    bisection: Bisection
    jump_fibres: tuple[tuple[complex, int], ...]
    dual_determinant: SectionOfJ
    verification_samples: int
    max_residual: float

    def __init__(
        self,
        bisection: Bisection,
        jump_fibres: tuple[tuple[complex, int], ...],
        dual_determinant: SectionOfJ,
        verification_samples: int = 0,
        max_residual: float = 0.0,
    ) -> None:
        object.__setattr__(self, "bisection", bisection)
        object.__setattr__(self, "jump_fibres", jump_fibres)
        object.__setattr__(self, "dual_determinant", dual_determinant)
        object.__setattr__(self, "verification_samples", verification_samples)
        object.__setattr__(self, "max_residual", max_residual)

    @property
    def jump_total(self) -> int:
        return sum(m for _, m in self.jump_fibres)


class SpectralVerificationError(RuntimeError):
    """Numeric cross-check of the cover against fibre restrictions failed."""


def _dual_section(s: SectionOfJ) -> SectionOfJ:
    return SectionOfJ(group_inv(s.constant), tuple(-h for h in s.hom))


def _cover_parts(plan: _FibrePlan) -> tuple[Bisection, tuple[tuple[complex, int], ...], SectionOfJ]:
    root = plan.root
    if isinstance(root, ExtensionBundle):
        bis = reducible_bisection(_dual_section(root.sub.section), _dual_section(root.quotient))
    else:
        cover = root.cover.cover
        if plan.surface.base.genus == 0:  # check_spectral_push saw a trace map
            # the product of the fibre values: the given (constant) norm,
            # else the determinant's representative
            n = cover.norm(0j) if cover.norm is not None else root.determinant.section.constant.rep
            inv_trace = RationalMap(tuple(c / n for c in cover.trace.num), cover.trace.den)
            # The fibre values invert, so trace and norm divide by that
            # product; its reciprocal usually leaves the fundamental
            # annulus, hence the explicit norm map.
            cover = DoubleCoverData(
                inv_trace,
                cover.branch_points,
                cover.declared_self_intersection,
                norm=RationalMap((1.0 / n,)),
            )
        bis = irreducible_bisection(cover)
    return bis, plan.jumps, _dual_section(root.determinant.section)


def spectral_cover(
    bundle: RankTwoBundle,
    surface: SurfaceData,
    tol: Tolerance = DEFAULT_TOL,
    *,
    verify_samples: int = 0,
    seed: int = 0,
) -> SpectralCover:
    """Spectral cover of a presentation.

    The bisection records, over each base point, the inverse classes of
    the restriction's sub-line-bundle values (the classes whose twist has
    nonzero first cohomology); its norm is therefore the inverse of the
    determinant, and that dual section rides along for invariance
    checks.  Jump fibres collect the zero cycle and every modified
    fibre.  One plan (_FibrePlan), built once a spectral push is checked
    against the surface, gives the jump fibres and, with verify_samples >
    0, the restrictions the cover is checked against at sampled fibres
    (_verify_cover); multiple fibres are never sampled and stay untracked.
    """
    check_spectral_push(bundle, surface, tol)
    plan = _FibrePlan(bundle, surface, tol)
    parts = _cover_parts(plan)
    cover = SpectralCover(*parts)
    if verify_samples > 0:
        cover = SpectralCover(*parts, verify_samples, _verify_cover(plan, cover, verify_samples, seed))
    return cover


def _twist_residual(v: complex, a: complex, curve: CurveParam) -> float:
    """Class distance from the twist v a to the identity, for canonical
    representatives v and a of points of the curve."""
    tau = curve.tau
    twist = v * a
    if not cmath.isfinite(twist):  # |v a| nears |tau|^2, past the float range once |tau| > 1.3e154
        twist = v / tau * a
    return _class_distance(_canonical_rep(twist, curve), 1.0 + 0.0j, tau)


def _verify_cover(plan: _FibrePlan, cover: SpectralCover, samples: int, seed: int) -> float:
    """Largest per-value residual of the cover against the restrictions.

    At each sampled fibre, every restriction value v must have a cover
    class a whose twist v a is the identity class, i.e. makes first
    cohomology jump, within ten times tol.eps.  Per request, the plan the
    cover was built from and the cover's evaluator, resolved at the first
    fibre that is not unstable, bind all that no fibre moves; per fibre,
    the plan gives the restriction from one index lookup and the cover its
    two classes.  Base points, values and twists stay canonical annulus
    representatives; a twist's residual is the class distance of its
    representative to 1, and no point object is built.  A residual that is
    not within the jump tolerance (NaN included) raises
    SpectralVerificationError.

    A fibre whose values and cover classes equal those of the last scored
    fibre (every fibre of an extension over a rational base) reuses that
    fibre's residuals, which passed.  A residual is a pure function of the
    numbers and the curve, and equal numbers differ at most in the sign of
    a zero part, which no operation of the residual lets through; so a
    reused residual is the float a recomputation would give.
    """
    surface, tol = plan.surface, plan.tol
    if surface.base.genus >= 2:
        raise ValueError("abstract bases (g >= 2) have no point arithmetic")
    alphas = scored = None  # scored: the values and cover classes that residuals belong to
    fibre = surface.fibre
    avoid = tuple(p for p, _ in cover.jump_fibres)
    jump_eps = 10.0 * tol.eps
    worst = 0.0
    for x in _sample_base_numbers(surface, samples, seed, avoid):
        restriction = plan.restrict(x)
        if isinstance(restriction, int):
            continue
        v1, v2, glued = restriction
        if alphas is None:
            alphas = _cover_evaluator(cover.bisection, cover.dual_determinant, surface)
        a1, a2 = alphas(x)
        values = (v1,) if glued else (v1, v2)
        if (values, a1, a2) == scored:  # residuals already scored, and none failed
            continue
        scored = values, a1, a2
        residuals = [min(_twist_residual(v, a1, fibre), _twist_residual(v, a2, fibre)) for v in values]
        for residual in residuals:
            worst = max(worst, residual)
            if not residual <= jump_eps:
                b = TatePoint(x, surface.base.tate) if surface.base.genus == 1 else x
                raise SpectralVerificationError(
                    "no cover class produces a cohomology jump at fibre "
                    f"{b!r} (best residual {residual:.3e})"
                )
    return worst


def cover_base_intersections(cover: SpectralCover, lattice: HomLattice) -> int:
    """Intersection of the bisection with the zero section (reducible case)."""
    if not cover.bisection.is_reducible:
        raise ValueError("base intersections are computed for reducible covers only")
    s1, s2 = cover.bisection.components
    return lattice.degree(s1.hom) + lattice.degree(s2.hom)


def spectral_accounting(
    cover: SpectralCover, cd: ChernData, lattice: HomLattice
) -> tuple[int, int]:
    """(bisection . zero section + jump total, spectral support count)."""
    lhs = cover_base_intersections(cover, lattice) + cover.jump_total
    return lhs, spectral_support_count(cd, lattice)


def _modification_check(root: ChainRoot, surface: SurfaceData, tol: Tolerance) -> Callable[[complex], None]:
    """ValueError at a fibre that root may not be modified along: a multiple
    fibre, or a branch point of a push's trace map over a rational base."""
    multiple = _BaseIndex(surface, tol.eps, surface.multiple_fibres)
    cover = root.cover.cover if isinstance(root, SpectralPushBundle) and surface.base.genus == 0 else None
    concrete = cover is not None and cover.trace is not None
    branch = branch_points_numeric(cover, root.determinant.section, surface) if concrete else ()

    def check(bc: complex) -> None:
        if multiple.matches(bc):
            raise ValueError("cannot modify along a multiple fibre")
        for p in branch:
            if abs(bc - p) <= max(tol.eps, 1e-6):
                raise ValueError("cannot modify along a branch fibre of the cover")

    return check


def elementary_modification(
    bundle: RankTwoBundle,
    b,
    steps: int,
    surface: SurfaceData,
    tol: Tolerance = DEFAULT_TOL,
) -> RankTwoBundle:
    """Modify along the smooth fibre over b, steps times.

    Zero steps is the identity; the fibre must avoid multiple fibres and,
    for a spectral-push root over a rational base, the branch points of
    the cover (_modification_check).  The result's chain is the bundle's
    with one more pair, or with more steps on its outermost pair when that
    fibre repeats.
    """
    if steps == 0:
        return bundle
    if steps < 0:
        raise ValueError("modification step count must be positive")
    bc = base_point(surface, b)
    root, chain = _unwind(bundle)
    _modification_check(root, surface, tol)(bc)
    if chain and same_base_point(surface, bc, chain[-1][0], tol):  # the outermost fibre again
        return ElemModBundle(root, chain[:-1] + ((chain[-1][0], chain[-1][1] + steps),))
    return ElemModBundle(root, chain + ((bc, steps),))
