"""Rank-2 bundle presentations and their spectral covers.

A bundle is presented as an extension of a twisted ideal sheaf by a line
bundle, as the direct image of a line bundle on an irreducible spectral
bisection, or as a chain of elementary modifications along smooth
fibres: one flat record of a root (an extension or a push) and its
(fibre, steps) pairs, innermost first, which _unwind reads off any
presentation.  Each presentation determines Chern data exactly;
restriction to a smooth fibre determines a split, non-split, or unstable
isomorphism type whose determinant is the fibre value of the determinant
bundle.  This module works with presentations only; every question about
a bisection's internals is answered by jacobian.  Whether a push fits its
surface is decided there (_check_push_fit), on the root, by
check_spectral_push, which chern_data and spectral_cover run first and
the decoder (schemas.decode_bundle) runs last, to report a misfit as a
schema error.

A spectral-cover request resolves once what no fibre changes.  One plan
(_FibrePlan) files each base point, normalised once, in one
surface._BaseIndex, merges the jump fibres in that pass, and holds the
root's bisection: an extension's sub and quotient sections, or a push's
cover.  A fibre then pays one index lookup and the arithmetic of what
moves (jacobian._cover_evaluator), and verification rescores no fibre
whose values and cover classes repeat the last.  The cover records, per
fibre, the classes whose twist makes first cohomology jump, the inverses
of the sub-line-bundle values: it is the dual of the plan's bisection
(jacobian._dual_bisection), invariant under the involution of the dual
determinant by construction.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable, Sequence

from .jacobian import (
    Bisection,
    SectionOfJ,
    _branch_fibres,
    _check_push_fit,
    _cover_evaluator,
    _dual_bisection,
    _dual_section,
    graph_self_intersection,
    involution_on_section,
    reducible_bisection,
    section_pairing,
    zero_section,
)
from .records import Record, computed_once, set_field
from .surface import (
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    _BaseIndex,
    _sample_base_numbers,
    _same_shape,
    base_point,
    distinct_base_points,
    eight_discriminant,
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
)


class LineBundleOnX(Record):
    """Line bundle on the surface: a section of the Jacobian plus twists by
    pulled-back base divisors and by multiple fibres."""

    __slots__ = _fields = ("section", "base_twist", "fibre_twists")
    section: SectionOfJ
    base_twist: int
    fibre_twists: tuple[int, ...]

    def __init__(self, section: SectionOfJ, base_twist: int = 0, fibre_twists: tuple[int, ...] = ()) -> None:
        set_field(self, "section", section)
        set_field(self, "base_twist", base_twist)
        set_field(self, "fibre_twists", fibre_twists)

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
    points, told apart here as the numbers complex() makes of them and by
    class in the decoder; nonsplit_at marks fibres where the extension
    class does not restrict to zero, so coincident values glue to the
    non-split type.
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
        if len(zero_cycle) > 1 and not distinct_base_points(None, [complex(p) for p, _ in zero_cycle]):
            raise ValueError("zero-cycle points must be distinct")
        if any(length <= 0 for _, length in zero_cycle):
            raise ValueError("zero-cycle lengths are positive")
        set_field(self, "sub", sub)
        set_field(self, "determinant", determinant)
        set_field(self, "zero_cycle", zero_cycle)
        set_field(self, "nonsplit_at", nonsplit_at)
        set_field(self, "nonsplit_everywhere", nonsplit_everywhere)
        set_field(self, "quotient", involution_on_section(sub.section, determinant.section))

    @property
    def cycle_length(self) -> int:
        return sum(length for _, length in self.zero_cycle)


class SpectralPushBundle(Record):
    """Direct image of a line bundle on an irreducible invariant bisection;
    its cover is a DoubleCoverData (jacobian)."""

    __slots__ = _fields = ("cover", "determinant")
    cover: Bisection
    determinant: LineBundleOnX

    def __init__(self, cover: Bisection, determinant: LineBundleOnX) -> None:
        if isinstance(cover, tuple):
            raise ValueError("spectral push bundles need an irreducible bisection")
        set_field(self, "cover", cover)
        set_field(self, "determinant", determinant)


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
        set_field(self, "root", root)
        set_field(self, "chain", tuple(chain))


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
    _same_shape(c1_sub, c1_det)
    # pairing(c1_sub, c1_det - c1_sub): torsion pairs to zero, so only the hom parts enter
    sub = c1_sub.hom
    c2 = length - lattice.bilinear(sub, tuple(d - s for d, s in zip(c1_det.hom, sub)))
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
    fits the surface (jacobian._check_push_fit); any other root passes."""
    push, _ = _unwind(bundle)
    if isinstance(push, SpectralPushBundle):
        _check_push_fit(push.cover, push.determinant.section, surface, tol)


def _root_bisection(root: ChainRoot) -> Bisection:
    """A root's bisection: an extension's sub and quotient sections, a push's cover."""
    if isinstance(root, ExtensionBundle):
        return reducible_bisection(root.sub.section, root.quotient)
    return root.cover


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
    heads a new jump.  The root's bisection (_root_bisection), the glue
    tolerance, and whether a fibre must be marked to glue, are taken here;
    the bisection's evaluator (jacobian._cover_evaluator) at the first
    fibre that needs it.  A fibre then costs one lookup and the complex
    arithmetic of the values that move.
    """

    def __init__(self, bundle: RankTwoBundle, surface: SurfaceData, tol: Tolerance) -> None:
        self.root, chain = _unwind(bundle)
        self.bisection = _root_bisection(self.root)
        self.surface, self.tol = surface, tol
        self.points = points = _BaseIndex(surface, tol.eps)
        extension = isinstance(self.root, ExtensionBundle)
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

    @computed_once
    def evaluate(self) -> Callable[[complex], tuple[complex, complex]]:
        return _cover_evaluator(self.bisection, self.root.determinant.section, self.surface)

    def restrict(self, x) -> int | tuple[complex, complex, bool]:
        """The restriction to the smooth fibre over the base number x: the
        sub-degree if it is unstable, else the two value representatives
        and whether they glue to the non-split type.

        One lookup finds the points at x: a multiple fibre raises
        ValueError, a modified fibre is unstable, and elsewhere the root
        decides.  An extension is unstable on its zero cycle and glues
        its sub and quotient values where they coincide on a marked fibre.
        A cover's values glue at square-root tolerance, the sensitivity of
        a double root at a branch point.  Their class distance is taken only
        where the fibre can glue.  The caller checks a push's fit.
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
        v1, v2 = self.evaluate(x)
        glues = self.glues_unmarked or "mark" in hits
        return v1, v2, glues and _class_distance(v1, v2, self.surface.fibre.tau) <= self.glue_eps


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
        set_field(self, "bisection", bisection)
        set_field(self, "jump_fibres", jump_fibres)
        set_field(self, "dual_determinant", dual_determinant)
        set_field(self, "verification_samples", verification_samples)
        set_field(self, "max_residual", max_residual)

    @property
    def jump_total(self) -> int:
        return sum(m for _, m in self.jump_fibres)


class SpectralVerificationError(RuntimeError):
    """Numeric cross-check of the cover against fibre restrictions failed."""


def spectral_cover(
    bundle: RankTwoBundle,
    surface: SurfaceData,
    tol: Tolerance = DEFAULT_TOL,
    *,
    verify_samples: int = 0,
    seed: int = 0,
) -> SpectralCover:
    """Spectral cover of a presentation: the dual of its plan's bisection,
    whose norm is the dual determinant that rides along; the jump fibres
    (the zero cycle and every modified fibre); and, with verify_samples >
    0, the check against the plan's restrictions at sampled fibres
    (_verify_cover).  Multiple fibres are never sampled nor tracked.
    """
    check_spectral_push(bundle, surface, tol)
    plan = _FibrePlan(bundle, surface, tol)
    delta = plan.root.determinant.section
    parts = _dual_bisection(plan.bisection, delta, surface), plan.jumps, _dual_section(delta)
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
    cover was built from and the plan's and the cover's evaluators, built
    at the first fibre that is not unstable with each constant (a push's
    norm, a section over a rational base) read once, bind all that no
    fibre moves; per fibre, the plan gives the restriction from one index
    lookup and the cover its two classes.  Base points, values and twists
    stay canonical annulus representatives; a twist's residual is the
    class distance of its representative to 1, and no point object is
    built.  A residual that is not within the jump tolerance (NaN
    included) raises SpectralVerificationError.

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
    if not isinstance(cover.bisection, tuple):
        raise ValueError("base intersections are computed for reducible covers only")
    s1, s2 = cover.bisection
    return lattice.degree(s1.hom) + lattice.degree(s2.hom)


def spectral_accounting(
    cover: SpectralCover, cd: ChernData, lattice: HomLattice
) -> tuple[int, int]:
    """(bisection . zero section + jump total, spectral support count)."""
    lhs = cover_base_intersections(cover, lattice) + cover.jump_total
    return lhs, spectral_support_count(cd, lattice)


def _modification_check(root: ChainRoot, surface: SurfaceData, tol: Tolerance) -> Callable[[complex], None]:
    """ValueError at a fibre that root may not be modified along: a multiple
    fibre, or a fibre its bisection branches over (jacobian._branch_fibres)."""
    multiple = _BaseIndex(surface, tol.eps, surface.multiple_fibres)
    branch = _branch_fibres(_root_bisection(root), root.determinant.section, surface)

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
