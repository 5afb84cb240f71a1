"""Existence of holomorphic rank-2 bundles with prescribed Chern data.

The verdict depends on the discriminant Delta, the lattice minimum m
attached to c1 and the base genus g, and for g >= 2 with 0 <= Delta < m
on the degrees d of the irreducible bisections at hand: a bundle exists
when Delta >= m - d/2.  Those degrees form one range [lo, hi] from one of
three sources: a supplied bisection (its own degree), a stated d, or the
admissible window of (g, m), which is never empty for g >= 2 because
ceil(2m - g/2) <= ceil(2m) - 1 <= floor(2m).  With t_lo = m - hi/2 and
t_hi = m - lo/2 the verdict is not-exists below t_lo, unknown below t_hi
and exists from there on.  Every affirmative verdict in reach of the two
standard constructions carries a replayed recipe: a reducible base pair
at the lattice minimum, or a supplied bisection, followed by elementary
modifications.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .bundles import (
    ElemModBundle,
    ExtensionBundle,
    LineBundleOnX,
    RankTwoBundle,
    SpectralPushBundle,
    _unwind,
    chern_data,
)
from .jacobian import (
    Bisection,
    graph_self_intersection,
    ruled_invariant_bounds,
    section_for_class,
)
from .records import Record, set_field
from .surface import (
    ChernData,
    NSClass,
    SurfaceData,
    _sample_base_numbers,
    discriminant,
    filtrable_bound,
)
from .tate import DEFAULT_TOL, Tolerance


class Existence(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not-exists"
    UNKNOWN = "unknown"


class Recipe(Record):
    """Replayable construction: a base bundle at discriminant base_delta,
    then modification_steps elementary modifications at generic_fibre."""

    __slots__ = _fields = ("base", "base_delta", "generic_fibre", "modification_steps")
    base: RankTwoBundle
    base_delta: Fraction
    generic_fibre: complex
    modification_steps: int

    def __init__(
        self, base: RankTwoBundle, base_delta: Fraction, generic_fibre: complex, modification_steps: int
    ) -> None:
        set_field(self, "base", base)
        set_field(self, "base_delta", base_delta)
        set_field(self, "generic_fibre", generic_fibre)
        set_field(self, "modification_steps", modification_steps)

    def realize(self) -> RankTwoBundle:
        if self.modification_steps == 0:
            return self.base
        root, chain = _unwind(self.base)
        return ElemModBundle(root, chain + ((self.generic_fibre, self.modification_steps),))


class Verdict(Record):
    __slots__ = _fields = (
        "status", "delta", "lattice_minimum", "filtrable",
        "threshold_interval", "d_interval", "recipe", "note",
    )
    status: Existence
    delta: Fraction
    lattice_minimum: Fraction
    filtrable: bool | None
    threshold_interval: tuple[Fraction, Fraction] | None
    d_interval: tuple[int, int] | None
    recipe: Recipe | None
    note: str

    def __init__(
        self,
        status: Existence,
        delta: Fraction,
        lattice_minimum: Fraction,
        filtrable: bool | None = None,
        threshold_interval: tuple[Fraction, Fraction] | None = None,
        d_interval: tuple[int, int] | None = None,
        recipe: Recipe | None = None,
        note: str = "",
    ) -> None:
        set_field(self, "status", status)
        set_field(self, "delta", delta)
        set_field(self, "lattice_minimum", lattice_minimum)
        set_field(self, "filtrable", filtrable)
        set_field(self, "threshold_interval", threshold_interval)
        set_field(self, "d_interval", d_interval)
        set_field(self, "recipe", recipe)
        set_field(self, "note", note)


def existence_verdict(
    cd: ChernData,
    surface: SurfaceData,
    *,
    d: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
    base_bisection: Bisection | None = None,
    base_determinant: LineBundleOnX | None = None,
) -> Verdict:
    """Decide whether a holomorphic rank-2 bundle with Chern data cd exists,
    by the rule in the module docstring.

    Only for genus >= 2 and 0 <= Delta < m are the bisection degrees read:
    those of base_bisection, whose determinant line bundle must be given,
    else [d, d], else the whole window.  A degree outside the window, or a
    bisection that cannot reach cd, raises ValueError.
    """
    g = surface.base.genus
    delta = discriminant(cd, surface.lattice)
    m, witness = filtrable_bound(cd.c1, surface.lattice)
    # every comparison below is on the integers 8 Delta and 4m
    eight_delta = 8 * delta.numerator // delta.denominator
    four_m = 4 * m.numerator // m.denominator
    filtrable = None if eight_delta < 0 else eight_delta >= 2 * four_m

    def verdict(status: Existence, **fields) -> Verdict:
        return Verdict(status, delta, m, filtrable, **fields)

    if eight_delta < 0:
        return verdict(Existence.NOT_EXISTS)
    if g <= 1 or filtrable:
        steps, rem = divmod(eight_delta - 2 * four_m, 4)  # 2 (Delta - m)
        if rem or steps < 0:
            # the quantized corner Delta < m of genus <= 1 lattices whose
            # form never meets the minimum parity: no reducible base fits
            return verdict(
                Existence.EXISTS,
                note="discriminant admissible by the sign test but below the reducible "
                "threshold m; no reducible construction reaches it, so the verdict "
                "carries no recipe (an irreducible bisection would be needed)",
            )
        recipe = _reducible_recipe(cd, surface, m, witness, steps, seed)
        return verdict(Existence.EXISTS, recipe=_replayed(recipe, cd, surface, tol))
    bounds = ruled_invariant_bounds(g, m)
    window = (bounds.d_min, bounds.d_max)
    if base_bisection is not None:
        if base_determinant is None:
            raise ValueError("a supplied bisection needs its determinant line bundle")
        a2 = graph_self_intersection(base_bisection, base_determinant.section, surface, tol)
        # The quotient ruled surface has invariant e = -a2 = 2d - 4m for a
        # minimal bisection, so the usable degree is d = 2m - a2/2 and the
        # existence threshold m - d/2 equals a2/4 — the bisection's own
        # base discriminant.
        d, odd = divmod(four_m - a2, 2)
        if odd:
            raise ValueError("bisection self-intersection is incompatible with the lattice minimum")
        window = None
    if d is not None and not bounds.d_min <= d <= bounds.d_max:
        raise ValueError(
            f"bisection degree {d} is outside the admissible window "
            f"[{bounds.d_min}, {bounds.d_max}]"
        )
    lo, hi = window if d is None else (d, d)
    # 4 t = 4m - 2d for the thresholds t_lo (d = hi) and t_hi (d = lo)
    four_t_lo, four_t_hi = four_m - 2 * hi, four_m - 2 * lo
    if eight_delta < 2 * four_t_lo:
        return verdict(Existence.NOT_EXISTS, d_interval=window)
    if eight_delta < 2 * four_t_hi:
        return verdict(
            Existence.UNKNOWN,
            threshold_interval=(Fraction(four_t_lo, 4), Fraction(four_t_hi, 4)),
            d_interval=window,
            note="answer depends on which bisection degrees the surface carries",
        )
    if base_bisection is not None:
        recipe = _push_recipe(cd, surface, eight_delta, four_t_hi, base_bisection, base_determinant, seed)
        return verdict(Existence.EXISTS, recipe=_replayed(recipe, cd, surface, tol))
    if d is None:
        note = "every admissible bisection degree suffices"
    else:
        note = "irreducible bisection of the stated degree assumed available"
    return verdict(Existence.EXISTS, d_interval=window, note=note)


def _push_recipe(
    cd: ChernData,
    surface: SurfaceData,
    eight_delta: int,
    four_base_delta: int,
    bisection: Bisection,
    determinant: LineBundleOnX,
    seed: int,
) -> Recipe:
    """The bisection's push at base_delta = four_base_delta/4, then
    2(Delta - base_delta) modifications."""
    if determinant.chern_class(surface.torsion_rank).hom != cd.c1.hom:
        raise ValueError(
            "supplied determinant does not realize the requested first Chern class"
        )
    steps, rem = divmod(eight_delta - 2 * four_base_delta, 4)
    if rem:
        raise ValueError("target discriminant is not reachable from the supplied bisection")
    # Only the determinant's section matters to the construction; its
    # twists are chosen here so the modification ledger lands exactly on
    # the requested class (each step lowers the leading torsion entry).
    det = LineBundleOnX(
        determinant.section,
        cd.c1.torsion[0] + steps,
        cd.c1.torsion[1:],
    )
    base = SpectralPushBundle(bisection, det)
    return Recipe(base, Fraction(four_base_delta, 4), _sample_base_numbers(surface, 1, seed)[0], steps)


def _reducible_recipe(
    cd: ChernData,
    surface: SurfaceData,
    m: Fraction,
    witness: NSClass,
    steps: int,
    seed: int,
) -> Recipe:
    """Base pair at the lattice minimum m, then steps = 2(Delta - m) modifications."""
    fibre = _sample_base_numbers(surface, 1, seed)[0]
    mu = NSClass(
        (0,) * len(cd.c1.torsion),
        tuple((c - w) // 2 for c, w in zip(cd.c1.hom, witness.hom)),
    )
    sub = LineBundleOnX(section_for_class(surface, mu))
    det_c1 = NSClass((cd.c1.torsion[0] + steps,) + cd.c1.torsion[1:], cd.c1.hom)
    det = LineBundleOnX(
        section_for_class(surface, det_c1), det_c1.torsion[0], det_c1.torsion[1:]
    )
    base = ExtensionBundle(sub, det, nonsplit_at=(fibre,))
    return Recipe(base, m, fibre, steps)


def _replayed(recipe: Recipe, cd: ChernData, surface: SurfaceData, tol: Tolerance) -> Recipe:
    if replay_recipe(recipe, surface, tol) != cd:
        raise AssertionError("recipe replay drifted from the requested Chern data")
    return recipe


def replay_recipe(
    recipe: Recipe, surface: SurfaceData, tol: Tolerance = DEFAULT_TOL
) -> ChernData:
    """Chern data of the realized recipe (what a verifier would recompute)."""
    return chern_data(recipe.realize(), surface, tol)
