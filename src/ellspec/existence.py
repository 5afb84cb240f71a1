"""Existence of holomorphic rank-2 bundles with prescribed Chern data.

The verdict depends on the discriminant Delta, the lattice minimum m
attached to c1 and the base genus g, and for g >= 2 with 0 <= Delta < m
on the degrees d of the irreducible bisections at hand: a bundle exists
when Delta >= m - d/2.  Those degrees form one range [lo, hi] from one of
three sources: the bisection of a supplied push base_push (its own
degree), a stated d, or the admissible window of (g, m), which is never
empty for g >= 2 because ceil(2m - g/2) <= ceil(2m) - 1 <= floor(2m).
With t_lo = m - hi/2 and t_hi = m - lo/2 the verdict is not-exists below
t_lo, unknown below t_hi and exists from there on.  Every affirmative
verdict in reach of the two standard constructions carries a replayed
recipe, built in one place: a reducible base pair at the lattice minimum,
or the supplied push, followed by elementary modifications.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
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
    SectionOfJ,
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
    base_push: SpectralPushBundle | None = None,
) -> Verdict:
    """Decide whether a holomorphic rank-2 bundle with Chern data cd exists,
    by the rule in the module docstring.

    Only for genus >= 2 and 0 <= Delta < m are the bisection degrees read:
    that of base_push's bisection, else [d, d], else the whole window.  Of
    base_push only the bisection and the determinant's section are used.
    A degree outside the window, or a push that cannot reach cd, raises
    ValueError.
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
        # the base pair at the lattice minimum, with sub class (c1 - witness) / 2
        mu = NSClass(
            (0,) * len(cd.c1.torsion),
            tuple((c - w) // 2 for c, w in zip(cd.c1.hom, witness.hom)),
        )
        sub = LineBundleOnX(section_for_class(surface, mu))
        recipe = _recipe(
            cd, surface, m, steps, section_for_class(surface, cd.c1), seed, tol,
            lambda det, fibre: ExtensionBundle(sub, det, nonsplit_at=(fibre,)),
        )
        return verdict(Existence.EXISTS, recipe=recipe)
    bounds = ruled_invariant_bounds(g, m)
    window = (bounds.d_min, bounds.d_max)
    if base_push is not None:
        a2 = graph_self_intersection(base_push.cover, base_push.determinant.section, surface, tol)
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
    if base_push is not None:
        if base_push.determinant.chern_class(surface.torsion_rank).hom != cd.c1.hom:
            raise ValueError("supplied determinant does not realize the requested first Chern class")
        # the push at base_delta = t_hi, then 2 (Delta - t_hi) modifications
        steps = (eight_delta - 2 * four_t_hi) // 4
        recipe = _recipe(
            cd, surface, Fraction(four_t_hi, 4), steps, base_push.determinant.section, seed, tol,
            lambda det, _: SpectralPushBundle(base_push.cover, det),
        )
        return verdict(Existence.EXISTS, recipe=recipe)
    if d is None:
        note = "every admissible bisection degree suffices"
    else:
        note = "irreducible bisection of the stated degree assumed available"
    return verdict(Existence.EXISTS, d_interval=window, note=note)


def _recipe(
    cd: ChernData, surface: SurfaceData, base_delta: Fraction, steps: int, section: SectionOfJ,
    seed: int, tol: Tolerance, base: Callable[[LineBundleOnX, complex], RankTwoBundle],
) -> Recipe:
    """The one construction: base(determinant, fibre) at base_delta, then
    steps elementary modifications at the seed's generic fibre, replayed
    to the requested Chern data cd.  The determinant has the given section."""
    fibre = _sample_base_numbers(surface, 1, seed)[0]
    # Only the determinant's section matters to the construction; its
    # twists are chosen here so the modification ledger lands exactly on
    # the requested class (each step lowers the leading torsion entry).
    det = LineBundleOnX(section, cd.c1.torsion[0] + steps, cd.c1.torsion[1:])
    recipe = Recipe(base(det, fibre), base_delta, fibre, steps)
    if replay_recipe(recipe, surface, tol) != cd:
        raise AssertionError("recipe replay drifted from the requested Chern data")
    return recipe


def replay_recipe(
    recipe: Recipe, surface: SurfaceData, tol: Tolerance = DEFAULT_TOL
) -> ChernData:
    """Chern data of the realized recipe (what a verifier would recompute)."""
    return chern_data(recipe.realize(), surface, tol)
