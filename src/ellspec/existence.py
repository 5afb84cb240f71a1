"""Existence of holomorphic rank-2 bundles with prescribed Chern data.

The verdict depends only on the discriminant Delta, the lattice minimum
m attached to c1, the base genus, and — when the gap between the
filtrable threshold m and the absolute one is in play — on the
self-intersection degree d of an irreducible bisection, which ranges
over a finite window determined by (genus, m).  Every affirmative
verdict in reach of the two standard constructions carries a replayable
recipe: a reducible base pair at the lattice minimum followed by
elementary modifications, or a caller-supplied irreducible bisection
followed by the same.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction

from .bundles import (
    ElemModBundle,
    ExtensionBundle,
    LineBundleOnX,
    RankTwoBundle,
    SpectralPushBundle,
    chern_data,
)
from .jacobian import (
    Bisection,
    RuledBounds,
    branch_points_numeric,
    graph_self_intersection,
    ruled_invariant_bounds,
    sample_base_points,
    section_for_class,
)
from .surface import (
    ChernData,
    NSClass,
    SurfaceData,
    base_point,
    discriminant,
    filtrable_bound,
)
from .tate import DEFAULT_TOL, Tolerance


class Existence(enum.Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not-exists"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Recipe:
    """Replayable construction: a base bundle at discriminant base_delta,
    then modification_steps elementary modifications at generic_fibre."""

    base: RankTwoBundle
    base_delta: Fraction
    generic_fibre: complex
    modification_steps: int

    def realize(self) -> RankTwoBundle:
        if self.modification_steps == 0:
            return self.base
        return ElemModBundle(self.base, self.generic_fibre, self.modification_steps)


@dataclass(frozen=True)
class Verdict:
    status: Existence
    delta: Fraction
    lattice_minimum: Fraction
    filtrable: bool | None = None
    threshold_interval: tuple[Fraction, Fraction] | None = None
    d_interval: tuple[int, int] | None = None
    recipe: Recipe | None = None
    note: str = ""


def _validated_d(d: int, bounds: RuledBounds) -> int:
    if bounds.empty or not bounds.d_min <= d <= bounds.d_max:
        raise ValueError(
            f"bisection degree {d} is outside the admissible window "
            f"[{bounds.d_min}, {bounds.d_max}]"
        )
    return d


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
    """Decide whether a holomorphic rank-2 bundle with Chern data cd exists.

    For genus <= 1 the answer is exactly Delta >= 0.  For genus >= 2,
    Delta >= m gives a filtrable bundle; below m the threshold is
    m - d/2 for the degree d of an available irreducible bisection, so
    without a given d the verdict is Unknown on the interval swept out
    by the admissible degrees.  Affirmative verdicts carry a recipe when
    the reducible construction (or a supplied bisection) reaches them.
    """
    g = surface.base.genus
    delta = discriminant(cd, surface.lattice)
    m, witness = filtrable_bound(cd.c1, surface.lattice)
    if delta < 0:
        return Verdict(Existence.NOT_EXISTS, delta, m)
    if g <= 1 or delta >= m:
        recipe, note = _reducible_recipe(cd, surface, delta, m, witness, tol, seed)
        return Verdict(
            Existence.EXISTS, delta, m, filtrable=delta >= m, recipe=recipe, note=note
        )
    bounds = ruled_invariant_bounds(g, m)
    window = None if bounds.empty else (bounds.d_min, bounds.d_max)
    if base_bisection is not None:
        return _verdict_with_bisection(
            cd, surface, delta, m, bounds, base_bisection, base_determinant, tol, seed
        )
    if d is not None:
        threshold = m - Fraction(_validated_d(d, bounds), 2)
        if delta >= threshold:
            return Verdict(
                Existence.EXISTS,
                delta,
                m,
                filtrable=delta >= m,
                d_interval=window,
                note="irreducible bisection of the stated degree assumed available",
            )
        return Verdict(Existence.NOT_EXISTS, delta, m, filtrable=False, d_interval=window)
    if bounds.empty:
        return Verdict(Existence.NOT_EXISTS, delta, m, filtrable=False)
    t_lo = m - Fraction(bounds.d_max, 2)
    t_hi = m - Fraction(bounds.d_min, 2)
    if delta >= t_hi:
        return Verdict(
            Existence.EXISTS,
            delta,
            m,
            filtrable=delta >= m,
            d_interval=window,
            note="every admissible bisection degree suffices",
        )
    if delta < t_lo:
        return Verdict(Existence.NOT_EXISTS, delta, m, filtrable=False, d_interval=window)
    return Verdict(
        Existence.UNKNOWN,
        delta,
        m,
        filtrable=False,
        threshold_interval=(t_lo, t_hi),
        d_interval=window,
        note="answer depends on which bisection degrees the surface carries",
    )


def _verdict_with_bisection(
    cd: ChernData,
    surface: SurfaceData,
    delta: Fraction,
    m: Fraction,
    bounds: RuledBounds,
    bisection: Bisection,
    determinant: LineBundleOnX | None,
    tol: Tolerance,
    seed: int,
) -> Verdict:
    if determinant is None:
        raise ValueError("a supplied bisection needs its determinant line bundle")
    a2 = graph_self_intersection(bisection, determinant.section, surface, tol)
    # The quotient ruled surface has invariant e = -a2 = 2d - 4m for a
    # minimal bisection, so the usable degree is d = 2m - a2/2 and the
    # existence threshold m - d/2 equals a2/4 — the bisection's own
    # base discriminant.
    d_frac = 2 * m - Fraction(a2) / 2
    if d_frac.denominator != 1:
        raise ValueError("bisection self-intersection is incompatible with the lattice minimum")
    d = _validated_d(int(d_frac), bounds)
    base_delta = m - Fraction(d, 2)
    if delta < base_delta:
        return Verdict(Existence.NOT_EXISTS, delta, m, filtrable=False)
    if determinant.chern_class(surface.torsion_rank).hom != cd.c1.hom:
        raise ValueError(
            "supplied determinant does not realize the requested first Chern class"
        )
    steps = 2 * (delta - base_delta)
    if steps.denominator != 1 or steps < 0:
        raise ValueError("target discriminant is not reachable from the supplied bisection")
    # Only the determinant's section matters to the construction; its
    # twists are chosen here so the modification ledger lands exactly on
    # the requested class (each step lowers the leading torsion entry).
    det = LineBundleOnX(
        determinant.section,
        cd.c1.torsion[0] + int(steps),
        cd.c1.torsion[1:],
    )
    base = SpectralPushBundle(bisection, det)
    fibre = _generic_fibre(surface, seed, bisection=bisection, determinant=det, tol=tol)
    recipe = Recipe(base, base_delta, fibre, int(steps))
    if chern_data(recipe.realize(), surface, tol) != cd:
        raise AssertionError("recipe replay drifted from the requested Chern data")
    return Verdict(Existence.EXISTS, delta, m, filtrable=delta >= m, recipe=recipe)


def _generic_fibre(
    surface: SurfaceData,
    seed: int,
    *,
    bisection: Bisection | None = None,
    determinant: LineBundleOnX | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> complex:
    if surface.base.genus >= 2:
        # abstract base: a formal marker point, deterministic under the seed
        rng = random.Random(seed)
        return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    avoid: tuple[complex, ...] = ()
    if bisection is not None and not bisection.is_reducible and surface.base.genus == 0:
        cover = bisection.cover
        if cover.trace is not None and determinant is not None:
            avoid = tuple(branch_points_numeric(cover, determinant.section, surface))
    return base_point(surface, sample_base_points(surface, 1, seed=seed, avoid=avoid)[0])


def _reducible_recipe(
    cd: ChernData,
    surface: SurfaceData,
    delta: Fraction,
    m: Fraction,
    witness: NSClass,
    tol: Tolerance,
    seed: int,
) -> tuple[Recipe | None, str]:
    """Base pair at the lattice minimum, then 2(Delta - m) modifications.

    The step count is a nonnegative integer whenever Delta >= m; in the
    quantized corner Delta < m (possible only for genus <= 1 lattices
    whose form never meets the minimum parity) no reducible base fits
    and no bisection was supplied, so the verdict stands without a
    recipe.
    """
    steps2 = 2 * (delta - m)
    if steps2.denominator != 1 or steps2 < 0:
        return None, (
            "discriminant admissible by the sign test but below the reducible "
            "threshold m; no reducible construction reaches it, so the verdict "
            "carries no recipe (an irreducible bisection would be needed)"
        )
    steps = int(steps2)
    fibre = _generic_fibre(surface, seed)
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
    recipe = Recipe(base, m, fibre, steps)
    replayed = chern_data(recipe.realize(), surface, tol)
    if replayed != cd:
        raise AssertionError("recipe replay drifted from the requested Chern data")
    return recipe, ""


def replay_recipe(
    recipe: Recipe, surface: SurfaceData, tol: Tolerance = DEFAULT_TOL
) -> ChernData:
    """Chern data of the realized recipe (what a verifier would recompute)."""
    return chern_data(recipe.realize(), surface, tol)
