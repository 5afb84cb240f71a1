"""Existence verdicts: thresholds, windows, and replayable recipes.

The oracle for affirmative verdicts is replay: realize the recipe and
recompute its Chern data, which must reproduce the requested pair
exactly.  Threshold values are frozen from the discriminant arithmetic
Delta = (4 c2 - c1^2) / 8 done by hand on small lattices.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from ellspec.bundles import LineBundleOnX, SpectralPushBundle, chern_data
from ellspec.existence import (
    Existence,
    existence_verdict,
    replay_recipe,
)
from ellspec.jacobian import (
    DoubleCoverData,
    SectionOfJ,
    irreducible_bisection,
    ruled_invariant_bounds,
    section_for_class,
)
from ellspec.surface import (
    UNIT_LATTICE,
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    discriminant,
    filtrable_bound,
)
from ellspec.tate import CurveParam, TatePoint

TAU = CurveParam(3.0)

G0 = SurfaceData(BaseCurve(0), TAU)
G1U = SurfaceData(BaseCurve(1, tate=TAU), TAU, lattice=UNIT_LATTICE, hom_exponents=(1,))
# no concrete generators: only class arithmetic happens on these
G1_EVEN = SurfaceData(BaseCurve(1, tate=TAU), TAU, lattice=HomLattice(1, ((Fraction(2),),)))
G2_FOUR = SurfaceData(BaseCurve(2), TAU, lattice=HomLattice(1, ((Fraction(4),),)))
G2_SIX = SurfaceData(BaseCurve(2), TAU, lattice=HomLattice(1, ((Fraction(6),),)))

C1_HOM = NSClass((0,), (1,))


def declared_cover(a2: int):
    return irreducible_bisection(DoubleCoverData(declared_self_intersection=a2))


def det_for(surface: SurfaceData, cls: NSClass) -> LineBundleOnX:
    return LineBundleOnX(section_for_class(surface, cls))


# ----------------------------------------------------------- genus <= 1


def test_negative_discriminant_never_exists():
    v = existence_verdict(ChernData(NSClass((0,), ()), -1), G0)
    assert v.status is Existence.NOT_EXISTS
    assert v.delta == Fraction(-1, 2)
    assert v.recipe is None


def test_zero_discriminant_exists_filtrable():
    cd = ChernData(NSClass((0,), ()), 0)
    v = existence_verdict(cd, G0)
    assert v.status is Existence.EXISTS
    assert v.filtrable is True
    assert v.recipe is not None and v.recipe.modification_steps == 0
    assert replay_recipe(v.recipe, G0) == cd


@pytest.mark.parametrize("c2,steps", [(2, 2), (4, 4)])
def test_recipes_count_modifications(c2, steps):
    cd = ChernData(NSClass((0,), ()), c2)
    v = existence_verdict(cd, G0)
    assert v.recipe is not None
    assert v.recipe.modification_steps == steps
    assert v.recipe.base_delta == v.lattice_minimum == 0
    assert chern_data(v.recipe.base, G0).c2 == 0
    assert replay_recipe(v.recipe, G0) == cd


def test_reducible_recipe_builds_only_delta_and_m(monkeypatch):
    # the verdict compares 8 Delta with 4m and counts the steps in integers;
    # the one Fraction each for Delta and m are the values it returns
    cd = ChernData(NSClass((1,), (1,)), 3)
    calls = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda *a, **k: calls.append(1) or new(*a, **k)))
    v = existence_verdict(cd, G1U)
    assert len(calls) == 2
    assert v.recipe is not None and v.recipe.modification_steps == 3  # 2 (Delta - m)
    assert (v.delta, v.lattice_minimum) == (Fraction(7, 4), Fraction(1, 4))
    assert v.recipe.base_delta is v.lattice_minimum


def test_low_genus_matches_sign_test_and_is_monotone():
    for torsion in range(-3, 4):
        prev = False
        for c2 in range(-4, 7):
            cd = ChernData(NSClass((torsion,), (1,)), c2)
            v = existence_verdict(cd, G1U)
            expect = discriminant(cd, UNIT_LATTICE) >= 0
            assert (v.status is Existence.EXISTS) == expect
            assert not (prev and v.status is not Existence.EXISTS)
            if v.recipe is not None:
                assert replay_recipe(v.recipe, G1U) == cd
            prev = v.status is Existence.EXISTS


def test_degree_one_minimum_is_quarter():
    cd = ChernData(C1_HOM, 0)
    v = existence_verdict(cd, G1U)
    assert v.lattice_minimum == Fraction(1, 4)
    assert v.delta == Fraction(1, 4)
    assert v.status is Existence.EXISTS and v.filtrable is True
    assert v.recipe is not None and v.recipe.modification_steps == 0
    assert replay_recipe(v.recipe, G1U) == cd


def test_quantized_corner_exists_without_recipe():
    # even form, odd class: Delta = 0 sits strictly below m = 1/2, yet a
    # bundle exists over a low-genus base; no reducible pair reaches it
    cd = ChernData(C1_HOM, -1)
    v = existence_verdict(cd, G1_EVEN)
    assert v.delta == 0 and v.lattice_minimum == Fraction(1, 2)
    assert v.status is Existence.EXISTS
    assert v.filtrable is False
    assert v.recipe is None
    assert "no reducible construction" in v.note


# ------------------------------------------------- genus >= 2, no data


def test_gap_sweep_without_degree():
    # m = 1, admissible degrees {1, 2}, thresholds 1 - d/2 in {0, 1/2}
    at_half = existence_verdict(ChernData(C1_HOM, -1), G2_FOUR)
    assert at_half.status is Existence.EXISTS
    assert at_half.filtrable is False
    assert at_half.d_interval == (1, 2)
    assert at_half.recipe is None
    assert "every admissible" in at_half.note

    at_zero = existence_verdict(ChernData(C1_HOM, -2), G2_FOUR)
    assert at_zero.status is Existence.UNKNOWN
    assert at_zero.threshold_interval == (Fraction(0), Fraction(1, 2))
    assert at_zero.d_interval == (1, 2)

    filtrable = existence_verdict(ChernData(C1_HOM, 0), G2_FOUR)
    assert filtrable.status is Existence.EXISTS
    assert filtrable.filtrable is True
    assert filtrable.recipe is not None
    assert replay_recipe(filtrable.recipe, G2_FOUR) == ChernData(C1_HOM, 0)


def test_gap_sweep_with_stated_degree():
    cd = ChernData(C1_HOM, -2)  # Delta = 0
    best = existence_verdict(cd, G2_FOUR, d=2)
    assert best.status is Existence.EXISTS
    assert best.recipe is None
    assert "assumed available" in best.note
    worst = existence_verdict(cd, G2_FOUR, d=1)
    assert worst.status is Existence.NOT_EXISTS
    assert worst.d_interval == (1, 2)
    with pytest.raises(ValueError, match=r"admissible window \[1, 2\]"):
        existence_verdict(cd, G2_FOUR, d=3)
    with pytest.raises(ValueError, match="admissible window"):
        existence_verdict(cd, G2_FOUR, d=0)


# ------------------------------------------------- supplied bisections


def test_supplied_bisection_threshold():
    bis = declared_cover(2)
    det = det_for(G2_FOUR, C1_HOM)
    below = existence_verdict(
        ChernData(C1_HOM, -2), G2_FOUR, base_bisection=bis, base_determinant=det
    )
    assert below.status is Existence.NOT_EXISTS

    cd = ChernData(C1_HOM, -1)  # Delta = 1/2 = a2 / 4
    at = existence_verdict(cd, G2_FOUR, base_bisection=bis, base_determinant=det)
    assert at.status is Existence.EXISTS
    assert at.recipe is not None
    assert at.recipe.base_delta == Fraction(1, 2)
    assert at.recipe.modification_steps == 0
    assert isinstance(at.recipe.base, SpectralPushBundle)
    assert replay_recipe(at.recipe, G2_FOUR) == cd


def test_supplied_bisection_with_modifications():
    # m = 3/2, a2 = 2 gives base discriminant 1/2; Delta = 1 needs one step
    bis = declared_cover(2)
    det = det_for(G2_SIX, C1_HOM)
    cd = ChernData(C1_HOM, -1)
    assert discriminant(cd, G2_SIX.lattice) == 1
    v = existence_verdict(cd, G2_SIX, base_bisection=bis, base_determinant=det)
    assert v.status is Existence.EXISTS
    assert v.recipe is not None
    assert v.recipe.base_delta == Fraction(1, 2)
    assert v.recipe.modification_steps == 1
    assert replay_recipe(v.recipe, G2_SIX) == cd


def test_supplied_bisection_errors():
    cd = ChernData(C1_HOM, -1)
    with pytest.raises(ValueError, match="determinant"):
        existence_verdict(cd, G2_FOUR, base_bisection=declared_cover(2))
    with pytest.raises(ValueError, match="admissible window"):
        existence_verdict(
            cd,
            G2_FOUR,
            base_bisection=declared_cover(6),
            base_determinant=det_for(G2_FOUR, C1_HOM),
        )
    with pytest.raises(ValueError, match="incompatible with the lattice minimum"):
        existence_verdict(
            cd,
            G2_FOUR,
            base_bisection=declared_cover(1),
            base_determinant=det_for(G2_FOUR, C1_HOM),
        )
    with pytest.raises(ValueError, match="does not realize"):
        existence_verdict(
            cd,
            G2_FOUR,
            base_bisection=declared_cover(2),
            base_determinant=LineBundleOnX(SectionOfJ(TatePoint(1.0, TAU), (0,))),
        )


# ------------------------------------ stated degree against a bisection


DIFFERENTIAL_LATTICES = (
    HomLattice(1, ((1,),)),
    HomLattice(1, ((2,),)),
    HomLattice(1, ((4,),)),
    HomLattice(2, ((2, Fraction(1, 2)), (Fraction(1, 2), 3))),
    HomLattice(2, ((1, 0), (0, 1))),
)


def test_stated_degree_matches_supplied_bisection_of_that_degree():
    # a supplied bisection of degree d is decided by the same threshold
    # m - d/2 as a stated d; below m only the bisection builds a recipe
    cases = replayed = 0
    for genus in range(2, 6):
        for lattice in DIFFERENTIAL_LATTICES:
            surface = SurfaceData(BaseCurve(genus), TAU, lattice=lattice)
            for hom in itertools.product(range(-2, 3), repeat=lattice.rank):
                c1 = NSClass((0,), hom)
                det = det_for(surface, c1)
                m, _ = filtrable_bound(c1, lattice)
                bounds = ruled_invariant_bounds(genus, m)
                for c2 in range(-8, 14):
                    cd = ChernData(c1, c2)
                    for d in range(bounds.d_min, bounds.d_max + 1):
                        stated = existence_verdict(cd, surface, d=d)
                        supplied = existence_verdict(
                            cd,
                            surface,
                            base_bisection=declared_cover(int(4 * m) - 2 * d),
                            base_determinant=det,
                        )
                        assert stated.status is supplied.status, (genus, lattice, cd, d)
                        assert stated.recipe in (None, supplied.recipe)
                        if supplied.recipe is not None:
                            assert replay_recipe(supplied.recipe, surface) == cd
                            replayed += 1
                        cases += 1
    assert (cases, replayed) == (7964, 6016)
