"""Rank-2 presentations: Chern ledger, fibre restrictions, spectral covers,
elementary modifications.

The fibrewise verification oracle is the cohomology indicator itself:
every cover value must annihilate a restriction value under the group
law, so the residual is measured directly rather than against frozen
curves.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ellspec.bundles import (
    ElemModBundle,
    ExtensionBundle,
    LineBundleOnX,
    SpectralCover,
    SpectralPushBundle,
    SpectralVerificationError,
    _FibrePlan,
    _verify_cover,
    apply_modification_ledger,
    check_spectral_push,
    chern_data,
    chern_of_extension,
    cover_base_intersections,
    elementary_modification,
    spectral_accounting,
    spectral_cover,
    trivial_line_bundle,
)
import ellspec.bundles as bundles_module
import ellspec.jacobian as jacobian_module
import ellspec.tate as tate_module
from ellspec.existence import Recipe
from ellspec.jacobian import (
    DoubleCoverData,
    RationalMap,
    SectionOfJ,
    _cover_evaluator,
    _power_exponent,
    genus_and_branching,
    involution_on_section,
    irreducible_bisection,
    reducible_bisection,
    ruled_invariant_bounds,
    section_for_class,
    sections_equal,
    zero_section,
)
from ellspec.schemas import decode_bundle, decode_recipe, encode_bundle, encode_recipe
from ellspec.surface import (
    UNIT_LATTICE,
    ZERO_LATTICE,
    BaseCurve,
    ChernData,
    NSClass,
    SurfaceData,
    _sample_base_numbers,
    base_point,
    same_base_point,
)
from ellspec.tate import (
    DEFAULT_TOL,
    CurveParam,
    TatePoint,
    Tolerance,
    class_distance,
    distance_to_identity,
    identity,
    points_equal,
)

TAU4 = CurveParam(4.0)
TAU3 = CurveParam(3.0)

S0 = SurfaceData(BaseCurve(0), TAU4)
S0U = SurfaceData(BaseCurve(0), TAU4, lattice=UNIT_LATTICE)
S1U = SurfaceData(
    BaseCurve(1, tate=TAU3), TAU3, lattice=UNIT_LATTICE, hom_exponents=(1,)
)
SMF = SurfaceData(BaseCurve(0), TAU4, multiple_fibres=((1.5, 2),))
S03 = SurfaceData(BaseCurve(0), TAU3)


def trivial_extension(surface: SurfaceData, **kw) -> ExtensionBundle:
    return ExtensionBundle(
        trivial_line_bundle(surface), trivial_line_bundle(surface), **kw
    )


def push_bundle(trace: RationalMap, det_value: complex = 1.0) -> SpectralPushBundle:
    cover = irreducible_bisection(DoubleCoverData(trace=trace))
    return SpectralPushBundle(cover, LineBundleOnX(SectionOfJ(TatePoint(det_value, S0.fibre), ())))


def restrict(bundle, b, surface: SurfaceData, tol: Tolerance = DEFAULT_TOL):
    """The restriction over the base point b: the sub-degree of an unstable
    restriction, else (v1, v2, glued)."""
    return _FibrePlan(bundle, surface, tol).restrict(base_point(surface, b))


def splits(restriction) -> bool:
    return isinstance(restriction, tuple) and not restriction[2]


def glues(restriction) -> bool:
    return isinstance(restriction, tuple) and restriction[2]


# ------------------------------------------------------------- structures


def test_line_bundle_chern_class():
    lb = LineBundleOnX(zero_section(SMF), base_twist=2, fibre_twists=(1,))
    assert lb.chern_class(SMF.torsion_rank) == NSClass((2, 1), ())
    assert LineBundleOnX(zero_section(SMF), base_twist=1).chern_class(2) == NSClass((1, 0), ())
    with pytest.raises(ValueError):
        LineBundleOnX(zero_section(S0), fibre_twists=(1, 1)).chern_class(1)


def test_extension_validation():
    with pytest.raises(ValueError):
        trivial_extension(S0, zero_cycle=((0.5, 1), (0.5, 2)))
    with pytest.raises(ValueError):
        trivial_extension(S0, zero_cycle=((0.5, 0),))


def test_extension_stores_its_quotient_section():
    sub = LineBundleOnX(section_for_class(S1U, NSClass((0,), (1,)), 1.5 + 0.5j))
    det = LineBundleOnX(section_for_class(S1U, NSClass((0,), (2,)), 2.0 - 0.3j))
    bundle = ExtensionBundle(sub, det)
    assert sections_equal(bundle.quotient, involution_on_section(sub.section, det.section))
    assert bundle.quotient.hom == (1,)
    # derived data: not an argument, not shown, not compared
    assert "quotient" not in repr(bundle)
    assert bundle == ExtensionBundle(sub, det) and hash(bundle) == hash(ExtensionBundle(sub, det))


def test_spectral_push_needs_irreducible():
    with pytest.raises(ValueError):
        SpectralPushBundle(
            reducible_bisection(zero_section(S0), zero_section(S0)),
            trivial_line_bundle(S0),
        )


def test_elem_mod_validation():
    # a chain is one flat record: a root and its (fibre, steps) pairs
    root = trivial_extension(S0)
    chain = ElemModBundle(root, ((0.1, 1),))
    for base, pairs in ((root, ((0.1, 0),)), (root, ((0.1, 1), (0.2, -1))), (root, ()), (chain, ((0.2, 1),))):
        with pytest.raises(ValueError):
            ElemModBundle(base, pairs)


def test_realized_recipe_extends_the_chain_of_its_base():
    root = trivial_extension(S0)
    base = ElemModBundle(root, ((0.3, 2),))
    recipe = decode_recipe(encode_recipe(Recipe(base, Fraction(1), 0.7, 3)), S0)
    assert recipe.base == base
    bundle = recipe.realize()
    assert bundle.root == root and bundle.chain == ((0.3, 2), (0.7, 3))
    assert chern_data(bundle, S0) == apply_modification_ledger(chern_data(root, S0), 5, S0.lattice)


# ------------------------------------------------------------ chern data


def test_chern_trivial_extension():
    cd = chern_data(trivial_extension(S0), S0)
    assert cd == ChernData(NSClass((0,), ()), 0)


def test_chern_with_zero_cycle():
    bundle = trivial_extension(S0, zero_cycle=((0.2, 1), (0.9, 1)))
    cd = chern_data(bundle, S0)
    assert cd.c2 == 2
    from ellspec.surface import discriminant

    assert discriminant(cd, ZERO_LATTICE) == 1


def test_chern_degree_one_sub():
    sub = LineBundleOnX(section_for_class(S1U, NSClass((0,), (1,))))
    bundle = ExtensionBundle(sub, trivial_line_bundle(S1U))
    cd = chern_data(bundle, S1U)
    assert cd == ChernData(NSClass((0,), (0,)), 2)
    from ellspec.surface import discriminant

    assert discriminant(cd, UNIT_LATTICE) == 1


def test_chern_reducible_discriminant_formula():
    # Delta = pairing/4 + cycle/2 exactly
    sub = LineBundleOnX(section_for_class(S1U, NSClass((0,), (1,))))
    bundle = ExtensionBundle(sub, trivial_line_bundle(S1U), zero_cycle=((0.0j + 1.2, 1),))
    cd = chern_data(bundle, S1U)
    from ellspec.surface import discriminant

    assert cd.c2 == 3
    assert discriminant(cd, UNIT_LATTICE) == Fraction(3, 2)


def test_chern_spectral_push():
    cd = chern_data(push_bundle(RationalMap((0.0, 0.0, 1.0))), S0)
    assert cd == ChernData(NSClass((0,), ()), 1)
    from ellspec.surface import discriminant

    assert discriminant(cd, ZERO_LATTICE) == Fraction(1, 2)


def test_chern_spectral_push_integrality():
    with pytest.raises(ValueError):
        chern_data(push_bundle(RationalMap((0.0, 1.0))), S0)


def test_chern_of_mismatched_norm_cover_is_rejected():
    # the norm 2.5 is not in the class of the determinant 1.5 on tau = 3, so
    # l -> 1.5/l does not preserve the roots of l^2 - t l + 2.5
    def push(norm: float) -> SpectralPushBundle:
        cover = DoubleCoverData(trace=RationalMap((0.3, 0.2, 1.0)), norm=RationalMap((norm,)))
        return SpectralPushBundle(irreducible_bisection(cover), LineBundleOnX(SectionOfJ(TatePoint(1.5, S03.fibre), ())))

    with pytest.raises(ValueError, match="bisection is not invariant under the involution"):
        chern_data(push(2.5), S03)
    for norm in (1.5, 4.5):  # 4.5 = 1.5 tau is the same class
        assert chern_data(push(norm), S03) == ChernData(NSClass((0,), ()), 1)


def test_every_use_of_a_mismatched_norm_push_is_rejected():
    # the norm 2.5 is not in the class of the determinant 1.5 on tau = 3;
    # fibre evaluation trusts the push, so each entry point checks it first
    cover = DoubleCoverData(trace=RationalMap((0.3, 0.2, 1.0)), norm=RationalMap((2.5,)))
    det = LineBundleOnX(SectionOfJ(TatePoint(1.5, S03.fibre), ()))
    bundle = SpectralPushBundle(irreducible_bisection(cover), det)
    chain = ElemModBundle(bundle, ((0.4 + 0.3j, 1),))
    for compute in (
        lambda: check_spectral_push(bundle, S03),
        lambda: spectral_cover(chain, S03),
    ):
        with pytest.raises(ValueError, match="bisection is not invariant under the involution"):
            compute()


def test_chern_of_rational_push_with_hom_determinant_is_rejected():
    # over a rational base a section has no hom part; the determinant of
    # this push once got c2 = -1 from chern_data, though the cover and the
    # fibre restrictions of the same bundle reject it
    det = LineBundleOnX(SectionOfJ(TatePoint(1.5, TAU4), (2,)))
    bundle = SpectralPushBundle(irreducible_bisection(DoubleCoverData(trace=RationalMap((0.3, 0.2, 1.0)))), det)
    for compute in (lambda: chern_data(bundle, S0U), lambda: spectral_cover(bundle, S0U)):
        with pytest.raises(ValueError, match="over a rational base the determinant section is constant"):
            compute()
    with pytest.raises(ValueError, match="over a rational base every section is constant"):
        restrict(bundle, 0.4, S0U)
    constant = SpectralPushBundle(bundle.cover, LineBundleOnX(SectionOfJ(TatePoint(1.5, TAU4), (0,))))
    assert chern_data(constant, S0U) == ChernData(NSClass((0,), (0,)), 1)


def test_rational_push_on_a_declared_cover_is_rejected():
    # over a rational base the fibre values of a cover are read off its
    # trace map, which a declared cover lacks; such a push once passed this
    # check, and its verification failed at the first fibre instead
    det = LineBundleOnX(SectionOfJ(TatePoint(1.5 + 0.2j, S03.fibre), ()))
    bundle = SpectralPushBundle(irreducible_bisection(DoubleCoverData(declared_self_intersection=2)), det)
    chain = ElemModBundle(bundle, ((0.4 + 0.3j, 1),))
    for compute in (
        lambda: check_spectral_push(bundle, S03),
        lambda: chern_data(chain, S03),
        lambda: spectral_cover(bundle, S03),
        lambda: spectral_cover(chain, S03, verify_samples=50),
    ):
        with pytest.raises(ValueError, match="over a rational base the bisection needs a trace map"):
            compute()


def test_discriminant_checks_build_no_fraction(monkeypatch):
    # the ledger, the extension identity, the Chern data of a push, the
    # ruled window and the cover genus are computed on 8 Delta, 2 a2 and
    # 4m, in integers
    bundle = ExtensionBundle(
        LineBundleOnX(SectionOfJ(TatePoint(1.5 + 0.5j, TAU3), (1,)), base_twist=1),
        LineBundleOnX(SectionOfJ(TatePoint(2.0 - 0.3j, TAU3), (-1,))),
        zero_cycle=((1.7 + 0.4j, 2),),
    )
    push = push_bundle(RationalMap((0.0, 0.0, 1.0)))  # genus-0 trace push, a2 = 2
    m = Fraction(5, 4)
    calls = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda *a, **k: calls.append(1) or new(*a, **k)))
    cd = chern_of_extension(bundle, UNIT_LATTICE, 1)
    out = apply_modification_ledger(cd, 5, UNIT_LATTICE)
    back = apply_modification_ledger(out, -5, UNIT_LATTICE)
    pushed = chern_data(push, S0)
    bounds = ruled_invariant_bounds(3, m)
    cover = genus_and_branching(cd, 2, UNIT_LATTICE)
    assert calls == []
    assert cd == back == ChernData(NSClass((0,), (-1,)), 6)  # 8 Delta = 26 = 2 * 9 + 4 * 2
    assert out == ChernData(NSClass((-5,), (-1,)), 11)
    assert pushed == ChernData(NSClass((0,), ()), 1)  # c2 = (2 a2 + c1^2) / 4
    assert (bounds.d_min, bounds.d_max, bounds.e_min, bounds.e_max) == (1, 2, -3, -1)
    assert cover == (16, 26)  # 4 Delta + 2g - 1 and 4 c2 - c1^2


def test_chern_elem_mod():
    bundle = ElemModBundle(trivial_extension(S0), ((0.3, 2),))
    cd = chern_data(bundle, S0)
    assert cd == ChernData(NSClass((-2,), ()), 2)


def modified_chain(root, levels: int):
    """root modified once at each of levels distinct fibres, innermost first."""
    return ElemModBundle(root, tuple((complex(0.001 * i - 1, 0.5), 1) for i in range(levels)))


def test_deep_chains_are_unwound_without_recursion():
    # a chain is stored flat and read as one field: the ledger moves the
    # root's Chern data once, by the total steps, and the jump fibres are
    # merged once (1500 nested levels once raised RecursionError from both)
    root = push_bundle(RationalMap((0.3, 0.2, 1.0)), 1.5)
    chain = modified_chain(root, 1500)
    assert chern_data(chain, S0) == apply_modification_ledger(chern_data(root, S0), 1500, S0.lattice)
    cover = spectral_cover(chain, S0)
    assert cover.jump_fibres == tuple((complex(0.001 * i - 1, 0.5), 1) for i in range(1500))
    assert cover.bisection == spectral_cover(root, S0).bisection


def test_deep_chains_hash_compare_print_and_round_trip():
    # 1500 modifications through the library: equality, hash, repr and the
    # codec once recursed through nested records and raised RecursionError
    def build():
        bundle = trivial_extension(S0)
        for i in range(1500):
            bundle = elementary_modification(bundle, complex(0.001 * i - 1, 0.5), 1, S0)
        return bundle

    one, two = build(), build()
    assert one is not two and one == two and hash(one) == hash(two)
    assert repr(one) == repr(two) and len(one.chain) == 1500
    assert decode_bundle(encode_bundle(one), S0) == one


def test_push_check_reads_the_root_of_any_presentation():
    cover = DoubleCoverData(trace=RationalMap((0.3, 0.2, 1.0)), norm=RationalMap((2.5,)))
    det = LineBundleOnX(SectionOfJ(TatePoint(1.5, S03.fibre), ()))
    misfit = SpectralPushBundle(irreducible_bisection(cover), det)
    with pytest.raises(ValueError, match="bisection is not invariant under the involution"):
        check_spectral_push(modified_chain(misfit, 3), S03)
    check_spectral_push(modified_chain(trivial_extension(S03), 3), S03)  # any other root passes


def test_modification_ledger():
    cd = ChernData(NSClass((0,), ()), 0)
    assert apply_modification_ledger(cd, 0, ZERO_LATTICE) == cd
    up = apply_modification_ledger(cd, 3, ZERO_LATTICE)
    assert up == ChernData(NSClass((-3,), ()), 3)
    from ellspec.surface import discriminant

    assert discriminant(up, ZERO_LATTICE) - discriminant(cd, ZERO_LATTICE) == Fraction(3, 2)
    assert apply_modification_ledger(up, -3, ZERO_LATTICE) == cd


# ------------------------------------------------------------ restriction


def test_restrict_trivial_extension_splits():
    # both values are the identity, whose canonical representative is 1
    assert restrict(trivial_extension(S0), 0.4, S0) == (1, 1, False)


def test_restrict_marked_fibre_glues():
    bundle = trivial_extension(S0, nonsplit_at=(0.5,))
    at = restrict(bundle, 0.5, S0)
    assert glues(at)
    assert points_equal(TatePoint(at[0], TAU4), identity(TAU4))
    assert splits(restrict(bundle, 1.0, S0))


def test_restrict_everywhere_marked():
    bundle = trivial_extension(S0, nonsplit_everywhere=True)
    for b in (0.1, -0.7 + 0.2j, 2.0):
        assert glues(restrict(bundle, b, S0))


def test_restrict_equal_values_unmarked_default_split():
    # sub = quotient = the class of -1, no marking: stays split
    sub = LineBundleOnX(SectionOfJ(TatePoint(-1.0, S0.fibre), ()))
    det = trivial_line_bundle(S0)
    bundle = ExtensionBundle(sub, det)
    r = restrict(bundle, 0.3, S0)
    assert splits(r)
    assert points_equal(TatePoint(r[0], TAU4), TatePoint(r[1], TAU4))


def test_restrict_zero_cycle_unstable():
    bundle = trivial_extension(S0, zero_cycle=((0.5, 2),))
    assert restrict(bundle, 0.5, S0) == 2
    assert splits(restrict(bundle, 0.6, S0))


def test_restrict_spectral_push_branch_point():
    bundle = push_bundle(RationalMap((0.0, 0.0, 1.0)))  # branch at b^4 = 4
    root2 = 2.0**0.5
    assert glues(restrict(bundle, root2, S0))
    assert splits(restrict(bundle, 0.0, S0))
    # the wrap across the annulus seam scales the gap by |tau|, so the
    # probe must sit well inside the sqrt(eps) coincidence window
    assert glues(restrict(bundle, root2 + 1e-12, S0))
    assert splits(restrict(bundle, root2 + 1e-5, S0))


def test_restrict_elem_mod():
    bundle = ElemModBundle(trivial_extension(S0), ((0.3, 1),))
    assert restrict(bundle, 0.3, S0) == 1
    assert splits(restrict(bundle, 0.8, S0))
    # a chain two levels deep over a spectral push: each modified fibre is
    # unstable, and elsewhere the push decides
    chain = ElemModBundle(push_bundle(RationalMap((0.3, 0.2, 1.0)), 1.5), ((0.3, 1), (0.8, 2)))
    assert restrict(chain, 0.3, S0) == 1
    assert restrict(chain, 0.8, S0) == 1
    assert splits(restrict(chain, -0.5, S0))
    with pytest.raises(ValueError, match="multiple fibre"):
        restrict(ElemModBundle(trivial_extension(SMF), ((0.3, 1),)), 1.5, SMF)


def test_restrict_multiple_fibre_rejected():
    with pytest.raises(ValueError):
        restrict(trivial_extension(SMF), 1.5, SMF)


# --------------------------------------------------------- spectral cover


def test_cover_of_split_trivial_bundle():
    cover = spectral_cover(trivial_extension(S0), S0, verify_samples=50)
    assert cover.bisection.is_reducible
    s1, s2 = cover.bisection.components
    assert sections_equal(s1, zero_section(S0))
    assert sections_equal(s2, zero_section(S0))
    assert cover.jump_fibres == ()
    assert cover.verification_samples == 50
    assert cover.max_residual < 1e-12


def test_cover_of_constant_extension():
    sub = LineBundleOnX(SectionOfJ(TatePoint(2.5, S0.fibre), ()))
    bundle = ExtensionBundle(sub, trivial_line_bundle(S0))
    cover = spectral_cover(bundle, S0, verify_samples=50)
    s1, s2 = cover.bisection.components
    assert points_equal(s1.constant, TatePoint(1 / 2.5, TAU4))
    assert points_equal(s2.constant, TatePoint(2.5, TAU4))
    assert cover.max_residual < 1e-9


def test_cover_jump_fibres_from_cycle():
    bundle = trivial_extension(S0, zero_cycle=((0.5, 2), (-0.3, 1)))
    cover = spectral_cover(bundle, S0, verify_samples=20)
    assert cover.jump_fibres == ((0.5 + 0j, 2), (-0.3 + 0j, 1))
    assert cover.jump_total == 3


def test_cover_accounting_identity():
    sub = LineBundleOnX(section_for_class(S1U, NSClass((0,), (1,))))
    bundle = ExtensionBundle(sub, trivial_line_bundle(S1U))
    cover = spectral_cover(bundle, S1U, verify_samples=50)
    assert cover.max_residual < 1e-8
    cd = chern_data(bundle, S1U)
    lhs, rhs = spectral_accounting(cover, cd, UNIT_LATTICE)
    assert lhs == rhs == 2


def test_cover_of_elem_mod_merges_jumps():
    base = trivial_extension(S0)
    one = elementary_modification(base, 0.7, 2, S0)
    two = elementary_modification(one, 0.7, 1, S0)
    three = elementary_modification(two, -0.4, 1, S0)
    cover = spectral_cover(three, S0)
    assert cover.jump_fibres == ((0.7 + 0j, 3), (-0.4 + 0j, 1))


@pytest.mark.parametrize(
    "chain, jumps",
    [
        # 1.8 agrees with 0.9, merged into 0's jump, and with no head: a new jump
        ([(0.9, 2), (1.8, 3)], ((0j, 3), (1.8 + 0j, 3))),
        # 1.8 agrees with the merged 0.9, filed first, and with the head 2.7: it joins 2.7
        ([(0.9, 2), (2.7, 3), (1.8, 4)], ((0j, 3), (2.7 + 0j, 7))),
        # 0.75 agrees with the heads 0 and 1.5: it joins the earlier
        ([(1.5, 2), (0.75, 3)], ((0j, 4), (1.5 + 0j, 2))),
    ],
)
def test_a_jump_point_joins_the_earliest_head_it_agrees_with(chain, jumps):
    # at eps 1, the zero cycle at 0 then the chain fibres, one index of the plan
    bundle = ElemModBundle(trivial_extension(S0, zero_cycle=((0.0, 1),)), chain)
    plan = _FibrePlan(bundle, S0, Tolerance(1.0))
    assert plan.jumps == jumps
    assert spectral_cover(bundle, S0, Tolerance(1.0)).jump_fibres == jumps


def test_genus_one_points_of_one_class_are_one_point():
    pt, shifted = 1.4 + 0.1j, (1.4 + 0.1j) * 3.0  # one class of the base C*/<3>
    base = trivial_extension(S1U)
    twice = ElemModBundle(base, ((pt, 1), (shifted, 2)))
    (jump,) = spectral_cover(twice, S1U).jump_fibres
    assert abs(jump[0] - pt) < 1e-12 and jump[1] == 3
    # a zero cycle given by two representatives of one class counts once there
    bundle = trivial_extension(S1U, zero_cycle=((pt, 1), (shifted, 1)))
    assert chern_data(bundle, S1U).c2 == 2
    assert restrict(bundle, shifted, S1U) == 2
    (jump,) = spectral_cover(bundle, S1U).jump_fibres
    assert jump[1] == 2


def test_cover_of_spectral_push_inverts_trace():
    bundle = push_bundle(RationalMap((0.0, 0.0, 1.0)), det_value=2.0)
    cover = spectral_cover(bundle, S0, verify_samples=40)
    assert not cover.bisection.is_reducible
    # dual trace is scaled by the inverse determinant value
    assert cover.bisection.cover.trace.num == (0j, 0j, 0.5 + 0j)
    assert cover.max_residual < 1e-8
    assert points_equal(cover.dual_determinant.constant, TatePoint(0.5, TAU4))


def test_cover_verification_detects_tampering():
    sub = LineBundleOnX(SectionOfJ(TatePoint(2.5, S0.fibre), ()))
    bundle = ExtensionBundle(sub, trivial_line_bundle(S0))
    good = spectral_cover(bundle, S0)
    bad = SpectralCover(
        reducible_bisection(
            SectionOfJ(TatePoint(1.7, S0.fibre), ()), good.bisection.components[1]
        ),
        good.jump_fibres,
        good.dual_determinant,
    )
    with pytest.raises(SpectralVerificationError):
        _verify_cover(_FibrePlan(bundle, S0, Tolerance()), bad, 20, 0)


G1_EXTENSION = ExtensionBundle(
    LineBundleOnX(section_for_class(S1U, NSClass((0,), (1,)), 1.5 + 0.5j)),
    trivial_line_bundle(S1U),
    zero_cycle=((1.7 + 0.4j, 1),),
)


@pytest.mark.parametrize(
    "bundle, surface, most",
    [
        (
            ExtensionBundle(LineBundleOnX(SectionOfJ(TatePoint(2.5, S0.fibre), ())), trivial_line_bundle(S0)),
            S0,
            0.5,
        ),
        (G1_EXTENSION, S1U, 7),
        (ElemModBundle(G1_EXTENSION, ((2.1 - 0.6j, 2),)), S1U, 8),
        (push_bundle(RationalMap((0.0, 0.0, 1.0)), 2.0), S0, 4.1),
    ],
    ids=["genus-0-extension", "genus-1-extension", "genus-1-elem-mod", "genus-0-push"],
)
def test_cover_verification_point_work_is_bounded(bundle, surface, most, monkeypatch):
    # twists are compared as raw annulus representatives; points are built
    # only for the sampled base point and the restriction and cover values,
    # where a point product per twist and an identity per distance made 12
    # to 21; the extension's quotient section is built with the bundle, not
    # per fibre, and a push's norm is checked against its determinant once
    # per bundle, where a comparison per evaluated fibre made 5.02; the
    # fibre loop now works on canonical representatives from one plan of
    # the presentation, so 200 sampled fibres build no more points than 50
    calls = []
    init = TatePoint.__init__
    monkeypatch.setattr(TatePoint, "__init__", lambda self, *a: calls.append(1) or init(self, *a))
    counts = []
    for samples in (50, 200):
        calls.clear()
        assert spectral_cover(bundle, surface, verify_samples=samples).max_residual < 1e-8
        counts.append(len(calls))
    assert counts[0] / 50 <= most
    assert counts[1] == counts[0]


@pytest.mark.parametrize("tau", [3.0, 1.2 + 0.9j, 40j, 1.05])
def test_cover_verification_takes_log_tau_once_per_curve(tau, monkeypatch):
    # an annulus reduction off the fast path takes the log of |z| alone and
    # reads log|tau| off the curve, which takes it once, when built; taking
    # it on every such reduction doubled the logs of a verification
    logs, reductions = [], []
    log, reduce = math.log, tate_module._canonical_rep

    def counted_reduce(z, curve):
        reductions.append(not 1.0 <= abs(z) < abs(curve.tau))
        return reduce(z, curve)

    monkeypatch.setattr(math, "log", lambda x, *base: logs.append(x) or log(x, *base))
    for module in (tate_module, bundles_module, jacobian_module):
        monkeypatch.setattr(module, "_canonical_rep", counted_reduce)
    fibre = CurveParam(tau)
    surface = SurfaceData(BaseCurve(1, tate=fibre), fibre, lattice=UNIT_LATTICE, hom_exponents=(1,))
    bundle = ExtensionBundle(
        LineBundleOnX(section_for_class(surface, NSClass((0,), (1,)), 1.5 + 0.5j)),
        trivial_line_bundle(surface),
        zero_cycle=((1.7 + 0.4j, 1),),
    )
    assert spectral_cover(bundle, surface, verify_samples=50).verification_samples == 50
    assert sum(reductions) > 40
    assert len(logs) == sum(reductions) + 1


def test_cover_verification_applies_no_involution(monkeypatch):
    # the quotient section is stored on the extension when it is built, so
    # neither the cover, its verification at 50 fibres nor the Chern data
    # applies the involution again
    bundle = ExtensionBundle(LineBundleOnX(SectionOfJ(TatePoint(2.5, S0.fibre), ())), trivial_line_bundle(S0))
    calls = []
    monkeypatch.setattr(
        bundles_module,
        "involution_on_section",
        lambda *args: calls.append(1) or involution_on_section(*args),
    )
    cover = spectral_cover(bundle, S0, verify_samples=50)
    chern_data(bundle, S0)
    assert cover.verification_samples == 50
    assert calls == []


def _count_twist_residuals(monkeypatch) -> list:
    calls = []
    residual = bundles_module._twist_residual
    monkeypatch.setattr(bundles_module, "_twist_residual", lambda *a: calls.append(1) or residual(*a))
    return calls


G0_EXTENSION = ExtensionBundle(
    LineBundleOnX(SectionOfJ(TatePoint(2.5, S0.fibre), ())), trivial_line_bundle(S0), zero_cycle=((0.5, 1),)
)


# sub 1.5 and determinant 2.25 give a quotient equal to the sub, so every
# fibre of this extension is glued and has one value
G0_GLUED = ExtensionBundle(
    LineBundleOnX(SectionOfJ(TatePoint(1.5, S0.fibre), ())),
    LineBundleOnX(SectionOfJ(TatePoint(2.25, S0.fibre), ())),
    zero_cycle=((0.5, 1),),
    nonsplit_everywhere=True,
)


@pytest.mark.parametrize(
    "bundle, scores",
    [
        (G0_EXTENSION, 4),
        (ElemModBundle(G0_EXTENSION, ((0.4 + 0.3j, 1), (-0.6 + 0.2j, 2))), 4),
        (G0_GLUED, 2),
    ],
    ids=["extension", "elem-mod-chain", "glued"],
)
def test_cover_verification_scores_repeated_values_once(bundle, scores, monkeypatch):
    # over a rational base an extension's values and the cover's two
    # classes are the same at every fibre, so each value is scored once
    # against both classes, whatever the sample count; scoring every fibre
    # made 4 twist residuals per fibre, and walking a glued fibre's one
    # value twice made 4 where 2 give the same residual
    calls = _count_twist_residuals(monkeypatch)
    counts = []
    for samples in (50, 200):
        calls.clear()
        assert spectral_cover(bundle, S0, verify_samples=samples).max_residual < 1e-8
        counts.append(len(calls))
    assert counts == [scores, scores]


def test_cover_verification_scores_every_distinct_value(monkeypatch):
    # on a genus-1 base a power-map section moves from fibre to fibre, so
    # no score is shared: both values meet both classes at every fibre
    calls = _count_twist_residuals(monkeypatch)
    counts = []
    for samples in (50, 200):
        calls.clear()
        assert spectral_cover(G1_EXTENSION, S1U, verify_samples=samples).max_residual < 1e-8
        counts.append(len(calls))
    assert counts == [4 * 50, 4 * 200]


def test_cover_verification_of_a_wrong_cover_fails_at_the_first_fibre():
    # the cover of another extension: the first sampled fibre fails, with
    # the residual of the fibre-by-fibre reference in its message
    bundle = ExtensionBundle(LineBundleOnX(SectionOfJ(TatePoint(2.5, S0.fibre), ())), trivial_line_bundle(S0))
    other = ExtensionBundle(LineBundleOnX(SectionOfJ(TatePoint(1.7, S0.fibre), ())), trivial_line_bundle(S0))
    wrong = spectral_cover(other, S0)
    b = _sample_base_numbers(S0, 50)[0]
    v = TatePoint(restrict(bundle, b, S0)[0], S0.fibre)
    alphas = _cover_evaluator(wrong.bisection, wrong.dual_determinant, S0)(b)
    best = min(_reference_twist_residual(v, TatePoint(a, S0.fibre)) for a in alphas)
    with pytest.raises(SpectralVerificationError) as info:
        _verify_cover(_FibrePlan(bundle, S0, Tolerance()), wrong, 50, 0)
    assert str(info.value) == f"no cover class produces a cohomology jump at fibre {b!r} (best residual {best:.3e})"


def test_cover_verification_on_an_abstract_base_is_refused():
    # the sampler draws formal markers on an abstract base, so verification
    # refuses the base itself; the cover alone needs no point arithmetic
    s_abs = SurfaceData(BaseCurve(2), TAU4)
    bundle = trivial_extension(s_abs)
    assert spectral_cover(bundle, s_abs).verification_samples == 0
    with pytest.raises(ValueError, match=r"abstract bases \(g >= 2\) have no point arithmetic"):
        spectral_cover(bundle, s_abs, verify_samples=1)


@pytest.mark.parametrize("tau", [1e160, 1e300])
def test_cover_verification_on_a_huge_multiplier(tau):
    # two annulus representatives multiply past the float range once
    # |tau| > 1.3e154; the twist must still reach its class
    surface = SurfaceData(BaseCurve(0), CurveParam(tau))
    sub = LineBundleOnX(SectionOfJ(TatePoint(0.37 * tau * (1 + 0.3j), surface.fibre), ()))
    det = LineBundleOnX(SectionOfJ(TatePoint(0.71 * tau * (1 - 0.2j), surface.fibre), ()))
    cover = spectral_cover(ExtensionBundle(sub, det), surface, verify_samples=50)
    assert cover.verification_samples == 50 and cover.max_residual < 1e-9


# ------------------------------------- verification against fibre by fibre
#
# The reference verifier walks the sampled fibres pairwise, with no plan
# or index: it finds the points at each fibre by comparing it with every
# one, takes each section's value as the point TatePoint(const * x**exp)
# (a push's values and classes from a fresh cover evaluator), and
# compares each twist as a point, with the arithmetic of the twist
# residual written out.  The planned verifier must give the same
# residual, bit for bit, and the same error.


def _reference_twist_residual(v: TatePoint, a: TatePoint) -> float:
    tau = v.curve.tau
    twist = v.rep * a.rep
    if not cmath.isfinite(twist):
        twist = v.rep / tau * a.rep
    return distance_to_identity(TatePoint(twist, v.curve))


def _reference_section_value(section: SectionOfJ, surface: SurfaceData, x: complex) -> TatePoint:
    exp = 0
    if any(section.hom):
        if surface.base.genus == 0:
            raise ValueError("over a rational base every section is constant")
        exp = _power_exponent(surface, section.hom)
    return TatePoint(section.constant.rep * x**exp, surface.fibre)


def _reference_pair(bisection, delta: SectionOfJ, surface: SurfaceData, x: complex) -> list[TatePoint]:
    if bisection.is_reducible:
        return [_reference_section_value(s, surface, x) for s in bisection.components]
    return [TatePoint(a, surface.fibre) for a in _cover_evaluator(bisection, delta, surface)(x)]


def _reference_restrict(bundle, surface: SurfaceData, tol: Tolerance, x: complex):
    """The sub-degree at an unstable fibre, else the two values as points and whether they glue."""
    root = bundle.root if isinstance(bundle, ElemModBundle) else bundle
    chain = bundle.chain if isinstance(bundle, ElemModBundle) else ()
    extension = isinstance(root, ExtensionBundle)
    tagged = [(p, m) for p, m in (root.zero_cycle if extension else ())] + [(f, "modified") for f, _ in chain]
    tagged += [(p, "multiple") for p, _ in surface.multiple_fibres]
    tagged += [(p, "mark") for p in (root.nonsplit_at if extension else ())]
    hits = [tag for p, tag in tagged if same_base_point(surface, x, p, tol)]
    if "multiple" in hits:
        raise ValueError("restriction to a multiple fibre is unsupported")
    if "modified" in hits:
        return 1
    k = sum(h for h in hits if not isinstance(h, str))
    if k >= 1:
        return k
    if extension:
        v1, v2 = (_reference_section_value(s, surface, x) for s in (root.sub.section, root.quotient))
        return v1, v2, class_distance(v1, v2) <= tol.eps and (root.nonsplit_everywhere or "mark" in hits)
    v1, v2 = _reference_pair(root.cover, root.determinant.section, surface, x)
    return v1, v2, class_distance(v1, v2) <= max(tol.eps, tol.eps**0.5)


def _reference_verify(bundle, surface, tol, samples, seed, cover=None):
    """(largest residual, unstable fibres, glued fibres), fibre by fibre."""
    cover = cover or spectral_cover(bundle, surface, tol)
    avoid = tuple(p for p, _ in cover.jump_fibres)
    worst, unstable, glued = 0.0, 0, 0
    for x in _sample_base_numbers(surface, samples, seed, avoid):
        r = _reference_restrict(bundle, surface, tol, x)
        if isinstance(r, int):
            unstable += 1
            continue
        v1, v2, nonsplit = r
        if nonsplit:
            glued += 1
            values = (v1, v1)
        else:
            values = (v1, v2)
        alphas = _reference_pair(cover.bisection, cover.dual_determinant, surface, x)
        for v in values:
            residual = min(_reference_twist_residual(v, a) for a in alphas)
            worst = max(worst, residual)
            if not residual <= 10.0 * tol.eps:
                b = TatePoint(x, surface.base.tate) if surface.base.genus == 1 else x
                raise SpectralVerificationError(
                    f"no cover class produces a cohomology jump at fibre {b!r} (best residual {residual:.3e})"
                )
    return worst, unstable, glued


def _outcome(compute):
    try:
        return compute()
    except (SpectralVerificationError, ValueError) as exc:
        return type(exc), str(exc)


TAU21 = CurveParam(2.0 + 1.0j)
# |tau| = 1.05 and 1e3 reduce values by several powers of tau at once
TAU_NEAR_ONE = CurveParam(1.05 * cmath.exp(0.4j))
TAU_LARGE = CurveParam(600.0 + 800.0j)
G0_SURFACES = (
    S0,
    S03,
    S0U,
    SMF,
    SurfaceData(BaseCurve(0), CurveParam(2.5 + 1.0j)),
    SurfaceData(BaseCurve(0), TAU_NEAR_ONE),
    SurfaceData(BaseCurve(0), TAU_LARGE),
)
G1_SURFACES = (
    S1U,
    SurfaceData(BaseCurve(1, tate=TAU21), TAU21, lattice=UNIT_LATTICE, hom_exponents=(2,)),
    SurfaceData(
        BaseCurve(1, tate=TAU3), TAU3, multiple_fibres=((1.3 + 0.5j, 2),), lattice=UNIT_LATTICE, hom_exponents=(1,)
    ),
    SurfaceData(BaseCurve(1, tate=TAU3), TAU3, lattice=UNIT_LATTICE),  # no power maps for hom parts
    SurfaceData(BaseCurve(1, tate=TAU_NEAR_ONE), TAU_NEAR_ONE, lattice=UNIT_LATTICE, hom_exponents=(1,)),
    SurfaceData(BaseCurve(1, tate=TAU_LARGE), TAU_LARGE, lattice=UNIT_LATTICE, hom_exponents=(2,)),
)


def _annulus(draw, curve: CurveParam) -> complex:
    return abs(curve.tau) ** draw(st.floats(0.0, 0.999)) * cmath.exp(1j * draw(st.floats(-3.2, 3.2)))


def _base(draw, surface: SurfaceData) -> complex:
    if surface.base.genus == 0:
        return complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    tate = surface.base.tate
    return _annulus(draw, tate) * tate.tau ** draw(st.integers(-1, 1))


def _distinct(points: list[complex]) -> list[complex]:
    out: list[complex] = []
    for p in points:
        if all(abs(p - q) > 1e-6 for q in out):
            out.append(p)
    return out


def _section(draw, surface: SurfaceData) -> SectionOfJ:
    # over a rational base a nonzero hom part is an error, drawn rarely
    hom_range = (-2, 2) if surface.base.genus == 1 else draw(st.sampled_from([(0, 0)] * 7 + [(-1, 1)]))
    hom = tuple(draw(st.integers(*hom_range)) for _ in range(surface.lattice.rank))
    return SectionOfJ(TatePoint(_annulus(draw, surface.fibre), surface.fibre), hom)


def _extension(draw, surface: SurfaceData) -> ExtensionBundle:
    sub = _section(draw, surface)
    if draw(st.booleans()):  # determinant = sub^2: both values coincide and marks glue them
        det = SectionOfJ(TatePoint(sub.constant.rep**2, surface.fibre), tuple(2 * h for h in sub.hom))
    else:
        det = _section(draw, surface)
    cycle = _distinct([_base(draw, surface) for _ in range(draw(st.integers(0, 2)))])
    return ExtensionBundle(
        LineBundleOnX(sub),
        LineBundleOnX(det),
        zero_cycle=tuple((p, draw(st.integers(1, 2))) for p in cycle),
        nonsplit_at=tuple(_base(draw, surface) for _ in range(draw(st.integers(0, 2)))),
        nonsplit_everywhere=draw(st.booleans()),
    )


def _push(draw, surface: SurfaceData) -> SpectralPushBundle:
    num = [complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))) for _ in range(draw(st.integers(1, 3)))]
    num.append(cmath.rect(draw(st.floats(0.5, 1.5)), draw(st.floats(-3.2, 3.2))))
    det = TatePoint(_annulus(draw, surface.fibre), surface.fibre)
    norm = None
    if draw(st.booleans()):  # a given norm, in the determinant's class
        norm = RationalMap((det.rep * surface.fibre.tau ** draw(st.integers(-1, 1)),))
    cover = irreducible_bisection(DoubleCoverData(RationalMap(tuple(num)), norm=norm))
    return SpectralPushBundle(cover, LineBundleOnX(SectionOfJ(det, (0,) * surface.lattice.rank)))


@st.composite
def verification_cases(draw):
    kind = draw(st.sampled_from(["genus-0 extension", "genus-1 extension", "genus-0 push"]))
    surface = draw(st.sampled_from(G1_SURFACES if kind == "genus-1 extension" else G0_SURFACES))
    bundle = _push(draw, surface) if kind == "genus-0 push" else _extension(draw, surface)
    chain = tuple((_base(draw, surface), draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 2))))
    return (ElemModBundle(bundle, chain) if chain else bundle), surface


@settings(max_examples=120, deadline=None)
@given(
    case=verification_cases(),
    eps=st.sampled_from([1e-9, 0.05]),
    samples=st.integers(1, 40),
    seed=st.integers(0, 999),
)
def test_verification_matches_the_fibre_by_fibre_reference(case, eps, samples, seed):
    # eps = 0.05 puts sampled fibres on chain, zero-cycle, mark and
    # multiple fibres, and glues push values near their branch points
    bundle, surface = case
    tol = Tolerance(eps)
    got = _outcome(lambda: spectral_cover(bundle, surface, tol, verify_samples=samples, seed=seed).max_residual)
    want = _outcome(lambda: _reference_verify(bundle, surface, tol, samples, seed)[0])
    event("raised" if isinstance(want, tuple) else "verified")
    assert got == want


@pytest.mark.parametrize("surface", [S0, S1U], ids=["genus-0", "genus-1"])
def test_verification_at_a_coarse_tolerance_skips_unstable_and_glues(surface):
    # a zero-cycle point and a chain fibre 0.01 from the first two sampled
    # fibres: outside the sampling clearance, inside the 0.05 radius, so
    # those two are unstable and skipped; every other fibre is glued,
    # since the extension is marked non-split everywhere and its two
    # values agree (determinant = sub^2)
    sub = SectionOfJ(TatePoint(1.7 + 0.6j, surface.fibre), (1,) * surface.lattice.rank)
    det = SectionOfJ(TatePoint(sub.constant.rep**2, surface.fibre), (2,) * surface.lattice.rank)
    p, q = (x + 0.01 for x in _sample_base_numbers(surface, 2, 3))
    root = ExtensionBundle(LineBundleOnX(sub), LineBundleOnX(det), zero_cycle=((p, 1),), nonsplit_everywhere=True)
    bundle = ElemModBundle(root, ((q, 2),))
    tol = Tolerance(0.05)
    residual, unstable, glued = _reference_verify(bundle, surface, tol, 50, 3)
    assert unstable >= 2 and glued == 50 - unstable
    assert spectral_cover(bundle, surface, tol, verify_samples=50, seed=3).max_residual == residual


@pytest.mark.parametrize("wrong", [False, True], ids=["hom-section", "wrong-cover"])
def test_a_rational_extension_resolves_its_values_at_the_first_stable_fibre(wrong):
    # zero-cycle points 0.01 from the first two sampled fibres make them
    # unstable at eps 0.05, so the values are resolved at the third: a
    # section with a hom part raises there, and so does a wrong cover,
    # naming that fibre, as the fibre-by-fibre reference does; two samples
    # raise nothing
    tol = Tolerance(0.05)
    x1, x2, x3 = _sample_base_numbers(S0U, 3, 3)
    sub = LineBundleOnX(SectionOfJ(TatePoint(2.5, S0U.fibre), (0,) if wrong else (1,)))
    bundle = ExtensionBundle(sub, trivial_line_bundle(S0U), zero_cycle=((x1 + 0.01, 1), (x2 + 0.01, 1)))
    other = ExtensionBundle(LineBundleOnX(SectionOfJ(TatePoint(1.2, S0U.fibre), (0,))), trivial_line_bundle(S0U))
    cover = spectral_cover(other if wrong else bundle, S0U, tol)
    cover = SpectralCover(cover.bisection, spectral_cover(bundle, S0U, tol).jump_fibres, cover.dual_determinant)
    for samples in (2, 3):
        got = _outcome(lambda: _verify_cover(_FibrePlan(bundle, S0U, tol), cover, samples, 3))
        assert got == _outcome(lambda: _reference_verify(bundle, S0U, tol, samples, 3, cover)[0])
    assert got[0] is (SpectralVerificationError if wrong else ValueError)
    assert f"at fibre {x3!r}" in got[1] if wrong else got[1] == "over a rational base every section is constant"
    assert _verify_cover(_FibrePlan(bundle, S0U, tol), cover, 2, 3) == 0.0


def test_cover_base_intersections_requires_reducible():
    cover = spectral_cover(push_bundle(RationalMap((0.0, 0.0, 1.0))), S0)
    with pytest.raises(ValueError):
        cover_base_intersections(cover, ZERO_LATTICE)


# ------------------------------------------------- elementary modification


def test_modification_identity_and_errors():
    base = trivial_extension(S0)
    assert elementary_modification(base, 0.2, 0, S0) is base
    with pytest.raises(ValueError):
        elementary_modification(base, 0.2, -1, S0)
    with pytest.raises(ValueError):
        elementary_modification(trivial_extension(SMF), 1.5, 1, SMF)


def test_modification_branch_fibre_rejected():
    bundle = push_bundle(RationalMap((0.0, 0.0, 1.0)))
    root2 = 2.0**0.5
    with pytest.raises(ValueError):
        elementary_modification(bundle, root2, 1, S0)
    ok = elementary_modification(bundle, 0.1, 1, S0)
    assert isinstance(ok, ElemModBundle)
    # the branch check walks through modification chains too
    with pytest.raises(ValueError):
        elementary_modification(ok, -root2, 1, S0)


def test_modification_chern_chain():
    base = trivial_extension(S0)
    mod = elementary_modification(base, 0.6, 4, S0)
    cd = chern_data(mod, S0)
    assert cd == ChernData(NSClass((-4,), ()), 4)


def test_modification_g1_base_point_classes():
    base = ExtensionBundle(
        LineBundleOnX(section_for_class(S1U, NSClass((0,), (1,)))),
        trivial_line_bundle(S1U),
    )
    pt = 1.4 + 0.1j
    one = elementary_modification(base, pt, 1, S1U)
    # the same class reached through a multiplier shift merges
    shifted = (1.4 + 0.1j) * 3.0
    two = elementary_modification(one, shifted, 2, S1U)
    assert isinstance(two, ElemModBundle)
    assert two.root is base
    assert two.chain == ((one.chain[0][0], 3),)
