"""The value records of the package: frozen, compared by value within one
class, and built by keyword from their field names.

Each case is a factory of keyword arguments that builds its nested records
afresh, so two constructions share no record object and equality is
compared field by field.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
from fractions import Fraction

import pytest

import ellspec
from ellspec.bundles import (
    ElemModBundle,
    ExtensionBundle,
    LineBundleOnX,
    SpectralCover,
    SpectralPushBundle,
)
from ellspec.existence import Existence, Recipe, Verdict
from ellspec.jacobian import DoubleCoverData, RationalMap, RuledBounds, SectionOfJ
from ellspec.records import Record
from ellspec.surface import BaseCurve, ChernData, HomLattice, NSClass, SurfaceData
from ellspec.tate import CurveParam, TatePoint, Tolerance


def _curve():
    return CurveParam(tau=3.0 + 0.5j)


def _point(rep=1.5 + 0.2j):
    return TatePoint(rep=rep, curve=_curve())


def _section():
    return SectionOfJ(constant=_point(), hom=(1,))


def _line_bundle():
    return LineBundleOnX(section=_section(), base_twist=1, fibre_twists=(2,))


def _map():
    return RationalMap(num=(1.0, 2.0 + 1j), den=(1.0, 0.5))


def _cover():
    return DoubleCoverData(trace=_map(), branch_points=(0.5j,), declared_self_intersection=2, norm=_map())


def _extension():
    return ExtensionBundle(
        sub=_line_bundle(),
        determinant=LineBundleOnX(section=SectionOfJ(constant=_point(2.5), hom=(0,))),
        zero_cycle=((0.5 + 0.1j, 1),),
        nonsplit_at=(0.25,),
        nonsplit_everywhere=False,
    )


CASES = {
    CurveParam: lambda: dict(tau=3.0 + 0.5j),
    Tolerance: lambda: dict(eps=1e-6),
    TatePoint: lambda: dict(rep=4.5 - 1j, curve=_curve()),
    HomLattice: lambda: dict(rank=2, gram=((2, Fraction(1, 2)), (Fraction(1, 2), 3))),
    BaseCurve: lambda: dict(genus=1, tate=_curve()),
    SurfaceData: lambda: dict(
        base=BaseCurve(genus=1, tate=_curve()),
        fibre=_curve(),
        multiple_fibres=(),
        theta_degree=2,
        lattice=HomLattice(1, ((1,),)),
        hom_exponents=(1,),
    ),
    NSClass: lambda: dict(torsion=(0, 1), hom=(1,)),
    ChernData: lambda: dict(c1=NSClass(torsion=(0,), hom=(1,)), c2=3),
    SectionOfJ: lambda: dict(constant=_point(), hom=(1, -1)),
    RationalMap: lambda: dict(num=(1.0, 2.0 + 1j), den=(1.0, 0.5)),
    DoubleCoverData: lambda: dict(
        trace=_map(), branch_points=(0.5j,), declared_self_intersection=Fraction(4), norm=_map()
    ),
    RuledBounds: lambda: dict(d_min=0, d_max=2, e_min=-2, e_max=0),
    LineBundleOnX: lambda: dict(section=_section(), base_twist=1, fibre_twists=(2,)),
    ExtensionBundle: lambda: dict(
        sub=_line_bundle(),
        determinant=LineBundleOnX(section=SectionOfJ(constant=_point(2.5), hom=(0,))),
        zero_cycle=((0.5 + 0.1j, 1),),
        nonsplit_at=(0.25,),
        nonsplit_everywhere=True,
    ),
    SpectralPushBundle: lambda: dict(cover=_cover(), determinant=_line_bundle()),
    ElemModBundle: lambda: dict(root=_extension(), chain=((0.3 + 0.1j, 2),)),
    SpectralCover: lambda: dict(
        bisection=(_section(), _section()),
        jump_fibres=((0.5, 1),),
        dual_determinant=_section(),
        verification_samples=50,
        max_residual=1e-12,
    ),
    Recipe: lambda: dict(
        base=_extension(), base_delta=Fraction(1, 2), generic_fibre=0.3, modification_steps=1
    ),
    Verdict: lambda: dict(
        status=Existence.EXISTS,
        delta=Fraction(3, 4),
        lattice_minimum=Fraction(1),
        filtrable=False,
        threshold_interval=(Fraction(0), Fraction(1)),
        d_interval=(0, 2),
        recipe=None,
        note="x",
    ),
}

RECORDS = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def package_records() -> set[type]:
    """Every Record subclass a module of the package defines at its top level."""
    names = [info.name for info in pkgutil.iter_modules(ellspec.__path__)]
    modules = [importlib.import_module(f"ellspec.{name}") for name in names]
    return {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, Record)
        and value is not Record
        and value.__module__ == module.__name__
    }


def test_every_record_class_has_a_case():
    assert set(CASES) == package_records()


@RECORDS
def test_keyword_construction_compares_and_hashes_by_value(cls):
    a, b = cls(**CASES[cls]()), cls(**CASES[cls]())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@RECORDS
def test_fields_cannot_be_set_or_deleted(cls):
    record = cls(**CASES[cls]())
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**CASES[cls]())


@RECORDS
def test_no_record_equals_another_class_with_the_same_values(cls):
    record = cls(**CASES[cls]())
    values = {name: getattr(record, name) for name in cls._fields}

    class Twin(Record):
        __slots__ = _fields = cls._fields

        def __init__(self) -> None:
            for name, value in values.items():
                object.__setattr__(self, name, value)

    twin = Twin()
    assert record != twin and twin != record
    assert record != tuple(values.values())


def test_derived_quotient_stays_out_of_the_repr():
    ext = _extension()
    assert "quotient" not in repr(ext)
    assert repr(ext).startswith("ExtensionBundle(sub=LineBundleOnX(section=SectionOfJ(constant=TatePoint(")
    tail = ", zero_cycle=(((0.5+0.1j), 1),), nonsplit_at=(0.25,), nonsplit_everywhere=False)"
    assert repr(ext).endswith(tail)
    assert repr(HomLattice(1, ((2,),))) == "HomLattice(rank=1, form=(2,))"


def test_repr_lists_fields_in_order():
    assert repr(Tolerance(1e-6)) == "Tolerance(eps=1e-06)"
    assert repr(ChernData(NSClass((0,), (1,)), 3)) == "ChernData(c1=NSClass(torsion=(0,), hom=(1,)), c2=3)"
    assert repr(CurveParam(3.0)) == "CurveParam(tau=3.0)"


def test_curve_keeps_its_frame_and_log_outside_the_fields():
    curve = CurveParam(3.0)
    assert curve.frame is curve.frame
    assert curve.log_abs_tau == math.log(3.0)
    assert curve == CurveParam(3.0) and hash(curve) == hash(CurveParam(3.0))
