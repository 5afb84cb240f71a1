"""JSON codecs for the command-line interface.

Documents are versioned with "schema": 1.  Exact rationals travel as
"p/q" strings, complex numbers as [re, im] pairs with "inf" for the
point at infinity.  Union types use their tag as the single key
({"reducible": ...} / {"irreducible": ...}; {"extension": ...} /
{"spectral_push": ...} / {"elem_mod": ...}).  Decoding failures raise
SchemaError, which the CLI maps to its schema-violation exit code.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Any

from .bundles import (
    ElemModBundle,
    ExtensionBundle,
    LineBundleOnX,
    RankTwoBundle,
    SpectralCover,
    SpectralPushBundle,
    _modification_check,
    _unwind,
    check_spectral_push,
)
from .existence import Existence, Recipe, Verdict
from .jacobian import (
    Bisection,
    DoubleCoverData,
    RationalMap,
    SectionOfJ,
    irreducible_bisection,
    reducible_bisection,
)
from .surface import (
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    _bounded_decimal,
    base_point,
    distinct_base_points,
)
from .tate import DEFAULT_TOL, CurveParam, TatePoint, Tolerance

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """The document does not match the interchange schema."""


# ---------------------------------------------------------------------------
# scalars


def encode_fraction(x: Fraction | int) -> str:
    """The "p/q" text of an exact rational; an int or a Fraction writes as
    str does, and any other type (a bool or a float) raises TypeError."""
    if type(x) is int or isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"cannot encode {x!r} as an exact rational")


def decode_fraction(doc: Any, where: str = "rational") -> Fraction:
    if isinstance(doc, bool):
        raise SchemaError(f"{where}: expected a rational, got a boolean")
    if isinstance(doc, int):
        return Fraction(doc)
    if isinstance(doc, str):
        _domain(where, _bounded_decimal, doc)
        try:
            return Fraction(doc)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: malformed rational {doc!r}") from exc
    raise SchemaError(f"{where}: expected an integer or 'p/q' string")


def _gram_entry(doc: Any, where: str) -> int | Fraction:
    """A Gram matrix entry: a JSON integer as it stands, else decode_fraction."""
    return doc if type(doc) is int else decode_fraction(doc, where)


def encode_complex(z: complex) -> list[float] | str:
    z = complex(z)
    if cmath.isinf(z):
        return "inf"
    return [z.real, z.imag]


def decode_complex(doc: Any, where: str = "complex") -> complex:
    if doc == "inf":
        return complex(math.inf, 0.0)
    if (
        isinstance(doc, (list, tuple))
        and len(doc) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in doc)
    ):
        try:
            return complex(doc[0], doc[1])
        except OverflowError as exc:  # an integer beyond the float range
            raise SchemaError(f"{where}: {exc}") from exc
    raise SchemaError(f"{where}: expected [re, im] or 'inf'")


def _expect_map(doc: Any, where: str) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    return doc


def _expect_list(doc: Any, where: str) -> list:
    if not isinstance(doc, list):
        raise SchemaError(f"{where}: expected an array")
    return doc


def _expect_int(doc: Any, where: str) -> int:
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise SchemaError(f"{where}: expected an integer")
    return doc


def _vector(doc: Any, where: str, read, entry: str | None = None) -> tuple:
    """An array read item by item, each item named entry (default "where entry")."""
    entry = entry or f"{where} entry"
    return tuple(read(item, entry) for item in _expect_list(doc, where))


def _pair(doc: Any, where: str, reads, names=None, shape: str = "two endpoints") -> tuple:
    """A two-item array read item by item, items named where[0] and where[1]."""
    pair = _expect_list(doc, where)
    if len(pair) != 2:
        raise SchemaError(f"{where}: expected {shape}")
    names = names or (f"{where}[0]", f"{where}[1]")
    return tuple(read(item, name) for read, item, name in zip(reads, pair, names))


def _domain(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as a SchemaError at where."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def check_version(doc: Any) -> None:
    body = _expect_map(doc, "document")
    if body.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f'document must declare "schema": {SCHEMA_VERSION}')


# ---------------------------------------------------------------------------
# surface: {genus, tau: [re,im], sigma?: [re,im], multiple_fibres: [[b, m]...],
#           theta_degree?, lattice: {rank, gram}, hom_exponents?}


def decode_surface(doc: Any) -> SurfaceData:
    body = _expect_map(doc, "surface")
    genus = _expect_int(body.get("genus"), "surface.genus")
    tate = None
    if body.get("sigma") is not None:
        tate = _domain("surface.sigma", CurveParam, decode_complex(body["sigma"], "surface.sigma"))
    fibre = _domain("surface.tau", CurveParam, decode_complex(body.get("tau"), "surface.tau"))
    lat_doc = _expect_map(body.get("lattice"), "surface.lattice")
    rank = _expect_int(lat_doc.get("rank"), "surface.lattice.rank")
    gram = _vector(
        lat_doc.get("gram"),
        "surface.lattice.gram",
        lambda row, where: _vector(row, where, _gram_entry, "surface.lattice.gram"),
        "surface.lattice.gram row",
    )
    fibres = _vector(
        body.get("multiple_fibres", []),
        "surface.multiple_fibres",
        lambda item, where: _pair(
            item,
            where,
            (decode_complex, _expect_int),
            ("multiple fibre point", "multiple fibre multiplicity"),
            "[point, multiplicity]",
        ),
    )
    theta = body.get("theta_degree")
    if theta is not None:
        theta = _expect_int(theta, "surface.theta_degree")
    hom_exp = None
    if body.get("hom_exponents") is not None:
        hom_exp = _vector(body["hom_exponents"], "surface.hom_exponents", _expect_int)
    lattice = _domain("surface", HomLattice, rank, gram)
    base = _domain("surface", BaseCurve, genus, tate)
    return _domain("surface", SurfaceData, base, fibre, fibres, theta, lattice, hom_exp)


# ---------------------------------------------------------------------------
# classes and Chern data


def encode_ns_class(cls: NSClass) -> dict:
    return {"torsion": list(cls.torsion), "hom": list(cls.hom)}


def decode_ns_class(doc: Any, surface: SurfaceData, where: str = "class") -> NSClass:
    body = _expect_map(doc, where)
    torsion = _vector(body.get("torsion"), f"{where}.torsion", _expect_int)
    hom = _vector(body.get("hom"), f"{where}.hom", _expect_int)
    if len(torsion) != surface.torsion_rank:
        raise SchemaError(
            f"{where}: torsion length {len(torsion)} does not match the surface "
            f"(expected {surface.torsion_rank})"
        )
    if len(hom) != surface.lattice.rank:
        raise SchemaError(
            f"{where}: hom length {len(hom)} does not match the lattice rank "
            f"{surface.lattice.rank}"
        )
    return NSClass(torsion, hom)


def encode_chern(cd: ChernData) -> dict:
    return {"c1": encode_ns_class(cd.c1), "c2": cd.c2}


def decode_chern(doc: Any, surface: SurfaceData) -> ChernData:
    body = _expect_map(doc, "chern")
    return ChernData(
        decode_ns_class(body.get("c1"), surface, "chern.c1"),
        _expect_int(body.get("c2"), "chern.c2"),
    )


# ---------------------------------------------------------------------------
# sections, bisections: {"reducible": [s, s]} | {"irreducible": {...}}


def encode_section(s: SectionOfJ) -> dict:
    return {"constant": encode_complex(s.constant.rep), "hom": list(s.hom)}


def decode_section(doc: Any, surface: SurfaceData, where: str = "section") -> SectionOfJ:
    body = _expect_map(doc, where)
    constant = decode_complex(body.get("constant"), f"{where}.constant")
    hom = _vector(body.get("hom", [0] * surface.lattice.rank), f"{where}.hom", _expect_int)
    if len(hom) != surface.lattice.rank:
        raise SchemaError(f"{where}: hom length does not match the lattice rank")
    return SectionOfJ(_domain(where, TatePoint, constant, surface.fibre), hom)


def encode_rational_map(r: RationalMap) -> dict:
    return {
        "num": [encode_complex(c) for c in r.num],
        "den": [encode_complex(c) for c in r.den],
    }


def decode_rational_map(doc: Any, where: str = "trace") -> RationalMap:
    body = _expect_map(doc, where)
    num = _vector(body.get("num"), f"{where}.num", decode_complex)
    den = _vector(body.get("den", [[1.0, 0.0]]), f"{where}.den", decode_complex)
    return _domain(where, RationalMap, num, den)


def encode_bisection(bis: Bisection) -> dict:
    if isinstance(bis, tuple):
        return {"reducible": [encode_section(s) for s in bis]}
    inner: dict[str, Any] = {}
    if bis.trace is not None:
        inner["trace"] = encode_rational_map(bis.trace)
    if bis.branch_points:
        inner["branch_points"] = [encode_complex(p) for p in bis.branch_points]
    if bis.declared_self_intersection is not None:
        inner["declared_self_intersection"] = bis.declared_self_intersection
    if bis.norm is not None:
        inner["norm"] = encode_rational_map(bis.norm)
    return {"irreducible": inner}


def decode_bisection(doc: Any, surface: SurfaceData, where: str = "bisection") -> Bisection:
    body = _expect_map(doc, where)
    if "reducible" in body:
        comps = _expect_list(body["reducible"], f"{where}.reducible")
        if len(comps) != 2:
            raise SchemaError(f"{where}: a reducible bisection has two components")
        return reducible_bisection(
            decode_section(comps[0], surface, f"{where}.reducible[0]"),
            decode_section(comps[1], surface, f"{where}.reducible[1]"),
        )
    if "irreducible" in body:
        inner = _expect_map(body["irreducible"], f"{where}.irreducible")
        trace = None
        if "trace" in inner:
            trace = decode_rational_map(inner["trace"], f"{where}.trace")
        branch = _vector(inner.get("branch_points", []), f"{where}.branch_points", decode_complex)
        declared = inner.get("declared_self_intersection")
        if declared is not None:
            declared = _expect_int(declared, f"{where}.declared_self_intersection")
        norm = None
        if "norm" in inner:
            norm = decode_rational_map(inner["norm"], f"{where}.norm")
        return irreducible_bisection(_domain(where, DoubleCoverData, trace, branch, declared, norm))
    raise SchemaError(f"{where}: expected a 'reducible' or 'irreducible' key")


# ---------------------------------------------------------------------------
# bundles: {"extension": {D, delta, Z, nonsplit_at}} | {"spectral_push":
# {bisection, delta}} | {"elem_mod": {parent, fibre, steps}}


def encode_line_bundle(lb: LineBundleOnX) -> dict:
    doc: dict[str, Any] = {"section": encode_section(lb.section)}
    if lb.base_twist:
        doc["base_twist"] = lb.base_twist
    if lb.fibre_twists:
        doc["fibre_twists"] = list(lb.fibre_twists)
    return doc


def decode_line_bundle(doc: Any, surface: SurfaceData, where: str = "line bundle") -> LineBundleOnX:
    body = _expect_map(doc, where)
    section = decode_section(body.get("section"), surface, f"{where}.section")
    twist = _expect_int(body.get("base_twist", 0), f"{where}.base_twist")
    fibre_twists = _vector(body.get("fibre_twists", []), f"{where}.fibre_twists", _expect_int)
    bundle = LineBundleOnX(section, twist, fibre_twists)
    if fibre_twists:  # chern_class refuses more twists than multiple fibres; none always fit
        _domain(where, bundle.chern_class, surface.torsion_rank)
    return bundle


def encode_bundle(bundle: RankTwoBundle) -> dict:
    root, chain = _unwind(bundle)
    if isinstance(root, ExtensionBundle):
        inner: dict[str, Any] = {
            "D": encode_line_bundle(root.sub),
            "delta": encode_line_bundle(root.determinant),
        }
        if root.zero_cycle:
            inner["Z"] = [[encode_complex(p), n] for p, n in root.zero_cycle]
        if root.nonsplit_at:
            inner["nonsplit_at"] = [encode_complex(p) for p in root.nonsplit_at]
        if root.nonsplit_everywhere:
            inner["nonsplit_everywhere"] = True
        doc = {"extension": inner}
    else:
        push = {"bisection": encode_bisection(root.cover), "delta": encode_line_bundle(root.determinant)}
        doc = {"spectral_push": push}
    for fibre, steps in chain:  # each modification wraps the bundle it modifies
        doc = {"elem_mod": {"parent": doc, "fibre": encode_complex(fibre), "steps": steps}}
    return doc


def decode_bundle(
    doc: Any, surface: SurfaceData, where: str = "bundle", tol: Tolerance = DEFAULT_TOL
) -> RankTwoBundle:
    """The presentation in doc, fit for its surface at tol: each base point
    is a base_point number, each elem_mod fibre is checked as
    elementary_modification does, and last a spectral-push root is checked
    against the surface (check_spectral_push), its ValueError reported at
    where.  A genus-1 zero cycle's points are told apart by class."""
    def point(item: Any, name: str) -> complex:
        return _domain(name, base_point, surface, decode_complex(item, name))

    # peel elem_mod levels down to the root; decode it, then each level innermost first
    top, body = where, _expect_map(doc, where)
    levels = []  # (elem_mod body, where of its bundle), outermost first
    while "elem_mod" in body and "extension" not in body and "spectral_push" not in body:
        inner = _expect_map(body["elem_mod"], f"{where}.elem_mod")
        levels.append((inner, where))
        where = f"{where}.elem_mod.parent"
        body = _expect_map(inner.get("parent"), where)
    if "extension" in body:
        inner = _expect_map(body["extension"], f"{where}.extension")
        cycle = _vector(
            inner.get("Z", []),
            f"{where}.extension.Z",
            lambda item, entry: _pair(
                item, entry, (point, _expect_int), ("cycle point", "cycle length"), "[point, length]"
            ),
        )
        nonsplit = _vector(inner.get("nonsplit_at", []), f"{where}.extension.nonsplit_at", point)
        everywhere = inner.get("nonsplit_everywhere", False)
        if not isinstance(everywhere, bool):
            raise SchemaError(f"{where}.extension.nonsplit_everywhere: expected a boolean")
        sub = decode_line_bundle(inner.get("D"), surface, f"{where}.extension.D")
        determinant = decode_line_bundle(inner.get("delta"), surface, f"{where}.extension.delta")
        # the bundle alone tells its points apart as numbers; a genus-1 surface knows their classes
        if surface.base.genus == 1 and not distinct_base_points(surface, [p for p, _ in cycle]):
            raise SchemaError(f"{where}: zero-cycle points must be distinct")
        root = _domain(where, ExtensionBundle, sub, determinant, cycle, nonsplit, everywhere)
    elif "spectral_push" in body:
        inner = _expect_map(body["spectral_push"], f"{where}.spectral_push")
        root = _domain(
            where,
            SpectralPushBundle,
            cover=decode_bisection(inner.get("bisection"), surface, f"{where}.spectral_push.bisection"),
            determinant=decode_line_bundle(inner.get("delta"), surface, f"{where}.spectral_push.delta"),
        )
    else:
        raise SchemaError(f"{where}: expected an 'extension', 'spectral_push', or 'elem_mod' key")
    check = _domain(where, _modification_check, root, surface, tol) if levels else None
    chain = []
    for inner, at in reversed(levels):
        fibre = point(inner.get("fibre"), f"{at}.elem_mod.fibre")
        steps = _expect_int(inner.get("steps"), f"{at}.elem_mod.steps")
        if steps <= 0:
            raise SchemaError(f"{at}: modification step count must be positive")
        _domain(f"{at}.elem_mod.fibre", check, fibre)
        chain.append((fibre, steps))
    _domain(top, check_spectral_push, root, surface, tol)
    return ElemModBundle(root, chain) if chain else root


# ---------------------------------------------------------------------------
# outward documents: spectral covers, recipes, verdicts


def encode_cover(cover: SpectralCover) -> dict:
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "bisection": encode_bisection(cover.bisection),
        "jump_fibres": [[encode_complex(p), m] for p, m in cover.jump_fibres],
        "dual_determinant": encode_section(cover.dual_determinant),
    }
    if cover.verification_samples:
        doc["verification"] = {
            "samples": cover.verification_samples,
            "max_residual": cover.max_residual,
        }
    return doc


def encode_recipe(recipe: Recipe | None) -> dict | None:
    if recipe is None:
        return None
    return {
        "base": encode_bundle(recipe.base),
        "base_delta": encode_fraction(recipe.base_delta),
        "generic_fibre": encode_complex(recipe.generic_fibre),
        "modification_steps": recipe.modification_steps,
    }


def decode_recipe(doc: Any, surface: SurfaceData) -> Recipe:
    body = _expect_map(doc, "recipe")
    return Recipe(
        base=decode_bundle(body.get("base"), surface, "recipe.base"),
        base_delta=decode_fraction(body.get("base_delta"), "recipe.base_delta"),
        generic_fibre=decode_complex(body.get("generic_fibre"), "recipe.generic_fibre"),
        modification_steps=_expect_int(
            body.get("modification_steps"), "recipe.modification_steps"
        ),
    )


def encode_verdict(verdict: Verdict) -> dict:
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "verdict": verdict.status.value,
        "delta": encode_fraction(verdict.delta),
        "lattice_minimum": encode_fraction(verdict.lattice_minimum),
        "filtrable": verdict.filtrable,
        "recipe": encode_recipe(verdict.recipe),
    }
    if verdict.threshold_interval is not None:
        doc["threshold_interval"] = [
            encode_fraction(verdict.threshold_interval[0]),
            encode_fraction(verdict.threshold_interval[1]),
        ]
    if verdict.d_interval is not None:
        doc["d_interval"] = list(verdict.d_interval)
    if verdict.note:
        doc["note"] = verdict.note
    return doc


def decode_verdict(doc: Any, surface: SurfaceData) -> Verdict:
    body = _expect_map(doc, "verdict")
    check_version(body)
    status = {e.value: e for e in Existence}.get(body.get("verdict"))
    if status is None:
        raise SchemaError("verdict: unknown status value")
    interval = None
    if body.get("threshold_interval") is not None:
        interval = _pair(
            body["threshold_interval"], "threshold_interval", (decode_fraction, decode_fraction)
        )
    d_interval = None
    if body.get("d_interval") is not None:
        d_interval = _pair(body["d_interval"], "d_interval", (_expect_int, _expect_int))
    recipe = None
    if body.get("recipe") is not None:
        recipe = decode_recipe(body["recipe"], surface)
    return Verdict(
        status=status,
        delta=decode_fraction(body.get("delta"), "delta"),
        lattice_minimum=decode_fraction(body.get("lattice_minimum"), "lattice_minimum"),
        filtrable=body.get("filtrable"),
        threshold_interval=interval,
        d_interval=d_interval,
        recipe=recipe,
        note=body.get("note", ""),
    )
