"""End-to-end command-line checks: exit codes, JSON round-trips, overrides.

Every invocation goes through main(argv) in-process; requests are
written to temporary files (or piped through stdin where that path is
under test).
"""

from __future__ import annotations

import contextlib
import enum
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import ellspec.surface as surface_module
from ellspec.bundles import chern_data, elementary_modification
from ellspec.cli import (
    EX_FAILURE,
    EX_NEGATIVE,
    EX_OK,
    EX_SCHEMA,
    EX_UNDECIDED,
    MAX_ENUM_RADIUS,
    MAX_RECIPE_STEPS,
    MAX_VERIFY_SAMPLES,
    _COMMANDS,
    _FLAGS,
    _dump,
    _emit,
    _read_argv,
    _run_one,
    build_parser,
    main,
)
from ellspec.jacobian import DoubleCoverData, RationalMap, irreducible_bisection
from ellspec.schemas import (
    SchemaError,
    decode_bisection,
    decode_bundle,
    decode_fraction,
    decode_recipe,
    decode_section,
    decode_surface,
    decode_verdict,
    encode_bisection,
    encode_chern,
    encode_fraction,
    encode_section,
    encode_verdict,
)
from ellspec.surface import (
    UNIT_LATTICE,
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
    eight_discriminant,
    filtrable_bound,
)
from ellspec.tate import CurveParam, TatePoint, Tolerance, points_equal
from fractions import Fraction

S0 = SurfaceData(BaseCurve(0), CurveParam(4.0))
GOLDEN = Path(__file__).parent / "golden"

G0_SURFACE = {"genus": 0, "tau": [4.0, 0.0], "lattice": {"rank": 0, "gram": []}}
G1_SURFACE = {
    "genus": 1,
    "tau": [3.0, 0.0],
    "sigma": [3.0, 0.0],
    "lattice": {"rank": 1, "gram": [[1]]},
    "hom_exponents": [1],
}
G2_SURFACE = {"genus": 2, "tau": [3.0, 0.0], "lattice": {"rank": 1, "gram": [[4]]}}


def g0_request(c2: int) -> dict:
    return {
        "schema": 1,
        "surface": dict(G0_SURFACE),
        "chern": {"c1": {"torsion": [0], "hom": []}, "c2": c2},
    }


def extension_request(**extension) -> dict:
    return {
        "schema": 1,
        "surface": dict(G0_SURFACE),
        "bundle": {
            "extension": {
                "D": {"section": {"constant": [2.5, 0.0], "hom": []}},
                "delta": {"section": {"constant": [1.0, 0.0], "hom": []}},
                **extension,
            }
        },
    }


def g2_request(c2: int) -> dict:
    return {
        "schema": 1,
        "surface": dict(G2_SURFACE),
        "chern": {"c1": {"torsion": [0], "hom": [1]}, "c2": c2},
    }


def run_cli(tmp_path, capsys, command: str, doc, *flags: str):
    req = tmp_path / "request.json"
    req.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, str(req), *flags])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# -------------------------------------------------------------- verdicts


def test_exists_affirmative(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "exists", g0_request(0))
    assert code == EX_OK
    assert body["verdict"] == "exists"
    assert body["filtrable"] is True
    assert body["delta"] == "0"
    verdict = decode_verdict(body, S0)
    assert encode_verdict(verdict) == body
    assert chern_data(verdict.recipe.realize(), S0) == ChernData(NSClass((0,), ()), 0)


def test_exists_negative(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "exists", g0_request(-1))
    assert code == EX_NEGATIVE
    assert body["verdict"] == "not-exists"
    assert body["recipe"] is None


def test_exists_undecided(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "exists", g2_request(-2))
    assert code == EX_UNDECIDED
    assert body["verdict"] == "unknown"
    assert body["threshold_interval"] == ["0", "1/2"]
    assert body["d_interval"] == [1, 2]
    surface = SurfaceData(BaseCurve(2), CurveParam(3.0), lattice=HomLattice(1, ((Fraction(4),),)))
    assert encode_verdict(decode_verdict(body, surface)) == body


def test_degree_flag_decides(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "exists", g2_request(-2), "--d", "2")
    assert code == EX_OK and body["verdict"] == "exists"
    code, body = run_cli(tmp_path, capsys, "exists", g2_request(-2), "--d", "1")
    assert code == EX_NEGATIVE and body["verdict"] == "not-exists"

    embedded = g2_request(-2)
    embedded["options"] = {"d": 2}
    code, body = run_cli(tmp_path, capsys, "exists", embedded)
    assert code == EX_OK

    overridden = g2_request(-2)
    overridden["options"] = {"d": 2}
    code, body = run_cli(tmp_path, capsys, "exists", overridden, "--d", "1")
    assert code == EX_NEGATIVE  # the flag wins over the embedded option


def test_chern_flag_overrides(tmp_path, capsys):
    doc = {
        "schema": 1,
        "surface": dict(G1_SURFACE),
        "chern": {"c1": {"torsion": [0], "hom": [1]}, "c2": 0},
    }
    code, body = run_cli(tmp_path, capsys, "exists", doc, "--c2", "3")
    assert code == EX_OK
    assert body["delta"] == "7/4"
    code, body = run_cli(
        tmp_path, capsys, "exists", doc, "--c1", '{"torsion":[0],"hom":[2]}'
    )
    assert code == EX_OK
    # the even class folds to the origin, unlike the document's odd one
    assert body["lattice_minimum"] == "0"
    assert body["delta"] == "1"


def test_enum_radius_cross_check(tmp_path, capsys):
    doc = {
        "schema": 1,
        "surface": dict(G1_SURFACE),
        "chern": {"c1": {"torsion": [0], "hom": [3]}, "c2": 2},
    }
    code, body = run_cli(tmp_path, capsys, "exists", doc, "--enum-radius", "6")
    assert code == EX_OK
    assert body["lattice_minimum"] == "1/4"


# --------------------------------------------------------------- recipes


def test_recipe_transcript(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "recipe", g0_request(2))
    assert code == EX_OK
    transcript = body["transcript"]
    assert len(transcript) == 3
    assert transcript[0] == {"c1": {"torsion": [2], "hom": []}, "c2": 0}
    assert transcript[-1] == {"c1": {"torsion": [0], "hom": []}, "c2": 2}
    recipe = decode_recipe(body["recipe"], S0)
    assert chern_data(recipe.realize(), S0) == ChernData(NSClass((0,), ()), 2)


_GRAMS = {
    0: st.just([]),
    1: st.integers(0, 6).map(lambda a: [[a]]),
    2: st.sampled_from([[[4, "1/2"], ["1/2", 3]], [[2, 1], [1, 2]], [[1, 0], [0, 0]], [[1, 1], [1, 1]]]),
}


@st.composite
def _recipe_requests(draw):
    """A recipe request whose verdict carries a recipe, and its step count."""
    genus, rank, fibres = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    surface = {"genus": genus, "tau": [3.0, 0.0], "lattice": {"rank": rank, "gram": draw(_GRAMS[rank])}}
    if genus == 1:
        surface["sigma"] = [0.0, 2.0]
    if fibres:
        surface["multiple_fibres"] = [[[0.25 + k, -0.5], 2 + k] for k in range(fibres)]
    decoded = decode_surface(surface)
    c1 = NSClass(
        tuple(draw(st.integers(-3, 3)) for _ in range(1 + fibres)),
        tuple(draw(st.integers(-4, 4)) for _ in range(rank)),
    )
    steps = draw(st.integers(0, 4))
    # 8 Delta rises by 4 with c2: pick c2 for 8 Delta = 8m + 4 steps
    m, _ = filtrable_bound(c1, decoded.lattice)
    c2, rem = divmod(int(8 * m) + 4 * steps - eight_discriminant(ChernData(c1, 0), decoded.lattice), 4)
    assume(not rem)
    chern = {"c1": {"torsion": list(c1.torsion), "hom": list(c1.hom)}, "c2": c2}
    return {"schema": 1, "surface": surface, "chern": chern}, steps


@settings(max_examples=150, deadline=None)
@given(request=_recipe_requests())
def test_transcript_runs_from_the_base_to_the_request(request):
    doc, steps = request
    event("no steps" if steps == 0 else "steps")
    body, code, _ = _run_one(_COMMANDS["recipe"], doc, _read_argv(["recipe"]))
    assert code == EX_OK, body
    surface = decode_surface(doc["surface"])
    recipe = decode_recipe(body["recipe"], surface)
    assert recipe.modification_steps == steps
    transcript = body["transcript"]
    assert len(transcript) == steps + 1
    assert transcript[0] == encode_chern(chern_data(recipe.base, surface))
    assert transcript[-1] == doc["chern"]


def test_recipe_builds_few_fractions(monkeypatch, capsys):
    # each transcript step is checked on 8 Delta in integers; checking it
    # with Fractions built 31 of them for this two-step recipe
    request = GOLDEN / "recipe-g0-transcript.request.json"
    calls = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda *a, **k: calls.append(1) or new(*a, **k)))
    assert main(["recipe", str(request)]) == EX_OK
    monkeypatch.undo()
    assert capsys.readouterr().out == (GOLDEN / "recipe-g0-transcript.reply.json").read_text(encoding="utf-8")
    assert len(calls) <= 10


@pytest.mark.parametrize("c2", [MAX_RECIPE_STEPS + 1, 80_000, 10**400])
def test_recipe_over_the_step_cap_is_a_schema_error(tmp_path, capsys, c2):
    # on this surface a recipe for c2 takes c2 modification steps
    start = time.perf_counter()
    code, body = run_cli(tmp_path, capsys, "recipe", g0_request(c2))
    assert time.perf_counter() - start < 1.0
    assert code == EX_SCHEMA
    assert f"cap of {MAX_RECIPE_STEPS}" in body["error"]


def test_recipe_at_the_step_cap_is_built(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "recipe", g0_request(MAX_RECIPE_STEPS))
    assert code == EX_OK
    assert body["recipe"]["modification_steps"] == MAX_RECIPE_STEPS
    assert len(body["transcript"]) == MAX_RECIPE_STEPS + 1


def test_recipe_refuses_negative(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "recipe", g0_request(-2))
    assert code == EX_NEGATIVE
    assert "no construction" in body["error"]


# -------------------------------------------------------- spectral cover


def test_spectral_cover_reducible(tmp_path, capsys):
    doc = {
        "schema": 1,
        "surface": dict(G0_SURFACE),
        "bundle": {
            "extension": {
                "D": {"section": {"constant": [2.5, 0.0], "hom": []}},
                "delta": {"section": {"constant": [1.0, 0.0], "hom": []}},
                "Z": [[[0.5, 0.0], 1]],
            }
        },
    }
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_OK
    assert body["jump_fibres"] == [[[0.5, 0.0], 1]]
    assert body["verification"]["samples"] == 50
    assert body["verification"]["max_residual"] < 1e-8
    bisection = decode_bisection(body["bisection"], S0)
    constants = sorted(s.constant.rep.real for s in bisection)
    # 1/2.5 re-enters the annulus as 1.6
    assert constants == pytest.approx([1.6, 2.5])
    assert encode_bisection(bisection) == body["bisection"]


def test_spectral_cover_irreducible_roundtrip(tmp_path, capsys):
    doc = {
        "schema": 1,
        "surface": dict(G0_SURFACE),
        "bundle": {
            "spectral_push": {
                "bisection": {
                    "irreducible": {
                        "trace": {"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}
                    }
                },
                "delta": {"section": {"constant": [2.0, 0.0], "hom": []}},
            }
        },
    }
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc, "--verify", "30")
    assert code == EX_OK
    inner = body["bisection"]["irreducible"]
    assert inner["trace"]["num"] == [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    assert inner["norm"]["num"] == [[0.5, 0.0]]
    assert body["verification"]["max_residual"] < 1e-8
    dual = decode_section(body["dual_determinant"], S0)
    assert points_equal(dual.constant, TatePoint(0.5, CurveParam(4.0)))
    assert encode_section(dual) == body["dual_determinant"]
    assert encode_bisection(decode_bisection(body["bisection"], S0)) == body["bisection"]


def test_declared_cover_from_a_fraction_is_written_as_an_integer():
    # an integral Fraction is stored as an int, which the reply writer takes
    bisection = irreducible_bisection(DoubleCoverData(declared_self_intersection=Fraction(3)))
    text = emitted(encode_bisection(bisection))
    assert text == json.dumps({"irreducible": {"declared_self_intersection": 3}}, indent=2) + "\n"


@pytest.mark.parametrize("declared", [Fraction(3, 2), 3.0, True, "3"])
def test_declared_self_intersection_must_be_an_integer(declared):
    with pytest.raises(ValueError):
        DoubleCoverData(declared_self_intersection=declared)


def golden_push(norm=None, hom=None) -> dict:
    """The golden spectral-cover-irreducible request, with a norm map or a
    determinant hom part (on a rank-1 lattice) added."""
    doc = json.loads((GOLDEN / "spectral-cover-irreducible.request.json").read_text(encoding="utf-8"))
    push = doc["bundle"]["spectral_push"]
    if norm is not None:
        push["bisection"]["irreducible"]["norm"] = {"num": norm}
    if hom is not None:
        doc["surface"]["lattice"] = {"rank": len(hom), "gram": [[1]]}
        push["delta"]["section"]["hom"] = hom
    return doc


@pytest.mark.parametrize(
    "doc, error",
    [
        (golden_push(norm=[[2.5, 0]]), "bundle: bisection is not invariant under the involution"),
        (golden_push(norm=[[0, 0], [2.5, 0]]), "bundle: bisection is not invariant under the involution"),
        (golden_push(hom=[1]), "bundle: over a rational base the determinant section is constant"),
        (
            dict(
                golden_push(),
                bundle={
                    "elem_mod": {"parent": golden_push(norm=[[2.5, 0]])["bundle"], "fibre": [0.4, 0.3], "steps": 1}
                },
            ),
            "bundle: bisection is not invariant under the involution",
        ),
    ],
    ids=[
        "norm-other-class",
        "norm-not-constant",
        "rational-hom-determinant",
        "elem-mod-over-norm-other-class",
    ],
)
def test_push_that_does_not_fit_its_surface_is_a_schema_error(tmp_path, capsys, doc, error):
    # decided once, at the request's tol, before any fibre is sampled
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_SCHEMA
    assert body == {"schema": 1, "error": error, "exit_code": EX_SCHEMA}


# a declared cover over a rational base, which has no trace map to evaluate there
DECLARED_RATIONAL_PUSH = {
    "schema": 1,
    "surface": {"genus": 0, "tau": [3, 0], "lattice": {"rank": 0, "gram": []}},
    "bundle": {
        "spectral_push": {
            "bisection": {"irreducible": {}},
            "delta": {"section": {"constant": [1.5, 0.2], "hom": []}},
        }
    },
}


@pytest.mark.parametrize("flags", [(), ("--verify", "50")], ids=["cover", "verified-cover"])
def test_rational_push_on_a_declared_cover_is_a_schema_error(tmp_path, capsys, flags):
    # verifying it once failed at the first fibre and exited 70
    code, body = run_cli(tmp_path, capsys, "spectral-cover", DECLARED_RATIONAL_PUSH, *flags)
    assert code == EX_SCHEMA
    assert body == {
        "schema": 1,
        "error": "bundle: over a rational base the bisection needs a trace map, not a declared cover",
        "exit_code": EX_SCHEMA,
    }


def pair_push() -> dict:
    """The golden push request with its cover replaced by a pair of sections."""
    doc = golden_push()
    sections = [{"constant": [2.5, 0.0], "hom": []}, {"constant": [0.4, 0.0], "hom": []}]
    doc["bundle"]["spectral_push"]["bisection"] = {"reducible": sections}
    return doc


@pytest.mark.parametrize(
    "command, doc, error",
    [
        ("spectral-cover", pair_push(), "bundle: spectral push bundles need an irreducible bisection"),
        ("exists", dict(g2_request(-2), d="2"), "d: expected an integer"),
    ],
    ids=["push-on-a-pair-of-sections", "top-level-d-not-an-integer"],
)
def test_a_bisection_or_degree_of_the_wrong_type_is_a_schema_error(tmp_path, capsys, command, doc, error):
    req = tmp_path / "request.json"
    req.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(req)]) == EX_SCHEMA
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"schema": 1, "error": error, "exit_code": EX_SCHEMA}
    assert captured.err == f"error: {error}\n"


def wrapped(doc: dict) -> dict:
    """doc with its bundle under one elem_mod level."""
    return dict(doc, bundle={"elem_mod": {"parent": doc["bundle"], "fibre": [0.4, 0.3], "steps": 1}})


@pytest.mark.parametrize(
    "doc, error",
    [
        (DECLARED_RATIONAL_PUSH, "bundle: over a rational base the bisection needs a trace map, not a declared cover"),
        (golden_push(hom=[1]), "bundle: over a rational base the determinant section is constant"),
        (
            wrapped(DECLARED_RATIONAL_PUSH),
            "bundle: over a rational base the bisection needs a trace map, not a declared cover",
        ),
        # the modification check finds the misfit first, at the root's path
        (
            wrapped(golden_push(hom=[1])),
            "bundle.elem_mod.parent: over a rational base the determinant section is constant",
        ),
    ],
    ids=["declared-cover", "rational-hom-determinant", "elem-mod-over-declared-cover", "elem-mod-over-hom-determinant"],
)
def test_the_decoder_refuses_a_push_that_does_not_fit_its_surface(tmp_path, capsys, doc, error):
    # the fit is decided where the bundle is decoded, with the text the command line prints
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_SCHEMA
    assert body["error"] == error
    surface = decode_surface(doc["surface"])
    with pytest.raises(SchemaError) as refused:
        decode_bundle(doc["bundle"], surface)
    assert str(refused.value) == body["error"]
    recipe = {"base": doc["bundle"], "base_delta": "1/2", "generic_fibre": [0.3, 0.1], "modification_steps": 0}
    with pytest.raises(SchemaError) as refused:
        decode_recipe(recipe, surface)
    assert str(refused.value) == "recipe.base" + error.removeprefix("bundle")


def test_a_line_bundle_with_more_fibre_twists_than_multiple_fibres_is_a_schema_error(tmp_path, capsys):
    # the surface has no multiple fibre; the cover was once answered in full
    doc = json.loads((GOLDEN / "spectral-cover-reducible.request.json").read_text(encoding="utf-8"))
    doc["bundle"]["extension"]["D"]["fibre_twists"] = [1, 2, 3]
    error = "more fibre twists than the surface has multiple fibres"
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_SCHEMA
    assert body == {"schema": 1, "error": f"bundle.extension.D: {error}", "exit_code": EX_SCHEMA}
    recipe = {"base": doc["bundle"], "base_delta": "1/2", "generic_fibre": [0.3, 0.1], "modification_steps": 0}
    with pytest.raises(SchemaError) as refused:
        decode_recipe(recipe, decode_surface(doc["surface"]))
    assert str(refused.value) == f"recipe.base.extension.D: {error}"


def test_push_with_a_given_norm_verifies(tmp_path, capsys):
    # the norm 4.5 = 3 * 1.5 lies in the determinant's class off its
    # representative; the dual cover divides by the norm the push carries
    doc = {
        "schema": 1,
        "surface": {"genus": 0, "tau": [3.0, 0.0], "lattice": {"rank": 0, "gram": []}},
        "bundle": {
            "spectral_push": {
                "bisection": {
                    "irreducible": {
                        "trace": {"num": [[0.3, 0], [0.2, 0], [1.0, 0]]},
                        "norm": {"num": [[4.5, 0]]},
                    }
                },
                "delta": {"section": {"constant": [1.5, 0.0], "hom": []}},
            }
        },
    }
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc, "--verify", "50")
    assert code == EX_OK, body
    assert body["verification"]["max_residual"] < 1e-8
    assert body["bisection"]["irreducible"]["norm"]["num"] == [[1 / 4.5, 0.0]]


# ----------------------------------------------------- small calculators


def test_intersect(tmp_path, capsys):
    doc = {
        "schema": 1,
        "surface": dict(G1_SURFACE),
        "classes": [
            {"torsion": [0], "hom": [1]},
            {"torsion": [0], "hom": [1]},
        ],
    }
    code, body = run_cli(tmp_path, capsys, "intersect", doc)
    assert code == EX_OK
    assert body["pairing"] == -2
    assert body["self_intersections"] == [-2, -2]


def test_genus(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "genus", g0_request(1))
    assert code == EX_OK
    assert body["genus"] == 1
    assert body["branch_count"] == 4


def test_check_suite(tmp_path, capsys):
    doc = {"schema": 1, "surface": dict(G1_SURFACE)}
    code, body = run_cli(tmp_path, capsys, "check", doc, "--enum-radius", "4")
    assert code == EX_OK
    assert body["passed"] is True
    names = [c["name"] for c in body["checks"]]
    assert "hurwitz-identity" in names
    assert "lattice-minimum-enumeration" in names
    assert all(c["passed"] for c in body["checks"])


@pytest.mark.parametrize("tau", [1.001, 1.003, 1.01, -1.001, 1e10])
def test_check_passes_near_and_far_from_the_unit_circle(tau, tmp_path, capsys):
    # near |tau| = 1 the q-series would need thousands of terms; at
    # |tau| = 1e10 rounding alone moves an involuted section by about 1e-6
    doc = json.loads((GOLDEN / "check-g3-seed.request.json").read_text(encoding="utf-8"))
    doc["surface"]["tau"] = [tau, 0.0]
    for seed in ("1", "3"):
        start = time.perf_counter()
        code, body = run_cli(tmp_path, capsys, "check", doc, "--seed", seed)
        assert time.perf_counter() - start < 1.0
        assert code == EX_OK, body


# ----------------------------------------------------------- exit codes


def test_schema_violations(tmp_path, capsys):
    no_version = g0_request(0)
    del no_version["schema"]
    code, body = run_cli(tmp_path, capsys, "exists", no_version)
    assert code == EX_SCHEMA and "schema" in body["error"]

    shallow_tau = g0_request(0)
    shallow_tau["surface"] = dict(G0_SURFACE, tau=[0.5, 0.0])
    code, body = run_cli(tmp_path, capsys, "exists", shallow_tau)
    assert code == EX_SCHEMA

    bad_class = g0_request(0)
    bad_class["chern"]["c1"]["torsion"] = [0, 0]
    code, body = run_cli(tmp_path, capsys, "exists", bad_class)
    assert code == EX_SCHEMA

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    assert main(["exists", str(garbage)]) == EX_SCHEMA
    capsys.readouterr()


def test_validation_error_exit(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "exists", g2_request(-2), "--d", "5")
    assert code == EX_FAILURE
    assert body["exit_code"] == EX_FAILURE
    assert "admissible window" in body["error"]


def test_non_finite_json_rejected(tmp_path, capsys):
    for tau in ("Infinity", "-Infinity", "NaN", "1e999"):
        req = tmp_path / "request.json"
        req.write_text(
            json.dumps(g0_request(0)).replace("[4.0, 0.0]", f"[{tau}, 0]"), encoding="utf-8"
        )
        assert main(["exists", str(req)]) == EX_SCHEMA, tau
        captured = capsys.readouterr()
        assert captured.out == "" and "not valid JSON" in captured.err
    req.write_text(
        json.dumps(g0_request(0)).replace('"c2": 0', '"c2": ' + "9" * 5000), encoding="utf-8"
    )
    assert main(["exists", str(req)]) == EX_SCHEMA  # longer than int() converts
    capsys.readouterr()
    code, body = run_cli(
        tmp_path, capsys, "exists", g2_request(0), "--c1", '{"torsion":[0],"hom":[NaN]}'
    )
    assert code == EX_SCHEMA and "--c1 is not valid JSON" in body["error"]
    # an integer JSON reads exactly but no float holds: a schema error naming its field
    huge = [10**400, 0]
    section = {"section": {"constant": huge, "hom": []}}
    push = {"bisection": {"irreducible": {"trace": {"num": [huge]}}}, "delta": section}
    for command, doc, field in (
        ("exists", dict(g0_request(0), surface=dict(G0_SURFACE, tau=huge)), "surface.tau"),
        ("exists", dict(g2_request(0), surface=dict(G1_SURFACE, sigma=huge)), "surface.sigma"),
        (
            "exists",
            dict(g0_request(0), surface=dict(G0_SURFACE, multiple_fibres=[[huge, 2]])),
            "multiple fibre point",
        ),
        ("spectral-cover", extension_request(D=section), "extension.D.section.constant"),
        ("spectral-cover", extension_request(Z=[[huge, 1]]), "cycle point"),
        (
            "spectral-cover",
            dict(extension_request(), bundle={"spectral_push": push}),
            "trace.num entry",
        ),
    ):
        code, body = run_cli(tmp_path, capsys, command, doc)
        assert code == EX_SCHEMA and field in body["error"], (field, body)
        assert "too large" in body["error"]


def test_nonsplit_everywhere_must_be_boolean(tmp_path, capsys):
    for flag in (True, False):
        code, body = run_cli(
            tmp_path, capsys, "spectral-cover", extension_request(nonsplit_everywhere=flag)
        )
        assert code == EX_OK
    for flag in ("no", "false", 1, [0], None):
        code, body = run_cli(
            tmp_path, capsys, "spectral-cover", extension_request(nonsplit_everywhere=flag)
        )
        assert code == EX_SCHEMA, flag
        assert "nonsplit_everywhere: expected a boolean" in body["error"]


@pytest.mark.parametrize(
    "options, flags",
    [
        ({"seed": "abc"}, ()),
        ({"seed": True}, ()),
        ({"seed": 1.5}, ()),
        ({"tol": -1}, ()),
        ({"tol": 0}, ()),
        ({"tol": "1e-9"}, ()),
        ({"tol": False}, ()),
        ({}, ("--tol", "nan")),
        ({}, ("--tol", "inf")),
        ({"verify": 0}, ()),
        ({}, ("--verify", "-3")),
        ({"enum_radius": -1}, ()),
        ({"d": True}, ()),
        ({"tol": 10**400}, ()),
    ],
)
def test_bad_options_are_schema_errors(tmp_path, capsys, options, flags):
    # every command checks its options before any work
    for command in COMMANDS:
        doc = g2_request(0)
        doc["options"] = options
        code, body = run_cli(tmp_path, capsys, command, doc, *flags)
        assert code == EX_SCHEMA, command
        assert body["exit_code"] == EX_SCHEMA and body["error"].startswith("options."), command


def test_the_largest_finite_tol_is_answered(tmp_path, capsys):
    # radii derived from tol (ten and a hundred times it) overflow to
    # infinity there, and a Tolerance rejects a non-finite eps
    for name, command in (("check-g1-enum", "check"), ("spectral-cover-irreducible", "spectral-cover")):
        doc = json.loads((GOLDEN / f"{name}.request.json").read_text(encoding="utf-8"))
        code, body = run_cli(tmp_path, capsys, command, doc, "--tol", repr(sys.float_info.max))
        assert code == EX_OK, body


COMMANDS = ("exists", "recipe", "spectral-cover", "intersect", "genus", "check")

# one request every command answers with exit 0: a rank-2 genus-1 surface,
# where the brute-force cube holds (2r+1)^2 points, with a bundle to verify
CAPPED_REQUEST = {
    "schema": 1,
    "surface": {
        "genus": 1,
        "tau": [3.0, 0.0],
        "sigma": [3.0, 0.0],
        "lattice": {"rank": 2, "gram": [[2, 0], [0, 1]]},
        "hom_exponents": [1, 0],
    },
    "chern": {"c1": {"torsion": [0], "hom": [1, 1]}, "c2": 3},
    "classes": [{"torsion": [0], "hom": [1, 0]}, {"torsion": [0], "hom": [0, 1]}],
    "bundle": {
        "extension": {
            "D": {"section": {"constant": [1.5, 0.5], "hom": [1, 0]}},
            "delta": {"section": {"constant": [2.0, -0.3], "hom": [1, 1]}},
            "Z": [[[1.7, 0.4], 1]],
        }
    },
}


@pytest.mark.parametrize(
    "key, flag, cap",
    [("verify", "--verify", MAX_VERIFY_SAMPLES), ("enum_radius", "--enum-radius", MAX_ENUM_RADIUS)],
)
def test_options_over_their_cap_are_schema_errors(tmp_path, capsys, key, flag, cap):
    for command in COMMANDS:
        for options, flags in (({key: cap + 1}, ()), ({}, (flag, str(cap + 1))), ({key: 10**400}, ())):
            doc = dict(CAPPED_REQUEST, options=options)
            start = time.perf_counter()
            code, body = run_cli(tmp_path, capsys, command, doc, *flags)
            assert time.perf_counter() - start < 1.0, (command, options, flags)
            assert code == EX_SCHEMA, (command, options, flags)
            assert body["error"] == f"options.{key}: exceeds the cap of {cap}"


def test_options_at_their_cap_are_accepted(tmp_path, capsys):
    doc = dict(CAPPED_REQUEST, options={"verify": MAX_VERIFY_SAMPLES, "enum_radius": MAX_ENUM_RADIUS})
    bodies = {}
    for command in COMMANDS:
        code, bodies[command] = run_cli(tmp_path, capsys, command, doc)
        assert code == EX_OK, (command, bodies[command])
    assert bodies["spectral-cover"]["verification"]["samples"] == MAX_VERIFY_SAMPLES
    enumeration = {"name": "lattice-minimum-enumeration", "passed": True, "detail": "radius 200"}
    assert enumeration in bodies["check"]["checks"]


@pytest.mark.parametrize(
    "argv",
    [
        ("exists", "REQUEST", "--tol", "abc"),
        ("exists", "REQUEST", "--bogus"),
        ("nope", "REQUEST"),
        (),
    ],
)
def test_bad_command_line_is_a_schema_error(tmp_path, capsys, argv):
    req = tmp_path / "request.json"
    req.write_text(json.dumps(g2_request(0)), encoding="utf-8")
    assert main([str(req) if a == "REQUEST" else a for a in argv]) == EX_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ellspec")
    with pytest.raises(SystemExit) as exc:
        main(["exists", "--help"])
    assert exc.value.code == 0
    assert "usage: ellspec exists" in capsys.readouterr().out


def test_deeply_nested_json_is_a_schema_error(tmp_path, capsys):
    deep = "[" * 1200 + "]" * 1200
    req = tmp_path / "request.json"
    req.write_text(deep, encoding="utf-8")
    assert main(["exists", str(req)]) == EX_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == "" and "input is not valid JSON" in captured.err
    code, body = run_cli(tmp_path, capsys, "exists", g2_request(0), "--c1", deep)
    assert code == EX_SCHEMA and "--c1 is not valid JSON" in body["error"]


def g1_extension_request(**extension) -> dict:
    doc = extension_request(**extension)
    doc["surface"] = dict(G1_SURFACE)
    for part in ("D", "delta"):
        doc["bundle"]["extension"][part]["section"]["hom"] = [0]
    return doc


def g1_fibred_request(command: str, fibres: list) -> dict:
    surface = dict(G1_SURFACE, multiple_fibres=fibres)
    c1 = {"torsion": [0] * (1 + len(fibres)), "hom": [1]}
    if command == "intersect":
        return {"schema": 1, "surface": surface, "classes": [c1, c1]}
    return {"schema": 1, "surface": surface, "chern": {"c1": c1, "c2": 1}}


# 1.4+0.1i and 4.2+0.3i = sigma (1.4+0.1i) are one point of the base C*/<3>
SAME_CLASS = [[1.4, 0.1], [4.2, 0.3]]


@pytest.mark.parametrize(
    "command, doc, error",
    [
        (
            "spectral-cover",
            g1_extension_request(Z=[[SAME_CLASS[0], 1], [SAME_CLASS[1], 1]]),
            "bundle: zero-cycle points must be distinct",
        ),
        (
            # off genus 1 numbers are points, and the extension itself tells them apart
            "spectral-cover",
            extension_request(Z=[[[0.5, 0.0], 1], [[0.5, 5e-10], 2]]),
            "bundle: zero-cycle points must be distinct",
        ),
        (
            "exists",
            g1_fibred_request("exists", [[SAME_CLASS[0], 2], [SAME_CLASS[1], 3]]),
            "surface: multiple fibres must sit over distinct base points",
        ),
        ("exists", g1_fibred_request("exists", [[[0, 0], 2]]), "surface: multiple fibre point: points"),
        ("intersect", g1_fibred_request("intersect", [[[0, 0], 2]]), "surface: multiple fibre point: points"),
        ("intersect", g1_fibred_request("intersect", [["inf", 2]]), "surface: multiple fibre point: points"),
        ("spectral-cover", g1_extension_request(Z=[[[0, 0], 1]]), "cycle point: points"),
        (
            "spectral-cover",
            g1_extension_request(nonsplit_at=[[0, 0]]),
            "bundle.extension.nonsplit_at entry: points",
        ),
        (
            "spectral-cover",
            dict(
                g1_extension_request(),
                bundle={"elem_mod": {"parent": g1_extension_request()["bundle"], "fibre": [0, 0], "steps": 1}},
            ),
            "bundle.elem_mod.fibre: points",
        ),
    ],
    ids=[
        "cycle-same-class",
        "cycle-near-g0",
        "fibres-same-class",
        "fibre-zero-exists",
        "fibre-zero-intersect",
        "fibre-inf-intersect",
        "cycle-zero",
        "nonsplit-zero",
        "elem-mod-zero",
    ],
)
def test_genus_one_base_points_are_classes(tmp_path, capsys, command, doc, error):
    code, body = run_cli(tmp_path, capsys, command, doc)
    assert code == EX_SCHEMA
    assert body["exit_code"] == EX_SCHEMA and body["error"].startswith(error), body


@pytest.mark.parametrize(
    "doc",
    [
        g1_extension_request(Z=[[[5e-324, 0], 1]]),
        g1_extension_request(D={"section": {"constant": [5e-324, 0], "hom": [0]}}),
        g1_extension_request(Z=[[[-1.7e308, 1e308], 1]]),
    ],
    ids=["subnormal-cycle-point", "subnormal-constant", "huge-cycle-point"],
)
def test_extreme_finite_points_are_answered(tmp_path, capsys, doc):
    # each number has a class on C*/<3>; the reduction into the annulus must
    # not overflow on the way there
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_OK, body
    assert body["verification"]["samples"] == 50


@pytest.mark.parametrize("hom", [1000, -1000000, -1444, -1185, 657, 1185, 1443])
def test_huge_hom_exponents_are_answered(tmp_path, capsys, hom):
    # the power of a sampled base point, or of the dual section's x**-hom,
    # leaves the float range, is subnormal (-1444, 1443) or overflows once
    # multiplied by the constant (-1185, 657, 1185); its class is reached
    # through exp log x, where keeping the power exited 70
    doc = json.loads((GOLDEN / "spectral-cover-g1-elem-mod-verify.request.json").read_text(encoding="utf-8"))
    doc["bundle"]["elem_mod"]["parent"]["extension"]["D"]["section"]["hom"] = [hom]
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_OK, body
    assert body["verification"]["samples"] == 50


def test_point_at_infinity_is_one_point(tmp_path, capsys):
    code, body = run_cli(tmp_path, capsys, "spectral-cover", extension_request(Z=[["inf", 1], ["inf", 1]]))
    assert code == EX_SCHEMA and body["error"] == "bundle: zero-cycle points must be distinct"
    parent = extension_request(Z=[["inf", 1]])["bundle"]
    modified = {"elem_mod": {"parent": parent, "fibre": "inf", "steps": 1}}
    code, body = run_cli(tmp_path, capsys, "spectral-cover", dict(extension_request(), bundle=modified))
    assert code == EX_OK and body["jump_fibres"] == [["inf", 2]]


def test_same_class_modified_fibres_merge(tmp_path, capsys):
    parent = g1_extension_request()["bundle"]
    once = {"elem_mod": {"parent": parent, "fibre": SAME_CLASS[0], "steps": 1}}
    twice = {"elem_mod": {"parent": once, "fibre": SAME_CLASS[1], "steps": 2}}
    code, body = run_cli(tmp_path, capsys, "spectral-cover", dict(g1_extension_request(), bundle=twice))
    assert code == EX_OK
    assert body["jump_fibres"] == [[SAME_CLASS[0], 3]]


def test_deep_modification_chain_is_answered_in_bounded_time(tmp_path, capsys):
    # 300 nested modifications of the golden genus-1 extension, each at a
    # fibre of its own; merging every jump fibre again at every level of
    # the chain once took 11 s
    doc = json.loads((GOLDEN / "spectral-cover-g1-elem-mod-verify.request.json").read_text(encoding="utf-8"))
    bundle = doc["bundle"]["elem_mod"]["parent"]
    fibres = [[1.2 + 0.001 * i, 0.4] for i in range(300)]
    for fibre in fibres:
        bundle = {"elem_mod": {"parent": bundle, "fibre": fibre, "steps": 1}}
    doc.update(bundle=bundle, options={"verify": 5})
    start = time.perf_counter()
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert time.perf_counter() - start < 3.0
    assert code == EX_OK, body
    assert body["jump_fibres"] == [[[1.7, 0.4], 1]] + [[fibre, 1] for fibre in fibres]
    assert body["verification"]["samples"] == 5


# an extension and a push (trace b, delta 1, branched over b = +-2) on the
# genus-0 surface, and that surface with a multiple fibre at 0.3
_G0_EXTENSION = extension_request()["bundle"]
_G0_PUSH = {
    "spectral_push": {
        "bisection": {"irreducible": {"trace": {"num": [[0, 0], [1, 0]], "den": [[1, 0]]}}},
        "delta": {"section": {"constant": [1.0, 0.0], "hom": []}},
    }
}
_G0_FIBRED = dict(G0_SURFACE, multiple_fibres=[[[0.3, 0.0], 2]])


@pytest.mark.parametrize(
    "surface, root, fibre, tol, error",
    [
        (_G0_FIBRED, _G0_EXTENSION, [0.3, 0.0], 1e-9, "cannot modify along a multiple fibre"),
        (_G0_FIBRED, _G0_EXTENSION, [0.45, 0.0], 0.3, "cannot modify along a multiple fibre"),
        (G0_SURFACE, _G0_PUSH, [2.0, 0.0], 1e-9, "cannot modify along a branch fibre of the cover"),
    ],
    ids=["multiple-fibre", "multiple-fibre-at-the-request-tol", "branch-fibre"],
)
def test_a_decoded_chain_is_refused_where_the_library_refuses(tmp_path, capsys, surface, root, fibre, tol, error):
    # the decoder checks each modified fibre as elementary_modification
    # does, at the request's tol
    bundle = {"elem_mod": {"parent": root, "fibre": fibre, "steps": 1}}
    doc = {"schema": 1, "surface": surface, "bundle": bundle, "options": {"tol": tol, "verify": 5}}
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_SCHEMA
    assert body["error"] == f"bundle.elem_mod.fibre: {error}"
    decoded = decode_surface(surface)
    with pytest.raises(ValueError, match=error):
        elementary_modification(decode_bundle(root, decoded), complex(*fibre), 1, decoded, Tolerance(tol))


def test_a_push_with_no_branch_points_takes_no_modification(tmp_path, capsys):
    # an infinite trace coefficient leaves no branch points to avoid: the
    # library refuses to modify the push, and the decoder names its root
    push = json.loads(json.dumps(_G0_PUSH))
    push["spectral_push"]["bisection"]["irreducible"]["trace"]["num"][1] = "inf"
    doc = {"schema": 1, "surface": G0_SURFACE, "bundle": {"elem_mod": {"parent": push, "fibre": [0.5, 0.0], "steps": 1}}}
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_SCHEMA
    assert body["error"] == "bundle.elem_mod.parent: cover coefficients leave the floating-point range"
    with pytest.raises(ValueError, match="cover coefficients leave the floating-point range"):
        elementary_modification(decode_bundle(push, S0), 0.5, 1, S0)


LONG = 20_000


@pytest.mark.parametrize("part", ["Z", "nonsplit_at", "multiple_fibres"])
def test_request_work_is_linear_in_list_length(tmp_path, capsys, monkeypatch, part):
    # the golden genus-1 extension with 20,000 cycle points, marks or
    # multiple fibres, verified at the most fibres a request may ask for;
    # base-point identity is decided by lookups, so the exact predicate
    # runs a bounded number of times per point and per fibre
    points = [[1.2 + 0.0005 * i, 0.45] for i in range(LONG)]
    doc = json.loads((GOLDEN / "spectral-cover-g1-elem-mod-verify.request.json").read_text(encoding="utf-8"))
    extension = doc["bundle"]["elem_mod"]["parent"]["extension"]
    if part == "Z":
        extension["Z"] = [[p, 1] for p in points]
    elif part == "nonsplit_at":
        extension["nonsplit_at"] = points
    else:
        doc["surface"]["multiple_fibres"] = [[p, 2] for p in points]
    doc["options"] = {"verify": MAX_VERIFY_SAMPLES, "seed": 5}
    calls = []
    predicate = surface_module._same_base_number
    monkeypatch.setattr(surface_module, "_same_base_number", lambda *args: calls.append(1) or predicate(*args))
    start = time.perf_counter()
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    elapsed = time.perf_counter() - start
    assert code == EX_OK, body
    assert body["verification"]["samples"] == MAX_VERIFY_SAMPLES
    assert len(calls) <= 4 * (LONG + MAX_VERIFY_SAMPLES)
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "name, indexes, adds, normalised, extra_point",
    [
        # a push under two modifications: the modification check, the
        # plan and the sampler's clearance index
        ("spectral-cover-g0-push-chain-verify", 3, 4, 4, None),
        # an extension with a zero cycle and a mark, under a modification
        ("spectral-cover-g1-elem-mod-verify", 3, 5, 6, None),
        # the same with a second cycle point: the decoder tells the points
        # apart by class and the record by number, each from numbers it has
        ("spectral-cover-g1-elem-mod-verify", 5, 11, 8, [[0.6, -0.9], 1]),
    ],
    ids=[
        "spectral-cover-g0-push-chain-verify-3-4-4",
        "spectral-cover-g1-elem-mod-verify-3-5-6",
        "spectral-cover-g1-elem-mod-verify-two-cycle-points",
    ],
)
def test_a_verified_cover_request_files_each_point_once(
    tmp_path, capsys, monkeypatch, name, indexes, adds, normalised, extra_point
):
    # one plan per request serves jump merging and fibre restriction: the
    # same points are not normalised and filed again for each
    calls = {"index": 0, "add": 0, "base_point": 0}

    def counted(key, f):
        return lambda *args: calls.__setitem__(key, calls[key] + 1) or f(*args)

    monkeypatch.setattr(surface_module._BaseIndex, "__init__", counted("index", surface_module._BaseIndex.__init__))
    monkeypatch.setattr(surface_module._BaseIndex, "add", counted("add", surface_module._BaseIndex.add))
    base_point = surface_module.base_point
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "ellspec"]:
        if getattr(module, "base_point", None) is base_point:
            monkeypatch.setattr(module, "base_point", counted("base_point", base_point))
    doc = json.loads((GOLDEN / f"{name}.request.json").read_text(encoding="utf-8"))
    if extra_point:
        doc["bundle"]["elem_mod"]["parent"]["extension"]["Z"].append(extra_point)
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc)
    assert code == EX_OK and body["verification"]["samples"] == 50
    assert calls == {"index": indexes, "add": adds, "base_point": normalised}


def test_a_verified_push_reads_its_norm_map_once(tmp_path, capsys, monkeypatch):
    # the dual cover's norm map is a constant, read once when its
    # evaluator is built, not at each of the 30 fibres
    calls = []
    call = RationalMap.__call__
    monkeypatch.setattr(RationalMap, "__call__", lambda m, b: calls.append(m) or call(m, b))
    doc = json.loads((GOLDEN / "spectral-cover-irreducible.request.json").read_text(encoding="utf-8"))
    code, body = run_cli(tmp_path, capsys, "spectral-cover", doc, "--verify", "30", "--seed", "7")
    assert code == EX_OK and body["verification"]["samples"] == 30
    assert sum(m.degree == 0 for m in calls) == 1


def _nested(root, *levels):
    """root under one elem_mod level per (fibre, steps), innermost first."""
    for fibre, steps in levels:
        root = {"elem_mod": {"parent": root, "fibre": fibre, "steps": steps}}
    return root


_BAD_MIDDLE_AND_OUTER = (([0.9, 0.2], 1), ("x", 1), ([1.1, 0.3], 0))


@pytest.mark.parametrize(
    "make, code, error",
    [
        (
            lambda root: _nested(dict(root, extension=dict(root["extension"], D=5)), *_BAD_MIDDLE_AND_OUTER),
            EX_SCHEMA,
            "bundle.elem_mod.parent.elem_mod.parent.elem_mod.parent.extension.D: expected an object",
        ),
        (
            lambda root: _nested(root, *_BAD_MIDDLE_AND_OUTER),
            EX_SCHEMA,
            "bundle.elem_mod.parent.elem_mod.fibre: expected [re, im] or 'inf'",
        ),
        (
            lambda root: _nested(root, ([0.9, 0.2], 1), ([1.1, 0.3], 0)),
            EX_SCHEMA,
            "bundle: modification step count must be positive",
        ),
        (
            lambda root: _nested(root, ([0.9, 0.2], 1), ([2.1, -0.6], "2"), ([1.1, 0.3], 1)),
            EX_SCHEMA,
            "bundle.elem_mod.parent.elem_mod.steps: expected an integer",
        ),
        (lambda root: {"elem_mod": [1]}, EX_SCHEMA, "bundle.elem_mod: expected an object"),
        (lambda root: _nested(None, ([0.9, 0.2], 1)), EX_SCHEMA, "bundle.elem_mod.parent: expected an object"),
        (lambda root: dict(root, elem_mod=_nested(root, ([0.9, 0.2], 1))["elem_mod"]), EX_OK, None),
    ],
    ids=["root-first", "innermost-level-first", "outer-steps", "middle-steps", "body", "parent", "extension-key-wins"],
)
def test_nested_modifications_report_errors_root_first(tmp_path, capsys, make, code, error):
    # the decoder peels elem_mod levels in a loop: the root is decoded
    # first, then each level's fibre and steps, innermost first
    doc = json.loads((GOLDEN / "spectral-cover-g1-elem-mod-verify.request.json").read_text(encoding="utf-8"))
    root = doc["bundle"]["elem_mod"]["parent"]
    got, body = run_cli(tmp_path, capsys, "spectral-cover", dict(doc, bundle=make(root)))
    assert got == code, body
    if error is not None:
        assert body["error"] == error
    else:  # an extension body is decoded as the extension, whatever else it carries
        assert body == run_cli(tmp_path, capsys, "spectral-cover", dict(doc, bundle=root))[1]


def test_valid_options_still_accepted(tmp_path, capsys):
    plain = run_cli(tmp_path, capsys, "exists", g2_request(0))
    doc = g2_request(0)
    doc["options"] = {"seed": 0, "tol": 1e-9, "verify": 50, "enum_radius": 0}
    assert run_cli(tmp_path, capsys, "exists", doc) == plain


def test_exists_on_ill_conditioned_lattice(tmp_path, capsys):
    doc = {
        "schema": 1,
        "surface": {
            "genus": 2,
            "tau": [3.0, 0.0],
            "lattice": {"rank": 2, "gram": [[100000000, 0], [0, 1]]},
        },
        "chern": {"c1": {"torsion": [0], "hom": [1, 1]}, "c2": 0},
    }
    start = time.perf_counter()
    code, body = run_cli(tmp_path, capsys, "exists", doc)
    assert time.perf_counter() - start < 1.0
    assert code == EX_OK
    assert body["lattice_minimum"] == "100000001/4"
    assert body["delta"] == "100000001/4"


def test_batch(tmp_path, capsys):
    bad = g0_request(0)
    del bad["schema"]
    docs = [g0_request(0), g0_request(-1), bad]
    code, body = run_cli(tmp_path, capsys, "exists", docs, "--batch")
    assert code == EX_SCHEMA  # maximum over 0, 1, 64
    assert [item.get("verdict") for item in body] == ["exists", "not-exists", None]
    assert "error" in body[2]

    req = tmp_path / "notarray.json"
    req.write_text(json.dumps(g0_request(0)), encoding="utf-8")
    assert main(["exists", str(req), "--batch"]) == EX_SCHEMA
    capsys.readouterr()


def test_a_reply_too_long_to_write_is_a_failed_computation(tmp_path, capsys):
    # Python writes no int of more than 4,300 digits: such a reply exits 70
    # like any failed computation, and in a batch only its own item fails
    surface = dict(G2_SURFACE, lattice={"rank": 1, "gram": [[1]]})
    big = {"torsion": [0], "hom": [10**2500]}
    genus = {"schema": 1, "surface": surface, "chern": {"c1": big, "c2": 0}}
    # exists: Delta has 4,300 digits, still writable, but modification_steps 4,301
    wide = {"c1": {"torsion": [0], "hom": [15 * 10**2149]}, "c2": 0}
    for command, doc in (
        ("intersect", {"schema": 1, "surface": surface, "classes": [big, big]}),
        ("genus", genus),
        ("exists", dict(genus, chern=wide)),
    ):
        req = tmp_path / "request.json"
        req.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(req)]) == EX_FAILURE, command
        captured = capsys.readouterr()
        body = json.loads(captured.out)
        assert body["exit_code"] == EX_FAILURE and "integer string conversion" in body["error"]
        assert captured.err == f"error: {body['error']}\n"
    small = dict(genus, chern={"c1": {"torsion": [0], "hom": [1]}, "c2": 0})
    req.write_text(json.dumps([genus, small, genus]), encoding="utf-8")
    assert main(["genus", str(req), "--batch"]) == EX_FAILURE
    captured = capsys.readouterr()
    body = json.loads(captured.out)
    assert captured.out == json.dumps(body, indent=2) + "\n" and captured.err == ""
    assert [item.get("exit_code") for item in body] == [EX_FAILURE, None, EX_FAILURE]
    assert body[1]["genus"] > 0


def test_stdin_and_output_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(g0_request(0))))
    out_path = tmp_path / "response.json"
    code = main(["exists", "-", "--output", str(out_path)])
    assert code == EX_OK
    assert capsys.readouterr().out == ""
    body = json.loads(out_path.read_text(encoding="utf-8"))
    assert body["verdict"] == "exists"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_utf8_is_a_schema_error(tmp_path, capsys, monkeypatch, source):
    raw = b'\xff{"schema": 1}'
    if source == "file":
        path = tmp_path / "request.json"
        path.write_bytes(raw)
        arg = str(path)
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        arg = "-"
    assert main(["exists", arg]) == EX_SCHEMA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read input: 'utf-8' codec can't decode byte 0xff")


def test_input_line_endings_do_not_matter(tmp_path, capsys):
    good = json.dumps(g0_request(0), indent=1)
    bad = good.replace('"genus"', '"genus" 1', 1)
    seen = []
    for text in (good, bad):
        for newline in ("\n", "\r\n", "\r"):
            req = tmp_path / "request.json"
            req.write_bytes(text.replace("\n", newline).encode("utf-8"))
            code = main(["exists", str(req)])
            seen.append((text, code, capsys.readouterr()))
    assert [code for _, code, _ in seen] == [EX_OK] * 3 + [EX_SCHEMA] * 3
    for text in (good, bad):
        outputs = {(out.out, out.err) for t, _, out in seen if t == text}
        assert len(outputs) == 1


def test_output_file_is_replaced_whole(tmp_path, capsys):
    req = tmp_path / "request.json"
    req.write_text(json.dumps(g0_request(0)), encoding="utf-8")
    assert main(["exists", str(req)]) == EX_OK
    expected = capsys.readouterr().out
    out_path = tmp_path / "response.json"
    for old in ("x" * (4 * len(expected)), "", "y"):
        out_path.write_text(old, encoding="utf-8")
        assert main(["exists", str(req), "--output", str(out_path)]) == EX_OK
        assert out_path.read_text(encoding="utf-8") == expected
    # a character device cannot be truncated, and is written all the same
    assert main(["exists", str(req), "--output", os.devnull]) == EX_OK
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [(), ("--batch",)])
def test_output_into_a_missing_directory_is_a_schema_error(tmp_path, capsys, flags):
    req = tmp_path / "request.json"
    doc = g0_request(0)
    req.write_text(json.dumps([doc] if flags else doc), encoding="utf-8")
    out_path = tmp_path / "no" / "such" / "dir" / "reply.json"
    assert main(["exists", str(req), "--output", str(out_path), *flags]) == EX_SCHEMA
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: cannot write output: ")
    assert not out_path.parent.exists()


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_package_imports_without_numpy():
    proc = _fresh_python(
        "-c", 'import ellspec, ellspec.cli, sys; assert "numpy" not in sys.modules'
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_no_dataclasses_inspect_or_argparse():
    # a cold request loads only what it uses: records are built without
    # dataclasses (which pulls in inspect), and argparse waits for a
    # command line that _read_argv declines, such as --help
    proc = _fresh_python(
        "-c",
        "import sys; before = set(sys.modules); import ellspec.cli; "
        "print(sorted({'dataclasses', 'inspect', 'argparse'} & (set(sys.modules) - before)))",
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    proc = _fresh_python("-c", "from ellspec.cli import main; main(['exists', '--help'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ellspec exists")


def test_main_reuses_parser_without_leaking_arguments(tmp_path, capsys):
    doc = {
        "schema": 1,
        "surface": {"genus": 3, "tau": [1.5, 1.5], "lattice": {"rank": 1, "gram": [[2]]}},
        "chern": {"c1": {"torsion": [0], "hom": [1]}, "c2": 0},
    }
    req = tmp_path / "request.json"
    req.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["exists", str(req), "--c2", "-1", "--d", "1"]) == EX_OK
    flagged = capsys.readouterr().out
    code = main(["exists", str(req)])
    plain = capsys.readouterr().out
    assert plain != flagged
    fresh = _fresh_python("-m", "ellspec", "exists", str(req))
    assert (plain, code) == (fresh.stdout, fresh.returncode)


# the reference surface of the benchmark's lattice-ladder workload
LADDER_SURFACE = {"genus": 2, "tau": [3.0, 0.0], "lattice": {"rank": 2, "gram": [[1000, 0], [0, 1]]}}


def test_integer_gram_is_decoded_without_fractions(monkeypatch):
    calls = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda *a, **k: calls.append(1) or new(*a, **k)))
    surface = decode_surface(LADDER_SURFACE)
    assert calls == []
    assert surface.lattice.form == (1000, 0, 1)
    # a half-integer entry is read once, by decode_fraction; the lattice
    # checks it and builds its form without another Fraction
    half = dict(LADDER_SURFACE, lattice={"rank": 2, "gram": [[4, "1/2"], ["1/2", 3]]})
    surface = decode_surface(half)
    assert len(calls) == 2
    assert surface.lattice.form == (4, 1, 3)


@pytest.mark.parametrize("entry", ["1e3000000", "1e-3000000"])
def test_a_huge_decimal_exponent_is_refused_before_it_is_expanded(tmp_path, capsys, entry):
    # ten characters that Fraction would expand for seconds into a number
    # past the int-to-str limit: the request edge refuses the string itself
    doc = g2_request(3)
    doc["surface"]["lattice"] = {"rank": 1, "gram": [[entry]]}
    start = time.perf_counter()
    code, body = run_cli(tmp_path, capsys, "exists", doc)
    assert time.perf_counter() - start < 0.5
    assert code == EX_SCHEMA
    assert body["error"] == f"surface.lattice.gram: rational {entry!r} has more than {sys.get_int_max_str_digits()} digits"


# {K} is one below the int-to-str digit limit: 10**K has exactly the limit's digits
@pytest.mark.parametrize("text", ["1e3", "0.5", "-2.5E-3", " 1_0e1_0 ", "3/4", "1e{K}", "5e-{K}", "0.01e{K}"])
def test_decimal_exponents_within_the_digit_limit_keep_their_value(text):
    text = text.format(K=sys.get_int_max_str_digits() - 1)
    assert surface_module.as_fraction(text) == Fraction(text)
    assert decode_fraction(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e{L}", "0e{L}", "12e{K}", "1e-{L}", "1.5e-{K}", "0e-30000000"])
def test_decimal_exponents_past_the_digit_limit_are_refused(text):
    limit = sys.get_int_max_str_digits()
    text = text.format(K=limit - 1, L=limit)
    with pytest.raises(ValueError, match=f"^rational '{text}' has more than {limit} digits$"):
        surface_module.as_fraction(text)
    with pytest.raises(SchemaError, match=f"^rational: rational '{text}' has more than {limit} digits$"):
        decode_fraction(text)


@pytest.mark.parametrize("text", ["1/2e99999", "1._5e99999", "x1e99999"])
def test_a_malformed_rational_with_a_huge_exponent_stays_malformed(text):
    with pytest.raises(SchemaError, match=f"^rational: malformed rational '{text}'$"):
        decode_fraction(text)


@pytest.mark.parametrize("value, text", [(Fraction(-3, 2), "-3/2"), (Fraction(4), "4"), (4, "4"), (0, "0")])
def test_rationals_are_written_as_str_writes_them(value, text):
    assert encode_fraction(value) == text


@pytest.mark.parametrize("value", [True, 0.5, 2.0, "1/2", None])
def test_only_exact_rationals_are_written(value):
    with pytest.raises(TypeError):
        encode_fraction(value)


# ---------------------------------------------------------- command line


# built once for the module: parse_args keeps no state between calls
PARSER = build_parser()


def _namespace(args) -> str:
    # repr keeps int apart from float and lets nan equal nan
    return repr(sorted(vars(args).items()))


@pytest.mark.parametrize(
    "argv",
    [
        ["exists"],
        ["exists", "-"],
        ["exists", "r.json", "--output", "o.json"],
        ["recipe", "--batch", "r.json", "--output", "o.json"],
        ["spectral-cover", "r.json", "--verify", "50", "--seed", "3", "--tol", "1e-6"],
        ["genus", "--c1", '{"torsion":[0],"hom":[1]}', "--c2", "4", "r.json"],
        ["check", "r.json", "--enum-radius", "3", "--d", "2", "--batch", "--batch"],
    ],
)
def test_common_command_lines_are_read_directly(argv):
    got = _read_argv(argv)
    assert got is not None
    assert _namespace(got) == _namespace(PARSER.parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope", "r.json"],
        ["--help"],
        ["exists", "--help"],
        ["exists", "-h"],
        ["exists", "r.json", "--ver", "3"],
        ["exists", "r.json", "--tol=1e-3"],
        ["exists", "--", "r.json"],
        ["exists", "r.json", "--seed", "-3"],
        ["exists", "r.json", "s.json"],
        ["exists", "r.json", "--tol"],
        ["exists", "r.json", "--tol", "abc"],
    ],
)
def test_other_command_lines_go_to_argparse(argv):
    assert _read_argv(argv) is None


# values each type may take or reject, and values argparse may read as a flag
_PLAIN_VALUES = st.one_of(
    st.sampled_from(["0", "3", "1e-3", "2.5", "nan", "inf", "1_000", " 7 ", "0x10", "abc", ""]),
    st.sampled_from(["r.json", '{"hom":[1]}']),
    st.text(alphabet="0123456789.e rx", max_size=4),
)
_DASHED_VALUES = st.one_of(
    st.sampled_from(["-3", "-1e-3", "-", "--", "-x", "-h", "--help"]),
    st.text(alphabet="-=0123456789.e", min_size=1, max_size=5).map(lambda t: "-" + t),
)
_ACCEPTED_VALUES = {
    int: st.one_of(st.integers(0, 10**6).map(str), st.sampled_from([" 7 ", "1_000", "+2"])),
    float: st.one_of(st.floats(0, 1e6).map(repr), st.sampled_from(["1e-3", "nan", "inf", ".5"])),
    str: _PLAIN_VALUES,
}


@st.composite
def _argvs(draw) -> list[str]:
    argv = [draw(st.sampled_from([*COMMANDS, "nope", "--help", "-"]))] if draw(st.integers(0, 9)) else []
    odd = draw(st.booleans())
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(sorted(_FLAGS)))
        kind = _FLAGS[flag][0]
        if not odd:  # spelled out in full, with a value its type accepts
            argv += [flag] if kind is None else [flag, draw(_ACCEPTED_VALUES[kind])]
            continue
        shape = draw(st.integers(0, 5))
        if shape == 0:  # a switch, or a flag missing its value
            argv.append(flag)
        elif shape == 1:
            argv.append(f"{flag}={draw(_PLAIN_VALUES)}")
        elif shape == 2 and len(flag) > 3:  # an abbreviation
            argv += [flag[: draw(st.integers(3, len(flag) - 1))], draw(_PLAIN_VALUES)]
        elif shape == 3:  # an input, or a second one
            argv.append(draw(_PLAIN_VALUES))
        elif shape == 4:  # a negative number, a dash, or a flag-like token
            argv += [flag, draw(_DASHED_VALUES)] if draw(st.booleans()) else [draw(_DASHED_VALUES)]
        else:  # a value the flag's type may reject
            argv += [flag, draw(_PLAIN_VALUES)]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--batch")
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=_argvs())
def test_direct_argv_reader_agrees_with_argparse(argv):
    got = _read_argv(argv)
    event("read directly" if got is not None else "handed to argparse")
    if got is not None:
        assert _namespace(got) == _namespace(PARSER.parse_args(argv))


# ------------------------------------------------------------ reply text


def emitted(body) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(_dump(body), None)
    return out.getvalue()


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


class _Text(str):
    pass


class _Real(float):
    pass


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u00bd\u2028\U0001f600')))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7e308, 1e16]),
    _TEXT,
    # subclasses, which the writer's exact-type table leaves to its fallback
    st.sampled_from([_Level.LOW, _Level.HIGH]),
    _TEXT.map(_Text),
    st.floats(allow_nan=False, allow_infinity=False).map(_Real),
)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(tree=_TREES)
def test_reply_text_is_json_dumps_indent_2(tree):
    assert emitted(tree) == json.dumps(tree, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "bad",
    [
        math.nan,
        math.inf,
        -math.inf,
        pytest.param(_Real(math.nan), id="real-nan"),
        pytest.param(_Real(-math.inf), id="real--inf"),
    ],
)
def test_non_finite_reply_value_raises(bad):
    tree = {"a": [1, {"b": bad}]}
    with pytest.raises(ValueError):
        json.dumps(tree, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        emitted(tree)
